"""Workers: the processes that actually run leased work units.

:func:`execute_unit` is the entry point every unit runs: rebuild the
spec and unit, run the workload's stride slice under a
:class:`~repro.campaign.guard.TrialGuard`, and return a JSON-able result
(trial entries, skip reason, bit population, and this slice's telemetry
aggregate). It is a top-level function of picklable arguments so a
:class:`~concurrent.futures.ProcessPoolExecutor` can ship it across a
fork.

:class:`LocalWorkerPool` drives it inside the ``repro serve`` process:
asyncio loops, each leasing a batch from the scheduler and running it on
the process pool (so the event loop keeps serving HTTP), completing or
failing each unit as it finishes, with heartbeats keeping the
still-running leases alive. Failures inside ``execute_unit`` (beyond
what the guard already contains) become ``fail`` reports, and the
scheduler's attempt accounting decides whether the unit is requeued or
dead-lettered. A pool process that dies takes the whole process pool
with it; the pool fails the leases it held back to the scheduler and
starts a fresh one.
"""

from __future__ import annotations

import asyncio
import logging
import warnings
from concurrent.futures import BrokenExecutor, Executor, ProcessPoolExecutor

from repro.campaign.guard import TrialGuard
from repro.campaign.outcomes import OUTCOME_OK
from repro.campaign.runner import _campaign_module
from repro.service.shard import WorkUnit
from repro.service.spec import JobSpec

logger = logging.getLogger(__name__)


class WorkerDeliveryWarning(UserWarning):
    """A unit report bounced: the lease was gone, so work may repeat."""


def execute_unit(
    spec_dict: dict, unit_dict: dict, cache_dir: str | None = None
) -> dict:
    """Run one work unit and return its JSON-able result payload.

    ``cache_dir`` is a deployment knob, not part of the job spec: the
    pool's processes share one directory, so the first to reach a
    (workload, config) pays for its golden run and every other shard
    loads it. The ``golden_cache`` field of the result is
    observability only — trial entries are bit-identical either way.
    """
    spec = JobSpec.from_dict(spec_dict)
    unit = WorkUnit.from_dict(unit_dict)
    module = _campaign_module(spec.level)
    guard = TrialGuard(timeout=spec.trial_timeout)
    cache = None
    if cache_dir is not None:
        from repro.cache import GoldenArtifactCache

        cache = GoldenArtifactCache(cache_dir)
    extra: dict = {}
    if spec.planner is not None:
        # Adaptive units execute exactly one planner round: round 0 is
        # derived from the golden trace (the worker reports the point
        # set and prescreen verdicts back as planner metadata), later
        # rounds run the explicit allocation the scheduler attached.
        extra.update(
            planner=spec.planner,
            planner_round=unit.round,
            allocation=unit.allocation,
        )
    outcome = module.run_workload_trials(
        spec.config, unit.workload, guard=guard, shard=unit.shard,
        cache=cache, **extra,
    )
    from repro.telemetry.metrics import aggregate_campaign

    metrics = aggregate_campaign(
        spec.level,
        [o.record for o in outcome.outcomes if o.status == OUTCOME_OK],
        extra_symptoms=tuple(getattr(spec.config, "detectors", ()) or ()),
    )
    result = {
        "outcomes": [o.to_entry() for o in outcome.outcomes],
        "skip_reason": outcome.skip_reason,
        "total_bits": outcome.total_bits,
        "metrics": metrics.to_entry(),
        "golden_cache": outcome.golden_cache,
    }
    if unit.round == 0 and outcome.planner_points is not None:
        result["planner_meta"] = {
            "points": list(outcome.planner_points),
            "prescreened": list(outcome.prescreened_points or ()),
        }
    return result


class LocalWorkerPool:
    """In-process workers for ``repro serve``: asyncio loops over a pool.

    Each of the ``workers`` loops leases up to ``lease_batch`` units
    directly from the scheduler and pipelines the whole batch through
    the executor: by default a process pool of ``workers`` processes
    that the pool owns, so trial execution parallelizes across cores
    while the event loop keeps serving HTTP. The golden-artifact cache
    at ``cache_dir`` is the processes' shared warm store, so only the
    first to reach a (workload, config) pays for its golden run.
    Completed units are reported as each finishes (no batch barrier),
    and the loop heartbeats every still-running lease at a third of the
    TTL. Reports the scheduler refuses (the lease expired under us) are
    counted in ``units_bounced``: a bounced complete means the unit will
    execute twice, which operators should see.

    A pool process that dies (SIGKILL, OOM kill) breaks the whole
    process pool: every unit in flight on it, and every leased unit not
    yet submitted, is failed back to the scheduler, whose attempt
    accounting requeues it. An owned pool is then replaced and the loops
    keep draining. An injected ``executor`` belongs to its caller, so
    instead the loops end with a logged error rather than stall.
    """

    def __init__(
        self,
        scheduler,
        workers: int = 1,
        *,
        executor: Executor | None = None,
        lease_batch: int = 1,
        poll_interval: float = 0.2,
        cache_dir: str | None = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if lease_batch < 1:
            raise ValueError(f"lease_batch must be >= 1, got {lease_batch}")
        self.scheduler = scheduler
        self.workers = workers
        self.lease_batch = lease_batch
        self.poll_interval = poll_interval
        self.cache_dir = cache_dir
        self._executor = executor
        self._owns_executor = executor is None
        self._tasks: list[asyncio.Task] = []
        self.units_done = 0
        self.units_failed = 0
        self.units_bounced = 0

    def start(self) -> None:
        if self._owns_executor and self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.workers)
        loop = asyncio.get_running_loop()
        self._tasks = [
            loop.create_task(self._worker_loop(f"local-{index}"))
            for index in range(self.workers)
        ]

    async def stop(self) -> None:
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._tasks = []
        if self._owns_executor and self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    def _bounce(self, job_id: str, unit_id: str, kind: str) -> None:
        self.units_bounced += 1
        warnings.warn(
            f"{kind} report for {job_id}/{unit_id} bounced (lease "
            f"expired) — the unit may execute twice",
            WorkerDeliveryWarning, stacklevel=2,
        )

    async def _worker_loop(self, name: str) -> None:
        # The executor is only ever None once a broken injected executor
        # has halted the pool.
        while self._executor is not None:
            leases = self.scheduler.lease_batch(name, self.lease_batch)
            if not leases:
                await asyncio.sleep(self.poll_interval)
                continue
            broken = await self._run_batch(name, leases)
            if broken is not None:
                self._replace(broken)

    def _replace(self, broken: Executor) -> None:
        """Swap a broken executor for a fresh process pool, or halt the
        loops when the executor was injected."""
        if self._executor is not broken:
            return  # another loop already dealt with this breakage
        if not self._owns_executor:
            logger.error(
                "local worker pool stopped: its injected executor broke "
                "(a pool process died); queued units wait for another pool"
            )
            self._executor = None
            return
        logger.warning("a pool process died; starting a fresh process pool")
        # Joining the broken pool's threads (about a millisecond) lets the
        # fresh pool fork from a process without other threads, as the
        # first one did.
        broken.shutdown(wait=True)
        self._executor = ProcessPoolExecutor(max_workers=self.workers)

    async def _run_batch(
        self, name: str, leases: list[dict]
    ) -> Executor | None:
        """Pipeline a leased batch through the executor.

        All units are submitted at once so the pool stays saturated;
        each is completed or failed the moment its future resolves (no
        barrier — unit A's complete never waits on unit B's execution),
        and every still-pending lease is heartbeated between wakeups.
        Returns the executor if it broke under the batch, else None.
        """
        loop = asyncio.get_running_loop()
        executor = self._executor
        pending: dict = {}
        interval = max(
            0.05,
            min(lease.get("lease_ttl", 60.0) for lease in leases) / 3,
        )
        for lease in leases:
            pending[self._submit(loop, executor, lease)] = lease["unit"]
        broken = False
        try:
            while pending:
                done, _ = await asyncio.wait(
                    set(pending), timeout=interval,
                    return_when=asyncio.FIRST_COMPLETED,
                )
                for future in done:
                    unit = pending.pop(future)
                    broken |= self._report(name, unit, future)
                for unit in pending.values():
                    self.scheduler.heartbeat(
                        unit["job_id"], unit["unit_id"], name
                    )
        except asyncio.CancelledError:
            for unit in pending.values():
                self.scheduler.fail(
                    unit["job_id"], unit["unit_id"], name, "worker shut down"
                )
            raise
        return executor if broken else None

    def _submit(self, loop, executor: Executor, lease: dict):
        """Start one leased unit on ``executor``.

        A broken executor refuses the submission; that becomes an
        already-failed future, so the lease is failed back to the
        scheduler like the units the breakage killed in flight.
        """
        try:
            return loop.run_in_executor(
                executor, execute_unit,
                lease["spec"], lease["unit"], self.cache_dir,
            )
        except BrokenExecutor as exc:
            future = loop.create_future()
            future.set_exception(exc)
            return future

    def _report(self, name: str, unit: dict, future) -> bool:
        """Deliver one finished future's outcome to the scheduler;
        returns whether the unit failed because the executor broke."""
        job_id, unit_id = unit["job_id"], unit["unit_id"]
        try:
            result = future.result()
        except Exception as exc:
            self.units_failed += 1
            if not self.scheduler.fail(job_id, unit_id, name, repr(exc)):
                self._bounce(job_id, unit_id, "fail")
            return isinstance(exc, BrokenExecutor)
        self.units_done += 1
        if not self.scheduler.complete(job_id, unit_id, name, result):
            self._bounce(job_id, unit_id, "complete")
        return False
