"""Workers: the processes that actually run leased work units.

:func:`execute_unit` is the single entry point a worker of any kind
runs: rebuild the spec and unit, run the workload's stride slice under a
:class:`~repro.campaign.guard.TrialGuard`, and return a JSON-able result
(trial entries, skip reason, bit population, and this slice's telemetry
aggregate). It is a top-level function of picklable arguments so a
:class:`~concurrent.futures.ProcessPoolExecutor` can ship it across a
fork, and it takes/returns plain dicts so the same code serves the HTTP
worker protocol unchanged.

Two drivers wrap it:

- :class:`LocalWorkerPool` — asyncio tasks inside the ``repro serve``
  process, each looping lease → execute (in an executor, so the event
  loop keeps serving HTTP) → complete/fail, with a concurrent heartbeat
  keeping the lease alive for long units.
- :class:`RemoteWorker` — a standalone ``repro worker`` process that
  speaks the same protocol over HTTP through
  :class:`~repro.service.client.ServiceClient`, so a fleet on other
  machines can drain the queue. Heartbeats run on a daemon thread while
  the unit executes.

A finished trial is the most expensive thing a worker holds, so the
remote driver treats result delivery as a transaction against a hostile
network: a ``complete()`` whose retries are exhausted spools the result
to the on-disk :class:`WorkerOutbox` and replays it before the next
lease, heartbeats retry with backoff and only stop when the scheduler
says the lease is gone, and a *bounced* report (the scheduler refused it
because the lease expired — meaning the unit will run twice) is counted
in ``units_bounced`` and surfaced as a :class:`WorkerDeliveryWarning`
instead of vanishing. Failures inside ``execute_unit`` (beyond what the
guard already contains) still become ``fail`` reports, and the
scheduler's attempt accounting decides whether the unit is requeued or
dead-lettered.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import tempfile
import threading
import time
import warnings
from concurrent.futures import Executor, ProcessPoolExecutor

from repro.campaign.guard import TrialGuard
from repro.campaign.outcomes import OUTCOME_OK
from repro.campaign.runner import _campaign_module
from repro.service.client import ServiceClientError
from repro.service.shard import WorkUnit
from repro.service.spec import JobSpec


class WorkerDeliveryWarning(UserWarning):
    """A unit report bounced or had to be spooled — work may repeat."""


def execute_unit(
    spec_dict: dict, unit_dict: dict, cache_dir: str | None = None
) -> dict:
    """Run one work unit and return its JSON-able result payload.

    ``cache_dir`` is a worker-deployment knob, not part of the job spec:
    pointing every worker of a fleet at one shared directory lets the
    first to reach a (workload, config) pay for its golden run and every
    other shard load it. The ``golden_cache`` field of the result is
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


class WorkerOutbox:
    """A durable spool of completed-unit results awaiting delivery.

    One JSON file per undelivered result, written atomically (private
    temp file + ``os.replace``) so a worker killed mid-spool leaves
    either a complete record or nothing — the journal's torn-tail rule
    applied to the worker's side of the protocol. Replay walks the spool
    oldest-first; a retryable delivery error stops the walk (the service
    is unreachable — later files would fail too), a bounce or fatal
    rejection discards the file (the scheduler has authoritatively moved
    on). Files survive worker restarts: a new worker pointed at the same
    directory delivers its predecessor's results instead of letting the
    lease expire and the unit recompute.
    """

    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def _path(self, job_id: str, unit_id: str) -> str:
        tag = hashlib.sha256(f"{job_id}:{unit_id}".encode()).hexdigest()[:16]
        return os.path.join(self.directory, f"{job_id}-{tag}.json")

    def spool(
        self, job_id: str, unit_id: str, worker: str, result: dict
    ) -> str:
        record = {
            "job_id": job_id, "unit_id": unit_id, "worker": worker,
            "result": result,
        }
        path = self._path(job_id, unit_id)
        handle, temp_path = tempfile.mkstemp(
            dir=self.directory, prefix=".spool-", suffix=".tmp"
        )
        try:
            with os.fdopen(handle, "w") as out:
                json.dump(record, out)
                out.flush()
                os.fsync(out.fileno())
            os.replace(temp_path, path)
        except BaseException:
            if os.path.exists(temp_path):
                os.unlink(temp_path)
            raise
        return path

    def pending(self) -> list[str]:
        """Spooled record paths, oldest first."""
        names = [
            name for name in os.listdir(self.directory)
            if name.endswith(".json")
        ]
        paths = [os.path.join(self.directory, name) for name in names]
        return sorted(paths, key=lambda p: (os.path.getmtime(p), p))

    def replay(self, client, chunk_size: int | None = None) -> tuple[int, int]:
        """Attempt to deliver every spooled result through ``client``.

        Returns ``(delivered, bounced)``. Stops early on a retryable
        error (the service is unreachable; the spool stays intact for
        the next attempt). With ``chunk_size`` set, replay streams each
        record in bounded chunks just like first-time delivery; records
        always hold the whole result, so a replay that follows a
        partially delivered stream simply re-sends chunks the trial
        store dedupes.
        """
        delivered = bounced = 0
        for path in self.pending():
            try:
                with open(path) as handle:
                    record = json.load(handle)
            except (OSError, ValueError):
                # A torn or unreadable record cannot be delivered, ever.
                warnings.warn(
                    f"outbox: discarding unreadable spool file {path}",
                    WorkerDeliveryWarning, stacklevel=2,
                )
                os.unlink(path)
                continue
            try:
                if chunk_size is not None:
                    accepted = client.complete_chunked(
                        record["job_id"], record["unit_id"],
                        record["worker"], record["result"], chunk_size,
                    )
                else:
                    accepted = client.complete(
                        record["job_id"], record["unit_id"],
                        record["worker"], record["result"],
                    )
            except ServiceClientError as exc:
                if exc.retryable:
                    break
                warnings.warn(
                    f"outbox: service rejected spooled result for "
                    f"{record['job_id']}/{record['unit_id']}: {exc}",
                    WorkerDeliveryWarning, stacklevel=2,
                )
                os.unlink(path)
                continue
            if accepted:
                delivered += 1
            else:
                bounced += 1
                warnings.warn(
                    f"outbox: spooled result for {record['job_id']}/"
                    f"{record['unit_id']} bounced (lease lost — the unit "
                    f"ran elsewhere)",
                    WorkerDeliveryWarning, stacklevel=2,
                )
            os.unlink(path)
        return delivered, bounced


class LocalWorkerPool:
    """In-process workers for ``repro serve``: asyncio loops over a pool.

    Each of the ``workers`` loops leases up to ``lease_batch`` units
    directly from the scheduler (no HTTP round trip for the built-in
    fleet) and pipelines the whole batch through ``executor`` — a
    process pool by default (``executor_kind="process"``), so trial
    execution parallelizes across cores while the event loop keeps
    serving HTTP; the golden-artifact cache at ``cache_dir`` is the
    fleet's shared warm store, so only the first process to reach a
    (workload, config) pays for its golden run. Completed units are
    reported as each finishes (no batch barrier), and the loop
    heartbeats every still-running lease at a third of the TTL. Reports
    the scheduler refuses (the lease expired under us) are counted in
    ``units_bounced`` — a bounced complete means the unit will execute
    twice, which operators should see.
    """

    def __init__(
        self,
        scheduler,
        workers: int = 1,
        *,
        executor: Executor | None = None,
        executor_kind: str = "process",
        lease_batch: int = 1,
        poll_interval: float = 0.2,
        cache_dir: str | None = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if executor_kind not in ("process", "thread"):
            raise ValueError(
                f"executor_kind must be 'process' or 'thread', "
                f"got {executor_kind!r}"
            )
        if lease_batch < 1:
            raise ValueError(f"lease_batch must be >= 1, got {lease_batch}")
        self.scheduler = scheduler
        self.workers = workers
        self.executor_kind = executor_kind
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
        if self._executor is None:
            if self.executor_kind == "process":
                self._executor = ProcessPoolExecutor(max_workers=self.workers)
            else:
                from concurrent.futures import ThreadPoolExecutor

                self._executor = ThreadPoolExecutor(max_workers=self.workers)
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
        while True:
            leases = self.scheduler.lease_batch(name, self.lease_batch)
            if not leases:
                await asyncio.sleep(self.poll_interval)
                continue
            await self._run_batch(name, leases)

    async def _run_batch(self, name: str, leases: list[dict]) -> None:
        """Pipeline a leased batch through the executor.

        All units are submitted at once so the pool stays saturated;
        each is completed or failed the moment its future resolves (no
        barrier — unit A's complete never waits on unit B's execution),
        and every still-pending lease is heartbeated between wakeups.
        """
        loop = asyncio.get_running_loop()
        pending: dict = {}
        interval = max(
            0.05,
            min(lease.get("lease_ttl", 60.0) for lease in leases) / 3,
        )
        for lease in leases:
            unit = lease["unit"]
            future = loop.run_in_executor(
                self._executor, execute_unit,
                lease["spec"], unit, self.cache_dir,
            )
            pending[future] = unit
        try:
            while pending:
                done, _ = await asyncio.wait(
                    set(pending), timeout=interval,
                    return_when=asyncio.FIRST_COMPLETED,
                )
                for future in done:
                    unit = pending.pop(future)
                    self._report(name, unit, future)
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

    def _report(self, name: str, unit: dict, future) -> None:
        """Deliver one finished future's outcome to the scheduler."""
        job_id, unit_id = unit["job_id"], unit["unit_id"]
        try:
            result = future.result()
        except Exception as exc:
            self.units_failed += 1
            if not self.scheduler.fail(job_id, unit_id, name, repr(exc)):
                self._bounce(job_id, unit_id, "fail")
            return
        self.units_done += 1
        if not self.scheduler.complete(job_id, unit_id, name, result):
            self._bounce(job_id, unit_id, "complete")


class RemoteWorker:
    """A pull-based worker process speaking the HTTP lease protocol.

    With ``lease_batch`` > 1 the worker leases up to that many units per
    round trip (the scheduler grants them under one lease clock) and
    heartbeats the whole batch while draining it unit by unit; with
    ``complete_chunk`` set, each finished unit's results stream back in
    bounded chunks instead of one giant POST. Both knobs amortize the
    per-unit protocol cost that otherwise caps fleet scaling.

    Resilience posture (all counters are public attributes):

    - Lease failures (service unreachable, breaker open) back off
      for ``poll_interval`` and try again — a worker never dies because
      the scheduler restarted.
    - Heartbeats retry on any delivery error (``heartbeat_retries``) and
      stop only when the scheduler answers ``ok: false`` — a single
      transient error must not silently expire a live lease
      (``leases_lost`` counts genuine evictions).
    - A ``complete()`` that exhausts its retries spools the result to
      the :class:`WorkerOutbox` (``outbox_spooled``) and replays it
      before the next lease (``outbox_replayed``) — a finished trial is
      never recomputed because the network hiccuped.
    - Bounced reports (``units_bounced``) are warned about, since they
      mean duplicate execution somewhere in the fleet.
    """

    def __init__(
        self,
        client,
        name: str,
        *,
        poll_interval: float = 0.5,
        max_units: int | None = None,
        exit_when_idle: bool = False,
        cache_dir: str | None = None,
        outbox_dir: str | None = None,
        lease_batch: int = 1,
        complete_chunk: int | None = None,
    ):
        if lease_batch < 1:
            raise ValueError(f"lease_batch must be >= 1, got {lease_batch}")
        if complete_chunk is not None and complete_chunk < 1:
            raise ValueError(
                f"complete_chunk must be >= 1, got {complete_chunk}"
            )
        self.client = client
        self.name = name
        self.poll_interval = poll_interval
        self.max_units = max_units
        self.exit_when_idle = exit_when_idle
        self.cache_dir = cache_dir
        self.lease_batch = lease_batch
        self.complete_chunk = complete_chunk
        if outbox_dir is None:
            outbox_dir = tempfile.mkdtemp(prefix=f"repro-outbox-{name}-")
        self.outbox = WorkerOutbox(outbox_dir)
        self.units_done = 0
        self.units_failed = 0
        self.units_bounced = 0
        self.outbox_spooled = 0
        self.outbox_replayed = 0
        self.heartbeat_retries = 0
        self.leases_lost = 0
        self._stop = threading.Event()
        # Units whose results the service fatally rejected: we still hold
        # their lease, so the scheduler will re-issue them to us — but
        # re-executing yields the same rejected payload. Fail them
        # instead, so the attempt budget (and dead-letter backstop)
        # engages rather than a delivery livelock.
        self._rejected: set[tuple[str, str]] = set()

    def stop(self) -> None:
        self._stop.set()

    def counters(self) -> dict[str, int]:
        """The worker's resilience tallies, for logs and tests."""
        return {
            "units_done": self.units_done,
            "units_failed": self.units_failed,
            "units_bounced": self.units_bounced,
            "outbox_spooled": self.outbox_spooled,
            "outbox_replayed": self.outbox_replayed,
            "heartbeat_retries": self.heartbeat_retries,
            "leases_lost": self.leases_lost,
        }

    def run(self) -> int:
        """Drain the queue until stopped; returns units completed."""
        while not self._stop.is_set():
            outbox_pending = self._flush_outbox()
            if self.max_units is not None and (
                self.units_done + self.units_failed >= self.max_units
            ):
                break
            try:
                leases = self._lease()
            except ServiceClientError as exc:
                if not exc.retryable:
                    raise
                # Unreachable or breaker-open: the queue will come back.
                self._stop.wait(self.poll_interval)
                continue
            if not leases:
                if self.exit_when_idle and not outbox_pending:
                    break
                self._stop.wait(self.poll_interval)
                continue
            self._run_batch(leases)
        self._flush_outbox()
        return self.units_done

    def _lease(self) -> list[dict]:
        """Lease the next batch of work."""
        count = self.lease_batch
        if self.max_units is not None:
            count = min(
                count,
                max(1, self.max_units - self.units_done - self.units_failed),
            )
        return self.client.lease_batch(self.name, count)

    def _fail_rejected(self, job_id: str, unit_id: str) -> None:
        """Surrender a re-issued lease whose results the service rejects."""
        self.units_failed += 1
        try:
            self.client.fail(
                job_id, unit_id, self.name,
                "results undeliverable (rejected by service)",
            )
        except ServiceClientError:
            self._stop.wait(self.poll_interval)

    def _flush_outbox(self) -> bool:
        """Replay spooled results; returns True if any remain spooled."""
        if not self.outbox.pending():
            return False
        try:
            delivered, bounced = self.outbox.replay(
                self.client, self.complete_chunk
            )
        except ServiceClientError:
            return True
        self.outbox_replayed += delivered
        self.units_bounced += bounced
        return bool(self.outbox.pending())

    def _run_batch(self, leases: list[dict]) -> None:
        """Execute a leased batch, unit by unit, under one beat thread.

        Units execute sequentially (a remote worker is one process), but
        every lease in the batch is heartbeated concurrently so the
        units still queued behind the running one never expire. A unit
        whose lease the scheduler reports gone is skipped — it will run
        elsewhere — and each finished unit's results are delivered as it
        completes, not at a batch barrier.
        """
        lock = threading.Lock()
        held: dict[tuple[str, str], dict] = {}
        lost: set[tuple[str, str]] = set()
        for lease in leases:
            unit = lease["unit"]
            held[(unit["job_id"], unit["unit_id"])] = unit
        interval = max(
            0.05,
            min(float(lease.get("lease_ttl", 60.0)) for lease in leases) / 3,
        )
        beat_stop = threading.Event()

        def beat() -> None:
            # Retry forever on delivery errors (the client already
            # applies per-call backoff); only a definitive "ok: false"
            # from the scheduler — that lease is gone — drops a unit
            # from the heartbeat set (and from the work list).
            while not beat_stop.wait(interval):
                with lock:
                    targets = list(held)
                for job_id, unit_id in targets:
                    try:
                        alive = self.client.heartbeat(
                            job_id, unit_id, self.name
                        )
                    except ServiceClientError:
                        self.heartbeat_retries += 1
                        continue
                    if not alive:
                        self.leases_lost += 1
                        with lock:
                            held.pop((job_id, unit_id), None)
                            lost.add((job_id, unit_id))

        beater = threading.Thread(target=beat, daemon=True)
        beater.start()
        try:
            for lease in leases:
                unit = lease["unit"]
                job_id, unit_id = unit["job_id"], unit["unit_id"]
                key = (job_id, unit_id)
                if self._stop.is_set():
                    # Surrender the rest of the batch so it requeues now
                    # instead of after a TTL of silence.
                    with lock:
                        if key in lost:
                            continue
                        held.pop(key, None)
                    try:
                        self.client.fail(
                            job_id, unit_id, self.name, "worker shut down"
                        )
                    except ServiceClientError:
                        pass  # the lease TTL will requeue the attempt
                    continue
                with lock:
                    if key in lost:
                        continue  # expired while queued; runs elsewhere
                if key in self._rejected:
                    with lock:
                        held.pop(key, None)
                    self._fail_rejected(job_id, unit_id)
                    continue
                try:
                    result = execute_unit(lease["spec"], unit, self.cache_dir)
                except Exception as exc:
                    with lock:
                        held.pop(key, None)
                    self.units_failed += 1
                    try:
                        if not self.client.fail(
                            job_id, unit_id, self.name, repr(exc)
                        ):
                            self.units_bounced += 1
                            warnings.warn(
                                f"fail report for {job_id}/{unit_id} bounced "
                                f"(lease expired) — the unit may execute "
                                f"twice",
                                WorkerDeliveryWarning, stacklevel=2,
                            )
                    except ServiceClientError:
                        pass  # the lease TTL will requeue the attempt
                    continue
                with lock:
                    held.pop(key, None)
                self.units_done += 1
                self._deliver(job_id, unit_id, result)
        finally:
            beat_stop.set()
            beater.join(timeout=1.0)

    def _deliver(self, job_id: str, unit_id: str, result: dict) -> None:
        """Report a completed unit, spooling the result if delivery fails.

        Delivery is chunked when ``complete_chunk`` is set; a stream
        that dies mid-chunk spools the *whole* result (never a torn
        suffix) — replay re-sends every chunk, and the ones that already
        landed dedupe on their trial keys.
        """
        try:
            if self.complete_chunk is not None:
                accepted = self.client.complete_chunked(
                    job_id, unit_id, self.name, result, self.complete_chunk
                )
            else:
                accepted = self.client.complete(
                    job_id, unit_id, self.name, result
                )
        except ServiceClientError as exc:
            if exc.retryable:
                self.outbox.spool(job_id, unit_id, self.name, result)
                self.outbox_spooled += 1
                warnings.warn(
                    f"complete for {job_id}/{unit_id} undeliverable "
                    f"({exc}); result spooled to {self.outbox.directory} "
                    f"for replay",
                    WorkerDeliveryWarning, stacklevel=2,
                )
                return
            self.units_bounced += 1
            self._rejected.add((job_id, unit_id))
            warnings.warn(
                f"service rejected result for {job_id}/{unit_id}: {exc}",
                WorkerDeliveryWarning, stacklevel=2,
            )
            return
        if not accepted:
            self.units_bounced += 1
            warnings.warn(
                f"complete report for {job_id}/{unit_id} bounced (lease "
                f"expired) — the unit may execute twice",
                WorkerDeliveryWarning, stacklevel=2,
            )
