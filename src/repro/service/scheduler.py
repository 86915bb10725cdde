"""The campaign scheduler: job lifecycle, leases, and finalization.

The scheduler owns every state transition in the service. It shards a
submitted :class:`~repro.service.spec.JobSpec` into work units, hands
units to the local worker pool's loops through a pull-based lease
protocol (lease → heartbeat → complete/fail, with expiry requeue when a
worker stops heartbeating), ingests per-unit results into the
:class:`~repro.service.store.ResultStore`, and — once a job has no unit
left in flight — finalizes it by writing a campaign journal
**bit-identical to a serial ``run_campaign``** of the same spec: the
same manifest, the same trial lines in the same order, the same
workload sentinels, the same trailing telemetry aggregate.

Lease protocol invariants:

- A unit's ``attempts`` counter increments when it is leased, never when
  it is reported. A unit is retired as ``failed`` only once it has been
  attempted ``max_attempts`` times (default 2 — the serial runner's
  retry-once semantics), whether the attempts ended in explicit failure
  reports or silent lease expiries.
- Leases may be granted in batches (up to N units per call, one store
  transaction, one lease clock per batch); every unit in a batch
  completes, fails, or expires individually.
- Results are only accepted from the worker that holds the lease; a
  late or repeated report from a worker that no longer holds it is
  dropped (its trial rows would be ignored anyway — trial ingestion is
  idempotent on the trial key).
- A permanently failed unit marks its workload's sentinel ``skipped``
  (mirroring the parallel runner's worker-died-twice classification);
  the job still finalizes.

The scheduler is synchronous and loop-agnostic: the asyncio API layer
and the in-process worker pool call into it directly, and tests drive it
with a fake clock.
"""

from __future__ import annotations

import json
import os
from collections import deque
from typing import Callable

from repro.campaign.outcomes import TrialOutcome, WorkloadRunOutcome
from repro.campaign.runner import (
    _emit_trial_events,
    _manifest,
    _workload_sentinel,
)
from repro.service.shard import WorkUnit, round_units, shard_job
from repro.service.spec import JobSpec, ServiceError
from repro.service.store import (
    JOB_CANCELLED,
    JOB_DONE,
    JOB_QUEUED,
    JOB_RUNNING,
    JOB_TERMINAL_STATES,
    UNIT_DONE,
    UNIT_FAILED,
    UNIT_LEASED,
    UNIT_PENDING,
    ResultStore,
)
from repro.telemetry.metrics import CounterSet
from repro.util.journal import JournalWriter

#: How many progress events each job retains for SSE replay.
EVENT_HISTORY = 256


def _lease_clock() -> float:
    """The clock lease bookkeeping runs on: monotonic, immune to NTP.

    Lease expiry compares *durations* (now vs. lease start + ttl), so a
    wall-clock step — NTP slew, DST, an operator fixing the date — must
    not mass-expire every live lease (backwards step never reaches
    expiry) or immortalise a dead one (forwards step makes expiry
    unreachable). ``time.monotonic()`` has exactly the right contract.
    """
    import time

    return time.monotonic()


def _wall_clock() -> float:
    """Wall time, used only for human-facing display fields."""
    import time

    return time.time()


class CampaignScheduler:
    """Coordinates jobs, units, workers, and results for the service.

    ``clock`` drives every lease/heartbeat/expiry comparison and defaults
    to :func:`time.monotonic`; ``wall_clock`` supplies the display-only
    ``created``/``finished`` timestamps and defaults to :func:`time.time`
    (or to ``clock`` when a test injects one fake clock for both).
    """

    def __init__(
        self,
        store: ResultStore,
        data_dir: str,
        *,
        lease_ttl: float = 60.0,
        max_attempts: int = 2,
        clock: Callable[[], float] | None = None,
        wall_clock: Callable[[], float] | None = None,
    ):
        if lease_ttl <= 0:
            raise ValueError(f"lease_ttl must be positive, got {lease_ttl}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.store = store
        self.data_dir = data_dir
        self.lease_ttl = lease_ttl
        self.max_attempts = max_attempts
        self.clock = clock or _lease_clock
        self.wall_clock = wall_clock or clock or _wall_clock
        self._specs: dict[str, JobSpec] = {}
        self._events: dict[str, deque] = {}
        self._listeners: dict[str, list[Callable[[dict], None]]] = {}
        #: Protocol-level resilience tallies served by ``GET /api/metrics``.
        self.counters = CounterSet()
        os.makedirs(os.path.join(data_dir, "jobs"), exist_ok=True)
        # Monotonic timestamps do not survive a process restart (each boot
        # has its own epoch), so leases persisted by a previous scheduler
        # carry meaningless expiries. Re-arm them against this process's
        # clock: the worst case is one extra ttl of patience before a
        # genuinely dead worker's unit is requeued.
        self.store.rearm_leases(self.clock() + self.lease_ttl)
        # A crash between a round's final complete and the next round's
        # dispatch would strand an adaptive job forever: with no pending
        # units left, no future complete() re-triggers planning. Replay
        # the planner for every live job on boot — the replay is pure
        # (persisted trials in, persisted state out), so doing it
        # redundantly is harmless.
        for row in self.store.jobs(limit=-1):
            if row["state"] in JOB_TERMINAL_STATES:
                continue
            try:
                if self.spec(row["job_id"]).planner is None:
                    continue
            except ServiceError:
                continue
            self._maybe_finalize(row["job_id"])

    # ----------------------------------------------------------- events

    def _emit(self, job_id: str, kind: str, **payload) -> None:
        event = {"event": kind, "job_id": job_id, **payload}
        self._events.setdefault(job_id, deque(maxlen=EVENT_HISTORY)).append(event)
        for listener in self._listeners.get(job_id, []):
            listener(event)

    def events(self, job_id: str) -> list[dict]:
        """The retained progress-event history for a job."""
        return list(self._events.get(job_id, ()))

    def add_listener(self, job_id: str, listener: Callable[[dict], None]) -> None:
        self._listeners.setdefault(job_id, []).append(listener)

    def remove_listener(
        self, job_id: str, listener: Callable[[dict], None]
    ) -> None:
        listeners = self._listeners.get(job_id, [])
        if listener in listeners:
            listeners.remove(listener)

    # ------------------------------------------------------------- jobs

    def submit(self, spec: JobSpec) -> dict:
        """Accept a job: persist it, shard it, and queue its units."""
        seq = self.store.next_sequence()
        job_id = f"job-{seq:06d}"
        self._specs[job_id] = spec
        self.store.create_job(
            job_id, seq, spec.level, spec.to_dict(), created=self.wall_clock()
        )
        units = shard_job(job_id, spec)
        self.store.add_units(units)
        self._emit(
            job_id, "submitted",
            level=spec.level, units=len(units),
            config_digest=spec.config_digest,
        )
        return self.job_view(job_id)

    def spec(self, job_id: str) -> JobSpec:
        spec = self._specs.get(job_id)
        if spec is None:
            row = self.store.job(job_id)
            if row is None:
                raise ServiceError(f"no such job: {job_id}")
            spec = JobSpec.from_dict(json.loads(row["spec"]))
            self._specs[job_id] = spec
        return spec

    def job_view(self, job_id: str) -> dict:
        """The API-facing status object for one job."""
        row = self.store.job(job_id)
        if row is None:
            raise ServiceError(f"no such job: {job_id}")
        view = {
            "job_id": row["job_id"],
            "state": row["state"],
            "level": row["level"],
            "created": row["created"],
            "finished": row["finished"],
            "error": row["error"],
            "config_digest": self.spec(job_id).config_digest,
            "units": self.store.unit_state_counts(job_id),
            "trials": self.store.trial_count(job_id),
            "outcomes": self.store.outcome_counts(job_id),
            "journal_path": row["journal_path"],
            "trace_path": row["trace_path"],
        }
        if row["metrics"]:
            view["metrics"] = json.loads(row["metrics"])
        return view

    def jobs_view(self, offset: int = 0, limit: int = 50) -> dict:
        rows = self.store.jobs(offset=offset, limit=limit)
        return {
            "total": self.store.job_count(),
            "offset": offset,
            "limit": limit,
            "jobs": [self.job_view(row["job_id"]) for row in rows],
        }

    def cancel(self, job_id: str) -> dict:
        row = self.store.job(job_id)
        if row is None:
            raise ServiceError(f"no such job: {job_id}")
        if row["state"] not in JOB_TERMINAL_STATES:
            self.store.cancel_pending_units(job_id)
            self.store.set_job_state(
                job_id, JOB_CANCELLED, finished=self.wall_clock()
            )
            self._emit(job_id, "cancelled")
        return self.job_view(job_id)

    # ------------------------------------------------------ the lease protocol

    def lease_batch(self, worker: str, count: int) -> list[dict]:
        """Lease up to ``count`` work units to ``worker`` in one call.

        Returns a (possibly empty) list of lease dicts, each
        ``{"unit": ..., "spec": ..., "lease_ttl": ..., "attempt": ...}``.
        Expired leases are swept first so a stalled unit is re-offered
        before untouched ones of later jobs; the whole grant happens in one
        store transaction, and every fresh unit in the batch shares one
        lease clock reading — a batch expires as a whole, not raggedly.

        Units the worker already holds live leases on come first, at the
        same attempt. Worker names are stable across a restart: a
        restarted ``repro serve`` names its loops ``local-0..N-1`` again,
        and the leases its predecessor's loops held were re-armed at boot
        (see :meth:`ResultStore.rearm_leases`). Re-issuing them hands
        each loop its predecessor's units straight back, where an "idle"
        answer would leave them to wait a full TTL and then spend an
        attempt on the expiry.
        """
        if count < 1:
            raise ServiceError(f"lease count must be >= 1, got {count}")
        now = self.clock()
        self.requeue_expired(now)
        units: list[dict] = []
        reissued = self.store.reissue_leases(worker, now, self.lease_ttl, count)
        for unit in reissued:
            self.counters.bump("lease_reissues")
            self._emit(
                unit["job_id"], "lease_reissued",
                unit_id=unit["unit_id"], worker=worker,
                attempt=unit["attempts"],
            )
        units.extend(reissued)
        remaining = count - len(reissued)
        if remaining > 0:
            fresh = self.store.lease_batch(
                worker, now, self.lease_ttl, remaining
            )
            if fresh:
                self.counters.bump("leases_granted", len(fresh))
                if count > 1:
                    self.counters.bump("batch_leases_granted")
                for unit in fresh:
                    job = self.store.job(unit["job_id"])
                    if job is not None and job["state"] == JOB_QUEUED:
                        self.store.set_job_state(unit["job_id"], JOB_RUNNING)
                        self._emit(unit["job_id"], "running")
                    self._emit(
                        unit["job_id"], "leased",
                        unit_id=unit["unit_id"], worker=worker,
                        attempt=unit["attempts"],
                    )
                units.extend(fresh)
        return [self._lease_view(unit) for unit in units]

    def _lease_view(self, unit: dict) -> dict:
        """The worker-facing lease payload for one leased unit row."""
        job_id = unit["job_id"]
        allocation = unit.get("allocation")
        return {
            "unit": WorkUnit(
                job_id=job_id,
                unit_id=unit["unit_id"],
                workload=unit["workload"],
                shard_index=unit["shard_index"],
                shard_count=unit["shard_count"],
                round=unit.get("round", 0) or 0,
                allocation=(
                    tuple(tuple(entry) for entry in json.loads(allocation))
                    if allocation else None
                ),
            ).to_dict(),
            "spec": self.spec(job_id).to_dict(),
            "lease_ttl": self.lease_ttl,
            "attempt": unit["attempts"],
        }

    def heartbeat(self, job_id: str, unit_id: str, worker: str) -> bool:
        """Extend a worker's lease; False means the lease is gone."""
        return self.store.heartbeat(
            job_id, unit_id, worker, self.clock() + self.lease_ttl
        )

    def complete(
        self, job_id: str, unit_id: str, worker: str, result: dict
    ) -> bool:
        """Ingest a finished unit's results. False when ``worker`` does
        not hold the unit's lease (a late report after expiry-requeue, or
        a second complete of a unit already done); the results are
        dropped — the retry attempt regenerates the identical records."""
        unit = self.store.unit(job_id, unit_id)
        accepted = self.store.complete_unit(
            job_id, unit_id, worker,
            skip_reason=result.get("skip_reason"),
            total_bits=int(result.get("total_bits", 0)),
            metrics=result.get("metrics"),
            planner_meta=result.get("planner_meta"),
        )
        if not accepted:
            self.counters.bump("bounced_completes")
            return False
        round_number = (unit.get("round", 0) or 0) if unit is not None else 0
        new = self.store.add_trials(
            job_id,
            self._trial_rows(
                job_id, result.get("outcomes", []), round_number
            ),
        )
        self._emit(
            job_id, "unit_done",
            unit_id=unit_id, worker=worker, trials=new,
            skip_reason=result.get("skip_reason"),
        )
        self._maybe_finalize(job_id)
        return True

    def _trial_rows(
        self, job_id: str, outcomes: list[dict], round_number: int = 0
    ) -> list[tuple]:
        """Store rows for reported trial entries, keyed for serial order."""
        spec = self.spec(job_id)
        positions = {name: i for i, name in enumerate(spec.config.workloads)}
        return [
            (
                entry["key"],
                positions.get(entry["workload"], len(positions)),
                round_number,
                entry["workload"],
                entry["point"],
                entry["index"],
                entry["status"],
                json.dumps(entry),
            )
            for entry in outcomes
        ]

    def fail(
        self, job_id: str, unit_id: str, worker: str, error: str
    ) -> bool:
        """Record an attempt failure: requeue the unit, or retire it once
        it has exhausted ``max_attempts``."""
        unit = self.store.unit(job_id, unit_id)
        if unit is None or unit["state"] != UNIT_LEASED or unit["worker"] != worker:
            self.counters.bump("bounced_fails")
            return False
        self._retire_or_requeue(unit, error)
        self._maybe_finalize(job_id)
        return True

    def requeue_expired(self, now: float | None = None) -> int:
        """Sweep expired leases back into the queue (or retire them)."""
        if now is None:
            now = self.clock()
        expired = self.store.expired_units(now)
        if expired:
            self.counters.bump("lease_expiries", len(expired))
        for unit in expired:
            self._retire_or_requeue(
                unit,
                f"lease expired (worker {unit['worker']!r} stopped "
                f"heartbeating)",
            )
            self._maybe_finalize(unit["job_id"])
        return len(expired)

    def _retire_or_requeue(self, unit: dict, error: str) -> None:
        job_id, unit_id = unit["job_id"], unit["unit_id"]
        if unit["attempts"] >= self.max_attempts:
            self.store.release_unit(
                job_id, unit_id, state=UNIT_FAILED,
                error=f"{error} (attempt {unit['attempts']} of "
                      f"{self.max_attempts})",
            )
            self.counters.bump("units_dead_lettered")
            self._emit(job_id, "unit_failed", unit_id=unit_id, error=error)
        else:
            self.counters.bump("units_requeued")
            self.store.release_unit(
                job_id, unit_id, state=UNIT_PENDING, error=error
            )
            self._emit(job_id, "unit_requeued", unit_id=unit_id, error=error)

    # ----------------------------------------------- the dead-letter queue

    def dead_letter_view(self, job_id: str | None = None) -> dict:
        """Attempt-exhausted units, queryable instead of just vanished.

        A dead-lettered unit has spent its ``max_attempts`` budget on
        failure reports and/or silent lease expiries; its workload's
        sentinel is marked skipped but the unit itself stays addressable
        so an operator can inspect the error chain and requeue it."""
        if job_id is not None and self.store.job(job_id) is None:
            raise ServiceError(f"no such job: {job_id}")
        units = self.store.dead_letter_units(job_id)
        return {
            "total": len(units),
            "units": [
                {
                    "job_id": unit["job_id"],
                    "unit_id": unit["unit_id"],
                    "workload": unit["workload"],
                    "attempts": unit["attempts"],
                    "error": unit["error"],
                }
                for unit in units
            ],
        }

    def requeue_unit(self, job_id: str, unit_id: str) -> dict:
        """Return a dead-lettered unit to the queue with a fresh attempt
        budget, reopening a finalized job so it re-finalizes (and its
        journal is rebuilt without the skip sentinel) once the unit
        completes."""
        job = self.store.job(job_id)
        if job is None:
            raise ServiceError(f"no such job: {job_id}")
        if job["state"] == JOB_CANCELLED:
            raise ServiceError(f"{job_id} is cancelled; cannot requeue units")
        unit = self.store.unit(job_id, unit_id)
        if unit is None:
            raise ServiceError(f"no such unit: {job_id}/{unit_id}")
        if not self.store.requeue_unit(job_id, unit_id):
            raise ServiceError(
                f"unit {job_id}/{unit_id} is not dead-lettered "
                f"(state: {unit['state']})"
            )
        self.counters.bump("dead_letter_requeues")
        if job["state"] == JOB_DONE:
            self.store.set_job_state(job_id, JOB_RUNNING)
            self._emit(job_id, "reopened", unit_id=unit_id)
        self._emit(
            job_id, "unit_requeued", unit_id=unit_id,
            error="requeued from dead-letter queue",
        )
        return self.job_view(job_id)

    def service_metrics(self) -> dict:
        """The service-wide resilience counters for ``GET /api/metrics``."""
        return {
            "counters": self.counters.to_entry(),
            "dead_letter": self.store.dead_letter_count(),
            "jobs": self.store.job_count(),
        }

    # ------------------------------------------------- adaptive planning

    def _advance_planner(self, job_id: str) -> None:
        """Drive an adaptive job's round progression, workload by workload.

        Called after every unit completion (and at startup for running
        jobs, so a scheduler restart between a round's last complete and
        the next round's dispatch cannot strand the job). All planner
        state is reconstructed from the store — done units' persisted
        metadata plus ingested trial rows — by replaying the planner's
        deterministic round structure, so the scheduler never relies on
        in-memory state surviving.
        """
        spec = self.spec(job_id)
        if spec.planner is None:
            return
        by_workload: dict[str, list[dict]] = {}
        for unit in self.store.units(job_id):
            by_workload.setdefault(unit["workload"], []).append(unit)
        for workload in spec.config.workloads:
            self._advance_workload_planner(
                job_id, spec, workload, by_workload.get(workload, [])
            )

    def _advance_workload_planner(
        self, job_id: str, spec: JobSpec, workload: str, units: list[dict]
    ) -> None:
        from repro.planner import CampaignPlanner, resolve_budget

        state = self.store.planner_state(job_id, workload)
        if state is None:
            round0 = [u for u in units if (u["round"] or 0) == 0]
            done = [u for u in round0 if u["state"] == UNIT_DONE]
            if not round0 or len(done) < len(round0):
                return  # round 0 still in flight (or failed: halt here)
            if any(u["skip_reason"] for u in done):
                # The workload's golden run failed; there are no rounds.
                self.store.set_planner_state(
                    job_id, workload, {"skipped": True}
                )
                return
            meta = next(
                (json.loads(u["planner_meta"])
                 for u in done if u["planner_meta"]),
                None,
            )
            if meta is None:
                return  # no metadata reported; cannot plan further rounds
            state = {
                "points": meta["points"],
                "prescreened": meta["prescreened"],
            }
            self.store.set_planner_state(job_id, workload, state)
        if state.get("skipped") or "summary" in state or not state.get("points"):
            return
        if any(u["state"] == UNIT_FAILED for u in units):
            return  # a dead-lettered round halts progression until requeued
        planner = CampaignPlanner(
            spec.planner, state["points"], state.get("prescreened", ()),
            budget=resolve_budget(spec.planner, spec.config),
        )
        entries = self.store.trial_entries(job_id, workload=workload, limit=-1)
        observed = {
            (entry["point"], entry["index"]): (
                entry["status"] == "ok",
                bool((entry.get("record") or {}).get("failing")),
            )
            for entry in entries
        }
        emitted = {u["unit_id"] for u in units}
        round_number = 0
        while True:
            allocation = planner.plan_round()
            if not allocation:
                state["summary"] = planner.summary()
                self.store.set_planner_state(job_id, workload, state)
                return
            have_all = all(
                (point, index) in observed
                for point, start, count in allocation
                for index in range(start, start + count)
            )
            if have_all:
                for point, start, count in allocation:
                    for index in range(start, start + count):
                        ok, failing = observed[(point, index)]
                        planner.observe(point, ok=ok, failing=failing)
                round_number += 1
                continue
            # This round's trials are incomplete: dispatch its units if
            # they have not been emitted yet, then wait for completes.
            new_units = round_units(
                job_id, spec, workload, round_number, allocation
            )
            if new_units[0].unit_id not in emitted:
                self.store.add_units(new_units)
                self.counters.bump("planner_rounds_dispatched")
                self._emit(
                    job_id, "planner_round",
                    workload=workload, round=round_number,
                    units=len(new_units),
                    trials=sum(count for _, _, count in allocation),
                )
            return

    # ----------------------------------------------------- finalization

    def _maybe_finalize(self, job_id: str) -> None:
        job = self.store.job(job_id)
        if job is None or job["state"] in JOB_TERMINAL_STATES:
            return
        # Adaptive jobs plan before they settle: dispatching the next
        # round here (rather than only in complete()) means every path
        # that could finalize — completes, failures, lease expiries,
        # startup recovery — first checks whether more rounds are owed,
        # so a job can never finalize with rounds undispatched.
        self._advance_planner(job_id)
        counts = self.store.unit_state_counts(job_id)
        if counts.get(UNIT_PENDING, 0) or counts.get(UNIT_LEASED, 0):
            return
        self._finalize(job_id)

    def _finalize(self, job_id: str) -> None:
        """Assemble the job's journal — bit-identical to a serial run's.

        A serial ``run_campaign`` writes: the manifest; then, workload by
        workload in config order, each trial line in (point, index) order
        followed by the workload sentinel; then one telemetry aggregate.
        The store indexes trials by (workload position, point, index) and
        the per-unit metrics merge exactly (integer tallies), so this
        reconstruction reproduces that byte stream without re-running
        anything — the serial-equivalence invariant the end-to-end tests
        pin down.
        """
        from repro.telemetry.metrics import (
            CampaignMetrics,
            aggregate_campaign,
            merge_campaign_metrics,
        )

        spec = self.spec(job_id)
        level = spec.level
        units = self.store.units(job_id)
        by_workload: dict[str, list[dict]] = {}
        for unit in units:
            by_workload.setdefault(unit["workload"], []).append(unit)

        journal_path = os.path.join(self.data_dir, "jobs", f"{job_id}.jsonl")
        trace_path: str | None = None
        trace_sink = None
        if spec.trace:
            from repro.telemetry.sinks import JsonlTraceSink

            trace_path = os.path.join(
                self.data_dir, "jobs", f"{job_id}.trace.jsonl"
            )
            trace_sink = JsonlTraceSink(trace_path)

        part_metrics: list[CampaignMetrics] = []
        skipped: list[str] = []
        try:
            with JournalWriter(journal_path) as writer:
                writer.write(_manifest(level, spec.config, spec.planner))
                for workload in spec.config.workloads:
                    workload_units = by_workload.get(workload, [])
                    entries = self.store.trial_entries(
                        job_id, workload=workload, limit=-1
                    )
                    for entry in entries:
                        writer.write(entry)
                        if trace_sink is not None:
                            _emit_trial_events(
                                trace_sink, level,
                                TrialOutcome.from_entry(entry, level),
                            )
                    failed = [
                        u for u in workload_units if u["state"] == UNIT_FAILED
                    ]
                    done = [
                        u for u in workload_units if u["state"] == UNIT_DONE
                    ]
                    skip_reason = None
                    if failed:
                        skip_reason = "; ".join(
                            f"unit {u['unit_id']}: {u['error']}" for u in failed
                        )
                        skipped.append(workload)
                    elif done and done[0]["skip_reason"]:
                        # The workload itself could not run (its golden run
                        # failed) — every shard reports the identical reason,
                        # which is exactly the serial runner's sentinel.
                        skip_reason = done[0]["skip_reason"]
                        skipped.append(workload)
                    elif not done:
                        # Every unit was cancelled before running.
                        continue
                    planner_points = None
                    prescreened_points = None
                    if spec.planner is not None and skip_reason is None:
                        state = self.store.planner_state(job_id, workload)
                        if state and state.get("points"):
                            planner_points = tuple(state["points"])
                            prescreened_points = tuple(
                                state.get("prescreened", ())
                            )
                    writer.write(_workload_sentinel(WorkloadRunOutcome(
                        workload,
                        skip_reason=skip_reason,
                        total_bits=max(
                            (u["total_bits"] or 0 for u in workload_units),
                            default=0,
                        ),
                        planner_points=planner_points,
                        prescreened_points=prescreened_points,
                    )))
                    for unit in workload_units:
                        if unit["state"] == UNIT_DONE and unit["metrics"]:
                            part_metrics.append(
                                CampaignMetrics.from_entry(
                                    json.loads(unit["metrics"])
                                )
                            )
                if part_metrics:
                    metrics = merge_campaign_metrics(part_metrics)
                else:
                    metrics = aggregate_campaign(
                        level,
                        [],
                        extra_symptoms=tuple(
                            getattr(spec.config, "detectors", ()) or ()
                        ),
                    )
                if spec.planner is not None:
                    from repro.planner import aggregate_planner_summaries

                    summaries = []
                    for workload in spec.config.workloads:
                        state = self.store.planner_state(job_id, workload)
                        if state and state.get("summary"):
                            summaries.append(state["summary"])
                    totals = aggregate_planner_summaries(
                        spec.planner, summaries
                    )
                    metrics.planner = totals
                    self.counters.bump(
                        "planner_trials_saved", totals["trials_saved"]
                    )
                    self.counters.bump(
                        "planner_prescreen_trials", totals["prescreen_trials"]
                    )
                metrics_entry = metrics.to_entry()
                writer.write(metrics_entry)
        finally:
            if trace_sink is not None:
                trace_sink.close()

        error = None
        if skipped:
            error = f"skipped workloads: {', '.join(skipped)}"
        # ``error`` is written unconditionally (even as None): a job
        # re-finalized after a dead-letter requeue must shed the stale
        # "skipped workloads" note once every unit has completed.
        self.store.finalize_job(
            job_id, state=JOB_DONE, journal_path=journal_path,
            trace_path=trace_path, metrics=metrics_entry,
            finished=self.wall_clock(), error=error,
        )
        self._emit(
            job_id, "done",
            journal_path=journal_path, trials=self.store.trial_count(job_id),
            skipped=skipped,
        )
