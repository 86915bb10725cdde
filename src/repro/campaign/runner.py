"""The resilient campaign runner: containment, durability, parallelism.

This module turns the two statistical fault-injection campaigns into
interruptible, resumable, optionally parallel batch jobs:

- **Containment** — every trial runs under a
  :class:`~repro.campaign.guard.TrialGuard` that converts simulator
  exceptions into ``harness-crash`` records and wall-clock overruns into
  ``harness-timeout`` records, instead of aborting the campaign. A
  workload whose golden run fails is skipped with a structured warning
  and annotated in the result tables.
- **Durability** — with a journal path, results stream to an append-only
  JSONL file (one flushed line per trial, behind a manifest carrying a
  config digest). ``resume=True`` replays journaled trials and executes
  only the remainder; because per-trial randomness is derived from
  ``(seed, workload, point, index)``, a resumed run's aggregate tables
  are bit-identical to an uninterrupted run's.
- **Parallelism** — ``jobs > 1`` fans workloads out across processes via
  :mod:`concurrent.futures`. A worker that dies (not a trial that fails —
  the guard already contains those) is retried once in the parent; a
  second failure classifies the workload as skipped rather than raising.
- **Telemetry** — with a journal, the run appends one ``telemetry``
  aggregate entry (per-detector coverage/latency and rollback-distance
  histograms; see :mod:`repro.telemetry.metrics`) after the trial lines;
  ``repro campaign report`` renders it. An optional ``trace`` sink
  receives schema'd ``trial_begin``/``injection``/``trial_end`` events as
  trials complete, so an external observer can follow a campaign live.

The work unit shipped to a worker is one workload: each workload needs
its own golden run and prefix walk anyway, so sharding finer would
duplicate that dominant cost without changing any result (trial records
are fully determined by their derived seeds, never by which process ran
them or in what order).
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from repro import __version__
from repro.campaign.guard import TrialGuard
from repro.campaign.outcomes import (
    OUTCOME_CRASH,
    OUTCOME_OK,
    OUTCOME_TIMEOUT,
    TrialOutcome,
    WorkloadRunOutcome,
)
from repro.util.journal import (
    JournalError,
    JournalTearWarning,
    JournalWriter,
    config_to_dict,
    read_journal,
    stable_digest,
)
from repro.util.tables import format_table

CAMPAIGN_LEVELS = ("arch", "uarch")
JOURNAL_FORMAT = 1


@dataclass(frozen=True)
class ExecutionPolicy:
    """How a campaign executes, as opposed to *what* it measures.

    Kept separate from the scientific configs (whose digests identify a
    run's results) because none of these knobs can change a single trial
    record: ``jobs`` only picks how workloads fan out across processes,
    ``trial_timeout`` only bounds the harness's patience, and
    ``cache_dir`` only memoizes golden artifacts that are bit-identical
    to recomputing them.

    ``jobs=None`` means "use every core" (``os.cpu_count()``);
    ``cache_dir=None`` disables the golden-artifact cache. ``lockstep``
    runs a workload's trials against one golden walk instead of one by
    one: arch trials as dirty-state overlays (see
    :mod:`repro.faults.lockstep`), uarch trials as forks paced with the
    prefix pipeline that retire once their machine state heals (see
    :mod:`repro.faults.uarch_campaign`). Journals are byte-identical
    either way, which is why it lives here and not in the scientific
    config.
    """

    jobs: int | None = None
    trial_timeout: float | None = None
    cache_dir: str | None = None
    lockstep: bool = True

    def __post_init__(self) -> None:
        jobs = self.jobs
        if jobs is None:
            jobs = os.cpu_count() or 1
        if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 1:
            raise ValueError(
                f"jobs must be a positive integer (or None for all "
                f"cores), got {self.jobs!r}"
            )
        object.__setattr__(self, "jobs", jobs)
        if self.trial_timeout is not None and self.trial_timeout <= 0:
            raise ValueError(
                f"trial_timeout must be positive, got {self.trial_timeout}"
            )
        if self.cache_dir is not None and (
            not isinstance(self.cache_dir, str) or not self.cache_dir
        ):
            raise ValueError(
                f"cache_dir must be a non-empty path (or None to disable "
                f"the cache), got {self.cache_dir!r}"
            )
        if not isinstance(self.lockstep, bool):
            raise ValueError(
                f"lockstep must be a bool, got {self.lockstep!r}"
            )


def _campaign_module(level: str):
    # Imported lazily: the campaign modules import repro.campaign for the
    # guard/outcome types, so a module-level import here would be circular.
    if level == "arch":
        from repro.faults import arch_campaign

        return arch_campaign
    if level == "uarch":
        from repro.faults import uarch_campaign

        return uarch_campaign
    raise ValueError(f"unknown campaign level {level!r}; know {CAMPAIGN_LEVELS}")


@dataclass
class CampaignRunReport:
    """The full story of one campaign run, resilient details included."""

    level: str
    config: object
    result: object
    outcomes: list[TrialOutcome]
    executed: int
    resumed: int
    skipped_workloads: tuple[tuple[str, str], ...]
    journal_path: str | None
    jobs: int
    # Golden-artifact cache accounting (zeros when no cache is in use):
    # one hit or miss per executed workload, never reflected in journals.
    cache_dir: str | None = None
    cache_hits: int = 0
    cache_misses: int = 0
    # Adaptive-run accounting (None for uniform campaigns): the planner
    # settings and the aggregate of the per-workload planner summaries.
    planner: object | None = None
    planner_totals: dict | None = None

    def outcome_counts(self) -> dict[str, int]:
        counts = {OUTCOME_OK: 0, OUTCOME_CRASH: 0, OUTCOME_TIMEOUT: 0}
        for outcome in self.outcomes:
            counts[outcome.status] = counts.get(outcome.status, 0) + 1
        return counts

    @property
    def harness_crashes(self) -> int:
        return self.outcome_counts()[OUTCOME_CRASH]

    @property
    def harness_timeouts(self) -> int:
        return self.outcome_counts()[OUTCOME_TIMEOUT]

    def outcome_table(self) -> str:
        counts = self.outcome_counts()
        total = max(1, len(self.outcomes))
        rows = [
            [status, str(count), f"{count / total:.1%}"]
            for status, count in counts.items()
        ]
        return format_table(
            ["outcome", "trials", "share"],
            rows,
            title="Harness outcomes (trial containment)",
        )


@dataclass
class _JournalState:
    """What a prior journal contributes to a resumed run."""

    outcomes: dict[str, list[TrialOutcome]] = field(default_factory=dict)
    done_workloads: dict[str, dict] = field(default_factory=dict)

    def completed_keys(self, workload: str) -> set[str]:
        return {o.key for o in self.outcomes.get(workload, ())}


def _manifest(level: str, config, planner=None) -> dict:
    config_dict = config_to_dict(config)
    manifest = {
        "kind": "manifest",
        "format": JOURNAL_FORMAT,
        "level": level,
        "seed": config.seed,
        "config_digest": stable_digest(config_dict),
        "config": config_dict,
        "version": __version__,
    }
    if planner is not None:
        # Adaptive planning changes which trials exist, so it is part of
        # the journal's scientific identity; non-adaptive manifests stay
        # byte-identical by omitting the key entirely.
        manifest["planner"] = planner.to_dict()
    return manifest


def _load_journal(path: str, level: str, config, planner=None) -> _JournalState | None:
    """Replay a journal into a :class:`_JournalState`.

    Returns ``None`` when the file holds no complete entry at all — the
    residue of a run killed during its *first* append (a torn manifest).
    Such a journal contributes nothing to resume, so the caller rewrites
    it from scratch instead of aborting; refusing here used to brick the
    journal path until the operator deleted the file by hand.
    """
    entries = read_journal(path)
    if not entries:
        warnings.warn(
            f"{path}: journal holds no complete entry (run killed during "
            f"its first append?); starting it fresh",
            JournalTearWarning,
            stacklevel=3,
        )
        return None
    if entries[0].get("kind") != "manifest":
        raise JournalError(f"{path}: missing manifest line; not a campaign journal")
    manifest = entries[0]
    if manifest.get("level") != level:
        raise JournalError(
            f"{path}: journal is for a {manifest.get('level')!r} campaign, "
            f"not {level!r}"
        )
    digest = stable_digest(config_to_dict(config))
    if manifest.get("config_digest") != digest:
        raise JournalError(
            f"{path}: journal was written with a different configuration "
            f"({manifest.get('config_digest')} != {digest}); refusing to "
            f"resume — results would not be comparable"
        )
    expected_planner = planner.to_dict() if planner is not None else None
    if manifest.get("planner") != expected_planner:
        raise JournalError(
            f"{path}: journal planner settings "
            f"{manifest.get('planner')!r} do not match the requested "
            f"{expected_planner!r}; refusing to resume — the planner "
            f"decides which trials exist, so results would not be "
            f"comparable"
        )
    state = _JournalState()
    seen: set[str] = set()
    for entry in entries[1:]:
        kind = entry.get("kind")
        if kind == "trial":
            outcome = TrialOutcome.from_entry(entry, level)
            if outcome.key in seen:
                continue  # a retried workload may have re-journaled a key
            seen.add(outcome.key)
            state.outcomes.setdefault(outcome.workload, []).append(outcome)
        elif kind == "workload":
            state.done_workloads[entry["workload"]] = entry
    return state


def _workload_sentinel(outcome: WorkloadRunOutcome) -> dict:
    entry = {
        "kind": "workload",
        "workload": outcome.workload,
        "status": "skipped" if outcome.skip_reason else "done",
        "total_bits": outcome.total_bits,
    }
    if outcome.skip_reason:
        entry["reason"] = outcome.skip_reason
    if outcome.planner_points is not None:
        # Adaptive runs persist the sampled points and the prescreened
        # subset so a resumed run can replay the planner's rounds (and
        # rebuild the summary) without re-walking the golden trace.
        entry["planner_points"] = list(outcome.planner_points)
        entry["prescreened_points"] = list(outcome.prescreened_points or ())
    return entry


def _emit_trial_events(trace, level: str, outcome: TrialOutcome) -> None:
    """Bracket one completed trial with schema'd trace events."""
    cycle = 0
    position = 0
    record = outcome.record
    if record is not None:
        if level == "uarch":
            cycle = record.inject_cycle
            position = getattr(record, "inject_retired", 0)
        else:
            position = record.inject_step
    trace.emit({
        "kind": "trial_begin", "cycle": cycle, "position": position,
        "workload": outcome.workload, "point": outcome.point,
        "index": outcome.index,
    })
    if record is not None:
        trace.emit({
            "kind": "injection", "cycle": cycle, "position": position,
            "target": getattr(record, "target", "arch"), "bit": record.bit,
        })
    trace.emit({
        "kind": "trial_end", "cycle": cycle, "position": position,
        "status": outcome.status,
    })


def _replayed_summary(planner, config, outcome: WorkloadRunOutcome) -> dict:
    """Rebuild a resumed workload's planner summary from its journaled
    trials (round structure is a pure function of the tallies, so the
    replay reproduces it exactly)."""
    from repro.planner import replay_summary, resolve_budget

    observed = {
        (o.point, o.index): (
            o.status == OUTCOME_OK,
            bool(o.record.failing) if o.record is not None else False,
        )
        for o in outcome.outcomes
    }
    return replay_summary(
        planner,
        outcome.planner_points or (),
        outcome.prescreened_points or (),
        budget=resolve_budget(planner, config),
        outcomes=observed,
    )


def _emit_convergence_events(trace, outcome: WorkloadRunOutcome) -> None:
    """One ``point_converged`` event per stopped injection point."""
    summary = outcome.planner_summary
    if summary is None:
        return
    for row in summary["points"]:
        if not row["converged"]:
            continue
        trace.emit({
            "kind": "point_converged", "cycle": 0, "position": row["point"],
            "workload": outcome.workload, "point": row["point"],
            "trials": row["trials"],
            "margin": 0.0 if row["margin"] is None else row["margin"],
            "prescreened": row["prescreened"],
        })


def _workload_task(
    level: str,
    config,
    workload: str,
    completed: frozenset[str],
    trial_timeout: float | None,
    cache_dir: str | None = None,
    lockstep: bool = True,
    planner=None,
    prior: tuple[TrialOutcome, ...] = (),
) -> WorkloadRunOutcome:
    """One process-pool work unit: run a whole workload under containment."""
    module = _campaign_module(level)
    guard = TrialGuard(timeout=trial_timeout)
    cache = None
    if cache_dir is not None:
        from repro.cache import GoldenArtifactCache

        cache = GoldenArtifactCache(cache_dir)
    extra = {} if planner is None else {"planner": planner, "prior": prior}
    return module.run_workload_trials(
        config, workload, completed=completed, guard=guard, cache=cache,
        lockstep=lockstep, **extra,
    )


def _build_result(level, config, by_workload: dict[str, WorkloadRunOutcome]):
    """Aggregate per-workload outcomes into the campaign result object.

    Trials are ordered by (workload position, point, index) — the order a
    serial, uninterrupted run produces — so resumed and parallel runs
    yield identical result objects and tables.
    """
    trials = []
    ordered_outcomes: list[TrialOutcome] = []
    skipped: list[tuple[str, str]] = []
    for name in config.workloads:
        workload_outcome = by_workload.get(name)
        if workload_outcome is None:
            continue
        if workload_outcome.skip_reason:
            skipped.append((name, workload_outcome.skip_reason))
        for outcome in sorted(workload_outcome.outcomes, key=lambda o: o.order):
            ordered_outcomes.append(outcome)
            if outcome.status == OUTCOME_OK:
                trials.append(outcome.record)
    if level == "arch":
        from repro.faults.arch_campaign import ArchCampaignResult

        result = ArchCampaignResult(
            config, trials, skipped_workloads=tuple(skipped)
        )
    else:
        from repro.faults.uarch_campaign import UarchCampaignResult

        total_bits = max(
            (wo.total_bits for wo in by_workload.values()), default=0
        )
        result = UarchCampaignResult(
            config, trials, total_bits, skipped_workloads=tuple(skipped)
        )
    return result, ordered_outcomes, tuple(skipped)


def run_campaign(
    level: str,
    config,
    *,
    journal_path: str | None = None,
    resume: bool = False,
    jobs: int | None = 1,
    trial_timeout: float | None = None,
    trace=None,
    cache_dir: str | None = None,
    lockstep: bool = True,
    planner=None,
) -> CampaignRunReport:
    """Run a fault-injection campaign resiliently.

    ``journal_path`` enables durable progress (one flushed JSONL line per
    trial; in parallel mode a workload's lines are written once it and
    every earlier workload have finished);
    ``resume`` replays an existing journal and runs only missing trials;
    ``jobs`` fans workloads out across processes (``None`` means one per
    core); ``trial_timeout`` is the per-trial wall-clock budget in
    seconds; ``trace`` is an optional :class:`repro.telemetry.TraceSink`
    receiving per-trial events (emitted from the parent process — with
    ``jobs > 1`` they arrive per completed workload rather than
    interleaved live); ``cache_dir`` points at a shared golden-artifact
    cache directory (see :mod:`repro.cache`) — golden runs are loaded
    from it when present and stored into it when not, with no effect on
    any trial record or journal byte; ``lockstep`` selects the lockstep
    trial schedulers of both levels over their serial twins (journals
    are identical either way).

    ``planner`` (a :class:`repro.planner.PlannerConfig`, arch campaigns
    only) switches the run to adaptive trial allocation: rounds with
    early stopping per injection point plus the masking-equivalence
    prescreen. Unlike the :class:`ExecutionPolicy` knobs it changes
    which trials exist, so it is recorded in the journal manifest and
    must match on resume.

    With ``jobs > 1`` the journal is written in workload order, so it is
    byte-identical to the serial journal: a workload that finishes early
    waits in memory until every earlier workload has been written, as
    adaptive runs always did. Each line is still flushed as it is
    written.
    """
    module = _campaign_module(level)
    if planner is not None and level != "arch":
        raise ValueError(
            "adaptive planning is only supported for arch campaigns "
            f"(got level={level!r})"
        )
    policy = ExecutionPolicy(
        jobs=jobs, trial_timeout=trial_timeout, cache_dir=cache_dir,
        lockstep=lockstep,
    )
    jobs = policy.jobs
    assert jobs is not None  # __post_init__ resolved None to cpu_count
    if resume and journal_path is None:
        raise ValueError("resume requires a journal path")
    cache = None
    if cache_dir is not None:
        from repro.cache import GoldenArtifactCache

        cache = GoldenArtifactCache(cache_dir)

    state = _JournalState()
    writer: JournalWriter | None = None
    if journal_path is not None:
        exists = os.path.exists(journal_path) and os.path.getsize(journal_path) > 0
        loaded: _JournalState | None = None
        if exists:
            if resume:
                loaded = _load_journal(journal_path, level, config, planner)
            elif read_journal(journal_path):
                raise JournalError(
                    f"{journal_path} already exists; pass resume=True "
                    f"(--resume) to continue it, or choose a fresh journal "
                    f"path"
                )
            else:
                # The file holds nothing but a torn fragment (a run killed
                # during its first append); it is safe to overwrite.
                warnings.warn(
                    f"{journal_path}: journal holds no complete entry (run "
                    f"killed during its first append?); starting it fresh",
                    JournalTearWarning,
                    stacklevel=2,
                )
        if loaded is not None:
            state = loaded
            writer = JournalWriter(journal_path, append=True)
        else:
            writer = JournalWriter(journal_path)
            writer.write(_manifest(level, config, planner))

    guard = TrialGuard(timeout=trial_timeout)
    by_workload: dict[str, WorkloadRunOutcome] = {}
    pending: list[str] = []
    resumed = 0
    for name in config.workloads:
        sentinel = state.done_workloads.get(name)
        if sentinel is not None:
            prior = state.outcomes.get(name, [])
            restored = WorkloadRunOutcome(
                name,
                list(prior),
                skip_reason=sentinel.get("reason"),
                total_bits=sentinel.get("total_bits", 0),
            )
            if planner is not None and "planner_points" in sentinel:
                restored.planner_points = tuple(sentinel["planner_points"])
                restored.prescreened_points = tuple(
                    sentinel.get("prescreened_points", ())
                )
                restored.planner_summary = _replayed_summary(
                    planner, config, restored
                )
            by_workload[name] = restored
            resumed += len(prior)
        else:
            pending.append(name)

    executed = 0

    def on_outcome(o: TrialOutcome) -> None:
        if writer is not None:
            writer.write(o.to_entry())
        if trace is not None:
            _emit_trial_events(trace, level, o)

    def finish(name: str, workload_outcome: WorkloadRunOutcome) -> None:
        """Account a workload whose trial lines are written; close it."""
        nonlocal resumed, executed
        prior = state.outcomes.get(name, [])
        resumed += len(prior)
        executed += len(workload_outcome.outcomes)
        workload_outcome.outcomes = prior + workload_outcome.outcomes
        by_workload[name] = workload_outcome
        if trace is not None:
            _emit_convergence_events(trace, workload_outcome)
        if writer is not None:
            writer.write(_workload_sentinel(workload_outcome))

    try:
        if jobs == 1 or len(pending) <= 1:
            for name in pending:
                prior = state.outcomes.get(name, [])
                extra = (
                    {} if planner is None
                    else {"planner": planner, "prior": tuple(prior)}
                )
                finish(name, module.run_workload_trials(
                    config,
                    name,
                    completed=frozenset(o.key for o in prior),
                    guard=guard,
                    on_outcome=on_outcome,
                    cache=cache,
                    lockstep=policy.lockstep,
                    **extra,
                ))
        else:
            task_args: dict[str, tuple] = {
                name: (
                    level, config, name,
                    frozenset(state.completed_keys(name)), trial_timeout,
                    cache_dir, policy.lockstep,
                    *((planner, tuple(state.outcomes.get(name, ())))
                      if planner is not None else ()),
                )
                for name in pending
            }
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                futures = [
                    (name, pool.submit(_workload_task, *task_args[name]))
                    for name in pending
                ]
                # Journals must be byte-identical across job counts, so
                # workloads are written in config order: one that finishes
                # early waits, in memory, until every earlier one is written.
                for name, future in futures:
                    try:
                        workload_outcome = future.result()
                    except Exception as first_error:
                        # The worker process itself died (the guard already
                        # contains trial failures): retry once in-parent,
                        # then classify the workload as skipped.
                        try:
                            workload_outcome = _workload_task(*task_args[name])
                        except Exception as second_error:
                            workload_outcome = WorkloadRunOutcome(
                                name,
                                skip_reason=(
                                    f"worker failed twice: {second_error!r} "
                                    f"(first failure: {first_error!r})"
                                ),
                            )
                    for outcome in workload_outcome.outcomes:
                        on_outcome(outcome)
                    finish(name, workload_outcome)
    finally:
        if writer is not None:
            writer.close()

    result, ordered_outcomes, skipped = _build_result(level, config, by_workload)
    cache_hits = sum(
        1 for wo in by_workload.values() if wo.golden_cache == "hit"
    )
    cache_misses = sum(
        1 for wo in by_workload.values() if wo.golden_cache == "miss"
    )
    planner_totals = None
    if planner is not None:
        from repro.planner import aggregate_planner_summaries

        planner_totals = aggregate_planner_summaries(
            planner,
            [
                by_workload[name].planner_summary
                for name in config.workloads
                if by_workload.get(name) is not None
                and by_workload[name].planner_summary is not None
            ],
        )
    if journal_path is not None:
        # Journal the derived telemetry aggregate after the trial lines.
        # Resume and report always recompute from the trials themselves, so
        # a stale aggregate from an interrupted run is harmless; appending a
        # fresh one keeps the journal's last telemetry entry authoritative.
        from repro.telemetry.metrics import aggregate_campaign

        metrics = aggregate_campaign(
            level,
            [o.record for o in ordered_outcomes if o.status == OUTCOME_OK],
            extra_symptoms=tuple(getattr(config, "detectors", ()) or ()),
        )
        metrics.planner = planner_totals
        with JournalWriter(journal_path, append=True) as tail:
            tail.write(metrics.to_entry())
    return CampaignRunReport(
        level=level,
        config=config,
        result=result,
        outcomes=ordered_outcomes,
        executed=executed,
        resumed=resumed,
        skipped_workloads=skipped,
        journal_path=journal_path,
        jobs=jobs,
        cache_dir=cache_dir,
        cache_hits=cache_hits,
        cache_misses=cache_misses,
        planner=planner,
        planner_totals=planner_totals,
    )
