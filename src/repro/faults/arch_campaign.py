"""The virtual-machine fault-injection campaign (Figure 2).

Methodology, following Section 3.1 and Section 4.4 of the paper:

1. Run each workload once fault-free, recording the golden trace.
2. Pre-select a set of injection points — dynamic instructions that write a
   register (the paper injected "on a set of about 250-300 points for each
   experiment", with many bits per point making up 12-13k trials).
3. For each trial, fork the machine at the injection point, execute the
   chosen instruction, flip one bit of its result, and monitor propagation:
   the first ISA exception, retired-PC divergence, memory-operation address
   divergence, or store-data divergence, each with its latency in retired
   instructions.
4. A trial fails if it raised an exception, diverged in control flow, ran
   away past the golden run's length, or ended with architectural state
   (registers or memory) different from golden; otherwise the fault was
   masked.

Two execution strategies produce byte-identical journals: the serial path
(one full fork per trial, :func:`_run_trial`) and the lockstep scheduler
(:mod:`repro.faults.lockstep`), which runs every trial of a workload as a
dirty-state overlay against one golden walk. Lockstep is the default; the
serial path remains both the fallback when the scheduler fails and the
differential twin the test suite compares against.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable, Collection, Container
from dataclasses import dataclass, field

from repro.arch.simulator import ArchSimulator, StopReason, load_program
from repro.arch.state import ArchState
from repro.cache import ArchGoldenArtifact, GoldenArtifactCache
from repro.campaign.guard import TrialGuard
from repro.campaign.outcomes import (
    OUTCOME_OK,
    CampaignWorkloadWarning,
    GoldenRunError,
    TrialOutcome,
    WorkloadRunOutcome,
    trial_key,
    validate_shard,
)
from repro.campaign.plan import (
    Allocation,
    PendingTrials,
    pending_trials,
    uniform_allocation,
)
from repro.faults.classify import (
    ARCH_CATEGORIES,
    ArchTrialResult,
    classify_arch_trial,
)
from repro.faults.lockstep import run_lockstep_trials, trial_failed
from repro.faults.models import ArchResultBitFlip
from repro.util.bitops import flip_bit
from repro.util.rng import DeterministicRng
from repro.util.stats import BinomialEstimate, CategoryCounter
from repro.util.tables import format_table
from repro.workloads import WORKLOAD_NAMES, build_workload

# Figure 2's x-axis: symptom-detection latency windows, in instructions.
FIGURE2_WINDOWS: tuple[int | None, ...] = (
    25, 50, 100, 200, 500, 1000, 10_000, 100_000, None,
)

# Architectural checkpoint cadence for cached golden runs, in retired
# instructions — the paper's periodic-checkpoint idea applied to campaign
# startup. Smaller means finer fast-forward granularity but bigger cache
# entries (each snapshot clones the memory image).
ARCH_SNAPSHOT_INTERVAL = 20_000


@dataclass(frozen=True)
class ArchCampaignConfig:
    """Knobs for one campaign run. Defaults scale to a laptop; raise
    ``trials_per_workload`` toward the paper's ~1000 for tighter intervals."""

    trials_per_workload: int = 210
    injection_points: int = 70
    fault_model: ArchResultBitFlip = field(default_factory=ArchResultBitFlip)
    seed: int = 2005
    workload_scale: int = 1
    max_instructions: int = 400_000
    post_injection_slack: int = 2_000
    workloads: tuple[str, ...] = WORKLOAD_NAMES

    def __post_init__(self) -> None:
        if self.trials_per_workload < 1:
            raise ValueError(
                f"trials_per_workload must be >= 1, got {self.trials_per_workload}"
            )
        if self.injection_points < 1:
            raise ValueError(
                f"injection_points must be >= 1, got {self.injection_points}"
            )
        if self.injection_points > self.trials_per_workload:
            raise ValueError(
                f"injection_points ({self.injection_points}) cannot exceed "
                f"trials_per_workload ({self.trials_per_workload}): every "
                f"injection point needs at least one trial"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.workload_scale < 1:
            raise ValueError(
                f"workload_scale must be >= 1, got {self.workload_scale}"
            )
        if self.max_instructions < 1:
            raise ValueError(
                f"max_instructions must be >= 1, got {self.max_instructions}"
            )
        if self.post_injection_slack < 0:
            raise ValueError(
                f"post_injection_slack must be >= 0, got {self.post_injection_slack}"
            )
        if not self.workloads:
            raise ValueError("workloads must not be empty")
        unknown = [name for name in self.workloads if name not in WORKLOAD_NAMES]
        if unknown:
            raise ValueError(f"unknown workloads {unknown}; know {WORKLOAD_NAMES}")


@dataclass
class ArchCampaignResult:
    """All trials of a campaign plus reporting helpers."""

    config: ArchCampaignConfig
    trials: list[ArchTrialResult]
    skipped_workloads: tuple[tuple[str, str], ...] = ()

    def counter(
        self, window: int | None, workload: str | None = None
    ) -> CategoryCounter:
        """Category tallies at one detection-latency window."""
        counter = CategoryCounter(ARCH_CATEGORIES)
        for trial in self.trials:
            if workload is not None and trial.workload != workload:
                continue
            counter.add(classify_arch_trial(trial, window))
        return counter

    @property
    def masked_estimate(self) -> BinomialEstimate:
        masked = sum(1 for trial in self.trials if trial.masked)
        return BinomialEstimate(masked, len(self.trials))

    def failure_coverage(
        self, window: int | None, categories: tuple[str, ...] = ("exception", "cfv")
    ) -> BinomialEstimate:
        """Fraction of *failing* trials whose symptom falls in ``categories``
        within ``window`` — the paper's "nearly 80% of the failure inducing
        faults ... within 100 instructions" number."""
        failing = [trial for trial in self.trials if trial.failing]
        covered = sum(
            1
            for trial in failing
            if classify_arch_trial(trial, window) in categories
        )
        return BinomialEstimate(covered, max(len(failing), 1))

    def fractions(self, window: int | None) -> dict[str, float]:
        counter = self.counter(window)
        return {name: counter.proportion(name) for name in ARCH_CATEGORIES}

    def table(self, windows: tuple[int | None, ...] = FIGURE2_WINDOWS) -> str:
        """The Figure 2 data as an ASCII table (rows = windows)."""
        rows = []
        for window in windows:
            counter = self.counter(window)
            label = "inf" if window is None else str(window)
            rows.append(
                [label]
                + [f"{counter.proportion(name):.1%}" for name in ARCH_CATEGORIES]
            )
        text = format_table(
            ["latency"] + list(ARCH_CATEGORIES),
            rows,
            title="Figure 2: outcome shares vs symptom-detection latency",
        )
        for name, reason in self.skipped_workloads:
            text += f"\nnote: workload {name} skipped ({reason})"
        return text


def run_arch_campaign(config: ArchCampaignConfig) -> ArchCampaignResult:
    """Run the full campaign over every configured workload.

    A thin serial wrapper over :func:`repro.campaign.runner.run_campaign`;
    use that entry point directly for journaling, resume, containment
    budgets, and parallel execution.
    """
    from repro.campaign.runner import run_campaign

    return run_campaign("arch", config).result


def _load_golden(
    config: ArchCampaignConfig,
    workload: str,
    cache: GoldenArtifactCache | None,
):
    """Build the workload and obtain its validated golden trace.

    Returns ``(bundle, trace, golden_cache)``; raises (``GoldenRunError``
    for pathological workloads) when the workload must be skipped.
    """
    golden_cache: str | None = None
    bundle = build_workload(workload, config.workload_scale, config.seed)
    artifact = (
        cache.load("arch", bundle.program, config)
        if cache is not None
        else None
    )
    if artifact is not None:
        trace = artifact.trace
        golden_cache = "hit"
    else:
        golden_sim = load_program(bundle.program)
        trace = golden_sim.run_with_trace(
            config.max_instructions,
            snapshot_every=ARCH_SNAPSHOT_INTERVAL if cache is not None else 0,
        )
    # Validate on *both* paths: a cached golden artifact of a
    # pathological workload (failing golden run, no register writers)
    # must skip exactly like a fresh run would, not crash downstream
    # where the code divides by the injection-point count.
    if trace.exception is not None:
        raise GoldenRunError(
            f"golden run of {workload} raised {trace.exception}"
        )
    if not trace.writer_steps:
        raise GoldenRunError(f"workload {workload} wrote no registers")
    if golden_cache is None and cache is not None:
        cache.store(
            "arch", bundle.program, config, ArchGoldenArtifact(trace=trace)
        )
        golden_cache = "miss"
    return bundle, trace, golden_cache


def sample_points(
    config: ArchCampaignConfig, workload: str, trace
) -> list[int]:
    """The workload's sorted injection points, a pure function of the seed
    and the golden run's register-writing steps."""
    count = min(config.injection_points, len(trace.writer_steps))
    return sorted(
        _workload_rng(config, workload)
        .child("points")
        .sample(trace.writer_steps, count)
    )


def _workload_rng(
    config: ArchCampaignConfig, workload: str
) -> DeterministicRng:
    return DeterministicRng(config.seed).child("arch-campaign").child(workload)


def run_workload_trials(
    config: ArchCampaignConfig,
    workload: str,
    completed: Container[str] = frozenset(),
    guard: TrialGuard | None = None,
    on_outcome: Callable[[TrialOutcome], None] | None = None,
    shard: tuple[int, int] | None = None,
    cache: GoldenArtifactCache | None = None,
    lockstep: bool = True,
    planner=None,
    prior: Collection[TrialOutcome] = (),
    planner_round: int | None = None,
    allocation: tuple[tuple[int, int, int], ...] | None = None,
) -> WorkloadRunOutcome:
    """Execute one workload's trials under containment.

    Each trial draws its randomness from an independent stream derived
    from ``(seed, workload, point, index)``, so any subset of trials —
    a resumed run, a parallel shard — reproduces exactly the records the
    uninterrupted serial campaign would have produced. Trials whose key
    is in ``completed`` (already journaled) are skipped; ``on_outcome``
    observes each fresh outcome as soon as it exists, which is how the
    runner streams results to the journal.

    ``shard=(shard_index, shard_count)`` restricts execution to the
    stride slice of the per-point trial index space with
    ``index % shard_count == shard_index``. A stride (rather than a
    contiguous range) is used because the per-point trial count is only
    known once the golden run has been walked; the stride slices cover
    the index space for any per-point count, so the union of all shards
    is exactly the serial campaign, trial for trial.

    With a :class:`~repro.cache.GoldenArtifactCache`, the golden run,
    comparator indices, and periodic architectural snapshots are loaded
    from (or stored into) the content-addressed store, and the prefix
    simulator fast-forwards from the nearest snapshot at or before the
    first pending injection point instead of stepping from reset. Cached
    and uncached executions are bit-identical.

    With ``lockstep=True`` (the default) all pending trials run through
    the :mod:`repro.faults.lockstep` scheduler against a single golden
    walk and the recorded results are emitted in serial journal order; a
    scheduler failure falls back to the serial per-trial path with a
    warning. Note that per-trial timeout containment is coarser under
    lockstep: the guard wraps only the result emission, so a wedged
    trial surfaces as a scheduler-level failure rather than one
    contained trial record.

    A failing golden run skips the workload with a structured warning
    instead of aborting the campaign.

    An allocation (see :mod:`repro.campaign.plan`) decides which trials
    exist, and every round of them runs through one executor,
    :func:`_execute_round`. Without a ``planner`` the run is one round,
    the uniform split of ``trials_per_workload`` over the points. With a
    :class:`~repro.planner.PlannerConfig` the rounds come from
    :class:`~repro.planner.CampaignPlanner`: round 0 gives every point
    ``min_trials``, later rounds top up points whose Wilson margin is
    still wider than the target, and provably dead points (see
    :mod:`repro.planner.prescreen`) get their masked records without
    simulation. ``prior`` supplies journaled outcomes, which the planner
    observes instead of re-executing them, so a resumed run replays the
    same rounds. The campaign service runs one round per call:
    ``planner_round=0`` plans round 0 and reports the point and
    prescreen metadata; a later ``planner_round`` executes the explicit
    ``allocation`` the scheduler computed.
    """
    guard = guard or TrialGuard()
    validate_shard(shard)
    try:
        bundle, trace, golden_cache = _load_golden(config, workload, cache)
    except Exception as exc:
        reason = f"{type(exc).__name__}: {exc}"
        warnings.warn(
            f"skipping workload {workload}: {reason}",
            CampaignWorkloadWarning,
            stacklevel=2,
        )
        return WorkloadRunOutcome(workload, skip_reason=reason)

    points = sample_points(config, workload, trace)
    wrng = _workload_rng(config, workload)

    def run_round(
        alloc: Allocation, prescreened: Collection[int] = ()
    ) -> list[TrialOutcome]:
        return _execute_round(
            config, workload, bundle, trace,
            pending_trials(wrng, workload, alloc, shard, completed),
            prescreened, guard, on_outcome, lockstep,
        )

    if planner is None:
        return WorkloadRunOutcome(
            workload,
            run_round(uniform_allocation(points, config.trials_per_workload)),
            golden_cache=golden_cache,
        )
    if planner_round is None and shard is not None:
        raise ValueError(
            "sharded adaptive execution requires per-round scheduling "
            "(pass planner_round/allocation)"
        )
    if planner_round:
        # Later rounds never touch prescreened points (they converged by
        # proof), so the scheduler's allocation is all this needs.
        if allocation is None:
            raise ValueError(
                f"round {planner_round} execution needs an explicit "
                f"allocation"
            )
        return WorkloadRunOutcome(
            workload, run_round(sorted(allocation)),
            golden_cache=golden_cache, planner_points=tuple(points),
        )

    from repro.planner import (
        CampaignPlanner,
        prescreen_dead_points,
        resolve_budget,
    )

    prescreened = (
        prescreen_dead_points(trace, points) if planner.prescreen else set()
    )
    rounds = CampaignPlanner(
        planner, points, prescreened, budget=resolve_budget(planner, config)
    )
    meta = dict(
        golden_cache=golden_cache,
        planner_points=tuple(points),
        prescreened_points=tuple(sorted(prescreened)),
    )
    if planner_round == 0:
        return WorkloadRunOutcome(
            workload, run_round(rounds.plan_round(), prescreened), **meta
        )
    known = {(o.point, o.index): o for o in prior}
    fresh: list[TrialOutcome] = []
    while alloc := rounds.plan_round():
        executed = run_round(alloc, prescreened)
        fresh += executed
        known.update(((o.point, o.index), o) for o in executed)
        for point, start, count in alloc:
            for index in range(start, start + count):
                outcome = known[(point, index)]
                rounds.observe(
                    point,
                    ok=outcome.status == OUTCOME_OK,
                    failing=outcome.record is not None
                    and bool(outcome.record.failing),
                )
    return WorkloadRunOutcome(
        workload, fresh, planner_summary=rounds.summary(), **meta
    )


def _execute_round(
    config: ArchCampaignConfig,
    workload: str,
    bundle,
    trace,
    pending: PendingTrials,
    prescreened: Collection[int],
    guard: TrialGuard,
    on_outcome: Callable[[TrialOutcome], None] | None,
    lockstep: bool,
) -> list[TrialOutcome]:
    """Run one round's pending trials and emit them in ``(point, index)``
    order through the guard.

    Trials at ``prescreened`` points get the masked record without
    simulation; their bit still comes from the trial's own stream, so the
    record is the one simulation would produce. The others run in one
    lockstep batch against a single golden walk or, with ``lockstep`` off
    or when the scheduler fails, one fork per trial off a serial prefix
    walk. Rng children are pure (seed, label) derivations, so drawing
    every bit up front is byte-identical to drawing it just before the
    trial runs.
    """
    trials = [
        (point, [(index, config.fault_model.choose_bit(rng), rng)
                 for index, rng in todo])
        for point, todo in pending
    ]
    live = [
        (point, [(index, bit) for index, bit, _ in todo])
        for point, todo in trials
        if point not in prescreened
    ]
    results: dict[tuple[int, int], ArchTrialResult] | None = None
    prefix: ArchSimulator | None = None
    if live:
        # One prefix simulator walks forward through all injection points,
        # starting from the nearest cached snapshot when one is available.
        prefix = _prefix_simulator(bundle, trace, live[0][0])
        if lockstep:
            try:
                results = run_lockstep_trials(
                    config, workload, trace, trace.memop_counts, prefix, live,
                )
                missing = [
                    (point, index)
                    for point, todo in live
                    for index, _ in todo
                    if (point, index) not in results
                ]
                if missing:
                    raise AssertionError(
                        f"lockstep scheduler dropped {len(missing)} trials "
                        f"(first: {missing[0]})"
                    )
            except Exception as exc:
                warnings.warn(
                    f"lockstep scheduler failed for {workload} "
                    f"({type(exc).__name__}: {exc}); falling back to serial "
                    f"trials",
                    CampaignWorkloadWarning,
                    stacklevel=4,
                )
                results = None
                # The scheduler consumed the prefix walker; rebuild it.
                prefix = _prefix_simulator(bundle, trace, live[0][0])

    outcomes: list[TrialOutcome] = []
    for point, todo in trials:
        simulated = point not in prescreened
        if simulated and results is None:
            if prefix.retired < point and prefix.running:
                prefix.run(point - prefix.retired)
                prefix.resume()
            if not prefix.running:  # pragma: no cover - golden ran fine
                break
        for index, bit, trial_rng in todo:
            if not simulated:
                record = ArchTrialResult(
                    workload=workload, inject_step=point, bit=bit
                )
                runner = lambda record=record: record
            elif results is not None:
                runner = lambda key=(point, index): results[key]
            else:
                runner = (
                    lambda point=point, bit=bit: _run_trial(
                        workload, prefix, trace, trace.memop_counts, point,
                        bit, config,
                    )
                )
            outcome = guard.run(
                trial_key(workload, point, index), workload, point, index,
                runner,
                descriptor={
                    "level": "arch",
                    "seed": config.seed,
                    "trial_seed": trial_rng.seed,
                    "bit": bit,
                },
            )
            outcomes.append(outcome)
            if on_outcome is not None:
                on_outcome(outcome)
    return outcomes


def _prefix_simulator(bundle, trace, first_point: int) -> ArchSimulator:
    """A prefix simulator positioned as far forward as snapshots allow.

    ``first_point``, the earliest injection point with a pending trial,
    bounds how far we may fast-forward; the nearest snapshot at or before
    it is restored. With no snapshots (uncached runs) or none early
    enough, the walk starts from reset — exactly the pre-cache behaviour.
    """
    best = None
    for snap in trace.snapshots:
        if snap.retired <= first_point and (
            best is None or snap.retired > best.retired
        ):
            best = snap
    if best is None:
        return load_program(bundle.program)
    sim = ArchSimulator(
        ArchState(regs=list(best.regs), pc=best.pc, memory=best.memory.clone())
    )
    sim.retired = best.retired
    return sim


def _run_trial(
    workload: str,
    prefix: ArchSimulator,
    trace,
    memop_counts: list[int],
    point: int,
    bit: int,
    config: ArchCampaignConfig,
) -> ArchTrialResult:
    faulty = prefix.fork()
    faulty.step()  # execute the chosen instruction
    dest = faulty.last_dest
    if dest < 0:  # pragma: no cover - writer_steps guarantees a destination
        raise AssertionError("injection point wrote no register")
    regs = faulty.state.regs
    regs[dest] = flip_bit(regs[dest], bit)

    golden_pcs = trace.pcs
    golden_memops = trace.memops
    golden_length = len(golden_pcs)

    retired_index = point + 1  # next instruction's index in the golden trace
    memop_index = memop_counts[point]
    exception_latency: int | None = None
    cfv_latency: int | None = None
    memaddr_latency: int | None = None
    memdata_latency: int | None = None

    budget = (golden_length - point) + config.post_injection_slack
    while budget > 0 and faulty.running:
        budget -= 1
        pc = faulty.state.pc
        if cfv_latency is None:
            if retired_index >= golden_length or golden_pcs[retired_index] != pc:
                cfv_latency = retired_index - point
        faulty.step()
        if faulty.stop_reason is StopReason.EXCEPTION:
            exception_latency = retired_index - point
            break
        if not faulty.running:
            break
        memop = faulty.last_memop
        if memop is not None:
            if memop_index < len(golden_memops):
                golden_op = golden_memops[memop_index]
                if memaddr_latency is None and (
                    memop[0] != golden_op[0] or memop[1] != golden_op[1]
                ):
                    memaddr_latency = retired_index - point
                elif (
                    memdata_latency is None
                    and memop[0] == "S"
                    and memop[1] == golden_op[1]
                    and memop[2] != golden_op[2]
                ):
                    memdata_latency = retired_index - point
            memop_index += 1
        retired_index += 1

    failing = trial_failed(faulty, trace, exception_latency, cfv_latency)
    return ArchTrialResult(
        workload=workload,
        inject_step=point,
        bit=bit,
        exception_latency=exception_latency,
        cfv_latency=cfv_latency,
        memaddr_latency=memaddr_latency,
        memdata_latency=memdata_latency,
        failing=failing,
    )

