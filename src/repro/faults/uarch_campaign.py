"""The microarchitectural fault-injection campaign (Figures 4-6, §5.1.2).

Methodology, following Section 4:

1. Run each workload's pipeline once fault-free, collecting the golden
   retired stream, injectable-state snapshots at the pre-selected
   trial-end cycles, a full machine checkpoint at every injection point,
   and the final architectural state.
2. Pre-select injection cycles ("the fault injections were performed on a
   set of about 250-300 points for each experiment") and bring one prefix
   pipeline to each point, forking it there. The prefix restores golden's
   checkpoint at the point; it steps only while some trial's fork is
   still pacing against it (step 3).
3. Each trial flips one uniformly-chosen state bit in the fork (caches and
   predictor tables excluded, as in the paper) and monitors the machine for
   a window of cycles (the paper used 10,000; default scaled down), with
   the retired stream compared against golden on the fly. Under lockstep
   (the default) the forks step along with the prefix walk, and a fork
   whose machine state heals back to the prefix's retires at once: the
   rest of its window would replay golden.
4. Outcomes (Table 2): watchdog saturation -> deadlock; a retired ISA
   exception absent from golden -> exception; retired-PC divergence -> cfv
   (with the JRS-gated detection latency recorded separately for Figure 5);
   retired value/store divergence or corrupt final state -> sdc; a flip
   still sitting in architecturally-relevant storage -> latent; residual
   differences in failure-unlikely state -> other; full convergence ->
   masked.

One campaign serves all three figures: Figure 4 classifies with perfect
control-flow-violation identification, Figure 5 requires JRS-flagged
detection, and Figure 6 reinterprets flips that landed on parity/ECC
protected state classes via a :class:`~repro.restore.hardened.ProtectionMap`
(ECC-corrected flips become harmless latents — the paper's bigger *other*
category — and parity-recovered flips are masked). The §5.1.2 latch-only
study filters the same trials by state class.
"""

from __future__ import annotations

import warnings
from bisect import bisect_right
from collections import deque
from collections.abc import Callable, Container
from dataclasses import dataclass, field
from operator import itemgetter
from time import perf_counter

from repro.cache import GoldenArtifactCache, UarchGoldenArtifact
from repro.campaign.guard import TrialGuard
from repro.campaign.outcomes import (
    CampaignWorkloadWarning,
    TrialOutcome,
    WorkloadRunOutcome,
    trial_key,
    validate_shard,
)
from repro.campaign.plan import pending_trials, uniform_allocation
from repro.faults.classify import (
    UARCH_CATEGORIES,
    UarchTrialResult,
    classify_uarch_trial,
)
from repro.faults.models import StateBitFlip
from repro.restore.hardened import ProtectionMap
from repro.restore.symptoms import MEMHIER_DETECTOR_NAMES, build_memhier_detectors
from repro.uarch.latches import LATCH_CLASSES
from repro.uarch.pipeline import Pipeline, PipelineCheckpoint, load_pipeline
from repro.util.rng import DeterministicRng
from repro.util.stats import BinomialEstimate, CategoryCounter
from repro.util.tables import format_table
from repro.workloads import WORKLOAD_NAMES, build_workload

# Figures 4-6 x-axis: checkpoint intervals in instructions.
FIGURE46_INTERVALS: tuple[int, ...] = (25, 50, 100, 200, 500, 1000, 2000)

# Lockstep pacing: live shadows step with the prefix walk in chunks of
# this many cycles, and after each chunk every shadow's machine state is
# compared with the prefix's.
LOCKSTEP_CHUNK_CYCLES = 50


@dataclass(frozen=True)
class UarchCampaignConfig:
    """Campaign knobs; scale trial counts up toward the paper's 12-13k."""

    trials_per_workload: int = 84
    injection_points: int = 28
    window_cycles: int = 2500  # paper: 10,000
    warmup_cycles: int = 250
    seed: int = 2005
    workload_scale: int = 1
    fault_model: StateBitFlip = field(default_factory=StateBitFlip)
    workloads: tuple[str, ...] = WORKLOAD_NAMES
    max_golden_cycles: int = 200_000
    record_cache_symptoms: bool = False
    # Memory-hierarchy ablation knobs. Both are journal-omitted at their
    # defaults (``omit_default``) so campaigns that never enable them keep
    # manifests, digests, and golden-cache keys byte-identical to journals
    # written before the fields existed.
    memhier_targets: bool = field(default=False, metadata={"omit_default": True})
    detectors: tuple[str, ...] = field(default=(), metadata={"omit_default": True})

    def __post_init__(self) -> None:
        if not isinstance(self.detectors, tuple):
            # Service specs arrive as JSON lists; normalise before the
            # config is hashed so serial and service digests agree.
            object.__setattr__(self, "detectors", tuple(self.detectors))
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
        if self.window_cycles < 1:
            raise ValueError(
                f"window_cycles must be >= 1, got {self.window_cycles}"
            )
        if self.warmup_cycles < 0:
            raise ValueError(
                f"warmup_cycles must be >= 0, got {self.warmup_cycles}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.workload_scale < 1:
            raise ValueError(
                f"workload_scale must be >= 1, got {self.workload_scale}"
            )
        if self.max_golden_cycles < 1:
            raise ValueError(
                f"max_golden_cycles must be >= 1, got {self.max_golden_cycles}"
            )
        if not self.workloads:
            raise ValueError("workloads must not be empty")
        unknown = [name for name in self.workloads if name not in WORKLOAD_NAMES]
        if unknown:
            raise ValueError(f"unknown workloads {unknown}; know {WORKLOAD_NAMES}")
        unknown_detectors = [
            name for name in self.detectors if name not in MEMHIER_DETECTOR_NAMES
        ]
        if unknown_detectors:
            raise ValueError(
                f"unknown detectors {unknown_detectors}; "
                f"know {MEMHIER_DETECTOR_NAMES}"
            )

    @property
    def record_memhier_symptoms(self) -> bool:
        """Whether pipelines must emit stall-streak/spurious-memop events.

        Miss-rate spikes ride on the ordinary cache/TLB-miss handler calls;
        the other two detectors need the opt-in event streams.
        """
        return bool({"stall_outlier", "spurious_memop"} & set(self.detectors))


@dataclass
class UarchCampaignResult:
    """All trials plus the classification views used by Figures 4-6."""

    config: UarchCampaignConfig
    trials: list[UarchTrialResult]
    total_bits: int = 0
    skipped_workloads: tuple[tuple[str, str], ...] = ()

    def counter(
        self,
        interval: int | None,
        workload: str | None = None,
        require_confident_cfv: bool = False,
        protection: ProtectionMap | None = None,
        classes: tuple[str, ...] | None = None,
    ) -> CategoryCounter:
        counter = CategoryCounter(UARCH_CATEGORIES)
        for trial in self._select(workload, classes):
            counter.add(
                self._classify(trial, interval, require_confident_cfv, protection)
            )
        return counter

    def _select(
        self, workload: str | None, classes: tuple[str, ...] | None
    ) -> list[UarchTrialResult]:
        selected = self.trials
        if workload is not None:
            selected = [t for t in selected if t.workload == workload]
        if classes is not None:
            allowed = set(classes)
            selected = [t for t in selected if t.state_class in allowed]
        return selected

    @staticmethod
    def _classify(
        trial: UarchTrialResult,
        interval: int | None,
        require_confident_cfv: bool,
        protection: ProtectionMap | None,
    ) -> str:
        if protection is not None:
            kind = protection.protection_of_parts(trial.target, trial.state_class)
            if kind == "ecc":
                # Corrected in place; the flip is a harmless latent
                # ("covered by ECC and will not cause data corruption").
                return "other" if trial.failing or trial.uarch_latent else "masked"
            if kind == "parity":
                # Detected on read and recovered by flush/refetch.
                return "masked"
        return classify_uarch_trial(trial, interval, require_confident_cfv)

    # ------------------------------------------------------------- headline

    def masked_estimate(
        self, protection: ProtectionMap | None = None
    ) -> BinomialEstimate:
        good = sum(
            1
            for trial in self.trials
            if self._classify(trial, None, False, protection) in ("masked", "other")
        )
        return BinomialEstimate(good, len(self.trials))

    def baseline_failure_estimate(self) -> BinomialEstimate:
        """Failures with no detection at all (the paper's ~7%)."""
        failing = sum(1 for trial in self.trials if trial.failing)
        return BinomialEstimate(failing, len(self.trials))

    def failure_estimate(
        self,
        interval: int | None,
        require_confident_cfv: bool = True,
        protection: ProtectionMap | None = None,
    ) -> BinomialEstimate:
        """Residual failures when covered symptoms are recovered: the
        trials classified sdc or latent at this interval."""
        residual = 0
        for trial in self.trials:
            category = self._classify(
                trial, interval, require_confident_cfv, protection
            )
            if category in ("sdc", "latent"):
                residual += 1
        return BinomialEstimate(residual, len(self.trials))

    def coverage_of_failures(
        self,
        interval: int | None,
        require_confident_cfv: bool = False,
        classes: tuple[str, ...] | None = None,
    ) -> BinomialEstimate:
        """Fraction of failing trials covered by deadlock/exception/cfv
        within the interval (the paper's "half of all failures" at 100)."""
        failing = [t for t in self._select(None, classes) if t.failing]
        covered = sum(
            1
            for trial in failing
            if classify_uarch_trial(trial, interval, require_confident_cfv)
            in ("deadlock", "exception", "cfv")
        )
        return BinomialEstimate(covered, max(1, len(failing)))

    def latch_only_view(self) -> "UarchCampaignResult":
        """The Section 5.1.2 study: trials whose flip hit pipeline latches."""
        trials = [t for t in self.trials if t.state_class in LATCH_CLASSES]
        return UarchCampaignResult(
            self.config, trials, self.total_bits, self.skipped_workloads
        )

    # --------------------------------------------------------------- tables

    def table(
        self,
        intervals: tuple[int, ...] = FIGURE46_INTERVALS,
        require_confident_cfv: bool = False,
        protection: ProtectionMap | None = None,
        title: str = "outcome shares vs checkpoint interval",
    ) -> str:
        rows = []
        for interval in intervals:
            counter = self.counter(
                interval,
                require_confident_cfv=require_confident_cfv,
                protection=protection,
            )
            rows.append(
                [str(interval)]
                + [f"{counter.proportion(name):.1%}" for name in UARCH_CATEGORIES]
            )
        text = format_table(["interval"] + list(UARCH_CATEGORIES), rows, title=title)
        for name, reason in self.skipped_workloads:
            text += f"\nnote: workload {name} skipped ({reason})"
        return text


def run_uarch_campaign(config: UarchCampaignConfig) -> UarchCampaignResult:
    """Run the campaign over every configured workload.

    A thin serial wrapper over :func:`repro.campaign.runner.run_campaign`;
    use that entry point directly for journaling, resume, containment
    budgets, and parallel execution.
    """
    from repro.campaign.runner import run_campaign

    return run_campaign("uarch", config).result


def run_workload_trials(
    config: UarchCampaignConfig,
    workload: str,
    completed: Container[str] = frozenset(),
    guard: TrialGuard | None = None,
    on_outcome: Callable[[TrialOutcome], None] | None = None,
    shard: tuple[int, int] | None = None,
    cache: GoldenArtifactCache | None = None,
    lockstep: bool = True,
) -> WorkloadRunOutcome:
    """Execute one workload's trials under containment.

    Mirrors :func:`repro.faults.arch_campaign.run_workload_trials`:
    per-trial randomness is derived from ``(seed, workload, point,
    index)`` so resumed, sharded, and single-shot runs all produce the
    same records; journaled keys in ``completed`` are skipped; a failing
    golden run degrades to a skipped workload with a structured warning;
    ``shard=(shard_index, shard_count)`` restricts execution to the
    stride slice ``index % shard_count == shard_index`` of the per-point
    trial index space (the union of all shards is exactly the serial
    campaign). With a :class:`~repro.cache.GoldenArtifactCache`, both
    golden pipeline runs (length probe + capture of snapshots and
    checkpoints) are replaced by one cache load; injection cycles are
    recomputed deterministically from the cached end cycle, so cached and
    uncached runs are bit-identical.

    Every trial runs through one scheduler (:class:`_Scheduler`). With
    ``lockstep=True`` (the default) and no ``detectors``, its shadows
    step in lockstep with the prefix walk and retire the moment their
    machine state heals; otherwise each shadow runs its whole window at
    birth, the serial trial. Journals are byte-identical either way.
    """
    guard = guard or TrialGuard()
    validate_shard(shard)
    wrng = DeterministicRng(config.seed).child("uarch-campaign").child(workload)
    golden_cache: str | None = None
    try:
        bundle = build_workload(workload, config.workload_scale, config.seed)
        artifact = (
            cache.load("uarch", bundle.program, config)
            if cache is not None
            else None
        )
        if artifact is not None:
            golden = artifact
            golden_cache = "hit"
        else:
            # Choose injection cycles before running golden: spread
            # uniformly over the run. We need golden's length first, so
            # run it now.
            golden = _run_golden(bundle, config, snapshot_cycles=None)
        end_cycle = golden.end_cycle
        points = _injection_points(wrng, config, end_cycle)
        if artifact is None:
            # Re-run golden to capture snapshots at each trial-end cycle
            # and a checkpoint at each injection point.
            snapshot_cycles = [
                point + config.window_cycles
                for point in points
                if point + config.window_cycles < end_cycle
            ]
            golden = _run_golden(
                bundle, config, snapshot_cycles=snapshot_cycles,
                checkpoint_cycles=points,
            )
            if cache is not None:
                cache.store("uarch", bundle.program, config, golden)
                golden_cache = "miss"
    except Exception as exc:
        reason = f"{type(exc).__name__}: {exc}"
        warnings.warn(
            f"skipping workload {workload}: {reason}",
            CampaignWorkloadWarning,
            stacklevel=2,
        )
        return WorkloadRunOutcome(workload, skip_reason=reason)

    plan = pending_trials(
        wrng, workload, uniform_allocation(points, config.trials_per_workload),
        shard, completed,
    )
    prefix = load_pipeline(
        bundle.program,
        record_cache_symptoms=config.record_cache_symptoms,
        memhier_targets=config.memhier_targets,
        record_memhier_symptoms=config.record_memhier_symptoms,
    )
    scheduler = _Scheduler(
        workload, config, golden, prefix, guard, on_outcome,
        paced=lockstep and not config.detectors,
    )
    return WorkloadRunOutcome(
        workload,
        scheduler.run(plan),
        total_bits=prefix.registry.total_bits(),
        golden_cache=golden_cache,
    )


def _injection_points(
    wrng: DeterministicRng, config: UarchCampaignConfig, end_cycle: int
) -> list[int]:
    """A workload's pre-selected injection cycles, sorted: a uniform
    sample of golden's run past the warm-up, clear of its last cycles."""
    first = min(config.warmup_cycles, max(1, end_cycle // 10))
    last = max(first + 1, end_cycle - 100)
    point_count = min(config.injection_points, last - first)
    return sorted(wrng.child("points").sample(range(first, last), point_count))


def _run_golden(
    bundle, config: UarchCampaignConfig, snapshot_cycles, checkpoint_cycles=()
) -> UarchGoldenArtifact:
    """Run golden fault-free to its halt. On the way it stops at each
    trial-end cycle in ``snapshot_cycles`` to snapshot the injectable state,
    and at each injection point in ``checkpoint_cycles`` to take a full
    machine checkpoint; the length probe asks for neither."""
    pipeline = load_pipeline(
        bundle.program,
        collect_retired=True,
        record_cache_symptoms=config.record_cache_symptoms,
        memhier_targets=config.memhier_targets,
        record_memhier_symptoms=config.record_memhier_symptoms,
    )
    snapshot_cycles = set(snapshot_cycles or ())
    checkpoint_cycles = set(checkpoint_cycles)
    snapshots: dict[int, list[int]] = {}
    retired_at: dict[int, int] = {}
    checkpoints: dict[int, PipelineCheckpoint] = {}
    for target in sorted(snapshot_cycles | checkpoint_cycles):
        pipeline.run(target - pipeline.cycle_count)
        if not pipeline.running:
            break
        if target in checkpoint_cycles:
            checkpoints[target] = pipeline.checkpoint()
        if target in snapshot_cycles:
            snapshots[target] = pipeline.registry.snapshot()
            retired_at[target] = pipeline.retired_count
    pipeline.run(config.max_golden_cycles - pipeline.cycle_count)
    if not pipeline.halted:
        raise RuntimeError(
            f"golden pipeline run of {bundle.name} did not halt "
            f"(exception={pipeline.exception_name()})"
        )
    return UarchGoldenArtifact(
        end_cycle=pipeline.cycle_count,
        retired=pipeline.retired_log,
        snapshots=snapshots,
        retired_at=retired_at,
        final_arch_regs=pipeline.arch_reg_values(),
        final_memory=pipeline.memory,
        hc_mispredicts=tuple(
            (event.cycle, event.retired)
            for event in pipeline.symptoms
            if event.kind == "hc_mispredict"
        ),
        checkpoints=checkpoints,
    )


class _Shadow:
    """One trial, from its fork at the injection point to its emission."""

    __slots__ = (
        "key", "point", "index", "descriptor", "target", "state_class",
        "bit", "base", "end", "pipeline", "retired", "symptoms", "fired",
        "healed_at", "error", "spent",
    )

    def __init__(self, key, point, index, descriptor, flip_field, bit,
                 base, end):
        self.key = key
        self.point = point
        self.index = index
        self.descriptor = descriptor
        self.target = flip_field.structure
        self.state_class = flip_field.state_class
        self.bit = bit
        self.base = base  # retired count at injection
        self.end = end  # the cycle its window ends
        self.pipeline: Pipeline | None = None
        self.retired: list = []
        self.symptoms: list = []
        self.fired: dict[str, int] = {}
        self.healed_at: int | None = None
        self.error: Exception | None = None
        self.spent = 0.0  # wall-clock seconds of its own slices

    @property
    def finished(self) -> bool:
        faulty = self.pipeline
        return (
            faulty is None
            or not faulty.running
            or faulty.cycle_count >= self.end
        )

    def close(self, healed_at: int | None = None) -> None:
        """Drop the pipeline once healed or failed; what classification
        still needs of it stays in ``retired`` and ``symptoms``."""
        self.healed_at = healed_at
        self.pipeline = None


class _Scheduler:
    """Runs one workload's pending trials against one prefix walk.

    Each trial is a *shadow*: a fork of the prefix pipeline at the
    injection point, one bit flipped. A paced shadow steps in lockstep
    with the prefix, :data:`LOCKSTEP_CHUNK_CYCLES` at a time; after each
    chunk, a shadow whose machine state equals the prefix's (every
    :class:`~repro.uarch.latches.StateRegistry` value plus memory) has
    *healed*: the rest of its window would replay golden, so it retires
    at once. The others run out their window. An unpaced shadow runs its
    whole window at birth, the serial trial. The prefix steps only while
    a shadow is live; otherwise it jumps to the next injection point by
    restoring golden's checkpoint there. Shadow failures and wall-
    clock overruns (counted over the shadow's own slices) are held on the
    shadow; outcomes leave through the guard in serial ``(point, index)``
    order, with the classification, or the held failure, inside the
    guarded thunk.
    """

    def __init__(self, workload, config, golden, prefix, guard, on_outcome,
                 paced: bool):
        self.workload = workload
        self.config = config
        self.golden = golden
        self.prefix = prefix
        self.guard = guard
        self.on_outcome = on_outcome
        self.paced = paced
        self.live: list[_Shadow] = []  # paced shadows still stepping
        self.waiting: deque[_Shadow] = deque()  # born, not yet emitted
        self.outcomes: list[TrialOutcome] = []

    def run(self, plan) -> list[TrialOutcome]:
        for point, pending in plan:
            self._advance(point)
            if not self.prefix.running:
                break
            for index, trial_rng in pending:
                self._birth(point, index, trial_rng)
                self._emit_ready()
        self._advance(None)
        return self.outcomes

    def _advance(self, target: int | None) -> None:
        """Bring the prefix to cycle ``target``, pacing the live shadows;
        ``None`` walks on until no shadow is live. With no shadow live
        there is nothing to pace, so the prefix jumps: it restores
        golden's checkpoint at ``target`` instead of stepping there."""
        prefix = self.prefix
        while self.live and prefix.running and (
            target is None or prefix.cycle_count < target
        ):
            stop = prefix.cycle_count + LOCKSTEP_CHUNK_CYCLES
            if target is not None:
                stop = min(stop, target)
            prefix.run(stop - prefix.cycle_count)
            self.live = [shadow for shadow in self.live if self._pace(shadow)]
            self._emit_ready()
        if not prefix.running:
            # Golden has halted, so nothing is left to heal against: the
            # live shadows run out their windows.
            for shadow in self.live:
                self._contained(shadow, self._run_out, shadow)
            self.live = []
            self._emit_ready()
        elif target is not None and prefix.cycle_count < target:
            prefix.restore(self.golden.checkpoints[target])

    def _pace(self, shadow: _Shadow) -> bool:
        """Step a live shadow to the prefix's cycle (or its window end)
        and retire it if it healed; False once it is finished."""
        self._contained(shadow, self._catch_up, shadow)
        return not shadow.finished

    def _catch_up(self, shadow: _Shadow) -> None:
        prefix = self.prefix
        faulty = shadow.pipeline
        faulty.run(min(prefix.cycle_count, shadow.end) - faulty.cycle_count)
        if (
            faulty.running
            and faulty.cycle_count < shadow.end
            and _same_state(faulty, prefix)
        ):
            shadow.close(healed_at=faulty.cycle_count)

    @staticmethod
    def _run_out(shadow: _Shadow) -> None:
        shadow.pipeline.run(shadow.end - shadow.pipeline.cycle_count)

    def _birth(self, point: int, index: int, trial_rng: DeterministicRng) -> None:
        config = self.config
        prefix = self.prefix
        field_index, bit = prefix.registry.pick_bit(
            trial_rng, classes=config.fault_model.target_classes
        )
        flip_field = prefix.registry.field(field_index)
        shadow = _Shadow(
            trial_key(self.workload, point, index), point, index,
            {
                "level": "uarch",
                "seed": config.seed,
                "trial_seed": trial_rng.seed,
                "field": flip_field.name,
                "bit": bit,
            },
            flip_field, bit, prefix.retired_count, point + config.window_cycles,
        )
        self.waiting.append(shadow)
        self._contained(shadow, self._fork, shadow, field_index, bit)
        if not shadow.finished:
            self.live.append(shadow)

    def _fork(self, shadow: _Shadow, field_index: int, bit: int) -> None:
        config = self.config
        faulty = shadow.pipeline = self.prefix.fork()
        faulty.retired_log = shadow.retired
        shadow.symptoms = faulty.symptoms
        faulty.registry.field(field_index).flip(bit)
        if config.detectors:
            faulty.symptom_handler = _first_firings(
                faulty, build_memhier_detectors(config.detectors), shadow.fired
            )
        if not self.paced:
            faulty.run(config.window_cycles)

    def _contained(self, shadow: _Shadow, work: Callable, *args) -> None:
        """Run one slice of a shadow's work. A failure, or an overrun of
        the guard's budget counted over the shadow's slices so far, is
        held on the shadow (and closes it) instead of escaping."""
        start = perf_counter()
        try:
            with self.guard.limit(shadow.spent):
                work(*args)
        except Exception as exc:
            shadow.error = exc
            shadow.close()
        finally:
            shadow.spent += perf_counter() - start

    def _emit_ready(self) -> None:
        waiting = self.waiting
        while waiting and waiting[0].finished:
            shadow = waiting.popleft()
            outcome = self.guard.run(
                shadow.key, self.workload, shadow.point, shadow.index,
                lambda: self._classify(shadow),
                descriptor=shadow.descriptor,
            )
            self.outcomes.append(outcome)
            if self.on_outcome is not None:
                self.on_outcome(outcome)

    def _classify(self, shadow: _Shadow) -> UarchTrialResult:
        if shadow.error is not None:
            raise shadow.error
        return _classify_trial(self.workload, self.golden, shadow)


def _same_state(faulty: Pipeline, prefix: Pipeline) -> bool:
    """The heal predicate: every registered value and every memory byte
    equal. From then on the two pipelines step identically."""
    return faulty.registry.equals(prefix.registry) and faulty.memory.equals(
        prefix.memory
    )


def _first_firings(faulty: Pipeline, detectors, fired: dict[str, int]):
    """A symptom handler that records each detector's first firing."""

    def _observe(kind: str, payload) -> bool:
        # Measure first-fire positions without ever rolling back: the
        # campaign wants detection latency, not recovery, so the trial
        # keeps running and the failure comparators stay untouched.
        for det in detectors:
            if det.observe(kind, payload) and det.name not in fired:
                fired[det.name] = faulty.retired_count
        return False

    return _observe


def _latent_is_arch_relevant(faulty: Pipeline, diff_indices: list[int]) -> bool:
    """Is any residual state difference architecturally relevant?

    Relevant: the retirement RAT, a physical register currently mapped by
    it, or a *live* store-buffer entry (including a flipped valid bit,
    which can conjure a phantom committed store). Residue in stale entries
    of any structure is dead state — the paper's failure-unlikely *other*.
    """
    mapped = set(faulty.arch_rat.map)
    storebuf = faulty.storebuf
    entry_payload = {id(storebuf.addr), id(storebuf.data), id(storebuf.size_log2)}
    for index in diff_indices:
        array, slot = faulty.registry.locate(index)
        storage = array.storage
        if storage is faulty.arch_rat.map or storage is storebuf.valid:
            return True
        if id(storage) in entry_payload and storebuf.valid[slot]:
            return True
        if storage is faulty.prf.values and slot in mapped:
            return True
    return False


def _classify_trial(
    workload: str, golden: UarchGoldenArtifact, shadow: _Shadow
) -> UarchTrialResult:
    """Classify a finished shadow exactly as its full window would be.

    A healed shadow's state equalled golden's at cycle ``healed_at``, so
    the rest of its window replays golden: it retires golden's own records
    (which match), fires golden's symptoms (of which only the first
    ``hc_mispredict`` counts), and ends in golden's state (no deadlock, no
    latent residue, golden's final state if golden halts).
    """
    base = shadow.base
    faulty = shadow.pipeline  # None once healed
    golden_log = golden.retired
    deadlock_latency = None
    exception_latency = None
    cfv_latency = None
    arch_corrupt = False
    previous_pc_mismatch = False
    for offset, record in enumerate(shadow.retired):
        index = base + offset
        latency = offset + 1
        if record.exc:
            exception_latency = latency
            break
        if index >= len(golden_log):
            if cfv_latency is None:
                cfv_latency = latency
            break
        expected = golden_log[index]
        store_matches = record.store_addr == expected.store_addr and (
            record.store_addr < 0 or record.store_data == expected.store_data
        )
        value_matches = record.dest == expected.dest and (
            record.dest < 0 or record.value == expected.value
        )
        content_matches = store_matches and value_matches
        if record.pc != expected.pc:
            # A lone PC-label mismatch with identical architectural content
            # is a corrupted in-flight PC tag, not a wrong instruction; two
            # in a row (or wrong content) means execution really diverged.
            if not content_matches or previous_pc_mismatch:
                if cfv_latency is None:
                    cfv_latency = max(1, latency - 1 if previous_pc_mismatch else latency)
            previous_pc_mismatch = True
        else:
            previous_pc_mismatch = False
            # A diverging *store* is persistent memory corruption. A
            # diverging register value is not persistent by itself — if it
            # is never consumed and later overwritten the fault is masked
            # (the end-of-trial state comparison decides), exactly as the
            # paper's masked category allows corrupted-then-overwritten
            # architectural state.
            if not store_matches:
                arch_corrupt = True
    if faulty is not None and faulty.deadlock:
        deadlock_latency = len(shadow.retired) + 1

    cfv_detected_latency = None
    detected = next(
        (event.retired for event in shadow.symptoms if event.kind == "hc_mispredict"),
        None,
    )
    if detected is None and shadow.healed_at is not None:
        # Golden's first event after the heal cycle, if the window has it.
        events = golden.hc_mispredicts
        position = bisect_right(events, shadow.healed_at, key=itemgetter(0))
        if position < len(events) and events[position][0] <= shadow.end:
            detected = events[position][1]
    if detected is not None:
        cfv_detected_latency = max(1, detected - base + 1)

    uarch_latent = False
    latent_arch_relevant = False
    clean_stream = (
        deadlock_latency is None
        and exception_latency is None
        and cfv_latency is None
        and not arch_corrupt
    )
    if clean_stream and faulty is not None:
        if faulty.halted:
            # The program finished: compare final architectural state.
            if len(shadow.retired) + base != len(golden_log):
                cfv_latency = len(shadow.retired) + 1
            elif not faulty.memory.equals(golden.final_memory):
                arch_corrupt = True
            elif faulty.arch_reg_values() != golden.final_arch_regs:
                arch_corrupt = True
        else:
            end_cycle = shadow.end
            snapshot = golden.snapshots.get(end_cycle)
            if (
                snapshot is not None
                and faulty.cycle_count == end_cycle
                and faulty.retired_count == golden.retired_at.get(end_cycle)
            ):
                diff = faulty.registry.diff_indices(
                    snapshot, faulty.registry.snapshot()
                )
                if diff:
                    uarch_latent = True
                    latent_arch_relevant = _latent_is_arch_relevant(faulty, diff)
            # Matching stream with timing skew only: architecturally benign.

    def _detector_latency(name: str) -> int | None:
        if name not in shadow.fired:
            return None
        return max(1, shadow.fired[name] - base + 1)

    return UarchTrialResult(
        workload=workload,
        inject_cycle=shadow.point,
        target=shadow.target,
        state_class=shadow.state_class,
        bit=shadow.bit,
        inject_retired=base,
        deadlock_latency=deadlock_latency,
        exception_latency=exception_latency,
        cfv_latency=cfv_latency,
        cfv_detected_latency=cfv_detected_latency,
        arch_corrupt=arch_corrupt,
        uarch_latent=uarch_latent,
        latent_arch_relevant=latent_arch_relevant,
        miss_spike_latency=_detector_latency("miss_spike"),
        stall_outlier_latency=_detector_latency("stall_outlier"),
        spurious_memop_latency=_detector_latency("spurious_memop"),
    )
