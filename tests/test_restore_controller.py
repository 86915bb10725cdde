"""The ReStore controller: recovery, false positives, tuning, policies."""

import pytest

from repro.restore import ReStoreController
from repro.restore.controller import RollbackPolicy, TuningConfig
from repro.restore.symptoms import (
    ExceptionSymptomDetector,
    HighConfidenceMispredictDetector,
    WatchdogSymptomDetector,
)
from repro.uarch import load_pipeline
from repro.uarch.latches import LATCH_CLASSES
from repro.util.rng import DeterministicRng
from repro.workloads import WORKLOAD_NAMES, build_workload


def run_with_controller(workload="gcc", interval=100, **kwargs):
    bundle = build_workload(workload)
    pipeline = load_pipeline(bundle.program)
    controller = ReStoreController(pipeline, interval=interval, **kwargs)
    pipeline.run(2_000_000)
    return bundle, pipeline, controller


class TestFaultFreeOperation:
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_output_correct_under_restore(self, name):
        bundle, pipeline, _ = run_with_controller(name)
        assert pipeline.halted
        assert bundle.check(pipeline.memory) == []

    def test_rollbacks_are_false_positives_when_fault_free(self):
        _, _, controller = run_with_controller("bzip2", interval=50)
        stats = controller.stats
        assert stats.rollbacks > 0, "bzip2 should produce HC mispredicts"
        assert stats.false_positives == stats.rollbacks
        assert stats.divergences == 0

    def test_average_rollback_distance_near_1_5_intervals(self):
        _, _, controller = run_with_controller("bzip2", interval=100)
        if controller.stats.rollbacks >= 3:
            distance = controller.average_rollback_distance
            assert 80 <= distance <= 260  # ~1.5x interval, forced-chk noise

    def test_delayed_policy_also_correct(self):
        bundle, pipeline, controller = run_with_controller(
            "mcf", policy=RollbackPolicy.DELAYED
        )
        assert pipeline.halted and bundle.check(pipeline.memory) == []

    def test_event_log_disabled_still_correct(self):
        bundle, pipeline, _ = run_with_controller("gzip", use_event_log=False)
        assert pipeline.halted and bundle.check(pipeline.memory) == []

    def test_summary_keys(self):
        _, _, controller = run_with_controller("gcc")
        summary = controller.summary()
        for key in ("rollbacks", "false_positives", "detected_errors",
                    "average_rollback_distance", "checkpoints_created"):
            assert key in summary


class TestFaultRecovery:
    def _inject_and_run(self, workload, seed, interval=100, classes=LATCH_CLASSES,
                        warmup=400, **kwargs):
        """Inject one latch flip under a live controller."""
        bundle = build_workload(workload)
        pipeline = load_pipeline(bundle.program)
        controller = ReStoreController(pipeline, interval=interval, **kwargs)
        pipeline.run(warmup)
        rng = DeterministicRng(seed)
        index, bit = pipeline.registry.pick_bit(rng, classes=classes)
        pipeline.registry.field(index).flip(bit)
        pipeline.run(2_000_000)
        return bundle, pipeline, controller

    def test_recovery_statistics_over_many_faults(self):
        """With ReStore active, most latch faults must end in a correct
        program outcome (recovered, masked, or surfaced as an exception
        only when rollback confirmed it was pre-checkpoint)."""
        outcomes = {"correct": 0, "wrong": 0, "stopped": 0}
        for seed in range(24):
            bundle, pipeline, controller = self._inject_and_run("gcc", seed)
            if pipeline.halted and bundle.check(pipeline.memory) == []:
                outcomes["correct"] += 1
            elif pipeline.halted:
                outcomes["wrong"] += 1
            else:
                outcomes["stopped"] += 1
        assert outcomes["correct"] >= 18, outcomes

    def test_exception_symptom_triggers_rollback_and_recovers(self):
        """Find a fault that produces an exception symptom and verify the
        rollback recovered it (the exception did not reappear)."""
        found = False
        for seed in range(80):
            # Vary both the target bit and the injection cycle.
            bundle, pipeline, controller = self._inject_and_run(
                "mcf", seed, classes=None, warmup=300 + 53 * seed
            )
            triggered = any(
                isinstance(d, ExceptionSymptomDetector) and d.triggered
                for d in controller.detectors
            )
            if triggered and pipeline.halted and bundle.check(pipeline.memory) == []:
                found = True
                break
        assert found, "no recovered exception-symptom fault found"

    def test_deadlock_recovery_by_rollback(self):
        """Scheduler-state faults can wedge the machine; the watchdog
        symptom plus rollback must recover at least some of them."""
        recovered = 0
        for seed in range(40):
            bundle, pipeline, controller = self._inject_and_run(
                "vortex", seed, classes=("ctrl",)
            )
            watchdog_fired = any(
                isinstance(d, WatchdogSymptomDetector) and d.triggered
                for d in controller.detectors
            )
            if watchdog_fired and pipeline.halted and not bundle.check(pipeline.memory):
                recovered += 1
        assert recovered >= 1, "watchdog rollback never recovered a wedge"


class TestGenuineExceptions:
    def test_genuine_exception_is_delivered_after_one_rollback(self):
        from repro.isa import assemble

        program = assemble(
            ".text\nstart: li r1, 200\nloop: subq r1, 1, r1\n bne r1, loop\n"
            " li r2, 0x7000000\n ldq r3, 0(r2)\n halt\n",
            "segv",
        )
        pipeline = load_pipeline(program)
        controller = ReStoreController(pipeline, interval=50)
        pipeline.run(100_000)
        assert pipeline.stopped
        assert pipeline.exception_name() == "access_violation"
        assert controller.stats.genuine_exceptions == 1
        assert controller.stats.rollbacks >= 1


class TestDynamicTuning:
    def test_breaker_trips_on_fp_bursts(self):
        tuning = TuningConfig(enabled=True, window=10_000, threshold=2,
                              cooldown=4_000)
        _, _, controller = run_with_controller(
            "bzip2", interval=50, tuning=tuning
        )
        # bzip2 generates many HC-mispredict FPs; the breaker must trip and
        # suppress at least one later symptom.
        assert controller.stats.tuning_activations >= 1
        assert controller.stats.suppressed_symptoms >= 1

    def test_breaker_off_by_default(self):
        _, _, controller = run_with_controller("bzip2", interval=50)
        assert controller.stats.tuning_activations == 0


class TestDivergenceHandling:
    """Divergence accounting and the arbitration third execution."""

    def _run_with_tampered_log(self, arbitration, workload="bzip2",
                               interval=50):
        """Corrupt one recorded branch outcome during the first
        re-execution so the redundant run provably diverges from the log
        (machine state itself stays healthy)."""
        bundle = build_workload(workload)
        pipeline = load_pipeline(bundle.program)
        controller = ReStoreController(
            pipeline, interval=interval, arbitration=arbitration
        )
        tampered = {"done": False}

        def tamper(record):
            if controller.mode != "reexec" or tampered["done"]:
                return
            position = pipeline.retired_count
            for logged in sorted(controller.branch_log._entries):
                if position < logged <= controller._reexec_until:
                    pc, taken = controller.branch_log._entries[logged]
                    controller.branch_log._entries[logged] = (pc, not taken)
                    tampered["done"] = True
                    return

        controller.user_retire_hook = tamper
        pipeline.run(2_000_000)
        assert tampered["done"], "no re-execution window with logged branches"
        return bundle, pipeline, controller

    def test_divergence_is_not_double_counted_as_false_positive(self):
        _, pipeline, controller = self._run_with_tampered_log(arbitration=False)
        stats = controller.stats
        assert stats.divergences == 1
        # Every other rollback is a genuine fault-free false positive; the
        # divergent one must be excluded from the FP count.
        assert stats.false_positives == stats.rollbacks - 1
        assert pipeline.halted

    def test_arbitration_performs_third_execution_rollback(self):
        bundle, pipeline, controller = self._run_with_tampered_log(
            arbitration=True
        )
        stats = controller.stats
        assert stats.divergences >= 1
        assert stats.arbitrations >= 1
        arbitration_rollbacks = [
            key for key in controller._rollback_history
            if key[0] == "arbitration"
        ]
        assert arbitration_rollbacks, (
            "a divergence under arbitration must roll back a third time"
        )
        # The third execution replays the diverging branch from the older
        # checkpoint and the run still completes correctly.
        assert stats.rollbacks >= 2
        assert pipeline.halted and bundle.check(pipeline.memory) == []

    def test_arbitration_off_trusts_redundant_execution(self):
        bundle, pipeline, controller = self._run_with_tampered_log(
            arbitration=False
        )
        assert controller.stats.arbitrations == 0
        assert not any(
            key[0] == "arbitration"
            for key in controller._rollback_history
        )
        assert pipeline.halted and bundle.check(pipeline.memory) == []


class TestStateCarryover:
    """Rollback must reset position-keyed state (detectors, FP window)."""

    def test_detectors_are_notified_of_rollback_position(self):
        calls = []

        class Spy(HighConfidenceMispredictDetector):
            def on_rollback(self, position):
                calls.append(position)

        bundle = build_workload("bzip2")
        pipeline = load_pipeline(bundle.program)
        controller = ReStoreController(
            pipeline, interval=50, detectors=[Spy()]
        )
        pipeline.run(2_000_000)
        assert controller.stats.rollbacks > 0
        assert len(calls) == controller.stats.rollbacks
        # Each notification carries the restored (rewound) position.
        for position in calls:
            assert position >= 0

    def test_fp_positions_memory_stays_bounded(self):
        """The FP window must not grow with campaign length (it used to
        accumulate every false positive ever seen)."""
        bundle = build_workload("gcc")
        pipeline = load_pipeline(bundle.program)
        tuning = TuningConfig(enabled=False, window=2_000)
        controller = ReStoreController(pipeline, interval=100, tuning=tuning)
        # Synthesize a long campaign's worth of false positives through the
        # real bookkeeping path.
        for index in range(5_000):
            pipeline.retired_count = index * 150
            controller._trigger = ("hc_mispredict", pipeline.retired_count, 0)
            controller.mode = "reexec"
            controller._finish_reexecution()
        assert controller.stats.false_positives == 5_000
        # Only positions inside the tuning window may be retained.
        assert len(controller.stats.fp_positions) <= tuning.window // 150 + 2

    def test_breaker_decision_unchanged_by_pruning(self):
        tuning = TuningConfig(enabled=True, window=10_000, threshold=2,
                              cooldown=4_000)
        _, _, controller = run_with_controller(
            "bzip2", interval=50, tuning=tuning
        )
        assert controller.stats.tuning_activations >= 1
        assert len(controller.stats.fp_positions) <= controller.stats.false_positives

    def test_controller_uses_public_checkpoint_property(self):
        bundle = build_workload("gcc")
        pipeline = load_pipeline(bundle.program)
        controller = ReStoreController(pipeline, interval=100)
        pipeline.run(5_000)
        manager = controller.checkpoints
        assert manager.since_last_checkpoint == manager._since_last
        assert 0 <= manager.since_last_checkpoint < manager.interval


class TestDetectorConfigurations:
    def test_exceptions_only_configuration(self):
        bundle, pipeline, controller = run_with_controller(
            "bzip2",
            detectors=[ExceptionSymptomDetector(), WatchdogSymptomDetector()],
        )
        assert pipeline.halted and bundle.check(pipeline.memory) == []
        assert controller.stats.false_positives == 0

    def test_hc_only_configuration(self):
        bundle, pipeline, controller = run_with_controller(
            "bzip2", detectors=[HighConfidenceMispredictDetector()]
        )
        assert pipeline.halted and bundle.check(pipeline.memory) == []
