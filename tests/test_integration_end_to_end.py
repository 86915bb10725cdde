"""End-to-end integration: faults through the full ReStore stack.

These tests exercise the complete story the paper tells: inject a soft
error into the running pipeline, watch a symptom fire, roll back, and land
on the correct architectural outcome — and quantify how much ReStore helps
versus the same faults on an unprotected machine.
"""

import pytest

from repro.restore import ReStoreController
from repro.uarch import load_pipeline
from repro.uarch.latches import LATCH_CLASSES
from repro.util.rng import DeterministicRng
from repro.workloads import build_workload

WORKLOAD = "gzip"
FAULTS = 40


def outcome_of(pipeline, bundle) -> str:
    if not pipeline.halted:
        return "crash"
    if bundle.check(pipeline.memory):
        return "sdc"
    return "correct"


@pytest.fixture(scope="module")
def paired_fault_outcomes():
    """Run the same latch faults on baseline and ReStore pipelines."""
    results = []
    for seed in range(FAULTS):
        rng = DeterministicRng(seed).child("e2e")
        inject_cycle = 300 + rng.randrange(2_500)
        per_fault = {}
        for config in ("baseline", "restore"):
            bundle = build_workload(WORKLOAD)
            pipeline = load_pipeline(bundle.program)
            controller = None
            if config == "restore":
                controller = ReStoreController(pipeline, interval=100)
            pipeline.run(inject_cycle)
            pick = DeterministicRng(seed).child("bit")
            index, bit = pipeline.registry.pick_bit(pick, classes=LATCH_CLASSES)
            pipeline.registry.field(index).flip(bit)
            pipeline.run(3_000_000)
            per_fault[config] = (outcome_of(pipeline, bundle), controller)
        results.append(per_fault)
    return results


class TestRestoreHelps:
    def test_restore_never_worse_much(self, paired_fault_outcomes):
        baseline_bad = sum(
            1 for r in paired_fault_outcomes if r["baseline"][0] != "correct"
        )
        restore_bad = sum(
            1 for r in paired_fault_outcomes if r["restore"][0] != "correct"
        )
        # ReStore must not lose to the baseline (sampling noise aside).
        assert restore_bad <= baseline_bad + 1

    def test_restore_recovers_some_baseline_failures(self, paired_fault_outcomes):
        rescued = sum(
            1
            for r in paired_fault_outcomes
            if r["baseline"][0] != "correct" and r["restore"][0] == "correct"
        )
        baseline_bad = sum(
            1 for r in paired_fault_outcomes if r["baseline"][0] != "correct"
        )
        if baseline_bad >= 3:
            assert rescued >= 1, (
                f"{baseline_bad} baseline failures but none rescued"
            )

    def test_most_faults_masked_either_way(self, paired_fault_outcomes):
        """Figure 4's intrinsic masking: the large majority of flips are
        harmless even without any protection."""
        baseline_ok = sum(
            1 for r in paired_fault_outcomes if r["baseline"][0] == "correct"
        )
        assert baseline_ok >= FAULTS * 0.6


class TestControllerAccounting:
    def test_rollback_statistics_are_consistent(self, paired_fault_outcomes):
        for result in paired_fault_outcomes:
            controller = result["restore"][1]
            stats = controller.stats
            assert stats.rollbacks >= stats.false_positives
            assert stats.rollbacks >= 0
            assert controller.checkpoints.created >= 1

    def test_detected_errors_only_with_rollbacks(self, paired_fault_outcomes):
        for result in paired_fault_outcomes:
            stats = result["restore"][1].stats
            if stats.detected_errors:
                assert stats.rollbacks >= 1
