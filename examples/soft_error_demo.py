#!/usr/bin/env python
"""Soft-error demo: the same bit flip, with and without ReStore.

Injects a single-bit fault into a live pipeline latch while the gcc-like
workload runs, twice:

- on a **baseline** pipeline, where the fault either corrupts the output
  silently or crashes the program;
- on a **ReStore** pipeline, where a symptom (exception / high-confidence
  misprediction / watchdog) triggers rollback to a checkpoint and the
  re-execution produces the correct result.

The script scans seeds until it finds a fault that actually fails on the
baseline (most flips are masked — that is the paper's Figure 4), then
replays exactly that fault under ReStore.

Run: ``python examples/soft_error_demo.py``
"""

from repro.restore import ReStoreController
from repro.uarch import load_pipeline
from repro.uarch.latches import LATCH_CLASSES
from repro.util.rng import DeterministicRng
from repro.workloads import build_workload

WORKLOAD = "gcc"
INJECT_CYCLE = 900


def run_once(seed: int, with_restore: bool):
    bundle = build_workload(WORKLOAD)
    pipeline = load_pipeline(bundle.program)
    controller = (
        ReStoreController(pipeline, interval=100) if with_restore else None
    )
    pipeline.run(INJECT_CYCLE)
    rng = DeterministicRng(seed)
    index, bit = pipeline.registry.pick_bit(rng, classes=LATCH_CLASSES)
    field = pipeline.registry.field(index)
    field.flip(bit)
    pipeline.run(3_000_000)
    wrong = bundle.check(pipeline.memory) if pipeline.halted else None
    return pipeline, controller, field, bit, wrong


def describe(pipeline, wrong) -> str:
    if not pipeline.halted:
        return (f"CRASHED ({pipeline.exception_name() or 'deadlock'})"
                if pipeline.stopped else "HUNG")
    if wrong:
        return f"SILENT DATA CORRUPTION ({wrong[0]})"
    return "correct output"


def main() -> None:
    print(f"hunting for a failure-inducing latch fault in '{WORKLOAD}'...")
    for seed in range(500):
        pipeline, _, field, bit, wrong = run_once(seed, with_restore=False)
        baseline_failed = (not pipeline.halted) or bool(wrong)
        if baseline_failed:
            print(f"\nseed {seed}: flipped bit {bit} of {field.name} "
                  f"({field.state_class} state) at cycle {INJECT_CYCLE}")
            print(f"  baseline pipeline : {describe(pipeline, wrong)}")
            restored, controller, _, _, wrong2 = run_once(seed, with_restore=True)
            print(f"  ReStore pipeline  : {describe(restored, wrong2)}")
            stats = controller.stats
            print(f"    rollbacks={stats.rollbacks} "
                  f"detected_errors={stats.detected_errors} "
                  f"false_positives={stats.false_positives} "
                  f"genuine_exceptions={stats.genuine_exceptions}")
            if restored.halted and not wrong2:
                print("\nReStore detected the symptom, rolled back to a "
                      "checkpoint, and re-executed cleanly. OK")
                return
            print("    (this fault escaped ReStore's symptom coverage — "
                  "that is the sdc/latent residue of Figure 5; trying on...)")
    raise SystemExit("no demonstrable fault found — increase the seed range")


if __name__ == "__main__":
    main()
