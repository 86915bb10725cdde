"""Differential tests for the optimised simulator hot paths.

The architectural simulator's pre-decoded closure path and the pipeline's
fast path (pre-decoded instruction records, wakeup waiter index, skipped
retire records) are pure optimisations: they must produce bit-identical
architectural state and identical observable event streams to the
unoptimised reference paths (``predecode=False`` / ``fast=False``), on
every workload kernel, with and without injected faults. These tests are
the contract that lets the perf benchmarks trust the fast paths.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.arch.simulator import ArchSimulator, load_program
from repro.uarch.pipeline import load_pipeline
from repro.workloads import WORKLOAD_NAMES, build_workload

SEED = 2005
ARCH_BUDGET = 400_000
PIPE_CYCLES = 12_000

REPO_ROOT = Path(__file__).resolve().parents[1]
COMPARE = REPO_ROOT / "benchmarks" / "perf" / "compare.py"


def _arch_pair(name: str) -> tuple[ArchSimulator, ArchSimulator]:
    bundle = build_workload(name, 1, SEED)
    fast = load_program(bundle.program)
    slow_state = load_program(bundle.program).state
    slow = ArchSimulator(slow_state, predecode=False)
    assert fast.predecode and not slow.predecode
    return fast, slow


def _assert_arch_states_identical(fast: ArchSimulator, slow: ArchSimulator):
    assert fast.stop_reason is slow.stop_reason
    assert fast.retired == slow.retired
    assert fast.state.pc == slow.state.pc
    assert fast.state.regs == slow.state.regs
    # Full memory image comparison, page by page.
    assert fast.memory._pages == slow.memory._pages
    if fast.exception is not None or slow.exception is not None:
        assert type(fast.exception) is type(slow.exception)
        assert fast.exception.pc == slow.exception.pc


class TestArchFastPathBitIdentity:
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_batch_run_identical_on_kernel(self, name):
        fast, slow = _arch_pair(name)
        fast.run(ARCH_BUDGET)
        slow.run(ARCH_BUDGET)
        _assert_arch_states_identical(fast, slow)

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_step_streams_identical_on_kernel(self, name):
        """step() must expose identical per-instruction observables —
        the fault injectors sample last_memop/last_dest between steps."""
        fast, slow = _arch_pair(name)
        for _ in range(20_000):
            pc_fast = fast.step()
            pc_slow = slow.step()
            assert pc_fast == pc_slow
            assert fast.last_memop == slow.last_memop
            assert fast.last_dest == slow.last_dest
            assert fast.state.pc == slow.state.pc
            if pc_fast == -1:
                break
        _assert_arch_states_identical(fast, slow)

    def test_identical_after_injected_encoding_flip(self):
        """Flipping an instruction bit in the text image must invalidate the
        pre-decode cache: both paths re-decode and then agree bit for bit."""
        fast, slow = _arch_pair("gzip")
        for _ in range(200):
            fast.step()
            slow.step()
        # Flip a bit of the instruction about to execute, on both images.
        target_pc = fast.state.pc
        assert target_pc == slow.state.pc
        for sim in (fast, slow):
            word = sim.memory.read(target_pc, 4)
            flipped = (word ^ (1 << 7)).to_bytes(4, "little")
            sim.memory.load_bytes(target_pc, flipped)
        assert fast.memory.read(target_pc, 4) == slow.memory.read(target_pc, 4)
        fast.run(ARCH_BUDGET)
        slow.run(ARCH_BUDGET)
        _assert_arch_states_identical(fast, slow)

    def test_predecode_cache_invalidated_by_image_write(self):
        fast, _ = _arch_pair("gzip")
        fast.run(1_000)
        assert fast._predecoded  # the text segment was cached
        entry = next(iter(fast._predecoded))
        word = fast.memory.read(entry, 4)
        fast.memory.load_bytes(entry, word.to_bytes(4, "little"))
        fast.resume()
        fast.step()
        # The version bump must have dropped every stale closure.
        assert fast._predecode_version == fast.memory.image_version


def _pipeline_pair(name: str):
    bundle = build_workload(name, 1, SEED)
    fast = load_pipeline(bundle.program, collect_retired=True, fast=True)
    slow = load_pipeline(bundle.program, collect_retired=True, fast=False)
    assert fast.fast and not slow.fast
    assert fast.sched.use_wakeup_index and not slow.sched.use_wakeup_index
    return fast, slow


def _assert_pipelines_identical(fast, slow):
    assert fast.cycle_count == slow.cycle_count
    assert fast.retired_count == slow.retired_count
    assert fast.halted == slow.halted
    assert fast.stopped == slow.stopped
    assert fast.exception == slow.exception
    assert fast.retired_log == slow.retired_log
    assert fast.symptoms == slow.symptoms
    assert fast.arch_reg_values() == slow.arch_reg_values()
    assert fast.memory._pages == slow.memory._pages


class TestPipelineFastPathBitIdentity:
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_retired_and_symptom_streams_identical_on_kernel(self, name):
        fast, slow = _pipeline_pair(name)
        fast.run(PIPE_CYCLES)
        slow.run(PIPE_CYCLES)
        assert fast.retired_count > 0
        _assert_pipelines_identical(fast, slow)

    def test_identical_under_injected_scheduler_flips(self):
        """The wakeup waiter index must be invalidated by injected flips of
        scheduler valid/source-tag bits — indexed broadcast and the full CAM
        scan must then diverge nowhere."""
        fast, slow = _pipeline_pair("mcf")
        fast.run(2_000)
        slow.run(2_000)
        by_name_fast = {f.name: f for f in fast.registry.fields}
        by_name_slow = {f.name: f for f in slow.registry.fields}
        assert by_name_fast.keys() == by_name_slow.keys()
        for name, bit in (
            ("sched.valid[3]", 0),
            ("sched.src1_preg[5]", 2),
            ("sched.src2_preg[9]", 4),
            ("sched.src3_preg[1]", 1),
            ("prf.ready[40]", 0),
        ):
            by_name_fast[name].flip(bit)
            by_name_slow[name].flip(bit)
        fast.run(4_000)
        slow.run(4_000)
        _assert_pipelines_identical(fast, slow)

    def test_identical_under_injected_rob_count_flip(self):
        """High-bit count corruption exercises the clamping pop path."""
        fast, slow = _pipeline_pair("gap")
        fast.run(1_500)
        slow.run(1_500)
        for pipe in (fast, slow):
            field = next(
                f for f in pipe.registry.fields if f.name == "rob.count[0]"
            )
            field.flip(field.width - 1)
        fast.run(3_000)
        slow.run(3_000)
        _assert_pipelines_identical(fast, slow)


class TestPerfGate:
    def _report(self, tmp_path, name, **metrics):
        path = tmp_path / name
        payload = {
            "schema": "repro-perf/1",
            "metrics": {
                key: {"value": value, "unit": "per_sec"}
                for key, value in metrics.items()
            },
        }
        path.write_text(json.dumps(payload))
        return path

    def _run_compare(self, *args):
        return subprocess.run(
            [sys.executable, str(COMPARE), *map(str, args)],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )

    def test_gate_fails_on_deliberate_slowdown(self, tmp_path):
        baseline = self._report(tmp_path, "base.json", arch_steps_per_sec=1000.0)
        # 30% slower than baseline: well past the 15% threshold.
        current = self._report(tmp_path, "cur.json", arch_steps_per_sec=700.0)
        result = self._run_compare(baseline, current, "--threshold", "0.15")
        assert result.returncode == 2
        assert "REGRESSION" in result.stdout
        assert "PERF GATE FAILED" in result.stderr

    def test_gate_passes_within_threshold(self, tmp_path):
        baseline = self._report(tmp_path, "base.json", arch_steps_per_sec=1000.0)
        current = self._report(tmp_path, "cur.json", arch_steps_per_sec=950.0)
        result = self._run_compare(baseline, current, "--threshold", "0.15")
        assert result.returncode == 0
        assert "perf gate passed" in result.stdout

    def test_gate_enforces_speedup_floor(self, tmp_path):
        baseline = self._report(
            tmp_path, "base.json", arch_steps_per_sec=1000.0, arch_speedup=3.5
        )
        current = self._report(
            tmp_path, "cur.json", arch_steps_per_sec=1100.0, arch_speedup=2.0
        )
        result = self._run_compare(
            baseline, current, "--require", "arch_speedup=3.0"
        )
        assert result.returncode == 2
        assert "below required floor" in result.stderr


class TestDesignPerfTable:
    """DESIGN.md's before/after table quotes the committed perf reports;
    re-recording a report without the table fails here."""

    # Table row -> (metric, decimals the table prints).
    ROWS = {
        "arch steps/sec": ("arch_steps_per_sec", 0),
        "uarch cycles/sec": ("uarch_cycles_per_sec", 0),
        "campaign trials/sec": ("campaign_trials_per_sec", 1),
    }

    @staticmethod
    def _metrics(name):
        path = REPO_ROOT / "benchmarks" / "out" / name
        return json.loads(path.read_text())["metrics"]

    def _table_rows(self):
        lines = (REPO_ROOT / "DESIGN.md").read_text().splitlines()
        start = lines.index("## Hot-path optimisation (before/after)") + 1
        rows = {}
        for line in lines[start:]:
            if line.startswith("## "):
                break
            cells = [cell.strip() for cell in line.strip("| ").split("|")]
            if cells[0] in self.ROWS:
                rows[cells[0]] = cells[1:4]
        return rows

    def test_table_quotes_committed_reports(self):
        before = self._metrics("perf_preopt.json")
        after = self._metrics("perf_baseline.json")
        rows = self._table_rows()
        assert rows.keys() == self.ROWS.keys()
        for label, (metric, decimals) in self.ROWS.items():
            old = before[metric]["value"]
            new = after[metric]["value"]
            assert rows[label] == [
                f"{old:,.{decimals}f}",
                f"{new:,.{decimals}f}",
                f"{new / old:.2f}×",
            ], label
