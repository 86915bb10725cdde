"""Microbenchmarks for the simulation hot paths.

Measures three throughput metrics that bound every experiment in this
reproduction:

- ``arch_steps_per_sec``     — architectural simulator, instructions/second
- ``uarch_cycles_per_sec``   — cycle-level pipeline, cycles/second
- ``campaign_trials_per_sec``— end-to-end fault-injection trials/second

plus, when the simulators expose their unoptimised reference paths, the
machine-independent ratios

- ``arch_speedup``  — fast path vs. per-step decode reference path
- ``uarch_speedup`` — fast path vs. allocation-heavy reference path
- ``arch_lockstep_speedup`` — lockstep batch-trial scheduler vs. the
  serial per-trial path, golden-run time excluded via a shared
  golden-artifact cache (both legs run warm)
- ``uarch_lockstep_speedup`` — the same comparison for a uarch campaign:
  forks paced with the prefix walk and retired once their state heals,
  vs. every fork running its whole window

Results are written as schema'd JSON (see ``SCHEMA``). Usage::

    PYTHONPATH=src python benchmarks/perf/perfbench.py --scale smoke \
        --out benchmarks/out/perf_current.json

Refresh the committed baseline after an intentional perf change::

    PYTHONPATH=src python benchmarks/perf/perfbench.py --scale smoke \
        --out benchmarks/out/perf_baseline.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
if os.path.isdir(os.path.join(_REPO_ROOT, "src")):
    sys.path.insert(0, os.path.join(_REPO_ROOT, "src"))

from repro import __version__  # noqa: E402
from repro.arch.simulator import ArchSimulator, load_program  # noqa: E402
from repro.campaign import run_campaign  # noqa: E402
from repro.faults import ArchCampaignConfig, UarchCampaignConfig  # noqa: E402
from repro.uarch.pipeline import Pipeline, load_pipeline  # noqa: E402
from repro.workloads import build_workload  # noqa: E402

SCHEMA = "repro-perf/1"

# Per-scale knobs: minimum wall-clock seconds per metric, workload subsets,
# and campaign sizing. "smoke" is the CI gate; "full" is for DESIGN.md tables.
SCALES = {
    "smoke": {
        "min_seconds": 0.6,
        "arch_workloads": ("gzip", "mcf", "parser"),
        "uarch_workloads": ("gzip", "mcf"),
        "uarch_max_cycles": 4_000,
        "campaign": {"trials_per_workload": 12, "injection_points": 6,
                     "workloads": ("gzip", "mcf")},
        "arch_lockstep_campaign": {"trials_per_workload": 60,
                                   "injection_points": 10,
                                   "workloads": ("gzip", "mcf", "parser")},
        "uarch_lockstep_campaign": {"trials_per_workload": 60,
                                    "injection_points": 10,
                                    "workloads": ("gzip", "mcf", "parser")},
    },
    "full": {
        "min_seconds": 2.0,
        "arch_workloads": ("bzip2", "gap", "gcc", "gzip", "mcf", "parser", "vortex"),
        "uarch_workloads": ("bzip2", "gap", "gcc", "gzip", "mcf", "parser", "vortex"),
        "uarch_max_cycles": 8_000,
        "campaign": {"trials_per_workload": 40, "injection_points": 10,
                     "workloads": ("gzip", "mcf", "parser")},
        "arch_lockstep_campaign": {"trials_per_workload": 120,
                                   "injection_points": 20,
                                   "workloads": ("gzip", "mcf", "parser")},
        "uarch_lockstep_campaign": {"trials_per_workload": 120,
                                    "injection_points": 20,
                                    "workloads": ("gzip", "mcf", "parser")},
    },
}

CAMPAIGN_CONFIGS = {"arch": ArchCampaignConfig, "uarch": UarchCampaignConfig}

SEED = 2005
ARCH_MAX_INSTRUCTIONS = 400_000


def _bench_arch(workloads, min_seconds: float, reference: bool = False):
    """Total retired instructions per second across repeated full runs."""
    bundles = [build_workload(name, 1, SEED) for name in workloads]
    # Warm the decode caches once so steady-state throughput is measured.
    for bundle in bundles:
        _arch_sim(bundle, reference).run(ARCH_MAX_INSTRUCTIONS)
    retired = 0
    start = time.perf_counter()
    while True:
        for bundle in bundles:
            sim = _arch_sim(bundle, reference)
            sim.run(ARCH_MAX_INSTRUCTIONS)
            retired += sim.retired
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds:
            return retired / elapsed, retired


def _arch_sim(bundle, reference: bool) -> ArchSimulator:
    sim = load_program(bundle.program)
    if reference:
        sim = ArchSimulator(sim.state, predecode=False)
    return sim


def _bench_uarch(workloads, max_cycles: int, min_seconds: float,
                 reference: bool = False):
    """Total pipeline cycles per second across repeated bounded runs."""
    bundles = [build_workload(name, 1, SEED) for name in workloads]
    cycles = 0
    start = time.perf_counter()
    while True:
        for bundle in bundles:
            pipeline = _uarch_pipeline(bundle, reference)
            pipeline.run(max_cycles)
            cycles += pipeline.cycle_count
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds:
            return cycles / elapsed, cycles


def _uarch_pipeline(bundle, reference: bool) -> Pipeline:
    if reference:
        return load_pipeline(bundle.program, fast=False)
    return load_pipeline(bundle.program)


def _bench_campaign(campaign_cfg: dict, lockstep: bool = True,
                    cache_dir: str | None = None, level: str = "arch"):
    """End-to-end fault-injection campaign trials per second."""
    config = CAMPAIGN_CONFIGS[level](seed=SEED, **campaign_cfg)
    start = time.perf_counter()
    report = run_campaign(
        level, config, cache_dir=cache_dir, lockstep=lockstep
    )
    elapsed = time.perf_counter() - start
    trials = len(report.result.trials)
    return trials / elapsed, trials


def _bench_lockstep_speedup(campaign_cfg: dict, level: str = "arch"):
    """Lockstep vs. serial trial throughput, golden-run time excluded.

    Both legs run against a pre-warmed golden-artifact cache, so the
    ratio measures trial execution alone — the quantity the scheduler
    actually changes — and stays machine-independent enough to gate.
    """
    with tempfile.TemporaryDirectory(prefix="repro-perf-cache-") as cache_dir:
        config = CAMPAIGN_CONFIGS[level](seed=SEED, **campaign_cfg)
        run_campaign(level, config, cache_dir=cache_dir)  # warm the cache
        lock_rate, trials = _bench_campaign(
            campaign_cfg, lockstep=True, cache_dir=cache_dir, level=level
        )
        serial_rate, _ = _bench_campaign(
            campaign_cfg, lockstep=False, cache_dir=cache_dir, level=level
        )
    return lock_rate, serial_rate, trials


def _supports_reference_paths() -> bool:
    """Do the simulators expose their unoptimised reference paths?"""
    try:
        import inspect

        return (
            "predecode" in inspect.signature(ArchSimulator.__init__).parameters
            and "fast" in inspect.signature(Pipeline.__init__).parameters
        )
    except (TypeError, ValueError):  # pragma: no cover - defensive
        return False


def run_benchmarks(scale: str, with_reference: bool = True) -> dict:
    knobs = SCALES[scale]
    min_seconds = knobs["min_seconds"]
    metrics: dict[str, dict] = {}

    arch_rate, arch_n = _bench_arch(knobs["arch_workloads"], min_seconds)
    metrics["arch_steps_per_sec"] = {
        "value": round(arch_rate, 1), "unit": "instructions/s",
        "details": {"workloads": list(knobs["arch_workloads"]),
                    "instructions": arch_n},
    }

    uarch_rate, uarch_n = _bench_uarch(
        knobs["uarch_workloads"], knobs["uarch_max_cycles"], min_seconds
    )
    metrics["uarch_cycles_per_sec"] = {
        "value": round(uarch_rate, 1), "unit": "cycles/s",
        "details": {"workloads": list(knobs["uarch_workloads"]),
                    "cycles": uarch_n},
    }

    trial_rate, trials = _bench_campaign(knobs["campaign"])
    metrics["campaign_trials_per_sec"] = {
        "value": round(trial_rate, 2), "unit": "trials/s",
        "details": {"trials": trials, **knobs["campaign"]},
    }

    for level in ("arch", "uarch"):
        knob = f"{level}_lockstep_campaign"
        lock_rate, serial_rate, lock_trials = _bench_lockstep_speedup(
            knobs[knob], level
        )
        metrics[f"{level}_lockstep_speedup"] = {
            "value": round(lock_rate / serial_rate, 2), "unit": "x",
            "details": {
                "lockstep_trials_per_sec": round(lock_rate, 2),
                "serial_trials_per_sec": round(serial_rate, 2),
                "trials": lock_trials,
                **knobs[knob],
            },
        }

    if with_reference and _supports_reference_paths():
        ref_arch, _ = _bench_arch(
            knobs["arch_workloads"], min_seconds, reference=True
        )
        ref_uarch, _ = _bench_uarch(
            knobs["uarch_workloads"], knobs["uarch_max_cycles"], min_seconds,
            reference=True,
        )
        metrics["arch_speedup"] = {
            "value": round(arch_rate / ref_arch, 2), "unit": "x",
            "details": {"reference_steps_per_sec": round(ref_arch, 1)},
        }
        metrics["uarch_speedup"] = {
            "value": round(uarch_rate / ref_uarch, 2), "unit": "x",
            "details": {"reference_cycles_per_sec": round(ref_uarch, 1)},
        }

    return {
        "schema": SCHEMA,
        "version": __version__,
        "scale": scale,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", choices=sorted(SCALES), default="smoke")
    parser.add_argument("--out", default=None,
                        help="write JSON here (default: stdout)")
    parser.add_argument("--no-reference", action="store_true",
                        help="skip the slow reference-path ratio metrics")
    args = parser.parse_args(argv)

    report = run_benchmarks(args.scale, with_reference=not args.no_reference)
    payload = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as handle:
            handle.write(payload)
        print(f"wrote {args.out}")
    sys.stdout.write(payload)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
