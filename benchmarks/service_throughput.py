"""Throughput benchmark for the campaign service's local worker pool.

Submits the same sharded fault-injection job to an in-process
scheduler + :class:`LocalWorkerPool` at 1, 2, and 4 workers and records
end-to-end trials/second for each fleet size (submit → journal
finalized), plus the scaling ratio relative to the single-worker run.
Every run executes the identical trial set — the serial-equivalence
invariant means fleet size can only change wall-clock, never results —
and the benchmark asserts the outcome tables agree before reporting.

Results are written as schema'd JSON (see ``SCHEMA``). Usage::

    PYTHONPATH=src python benchmarks/service_throughput.py --scale smoke \
        --out benchmarks/out/service_throughput.json

Units execute on the pool's own process pool — the ``repro serve``
configuration, one OS process per worker — with workers leasing in
batches of ``--lease-batch`` units per scheduler call. Scaling numbers
from a process pool are only honest on a multi-core host, so when
``os.cpu_count() < 2`` the benchmark refuses to publish: at smoke scale
it warns and exits 0 without writing ``--out`` (CI smoke stays green on
tiny runners), at full scale it exits 1.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import sys
import time

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.path.isdir(os.path.join(_REPO_ROOT, "src")):
    sys.path.insert(0, os.path.join(_REPO_ROOT, "src"))

from repro import __version__  # noqa: E402
from repro.service import (  # noqa: E402
    CampaignScheduler,
    JobSpec,
    LocalWorkerPool,
    ResultStore,
    build_config,
)
from repro.service.store import JOB_TERMINAL_STATES  # noqa: E402

SCHEMA = "repro-service-bench/1"

WORKER_COUNTS = (1, 2, 4)

# Per-scale campaign sizing. Shard count is fixed at the largest fleet
# size so every run decomposes into the same units and only the worker
# count varies between measurements.
SCALES = {
    "smoke": {
        "level": "arch",
        "config": {
            "trials_per_workload": 24,
            "injection_points": 8,
            "workloads": ["gzip", "mcf"],
            "seed": 2005,
        },
        "shards_per_workload": max(WORKER_COUNTS),
    },
    "full": {
        "level": "arch",
        "config": {
            "trials_per_workload": 60,
            "injection_points": 12,
            "workloads": ["gzip", "mcf", "parser"],
            "seed": 2005,
        },
        "shards_per_workload": max(WORKER_COUNTS),
    },
}

POLL_INTERVAL = 0.01


async def _run_job(spec: JobSpec, workers: int, lease_batch: int,
                   data_dir: str) -> dict:
    """One timed run: submit, drain with ``workers`` workers, finalize."""
    store = ResultStore(":memory:")
    scheduler = CampaignScheduler(store, data_dir)
    pool = LocalWorkerPool(
        scheduler, workers=workers, lease_batch=lease_batch,
        poll_interval=POLL_INTERVAL,
    )
    try:
        pool.start()
        start = time.perf_counter()
        view = scheduler.submit(spec)
        job_id = view["job_id"]
        while store.job(job_id)["state"] not in JOB_TERMINAL_STATES:
            await asyncio.sleep(POLL_INTERVAL)
        elapsed = time.perf_counter() - start
        final = scheduler.job_view(job_id)
    finally:
        await pool.stop()
        store.close()
    if final["state"] != "done":
        raise RuntimeError(
            f"benchmark job ended {final['state']!r}: {final.get('error')}"
        )
    return {
        "workers": workers,
        "seconds": elapsed,
        "trials": final["trials"],
        "outcomes": final["outcomes"],
    }


def run_benchmarks(scale: str, lease_batch: int, data_dir: str) -> dict:
    knobs = SCALES[scale]
    spec = JobSpec(
        level=knobs["level"],
        config=build_config(knobs["level"], knobs["config"]),
        shards_per_workload=knobs["shards_per_workload"],
    )

    # Warm-up: one throwaway single-worker run so decode caches and
    # executor start-up cost don't land in the first measurement.
    asyncio.run(_run_job(spec, 1, lease_batch, data_dir))

    runs = [
        asyncio.run(_run_job(spec, workers, lease_batch, data_dir))
        for workers in WORKER_COUNTS
    ]

    tables = {json.dumps(run["outcomes"], sort_keys=True) for run in runs}
    if len(tables) != 1:
        raise RuntimeError(
            f"outcome tables diverged across fleet sizes: {sorted(tables)}"
        )

    metrics: dict[str, dict] = {}
    base_rate = runs[0]["trials"] / runs[0]["seconds"]
    for run in runs:
        rate = run["trials"] / run["seconds"]
        metrics[f"service_trials_per_sec_{run['workers']}w"] = {
            "value": round(rate, 2),
            "unit": "trials/s",
            "details": {
                "workers": run["workers"],
                "trials": run["trials"],
                "seconds": round(run["seconds"], 3),
            },
        }
        if run["workers"] > 1:
            metrics[f"service_scaling_{run['workers']}w"] = {
                "value": round(rate / base_rate, 2),
                "unit": "x vs 1 worker",
                "details": {"workers": run["workers"]},
            }

    return {
        "schema": SCHEMA,
        "version": __version__,
        "scale": scale,
        "executor": "process",
        "lease_batch": lease_batch,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "job": {
            "level": knobs["level"],
            "config": knobs["config"],
            "shards_per_workload": knobs["shards_per_workload"],
        },
        "outcomes": runs[0]["outcomes"],
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", choices=sorted(SCALES), default="smoke")
    parser.add_argument("--lease-batch", type=int, default=4,
                        help="units leased per scheduler call (default: 4)")
    parser.add_argument("--out", default=None,
                        help="write JSON here (default: stdout)")
    args = parser.parse_args(argv)

    if args.lease_batch < 1:
        parser.error(f"--lease-batch must be >= 1, got {args.lease_batch}")

    cpus = os.cpu_count() or 1
    if cpus < 2:
        message = (
            f"service_throughput: host has cpu_count={cpus}; a process-"
            f"pool scaling baseline from a single-core machine would be "
            f"dishonest, refusing to publish one"
        )
        if args.scale == "smoke":
            print(f"WARNING: {message} (smoke scale: exiting 0, "
                  f"no output written)", file=sys.stderr)
            return 0
        print(f"ERROR: {message}", file=sys.stderr)
        return 1

    import tempfile

    with tempfile.TemporaryDirectory(prefix="service-bench-") as data_dir:
        report = run_benchmarks(args.scale, args.lease_batch, data_dir)
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
