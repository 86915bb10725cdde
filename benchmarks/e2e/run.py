"""End-to-end benchmark of the fault-injection campaigns, one command.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py [--workload a,b] [--seed 2005] \\
        [--seconds 12] [--repeat N] [--trace 0|1] [--spans PATH] \\
        [--scale bench|paper|tiny] [--out results.json]

Each workload runs in a fresh child process, one after another, so each
gets its own ``peak_rss_mb``. Every metric is printed by name with its
unit; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics, or with ``--trace 1`` the per-layer ones). The exit code is
non-zero when any correctness check fails. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

import harness

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".e2e-work")
SCHEMA = "repro-e2e/1"
WORKLOAD_NAMES = tuple(harness.LEVELS)
CHILD_TIMEOUT = 170.0

sys.path.insert(0, SRC)


def host_fingerprint() -> dict:
    """What results from different hosts must not be compared across."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def _metric_names(kind: str) -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return [metric["name"] for metric in json.load(handle)[kind]]


def _run_child(args, workload: str) -> dict:
    """Measure one workload in a fresh interpreter and return its result."""
    command = [
        sys.executable, os.path.abspath(__file__), "--child", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--scale", args.scale, "--trace", str(args.trace),
    ]
    if args.spans:
        command += ["--spans", os.path.abspath(args.spans)]
    # Its own process group, so a timeout also stops the service's pool workers.
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        out, _ = child.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise SystemExit(f"e2e: {workload} exceeded {CHILD_TIMEOUT:.0f}s")
    lines = out.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise SystemExit(f"e2e: {workload} measurement failed "
                         f"(exit {child.returncode})")
    return json.loads(lines[-1])


def _median_metrics(runs: list[dict], kind: str) -> dict:
    names = [name for name in runs[0].get(kind, {})]
    return {
        name: {
            "value": statistics.median(run[kind][name]["value"] for run in runs),
            "unit": runs[0][kind][name]["unit"],
        }
        for name in names
    }


def _summarize(workloads, runs_by_workload) -> tuple[dict, list[str]]:
    errors = []
    summary = {}
    for workload in workloads:
        runs = runs_by_workload[workload]
        for run in runs:
            errors.extend(f"{workload}: {e}" for e in run["errors"])
        digests = {tuple(run["journal_sha256"]) for run in runs}
        if len(digests) > 1:
            errors.append(f"{workload}: journals differ across repeats")
        summary[workload] = {
            "journal_sha256": runs[0]["journal_sha256"],
            "end_to_end": _median_metrics(runs, "end_to_end"),
            "per_layer": _median_metrics(runs, "per_layer"),
            "runs": runs,
        }
    return summary, errors


def _print_metrics(summary: dict) -> None:
    for workload, entry in summary.items():
        for kind in ("end_to_end", "per_layer"):
            for name, metric in entry[kind].items():
                print(f"{workload:18s} {name:30s} {metric['value']:.6g} "
                      f"{metric['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the fault-injection campaigns."
    )
    parser.add_argument("--workload", "--workloads", dest="workloads",
                        default=",".join(WORKLOAD_NAMES),
                        help="comma-separated workloads (default: all five)")
    parser.add_argument("--seed", type=int, default=2005)
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="keep making passes over the panel for this "
                             "long (default 12; at least one pass)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="fresh-process runs per workload (default 1)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: trace the set-ups and one pass over the "
                             "panel and report the per-layer metrics")
    parser.add_argument("--spans", default=None,
                        help="with --trace 1, append the spans here (JSONL)")
    parser.add_argument("--scale", choices=sorted(harness.SCALES), default="bench")
    parser.add_argument("--out", default=None, help="write a results file")
    parser.add_argument("--child", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"e2e: no package source under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.child is not None:
        return _child_main(args)

    workloads = [w for w in args.workloads.split(",") if w]
    unknown = sorted(set(workloads) - set(WORKLOAD_NAMES))
    if unknown or not workloads:
        parser.error(f"unknown workloads {unknown}; know {list(WORKLOAD_NAMES)}")
    if args.repeat < 1 or args.seconds < 0 or args.seed < 0:
        parser.error("--repeat must be >= 1, --seconds and --seed >= 0")

    runs_by_workload: dict[str, list[dict]] = {w: [] for w in workloads}
    for _ in range(args.repeat):
        for workload in workloads:
            runs_by_workload[workload].append(_run_child(args, workload))
    summary, errors = _summarize(workloads, runs_by_workload)
    _print_metrics(summary)
    for error in errors:
        print(f"CHECK FAILED {error}", file=sys.stderr)

    if args.out:
        results = {
            "schema": SCHEMA,
            "fingerprint": host_fingerprint(),
            "settings": {"scale": args.scale, "seed": args.seed,
                         "seconds": args.seconds, "repeat": args.repeat,
                         "trace": args.trace},
            "correct": not errors,
            "errors": errors,
            "workloads": summary,
        }
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as handle:
            json.dump(results, handle, indent=1, sort_keys=True)

    kind = "per_layer" if args.trace else "end_to_end"
    wanted = _metric_names(kind)
    metrics = {}
    for workload, entry in summary.items():
        prefix = "" if len(summary) == 1 else f"{workload}."
        for name in wanted:
            metrics[prefix + name] = entry[kind][name]
    all_runs = [run for runs in runs_by_workload.values() for run in runs]
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(run["attempted"] for run in all_runs),
        "failed": sum(run["failed"] for run in all_runs),
        "metrics": metrics,
    }))
    return 1 if errors else 0


def _child_main(args) -> int:
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.child}-", dir=WORK_ROOT)
    # Temp files of this process and of the pool workers it spawns stay
    # inside the checkout.
    os.environ["TMPDIR"] = workdir
    tempfile.tempdir = workdir
    try:
        result = harness.measure(
            args.child, args.scale, args.seed, args.seconds, bool(args.trace),
            workdir, spans_path=args.spans,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
