"""Paired comparison of benchmark results from a parent and a change.

Usage::

    python3 benchmarks/e2e/compare.py --parent p1.json ... p10.json \\
        --change c1.json ... c10.json

Each file is a ``run.py --out`` results file; ``--parent`` file *i* and
``--change`` file *i* form pair *i*, which should have been run back to back
with the side that runs first alternating between pairs. At least ten pairs
are required, and every file must carry the same host fingerprint and the
same benchmark settings: the tool refuses to compare across hosts.

For every workload and end-to-end metric it prints each side's median and
quartiles, the share of pairs the change wins (ties count for neither), and
a verdict:

- ``improved``: the change wins at least nine tenths of the pairs and the
  medians differ, in the better direction, by more than the parent's
  interquartile distance;
- ``regressed``: the change's median is worse than the parent's by more
  than the metric's bound in ``BENCHMARK.json``;
- ``unresolved``: neither, and either side's interquartile distance is wider
  than the bound, unless every change run reads better than every parent
  run;
- ``unchanged``: otherwise.

The exit code is 1 when any metric regressed, 2 when the inputs cannot be
compared, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                              "BENCHMARK.json")
MIN_PAIRS = 10
#: End-to-end metrics with a bound that BENCHMARK.json cannot hold: a
#: fraction that is 0 on a healthy run may not grow at all.
EXTRA_METRICS = {"failed_frac": {"better": "lower", "bound": 0.0}}


class IncomparableError(Exception):
    """The result files do not come from one host and one benchmark setting."""


def load_bounds() -> dict[str, dict]:
    with open(BENCHMARK_JSON) as handle:
        metrics = {m["name"]: m for m in json.load(handle)["end_to_end"]}
    return {**metrics, **EXTRA_METRICS}


def _relative(spread: float, median: float) -> float:
    if median:
        return spread / abs(median)
    return 0.0 if spread == 0 else float("inf")


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> dict:
    """Compare paired samples of one metric; ``better`` is higher|lower."""
    if len(parent) != len(change):
        raise ValueError("parent and change need the same number of samples")
    sign = 1.0 if better == "higher" else -1.0
    p_q1, _, p_q3 = statistics.quantiles(parent, n=4)
    c_q1, _, c_q3 = statistics.quantiles(change, n=4)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    win_fraction = wins / len(parent)
    gain = sign * (c_med - p_med)
    spread = max(_relative(p_q3 - p_q1, p_med), _relative(c_q3 - c_q1, c_med))
    every_change_better = (
        min(sign * c for c in change) > max(sign * p for p in parent)
    )
    if win_fraction >= 0.9 and gain > p_q3 - p_q1:
        result = "improved"
    elif -gain > bound * abs(p_med):
        result = "regressed"
    elif spread > bound and not every_change_better:
        result = "unresolved"
    else:
        result = "unchanged"
    return {
        "parent": {"median": p_med, "q1": p_q1, "q3": p_q3},
        "change": {"median": c_med, "q1": c_q1, "q3": c_q3},
        "win_fraction": win_fraction,
        "verdict": result,
    }


def _identity(results: dict) -> tuple:
    settings = dict(results["settings"])
    settings.pop("repeat", None)
    return (json.dumps(results["fingerprint"], sort_keys=True),
            json.dumps(settings, sort_keys=True))


def compare(parents: list[dict], changes: list[dict],
            bounds: dict[str, dict]) -> list[dict]:
    """One row per (workload, end-to-end metric) present on both sides."""
    if len(parents) != len(changes):
        raise IncomparableError("need as many parent files as change files")
    if len(parents) < MIN_PAIRS:
        raise IncomparableError(
            f"need at least {MIN_PAIRS} pairs, got {len(parents)}")
    identities = {_identity(r) for r in parents + changes}
    if len(identities) > 1:
        raise IncomparableError(
            "result files differ in host fingerprint or benchmark settings: "
            + "; ".join(sorted(" | ".join(i) for i in identities)))
    rows = []
    for workload in parents[0]["workloads"]:
        for name, spec in bounds.items():
            try:
                parent = [r["workloads"][workload]["end_to_end"][name]["value"]
                          for r in parents]
                change = [r["workloads"][workload]["end_to_end"][name]["value"]
                          for r in changes]
            except KeyError:
                continue
            row = verdict(parent, change, spec["better"], spec["bound"])
            rows.append({"workload": workload, "metric": name,
                         "bound": spec["bound"], **row})
    return rows


def format_rows(rows: list[dict]) -> str:
    lines = [f"{'workload':18s} {'metric':14s} {'parent median [q1, q3]':32s} "
             f"{'change median [q1, q3]':32s} {'wins':>5s}  verdict"]
    for row in rows:
        sides = []
        for side in ("parent", "change"):
            s = row[side]
            sides.append(f"{s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}]")
        lines.append(f"{row['workload']:18s} {row['metric']:14s} {sides[0]:32s} "
                     f"{sides[1]:32s} {row['win_fraction']:5.0%}  {row['verdict']}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)

    def load(path):
        with open(path) as handle:
            return json.load(handle)

    try:
        rows = compare([load(p) for p in args.parent],
                       [load(c) for c in args.change], load_bounds())
    except IncomparableError as exc:
        print(f"compare: refusing: {exc}", file=sys.stderr)
        return 2
    print(format_rows(rows))
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    raise SystemExit(main())
