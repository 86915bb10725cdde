"""Tests of the end-to-end benchmark harness.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e`` (they are not
part of the tier-1 suite). The two tiny end-to-end runs take ~15 s.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import compare  # noqa: E402
import harness  # noqa: E402
import spans  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCH = json.load(_handle)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_metric_with_its_unit(tmp_path, trace):
    out = tmp_path / "results.json"
    spans_path = tmp_path / "spans.jsonl"
    proc = _run("--scale", "tiny", "--seconds", "0", "--trace", str(trace),
                "--out", str(out), "--spans", str(spans_path))
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] > 0
    assert last["failed"] == 0

    kind = "per_layer" if trace else "end_to_end"
    wanted = {m["name"]: m["unit"] for m in BENCH[kind]}
    results = json.loads(out.read_text())
    assert results["fingerprint"]["nproc"] == os.cpu_count()
    assert set(results["workloads"]) == {w["name"] for w in BENCH["workloads"]}
    for workload, entry in results["workloads"].items():
        for name, unit in wanted.items():
            assert last["metrics"][f"{workload}.{name}"]["unit"] == unit
            assert entry[kind][name]["unit"] == unit
            # Every metric is also printed by name with its unit.
            assert any(line.split()[:2] == [workload, name]
                       and line.split()[-1] == unit
                       for line in proc.stdout.splitlines())
        if not trace:
            assert entry["end_to_end"]["campaign_s"]["value"] > 0
            assert entry["end_to_end"]["setup_s"]["value"] > 0
            assert entry["end_to_end"]["failed_frac"]["value"] == 0
    if trace:
        fig46 = results["workloads"]["uarch-fig46"]["per_layer"]
        assert fig46["campaign.attributed_frac"]["value"] > 0.5
        assert fig46["uarch.window_s"]["value"] > 0
        service = results["workloads"]["arch-fig2-service"]["per_layer"]
        assert service["service.unit_ms.p50"]["value"] > 0
        records = [json.loads(line) for line in spans_path.read_text().splitlines()]
        assert {r["workload"] for r in records} == set(results["workloads"])
        assert any(r["name"] == "campaign.guard" and r["key"] for r in records)


def test_bare_benchmark_directory_exits_nonzero(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "arch-fig2",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def _tree(intervals):
    rec = spans.SpanRecorder()
    for name, start, end, parent in intervals:
        span = spans.Span(name, start, parent)
        span.end = end
        rec.spans.append(span)
    return rec


def test_self_time_subtracts_the_union_of_children():
    rec = _tree([
        ("campaign", 0, 100, -1),
        ("a", 10, 40, 0),
        ("a.child", 20, 30, 1),
        ("b", 50, 90, 0),
        ("c", 80, 95, 0),  # overlaps b: the union counts 80-90 once
        ("setup", 200, 260, -1),
    ])
    assert spans.self_times(rec.spans) == [25, 20, 10, 40, 15, 60]


def test_layer_metrics_split_phases_and_attribute_the_root():
    rec = _tree([
        ("setup", 0, 50, -1),
        ("cache.store", 10, 30, 0),
        ("campaign", 100, 200, -1),
        ("uarch.prefix", 100, 120, 2),
        ("campaign.guard", 120, 190, 2),
        ("uarch.fork", 120, 130, 4),
        ("uarch.window", 130, 180, 4),
    ])
    values = spans.layer_metrics(rec, level="uarch", trace_overhead_frac=0.25)
    assert values["cache.store_s"] == pytest.approx(20e-9)
    assert values["uarch.window_s"] == pytest.approx(50e-9)
    assert values["faults.uarch_classify_s"] == pytest.approx(10e-9)
    assert values["campaign.harness_self_s"] == pytest.approx(10e-9)
    assert values["campaign.attributed_frac"] == pytest.approx(0.9)
    assert values["trace_overhead_frac"] == pytest.approx(0.25)
    assert list(values) == [name for name, _ in spans.LAYER_METRICS]


BOUND = 0.10


@pytest.mark.parametrize("parent, change, better, expected", [
    ([10.0 + 0.1 * i for i in range(10)], [8.0 + 0.1 * i for i in range(10)],
     "lower", "improved"),
    ([10.0 + 0.1 * i for i in range(10)], [12.0 + 0.1 * i for i in range(10)],
     "lower", "regressed"),
    ([100.0 + i for i in range(10)], [101.0 - i for i in range(10)],
     "higher", "unchanged"),
    ([10.0, 14.0] * 5, [14.0, 10.0] * 5, "lower", "unresolved"),
])
def test_compare_verdicts(parent, change, better, expected):
    assert compare.verdict(parent, change, better, BOUND)["verdict"] == expected


def _results(fingerprint, value):
    return {
        "fingerprint": fingerprint,
        "settings": {"scale": "bench", "seed": 2005, "seconds": 10.0,
                     "repeat": 1, "trace": 0},
        "workloads": {"arch-fig2": {"end_to_end": {
            "campaign_s": {"value": value, "unit": "s"},
            "failed_frac": {"value": 0.0, "unit": "fraction"},
        }}},
    }


def test_compare_refuses_across_hosts_and_reports_rows(tmp_path):
    host = {"cpu": "x", "nproc": 2, "python": "3.11", "platform": "linux"}
    other = dict(host, cpu="y")
    parents = [_results(host, 10.0) for _ in range(10)]
    changes = [_results(host, 10.0) for _ in range(9)] + [_results(other, 10.0)]
    bounds = compare.load_bounds()
    with pytest.raises(compare.IncomparableError):
        compare.compare(parents, changes, bounds)
    with pytest.raises(compare.IncomparableError):
        compare.compare(parents[:9], parents[:9], bounds)
    rows = compare.compare(parents, parents, bounds)
    assert {(r["metric"], r["verdict"]) for r in rows} == {
        ("campaign_s", "unchanged"), ("failed_frac", "unchanged")}

    paths = []
    for index, results in enumerate(parents + changes):
        path = tmp_path / f"r{index}.json"
        path.write_text(json.dumps(results))
        paths.append(str(path))
    assert compare.main(["--parent", *paths[:10], "--change", *paths[10:]]) == 2


def test_tampered_journal_trips_the_digest_check(tmp_path):
    from repro.campaign import run_campaign

    config, _ = harness.panel("arch-fig2", "tiny", harness.PINNED_SEED)[0]
    expected = harness.pinned_digests("tiny", "arch-fig2", harness.PINNED_SEED)[0]
    journal = tmp_path / "journal.jsonl"
    run_campaign("arch", config, journal_path=str(journal), jobs=1)

    def check():
        result = harness.JournalCheck(
            workloads=config.workloads,
            trials=config.trials_per_workload * len(config.workloads),
            expected=expected,
        )
        result.add(str(journal))
        return result.errors

    assert check() == []
    lines = journal.read_text().splitlines(keepends=True)
    lines[1] = lines[1].replace('"ok"', '"OK"')
    journal.write_text("".join(lines))
    assert any("expected" in error for error in check())
