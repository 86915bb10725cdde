"""The adaptive campaign planner: allocation, prescreen, determinism.

Three layers are pinned here:

1. The planner core as a pure sequential-experiment machine — round
   structure, widest-first reallocation, budget caps, protocol errors,
   and summary replay.
2. The masking prescreen's soundness *differentially*: every point it
   classifies dead must produce, under full simulation, exactly the
   masked record the prescreen fabricates — across every default kernel
   and several bit positions.
3. Adaptive campaign determinism end to end: the same seed and margin
   produce byte-identical journals across serial/parallel runs, a resume
   interrupted mid-round, and a sharded service job (including a
   scheduler restart between rounds).
"""

import filecmp
import math
import os

import pytest

from repro.campaign import run_campaign
from repro.faults import ArchCampaignConfig
from repro.planner import (
    CampaignPlanner,
    PlannerConfig,
    PlannerProtocolError,
    aggregate_planner_summaries,
    format_point_margins,
    journal_point_tallies,
    point_margins,
    prescreen_dead_points,
    preview_plan,
    replay_summary,
    resolve_budget,
)
from repro.util.journal import JournalError, read_journal

# Small but multi-round: 4 points, round 0 spends 8 of the 40 budget
# (2 per point — too few to converge even an all-masked point at the
# 0.3 margin), so round 1 must top up every point before stopping.
PLANNER = PlannerConfig(margin=0.3, min_trials=2, round_trials=2)
ARCH_CONFIG = ArchCampaignConfig(
    trials_per_workload=40,
    injection_points=4,
    workloads=("gcc",),
    seed=7,
)


class TestPlannerConfig:
    def test_defaults_and_round_trip(self):
        config = PlannerConfig()
        assert config.margin == 0.05
        assert config.prescreen is True
        assert PlannerConfig.from_dict(config.to_dict()) == config

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            PlannerConfig(margin=0.0)
        with pytest.raises(ValueError):
            PlannerConfig(margin=1.0)
        with pytest.raises(ValueError):
            PlannerConfig(min_trials=0)
        with pytest.raises(ValueError):
            PlannerConfig(round_trials=0)
        with pytest.raises(ValueError):
            PlannerConfig(max_trials=0)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown planner options"):
            PlannerConfig.from_dict({"margin": 0.1, "rounds": 3})

    def test_budget_defaults_to_uniform_trials(self):
        assert resolve_budget(PLANNER, ARCH_CONFIG) == 40
        capped = PlannerConfig(margin=0.3, max_trials=12)
        assert resolve_budget(capped, ARCH_CONFIG) == 12


class TestCampaignPlanner:
    def test_round_zero_gives_every_point_min_trials(self):
        planner = CampaignPlanner(
            PlannerConfig(margin=0.3, min_trials=4, round_trials=2),
            [5, 2, 9], budget=100,
        )
        assert planner.plan_round() == [(2, 0, 4), (5, 0, 4), (9, 0, 4)]

    def test_converged_points_stop_getting_budget(self):
        planner = CampaignPlanner(
            PlannerConfig(margin=0.2, min_trials=10, round_trials=2),
            [1, 2], budget=100,
        )
        for point, _start, count in planner.plan_round():
            for i in range(count):
                # Point 1 all-masked (narrow); point 2 split 50/50 (wide).
                planner.observe(point, ok=True, failing=(point == 2 and i % 2 == 0))
        # 0/10 failing: Wilson margin ~= 0.139 <= 0.2 -> converged;
        # 5/10 failing: ~= 0.263 -> still wide.
        assert planner.converged(1)
        assert not planner.converged(2)
        assert planner.plan_round() == [(2, 10, 2)]

    def test_widest_first_when_budget_is_short(self):
        planner = CampaignPlanner(
            PlannerConfig(margin=0.01, min_trials=2, round_trials=2),
            [1, 2], budget=6,
        )
        for point, _start, count in planner.plan_round():
            for i in range(count):
                # Point 2's 1/2 split is wider than point 1's 0/2.
                planner.observe(point, ok=True, failing=(point == 2 and i == 0))
        assert planner.margin(2) > planner.margin(1)
        # 2 budget left: the widest point takes the whole top-up.
        assert planner.plan_round() == [(2, 2, 2)]

    def test_budget_cap_terminates_the_loop(self):
        planner = CampaignPlanner(
            PlannerConfig(margin=0.001, min_trials=4, round_trials=4),
            [1], budget=10,
        )
        executed = 0
        while True:
            allocation = planner.plan_round()
            if not allocation:
                break
            for point, _start, count in allocation:
                executed += count
                for _ in range(count):
                    planner.observe(point, ok=True, failing=False)
        assert executed == 10
        assert planner.finished
        assert planner.summary()["trials_saved"] == 0

    def test_harness_outcomes_spend_budget_without_tally(self):
        planner = CampaignPlanner(
            PlannerConfig(margin=0.3, min_trials=3, round_trials=1),
            [1], budget=3,
        )
        for point, _start, count in planner.plan_round():
            for _ in range(count):
                planner.observe(point, ok=False, failing=False)
        assert math.isinf(planner.margin(1))
        assert planner.plan_round() == []  # budget spent, point still wide
        summary = planner.summary()
        assert summary["executed"] == 3
        assert summary["points"][0]["trials"] == 0
        assert summary["points"][0]["margin"] is None

    def test_prescreened_points_are_budget_free_and_converged(self):
        planner = CampaignPlanner(
            PlannerConfig(margin=0.3, min_trials=4, round_trials=2),
            [1, 2], prescreened=[2], budget=4,
        )
        assert planner.margin(2) == 0.0
        allocation = planner.plan_round()
        assert allocation == [(1, 0, 4), (2, 0, 4)]
        for point, _start, count in allocation:
            for _ in range(count):
                planner.observe(point, ok=True, failing=False)
        assert planner.executed == 4  # point 2's trials cost nothing
        assert planner.prescreen_trials == 4
        summary = planner.summary()
        assert summary["prescreen_points"] == 1
        assert summary["points"][1]["prescreened"] is True

    def test_protocol_violations_raise(self):
        planner = CampaignPlanner(PLANNER, [1], budget=10)
        with pytest.raises(PlannerProtocolError):
            planner.observe(1, ok=True, failing=False)  # nothing allocated
        planner.plan_round()
        with pytest.raises(PlannerProtocolError):
            planner.plan_round()  # previous round not fully observed
        with pytest.raises(PlannerProtocolError):
            planner.observe(99, ok=True, failing=False)

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            CampaignPlanner(PLANNER, [], budget=10)
        with pytest.raises(ValueError):
            CampaignPlanner(PLANNER, [1, 1], budget=10)
        with pytest.raises(ValueError):
            CampaignPlanner(PLANNER, [1], prescreened=[2], budget=10)
        with pytest.raises(ValueError):
            CampaignPlanner(PLANNER, [1], budget=0)

    def test_replay_reconstructs_the_summary(self):
        outcomes = {}
        planner = CampaignPlanner(PLANNER, [1, 2, 3], budget=30)
        while True:
            allocation = planner.plan_round()
            if not allocation:
                break
            for point, start, count in allocation:
                for index in range(start, start + count):
                    verdict = (True, (point * 7 + index) % 3 == 0)
                    outcomes[(point, index)] = verdict
                    planner.observe(point, ok=verdict[0], failing=verdict[1])
        replayed = replay_summary(
            PLANNER, [1, 2, 3], (), budget=30, outcomes=outcomes
        )
        assert replayed == planner.summary()

    def test_aggregate_sums_integer_tallies(self):
        summary = {
            "budget": 10, "executed": 6, "trials_saved": 4,
            "prescreen_points": 1, "prescreen_trials": 4, "rounds": 2,
            "total_points": 3, "converged_points": 3, "points": [],
        }
        totals = aggregate_planner_summaries(PLANNER, [summary, summary])
        assert totals["workloads"] == 2
        assert totals["executed"] == 12
        assert totals["trials_saved"] == 8
        assert totals["rounds_max"] == 2
        assert totals["margin"] == PLANNER.margin


class TestPrescreenDifferential:
    def test_prescreen_verdicts_match_full_simulation(self):
        """Every prescreened point, on every default kernel, simulates to
        exactly the fabricated masked record — for multiple bits."""
        from repro.faults.arch_campaign import (
            _load_golden,
            _prefix_simulator,
            _run_trial,
            sample_points,
        )
        from repro.faults.classify import ArchTrialResult

        config = ArchCampaignConfig(trials_per_workload=40, injection_points=20)
        total_dead = 0
        for workload in config.workloads:
            bundle, trace, _ = _load_golden(config, workload, None)
            points = sample_points(config, workload, trace)
            dead = prescreen_dead_points(trace, points)
            assert dead <= set(points)
            total_dead += len(dead)
            for point in sorted(dead):
                for bit in (0, 31, 63):
                    prefix = _prefix_simulator(bundle, trace, point)
                    if prefix.retired < point and prefix.running:
                        prefix.run(point - prefix.retired)
                    record = _run_trial(
                        workload, prefix, trace, trace.memop_counts,
                        point, bit, config,
                    )
                    assert record == ArchTrialResult(
                        workload=workload, inject_step=point, bit=bit
                    ), f"{workload} point {point} bit {bit} is not dead"
        assert total_dead > 0  # the sweep must actually exercise the claim


def _adaptive_journal(tmp_path, name, **kwargs):
    path = str(tmp_path / name)
    report = run_campaign(
        "arch", ARCH_CONFIG, planner=PLANNER, journal_path=path, **kwargs
    )
    return path, report


class TestAdaptiveDeterminism:
    def test_serial_and_parallel_journals_are_byte_identical(self, tmp_path):
        serial, _ = _adaptive_journal(tmp_path, "serial.jsonl", jobs=1)
        parallel, _ = _adaptive_journal(tmp_path, "parallel.jsonl", jobs=4)
        assert filecmp.cmp(serial, parallel, shallow=False)

    def test_serial_trial_path_journal_is_byte_identical(self, tmp_path):
        """Every planner round through the serial per-trial path writes the
        lockstep journal byte for byte."""
        lock, lock_report = _adaptive_journal(tmp_path, "lockstep.jsonl")
        serial, _ = _adaptive_journal(tmp_path, "serial.jsonl", lockstep=False)
        assert lock_report.planner_totals["rounds_max"] >= 2
        assert filecmp.cmp(lock, serial, shallow=False)

    def test_resume_mid_round_is_byte_identical(self, tmp_path):
        full, full_report = _adaptive_journal(tmp_path, "full.jsonl")
        lines = open(full).read().splitlines(keepends=True)
        trial_lines = [
            i for i, line in enumerate(lines) if '"kind": "trial"' in line
        ]
        # Cut inside round 1: past round 0's 8 trials, mid-journal.
        assert len(trial_lines) > 12
        cut = trial_lines[11]
        partial = str(tmp_path / "partial.jsonl")
        with open(partial, "w") as out:
            out.writelines(lines[:cut])
        report = run_campaign(
            "arch", ARCH_CONFIG, planner=PLANNER, journal_path=partial,
            resume=True,
        )
        assert report.resumed > 0
        assert filecmp.cmp(full, partial, shallow=False)
        assert report.planner_totals == full_report.planner_totals

    def test_adaptive_saves_trials_within_budget(self, tmp_path):
        _path, report = _adaptive_journal(tmp_path, "save.jsonl")
        totals = report.planner_totals
        assert totals["workloads"] == 1
        assert totals["budget"] == 40
        assert totals["executed"] + totals["trials_saved"] == totals["budget"]
        assert totals["trials_saved"] > 0
        assert totals["converged_points"] == totals["total_points"]

    def test_manifest_records_planner_and_gates_resume(self, tmp_path):
        path, _ = _adaptive_journal(tmp_path, "adaptive.jsonl")
        manifest = read_journal(path)[0]
        assert manifest["planner"] == PLANNER.to_dict()
        with pytest.raises(JournalError):
            run_campaign(
                "arch", ARCH_CONFIG, journal_path=path, resume=True
            )  # uniform resume of an adaptive journal
        with pytest.raises(JournalError):
            run_campaign(
                "arch", ARCH_CONFIG, journal_path=path, resume=True,
                planner=PlannerConfig(margin=0.2, min_trials=4,
                                      round_trials=2),
            )  # different planner settings

    def test_uniform_manifest_has_no_planner_key(self, tmp_path):
        path = str(tmp_path / "uniform.jsonl")
        run_campaign("arch", ARCH_CONFIG, journal_path=path)
        manifest = read_journal(path)[0]
        assert "planner" not in manifest
        # And the sentinel lines carry no planner fields either.
        for entry in read_journal(path)[1:]:
            if entry.get("kind") == "workload":
                assert "planner_points" not in entry

    def test_adaptive_rejected_for_uarch(self):
        from repro.faults import UarchCampaignConfig

        with pytest.raises(ValueError, match="arch"):
            run_campaign(
                "uarch",
                UarchCampaignConfig(
                    trials_per_workload=8, injection_points=4,
                    workloads=("gcc",), seed=7,
                ),
                planner=PLANNER,
            )

    def test_point_converged_events_are_emitted(self):
        from repro.telemetry import RingBufferTraceSink

        sink = RingBufferTraceSink(capacity=4096)
        run_campaign("arch", ARCH_CONFIG, planner=PLANNER, trace=sink)
        events = [
            e for e in sink.events() if e.get("kind") == "point_converged"
        ]
        assert events, "adaptive runs must announce converged points"
        for event in events:
            assert event["workload"] == "gcc"
            assert event["trials"] >= 0
            assert 0.0 <= event["margin"] <= 1.0


class TestServiceAdaptive:
    def _drain(self, scheduler, job_id):
        from repro.service.worker import execute_unit

        for _ in range(200):
            leases = scheduler.lease_batch("w0", 1)
            if not leases:
                if scheduler.job_view(job_id)["state"] == "done":
                    return
                continue
            [lease] = leases
            result = execute_unit(lease["spec"], lease["unit"])
            assert scheduler.complete(
                lease["unit"]["job_id"], lease["unit"]["unit_id"], "w0",
                result,
            )
        raise AssertionError("service job did not finish")

    def _scheduler(self, tmp_path, tag):
        from repro.service.scheduler import CampaignScheduler
        from repro.service.store import ResultStore

        store = ResultStore(str(tmp_path / f"{tag}.db"))
        return CampaignScheduler(store, str(tmp_path / tag))

    def test_sharded_adaptive_job_matches_local_journal(self, tmp_path):
        from repro.service.spec import JobSpec

        local, _ = _adaptive_journal(tmp_path, "local.jsonl")
        scheduler = self._scheduler(tmp_path, "svc")
        job = scheduler.submit(JobSpec(
            level="arch", config=ARCH_CONFIG, shards_per_workload=2,
            planner=PLANNER,
        ))
        self._drain(scheduler, job["job_id"])
        view = scheduler.job_view(job["job_id"])
        assert view["state"] == "done"
        assert filecmp.cmp(local, view["journal_path"], shallow=False)
        assert view["metrics"]["planner"]["trials_saved"] > 0

    def test_scheduler_restart_between_rounds_recovers(self, tmp_path):
        from repro.service.scheduler import CampaignScheduler
        from repro.service.spec import JobSpec
        from repro.service.store import ResultStore
        from repro.service.worker import execute_unit

        local, _ = _adaptive_journal(tmp_path, "local.jsonl")
        db = str(tmp_path / "svc.db")
        data = str(tmp_path / "svc-data")
        store = ResultStore(db)
        first = CampaignScheduler(store, data)
        job = first.submit(JobSpec(
            level="arch", config=ARCH_CONFIG, shards_per_workload=2,
            planner=PLANNER,
        ))
        # Crash simulation: round 0's trials are persisted, but the
        # process dies inside complete() before the planner dispatches
        # the next round (or finalizes anything).
        first._maybe_finalize = lambda job_id: None
        while leases := first.lease_batch("w0", 1):
            [lease] = leases
            result = execute_unit(lease["spec"], lease["unit"])
            first.complete(
                lease["unit"]["job_id"], lease["unit"]["unit_id"], "w0",
                result,
            )
        assert first.job_view(job["job_id"])["state"] == "running"
        store.close()

        # A fresh scheduler over the same store must replay the planner
        # at boot, dispatch the stranded round, and finish the job.
        store = ResultStore(db)
        second = CampaignScheduler(store, data)
        self._drain(second, job["job_id"])
        view = second.job_view(job["job_id"])
        assert view["state"] == "done"
        assert filecmp.cmp(local, view["journal_path"], shallow=False)
        store.close()

    def test_spec_rejects_planner_for_uarch(self):
        from repro.service.spec import JobSpec, ServiceError, build_config

        with pytest.raises(ServiceError, match="arch"):
            JobSpec(
                level="uarch",
                config=build_config("uarch", {
                    "trials_per_workload": 8, "injection_points": 4,
                    "workloads": ["gcc"], "seed": 7,
                }),
                planner=PLANNER,
            )

    def test_spec_round_trips_planner(self):
        from repro.service.spec import JobSpec

        spec = JobSpec(level="arch", config=ARCH_CONFIG, planner=PLANNER)
        data = spec.to_dict()
        assert data["planner"] == PLANNER.to_dict()
        rebuilt = JobSpec.from_dict(data)
        assert rebuilt.planner == PLANNER
        uniform = JobSpec(level="arch", config=ARCH_CONFIG)
        assert "planner" not in uniform.to_dict()


class TestMarginHelpers:
    def _entries(self):
        return [
            {"kind": "trial", "status": "ok", "key": "gcc:1:0",
             "workload": "gcc", "point": 1, "index": 0,
             "record": {"failing": True}},
            {"kind": "trial", "status": "ok", "key": "gcc:1:1",
             "workload": "gcc", "point": 1, "index": 1,
             "record": {"failing": False}},
            {"kind": "trial", "status": "ok", "key": "gcc:1:1",  # dup key
             "workload": "gcc", "point": 1, "index": 1,
             "record": {"failing": False}},
            {"kind": "trial", "status": "harness-crash", "key": "gcc:2:0",
             "workload": "gcc", "point": 2, "index": 0},
            {"kind": "workload", "workload": "gcc"},
        ]

    def test_tallies_dedupe_and_skip_harness_outcomes(self):
        tallies = journal_point_tallies(self._entries())
        assert tallies == {"gcc": {1: [2, 1]}}

    def test_point_margins_match_wilson(self):
        from repro.util.stats import wilson_margin

        rows = point_margins(journal_point_tallies(self._entries()))
        assert rows["gcc"][0]["margin"] == pytest.approx(wilson_margin(1, 2))

    def test_format_reports_convergence_against_target(self):
        text = format_point_margins(
            journal_point_tallies(self._entries()), target=0.5
        )
        assert "gcc" in text
        assert "<= 0.5" in text


class TestPreview:
    def test_preview_matches_the_run(self, tmp_path):
        rows = preview_plan(ARCH_CONFIG, PLANNER)
        assert len(rows) == 1
        row = rows[0]
        assert row["workload"] == "gcc"
        assert row["budget"] == 40
        path, report = _adaptive_journal(tmp_path, "run.jsonl")
        sentinel = next(
            e for e in read_journal(path) if e.get("kind") == "workload"
        )
        assert len(sentinel["planner_points"]) == row["points"]
        assert len(sentinel["prescreened_points"]) == row["prescreened"]
