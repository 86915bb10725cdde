"""The resilient campaign runner: containment, resume, parallelism."""

import json
from dataclasses import replace

import pytest

from repro.campaign import (
    CampaignWorkloadWarning,
    OUTCOME_CRASH,
    OUTCOME_OK,
    OUTCOME_TIMEOUT,
    TrialGuard,
    TrialOutcome,
    format_status,
    run_campaign,
    summarize_journal,
    timeout_supported,
)
from repro.faults import (
    ArchCampaignConfig,
    ArchTrialResult,
    UarchCampaignConfig,
    UarchTrialResult,
)
from repro.faults import arch_campaign
from repro.util.journal import JournalError

ARCH_CONFIG = ArchCampaignConfig(
    trials_per_workload=8, injection_points=4, workloads=("gcc",)
)


class TestTrialGuard:
    def test_ok_outcome_carries_record(self):
        guard = TrialGuard()
        outcome = guard.run("w:1:0", "w", 1, 0, lambda: "record")
        assert outcome.status == OUTCOME_OK
        assert outcome.record == "record"

    def test_crash_contained_with_traceback_and_descriptor(self):
        guard = TrialGuard()

        def boom():
            raise RuntimeError("simulator exploded")

        outcome = guard.run(
            "w:1:0", "w", 1, 0, boom, descriptor={"trial_seed": 99}
        )
        assert outcome.status == OUTCOME_CRASH
        assert outcome.record is None
        assert outcome.error["type"] == "RuntimeError"
        assert "simulator exploded" in outcome.error["message"]
        assert "RuntimeError" in outcome.error["traceback"]
        assert outcome.error["descriptor"] == {"trial_seed": 99}

    def test_keyboard_interrupt_not_swallowed(self):
        guard = TrialGuard()

        def interrupt():
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            guard.run("w:1:0", "w", 1, 0, interrupt)

    @pytest.mark.skipif(not timeout_supported(), reason="no SIGALRM here")
    def test_spin_converted_to_timeout(self):
        guard = TrialGuard(timeout=0.2)

        def spin():
            while True:
                pass

        outcome = guard.run("w:1:0", "w", 1, 0, spin)
        assert outcome.status == OUTCOME_TIMEOUT
        assert outcome.error["timeout_seconds"] == 0.2

    def test_worker_thread_degrades_to_containment_with_one_warning(self):
        import threading
        import warnings

        from repro.campaign import guard as guard_module

        guard = TrialGuard(timeout=0.2)
        results = []

        def worker():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                first = guard.run("w:1:0", "w", 1, 0, lambda: "done")
                second = guard.run("w:1:1", "w", 1, 1, lambda: "done")
            results.append((first, second, caught))

        previously_warned = guard_module._warned_no_timeout
        guard_module._warned_no_timeout = False
        try:
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        finally:
            guard_module._warned_no_timeout = previously_warned

        first, second, caught = results[0]
        # No uncaught ValueError from signal.signal: both trials complete.
        assert first.status == OUTCOME_OK
        assert second.status == OUTCOME_OK
        runtime_warnings = [
            w for w in caught if issubclass(w.category, RuntimeWarning)
        ]
        assert len(runtime_warnings) == 1  # warned once, not per trial
        assert "timeout disabled" in str(runtime_warnings[0].message)


class TestOutcomeSerialization:
    def test_arch_round_trip(self):
        record = ArchTrialResult(
            workload="gcc", inject_step=12, bit=3,
            exception_latency=4, failing=True,
        )
        outcome = TrialOutcome(
            key="gcc:12:0", workload="gcc", point=12, index=0,
            status=OUTCOME_OK, record=record,
        )
        entry = json.loads(json.dumps(outcome.to_entry()))
        assert TrialOutcome.from_entry(entry, "arch") == outcome

    def test_uarch_round_trip(self):
        record = UarchTrialResult(
            workload="mcf", inject_cycle=500, target="prf",
            state_class="ram", bit=9, cfv_latency=17,
        )
        outcome = TrialOutcome(
            key="mcf:500:2", workload="mcf", point=500, index=2,
            status=OUTCOME_OK, record=record,
        )
        entry = json.loads(json.dumps(outcome.to_entry()))
        assert TrialOutcome.from_entry(entry, "uarch") == outcome


class TestContainment:
    def test_trial_crash_becomes_harness_crash_record(self, monkeypatch):
        real = arch_campaign._run_trial
        calls = []

        def flaky(workload, prefix, trace, memop_counts, point, bit, config):
            calls.append(point)
            if len(calls) == 2:
                raise ValueError("rigged kernel crash")
            return real(workload, prefix, trace, memop_counts, point, bit, config)

        monkeypatch.setattr(arch_campaign, "_run_trial", flaky)
        # Per-trial containment is a serial-path property; the lockstep
        # scheduler never calls _run_trial (its failures fall back whole).
        report = run_campaign("arch", ARCH_CONFIG, lockstep=False)
        counts = report.outcome_counts()
        assert counts[OUTCOME_CRASH] == 1
        assert counts[OUTCOME_OK] == len(report.outcomes) - 1
        assert len(report.result.trials) == counts[OUTCOME_OK]
        crash = next(
            o for o in report.outcomes if o.status == OUTCOME_CRASH
        )
        assert "rigged kernel crash" in crash.error["message"]
        assert crash.error["descriptor"]["level"] == "arch"
        assert "trial_seed" in crash.error["descriptor"]

    @pytest.mark.skipif(not timeout_supported(), reason="no SIGALRM here")
    def test_trial_hang_becomes_harness_timeout_record(self, monkeypatch):
        real = arch_campaign._run_trial
        calls = []

        def spinner(workload, prefix, trace, memop_counts, point, bit, config):
            calls.append(point)
            if len(calls) == 1:
                while True:
                    pass
            return real(workload, prefix, trace, memop_counts, point, bit, config)

        monkeypatch.setattr(arch_campaign, "_run_trial", spinner)
        report = run_campaign("arch", ARCH_CONFIG, trial_timeout=0.3,
                              lockstep=False)
        counts = report.outcome_counts()
        assert counts[OUTCOME_TIMEOUT] == 1
        assert counts[OUTCOME_OK] == len(report.outcomes) - 1
        assert report.harness_timeouts == 1

    def test_outcome_table_reports_harness_rows(self, monkeypatch):
        monkeypatch.setattr(
            arch_campaign, "_run_trial",
            lambda *a, **k: (_ for _ in ()).throw(RuntimeError("all broken")),
        )
        report = run_campaign("arch", ARCH_CONFIG, lockstep=False)
        table = report.outcome_table()
        assert "harness-crash" in table and "harness-timeout" in table
        assert len(report.result.trials) == 0


class TestGoldenRunDegradation:
    def test_failing_golden_run_skips_workload_not_campaign(self, monkeypatch):
        real_build = arch_campaign.build_workload

        def broken_build(name, scale, seed):
            if name == "gzip":
                raise RuntimeError("golden run exploded")
            return real_build(name, scale, seed)

        monkeypatch.setattr(arch_campaign, "build_workload", broken_build)
        config = ArchCampaignConfig(
            trials_per_workload=6, injection_points=3,
            workloads=("gcc", "gzip"),
        )
        with pytest.warns(CampaignWorkloadWarning, match="gzip"):
            report = run_campaign("arch", config)
        assert dict(report.skipped_workloads)["gzip"].startswith("RuntimeError")
        assert all(t.workload == "gcc" for t in report.result.trials)
        assert len(report.result.trials) > 0
        assert "gzip skipped" in report.result.table((25, None))


class TestJournalAndResume:
    def test_interrupted_run_resumes_bit_identical(self, tmp_path):
        config = ArchCampaignConfig(
            trials_per_workload=10, injection_points=5, workloads=("gcc",)
        )
        full_journal = str(tmp_path / "full.jsonl")
        uninterrupted = run_campaign("arch", config, journal_path=full_journal)

        # Simulate a campaign killed mid-run: keep the manifest, the first
        # half of the trial lines, and a torn final line.
        lines = open(full_journal).read().splitlines()
        trial_lines = [l for l in lines if '"kind": "trial"' in l]
        keep = [lines[0]] + trial_lines[: len(trial_lines) // 2]
        interrupted = str(tmp_path / "interrupted.jsonl")
        with open(interrupted, "w") as handle:
            handle.write("\n".join(keep) + "\n")
            handle.write(trial_lines[-1][: 40])  # torn write

        resumed = run_campaign(
            "arch", config, journal_path=interrupted, resume=True
        )
        assert resumed.resumed == len(trial_lines) // 2
        assert resumed.executed == len(trial_lines) - resumed.resumed
        assert resumed.result.trials == uninterrupted.result.trials
        assert resumed.result.table() == uninterrupted.result.table()

        # The resume must have repaired the torn line before appending,
        # leaving the journal readable for status and further resumes.
        status = summarize_journal(interrupted)
        assert status.complete
        again = run_campaign(
            "arch", config, journal_path=interrupted, resume=True
        )
        assert again.executed == 0
        assert again.result.trials == uninterrupted.result.trials

    def test_fully_journaled_run_executes_nothing(self, tmp_path):
        config = ArchCampaignConfig(
            trials_per_workload=6, injection_points=3, workloads=("gcc",)
        )
        journal = str(tmp_path / "run.jsonl")
        first = run_campaign("arch", config, journal_path=journal)
        second = run_campaign(
            "arch", config, journal_path=journal, resume=True
        )
        assert second.executed == 0
        assert second.resumed == len(first.outcomes)
        assert second.result.trials == first.result.trials

    def test_existing_journal_requires_resume(self, tmp_path):
        journal = str(tmp_path / "run.jsonl")
        run_campaign("arch", ARCH_CONFIG, journal_path=journal)
        with pytest.raises(JournalError, match="--resume"):
            run_campaign("arch", ARCH_CONFIG, journal_path=journal)

    def test_resume_rejects_different_config(self, tmp_path):
        journal = str(tmp_path / "run.jsonl")
        run_campaign("arch", ARCH_CONFIG, journal_path=journal)
        other = ArchCampaignConfig(
            trials_per_workload=8, injection_points=4,
            workloads=("gcc",), seed=2006,
        )
        with pytest.raises(JournalError, match="different configuration"):
            run_campaign("arch", other, journal_path=journal, resume=True)

    def test_resume_rejects_wrong_level(self, tmp_path):
        journal = str(tmp_path / "run.jsonl")
        run_campaign("arch", ARCH_CONFIG, journal_path=journal)
        uarch = UarchCampaignConfig(
            trials_per_workload=8, injection_points=4, workloads=("gcc",)
        )
        with pytest.raises(JournalError, match="arch"):
            run_campaign("uarch", uarch, journal_path=journal, resume=True)


class TestParallelExecution:
    def test_jobs_match_serial_results(self, tmp_path):
        """parser outlasts gcc, so gcc finishes first; the journal is
        still written in workload order, byte for byte the serial one."""
        config = ArchCampaignConfig(
            trials_per_workload=6, injection_points=3,
            workloads=("parser", "gcc"),
        )
        serial_journal = str(tmp_path / "serial.jsonl")
        parallel_journal = str(tmp_path / "parallel.jsonl")
        serial = run_campaign("arch", config, journal_path=serial_journal)
        parallel = run_campaign(
            "arch", config, journal_path=parallel_journal, jobs=2
        )
        assert parallel.result.trials == serial.result.trials
        assert parallel.result.table() == serial.result.table()
        assert open(serial_journal).read() == open(parallel_journal).read()

    def test_parallel_journal_resumes_serially(self, tmp_path):
        config = ArchCampaignConfig(
            trials_per_workload=6, injection_points=3,
            workloads=("gcc", "gzip"),
        )
        journal = str(tmp_path / "par.jsonl")
        parallel = run_campaign("arch", config, journal_path=journal, jobs=2)
        resumed = run_campaign(
            "arch", config, journal_path=journal, resume=True
        )
        assert resumed.executed == 0
        assert resumed.result.trials == parallel.result.trials

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            run_campaign("arch", ARCH_CONFIG, jobs=0)
        with pytest.raises(ValueError, match="trial_timeout"):
            run_campaign("arch", ARCH_CONFIG, trial_timeout=0)
        with pytest.raises(ValueError, match="journal"):
            run_campaign("arch", ARCH_CONFIG, resume=True)
        with pytest.raises(ValueError, match="level"):
            run_campaign("rtl", ARCH_CONFIG)


class TestStatus:
    def test_status_summarizes_journal(self, tmp_path):
        journal = str(tmp_path / "run.jsonl")
        report = run_campaign("arch", ARCH_CONFIG, journal_path=journal)
        status = summarize_journal(journal)
        assert status.total_trials == len(report.outcomes)
        assert status.complete
        assert status.workloads["gcc"].state == "done"
        text = format_status(status)
        assert "gcc" in text and "complete" in text

    def test_status_flags_incomplete_run(self, tmp_path):
        journal = str(tmp_path / "run.jsonl")
        run_campaign("arch", ARCH_CONFIG, journal_path=journal)
        lines = open(journal).read().splitlines()
        torn = str(tmp_path / "torn.jsonl")
        with open(torn, "w") as handle:  # manifest + two trials, no sentinel
            handle.write("\n".join(lines[:3]) + "\n")
        status = summarize_journal(torn)
        assert not status.complete
        assert "resumable" in format_status(status)

    def test_status_rejects_non_journal(self, tmp_path):
        path = tmp_path / "not_a_journal.jsonl"
        path.write_text('{"kind": "trial"}\n')
        with pytest.raises(JournalError, match="manifest"):
            summarize_journal(str(path))


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"trials_per_workload": 0},
            {"injection_points": 0},
            {"injection_points": 50, "trials_per_workload": 10},
            {"seed": -1},
            {"workload_scale": 0},
            {"max_instructions": 0},
            {"post_injection_slack": -1},
            {"workloads": ()},
            {"workloads": ("gcc", "spice")},
        ],
    )
    def test_arch_config_rejects(self, kwargs):
        with pytest.raises(ValueError):
            ArchCampaignConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"trials_per_workload": 0},
            {"injection_points": 0},
            {"injection_points": 50, "trials_per_workload": 10},
            {"window_cycles": 0},
            {"warmup_cycles": -1},
            {"seed": -1},
            {"workload_scale": 0},
            {"max_golden_cycles": 0},
            {"workloads": ()},
            {"workloads": ("gcc", "spice")},
        ],
    )
    def test_uarch_config_rejects(self, kwargs):
        with pytest.raises(ValueError):
            UarchCampaignConfig(**kwargs)


class TestTraceEmission:
    """run_campaign(trace=...) journals trial lifecycle events."""

    def _run(self, trace, jobs=1, journal_path=None):
        return run_campaign(
            "arch", ARCH_CONFIG, trace=trace, jobs=jobs,
            journal_path=journal_path,
        )

    def test_serial_run_emits_one_lifecycle_per_trial(self):
        from repro.telemetry import RingBufferTraceSink, validate_event

        sink = RingBufferTraceSink(capacity=10_000)
        result = self._run(sink)
        begins = sink.events("trial_begin")
        ends = sink.events("trial_end")
        assert len(begins) == len(ends) == result.executed
        for event in sink.events():
            validate_event(event)
        # Every contained trial carries an injection event with its target.
        injections = sink.events("injection")
        ok = result.outcome_counts()[OUTCOME_OK]
        assert len(injections) == ok
        assert {event["target"] for event in injections} == {"arch"}

    def test_parallel_run_emits_same_events(self):
        from repro.telemetry import RingBufferTraceSink

        serial, parallel = (RingBufferTraceSink(10_000) for _ in range(2))
        self._run(serial)
        self._run(parallel, jobs=2)
        def key(event):
            return (event["kind"], event["position"],
                    event.get("status") or "")

        assert sorted(map(key, serial.events())) == sorted(
            map(key, parallel.events())
        )

    def test_journal_gains_telemetry_aggregate(self, tmp_path):
        journal = str(tmp_path / "run.jsonl")
        result = self._run(None, journal_path=journal)
        entries = [json.loads(line) for line in open(journal)]
        aggregates = [e for e in entries if e.get("kind") == "telemetry"]
        assert len(aggregates) == 1
        ok = result.outcome_counts()[OUTCOME_OK]
        assert aggregates[0]["trials"] == ok

    def test_resume_appends_fresh_aggregate_and_status_uses_newest(
        self, tmp_path
    ):
        journal = str(tmp_path / "run.jsonl")
        self._run(None, journal_path=journal)
        run_campaign("arch", ARCH_CONFIG, journal_path=journal, resume=True)
        entries = [json.loads(line) for line in open(journal)]
        aggregates = [e for e in entries if e.get("kind") == "telemetry"]
        assert len(aggregates) == 2
        status = summarize_journal(journal)
        assert status.telemetry == aggregates[-1]
        assert "repro campaign report" in format_status(status)

    def test_trace_is_optional(self):
        result = self._run(None)
        assert result.executed == ARCH_CONFIG.trials_per_workload


class TestExecutionPolicy:
    def test_none_jobs_resolves_to_core_count(self):
        import os

        from repro.campaign import ExecutionPolicy

        policy = ExecutionPolicy()
        assert policy.jobs == (os.cpu_count() or 1)
        assert policy.trial_timeout is None

    def test_explicit_jobs_preserved(self):
        from repro.campaign import ExecutionPolicy

        assert ExecutionPolicy(jobs=3).jobs == 3

    @pytest.mark.parametrize("jobs", [0, -2, True, 1.5, "4"])
    def test_bad_jobs_rejected(self, jobs):
        from repro.campaign import ExecutionPolicy

        with pytest.raises(ValueError, match="jobs"):
            ExecutionPolicy(jobs=jobs)

    @pytest.mark.parametrize("timeout", [0, -1.0])
    def test_bad_timeout_rejected(self, timeout):
        from repro.campaign import ExecutionPolicy

        with pytest.raises(ValueError, match="trial_timeout"):
            ExecutionPolicy(trial_timeout=timeout)


class TestTornManifestRecovery:
    """A journal holding only a torn fragment (a run killed during its
    first append) must not brick the journal path."""

    def _write_torn_fragment(self, tmp_path):
        journal = tmp_path / "run.jsonl"
        journal.write_text('{"kind": "manifest", "level": "ar')  # no newline
        return str(journal)

    def test_resume_starts_fresh_with_a_warning(self, tmp_path):
        from repro.util.journal import JournalTearWarning

        journal = self._write_torn_fragment(tmp_path)
        with pytest.warns(JournalTearWarning, match="no complete entry"):
            report = run_campaign(
                "arch", ARCH_CONFIG, journal_path=journal, resume=True
            )
        assert report.executed == ARCH_CONFIG.trials_per_workload
        # The rewritten journal is a healthy, fully resumable one.
        resumed = run_campaign(
            "arch", ARCH_CONFIG, journal_path=journal, resume=True
        )
        assert resumed.executed == 0

    def test_fresh_run_overwrites_instead_of_refusing(self, tmp_path):
        from repro.util.journal import JournalTearWarning

        journal = self._write_torn_fragment(tmp_path)
        with pytest.warns(JournalTearWarning, match="no complete entry"):
            report = run_campaign("arch", ARCH_CONFIG, journal_path=journal)
        assert report.executed == ARCH_CONFIG.trials_per_workload
        assert summarize_journal(journal).complete

    def test_journal_with_complete_entries_still_requires_resume(
        self, tmp_path
    ):
        journal = str(tmp_path / "run.jsonl")
        run_campaign("arch", ARCH_CONFIG, journal_path=journal)
        with pytest.raises(JournalError, match="--resume"):
            run_campaign("arch", ARCH_CONFIG, journal_path=journal)


class TestWorkerRetryTelemetry:
    """Worker retry-once semantics must not duplicate results: a workload
    whose worker dies is re-run in the parent, and the journal, trace,
    and tables see each trial exactly once."""

    def _fake_pool(self, doomed):
        from concurrent.futures import Future

        deaths = {name: True for name in doomed}

        class FakePool:
            def __init__(self, max_workers=None):
                self.max_workers = max_workers

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def submit(self, fn, *args):
                future = Future()
                name = args[2]  # (level, config, workload, completed, timeout)
                if deaths.pop(name, False):
                    future.set_exception(
                        RuntimeError("worker process died mid-workload")
                    )
                else:
                    future.set_result(fn(*args))
                return future

        return FakePool

    def test_retried_workload_emits_no_duplicate_events(
        self, tmp_path, monkeypatch
    ):
        from repro.campaign import runner as runner_module
        from repro.telemetry import RingBufferTraceSink

        config = ArchCampaignConfig(
            trials_per_workload=6, injection_points=3,
            workloads=("gcc", "gzip"),
        )
        serial_sink = RingBufferTraceSink(10_000)
        serial = run_campaign("arch", config, trace=serial_sink)

        monkeypatch.setattr(
            runner_module, "ProcessPoolExecutor", self._fake_pool({"gcc"})
        )
        journal = str(tmp_path / "retry.jsonl")
        retry_sink = RingBufferTraceSink(10_000)
        retried = run_campaign(
            "arch", config, journal_path=journal, jobs=2, trace=retry_sink
        )

        # No workload was skipped: the in-parent retry succeeded.
        assert retried.skipped_workloads == ()
        assert retried.result.table() == serial.result.table()

        # The journal holds each trial key exactly once.
        entries = [json.loads(line) for line in open(journal)]
        keys = [e["key"] for e in entries if e.get("kind") == "trial"]
        assert len(keys) == len(set(keys)) == len(serial.outcomes)

        # The merged trace carries one lifecycle per trial — no duplicates
        # from the doomed first attempt.
        begins = retry_sink.events("trial_begin")
        ends = retry_sink.events("trial_end")
        assert len(begins) == len(ends) == len(serial.outcomes)

        def key(event):
            return (event["kind"], event["position"],
                    event.get("status") or "")

        assert sorted(map(key, retry_sink.events())) == sorted(
            map(key, serial_sink.events())
        )

    def test_twice_dead_worker_skips_workload_without_duplicates(
        self, tmp_path, monkeypatch
    ):
        from repro.campaign import runner as runner_module
        from repro.telemetry import RingBufferTraceSink

        config = ArchCampaignConfig(
            trials_per_workload=6, injection_points=3,
            workloads=("gcc", "gzip"),
        )
        monkeypatch.setattr(
            runner_module, "ProcessPoolExecutor", self._fake_pool({"gcc"})
        )
        # Make the in-parent retry die too — but only for gcc; the fake
        # pool routes gzip through this same function and gzip must run.
        real_task = runner_module._workload_task

        def dying_task(level, cfg, workload, completed, timeout,
                       cache_dir=None, lockstep=True):
            if workload == "gcc":
                raise RuntimeError("retry also died")
            return real_task(level, cfg, workload, completed, timeout,
                             cache_dir, lockstep)

        monkeypatch.setattr(runner_module, "_workload_task", dying_task)
        journal = str(tmp_path / "skip.jsonl")
        sink = RingBufferTraceSink(10_000)
        report = run_campaign(
            "arch", config, journal_path=journal, jobs=2, trace=sink
        )
        assert [name for name, _ in report.skipped_workloads] == ["gcc"]
        entries = [json.loads(line) for line in open(journal)]
        keys = [e["key"] for e in entries if e.get("kind") == "trial"]
        assert len(keys) == len(set(keys))
        assert all(k.startswith("gzip:") for k in keys)
        sentinels = {
            e["workload"]: e["status"]
            for e in entries if e.get("kind") == "workload"
        }
        assert sentinels == {"gcc": "skipped", "gzip": "done"}


MEMHIER_CONFIG = UarchCampaignConfig(
    trials_per_workload=6, injection_points=3, window_cycles=800,
    workloads=("gcc",), seed=7, memhier_targets=True,
    detectors=("miss_spike", "stall_outlier", "spurious_memop"),
)


class TestMemhierCampaign:
    """The memory-hierarchy ablation: determinism and journal hygiene."""

    def test_detectors_list_coerced_and_validated(self):
        config = UarchCampaignConfig(detectors=["miss_spike"])
        assert config.detectors == ("miss_spike",)
        with pytest.raises(ValueError, match="unknown detectors"):
            UarchCampaignConfig(detectors=("bogus",))

    def test_memhier_flips_reach_cache_and_mshr_state(self):
        report = run_campaign("uarch", MEMHIER_CONFIG)
        targets = {t.target for t in report.result.trials}
        # With tag/valid/LRU + MSHR registered, the per-trial RNG draws
        # from a larger population; on 6 trials at this seed some land in
        # the new structures (pinned by the deterministic seed).
        assert targets & {"icache", "dcache", "mshr"}
        assert report.result.total_bits > 0

    def test_parallel_and_serial_journals_are_identical(self, tmp_path):
        # Two workloads, the slow one first, so the parallel run finishes
        # them out of workload order.
        config = replace(MEMHIER_CONFIG, workloads=("parser", "gcc"))
        serial = str(tmp_path / "serial.jsonl")
        parallel = str(tmp_path / "parallel.jsonl")
        run_campaign("uarch", config, journal_path=serial)
        run_campaign("uarch", config, journal_path=parallel, jobs=2)
        assert open(serial).read() == open(parallel).read()

    def test_interrupted_memhier_run_resumes_bit_identical(self, tmp_path):
        full = str(tmp_path / "full.jsonl")
        run_campaign("uarch", MEMHIER_CONFIG, journal_path=full)
        lines = open(full).read().splitlines()
        trial_lines = [l for l in lines if '"kind": "trial"' in l]
        interrupted = str(tmp_path / "interrupted.jsonl")
        with open(interrupted, "w") as handle:
            handle.write("\n".join([lines[0]] + trial_lines[:3]) + "\n")
        resumed = run_campaign(
            "uarch", MEMHIER_CONFIG, journal_path=interrupted, resume=True
        )
        assert resumed.resumed == 3
        assert open(full).read() == open(interrupted).read()

    def test_default_config_journal_has_no_memhier_artifacts(self, tmp_path):
        """Defaults must write entries byte-shaped like pre-feature runs:
        no detector keys in records, no memhier keys in the manifest."""
        path = str(tmp_path / "default.jsonl")
        config = UarchCampaignConfig(
            trials_per_workload=4, injection_points=2, window_cycles=800,
            workloads=("gcc",), seed=7,
        )
        run_campaign("uarch", config, journal_path=path)
        entries = [json.loads(line) for line in open(path)]
        assert "memhier_targets" not in entries[0]["config"]
        assert "detectors" not in entries[0]["config"]
        for entry in entries:
            if entry.get("kind") == "trial":
                assert "miss_spike_latency" not in entry["record"]
        telemetry = [e for e in entries if e.get("kind") == "telemetry"]
        assert "miss_spike" not in telemetry[-1]["detectors"]

    def test_memhier_journal_carries_detector_telemetry(self, tmp_path):
        path = str(tmp_path / "memhier.jsonl")
        run_campaign("uarch", MEMHIER_CONFIG, journal_path=path)
        entries = [json.loads(line) for line in open(path)]
        assert entries[0]["config"]["memhier_targets"] is True
        telemetry = [e for e in entries if e.get("kind") == "telemetry"][-1]
        assert {"miss_spike", "stall_outlier", "spurious_memop"} <= set(
            telemetry["detectors"]
        )
