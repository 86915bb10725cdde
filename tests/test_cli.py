"""Command-line interface."""

import pytest

from repro.cli import main


class TestRun:
    def test_run_plain(self, capsys):
        assert main(["run", "gap"]) == 0
        out = capsys.readouterr().out
        assert "halted" in out and "correct" in out

    def test_run_with_restore(self, capsys):
        assert main(["run", "gap", "--restore", "--interval", "50"]) == 0
        out = capsys.readouterr().out
        assert "rollbacks" in out and "checkpoints_created" in out

    def test_run_delayed_policy(self, capsys):
        assert main(["run", "vortex", "--restore", "--policy", "delayed"]) == 0

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "spice"])


class TestInject:
    def test_inject_reports_outcome(self, capsys):
        assert main(["inject", "gcc", "--seed", "3", "--cycle", "600"]) == 0
        out = capsys.readouterr().out
        assert "flipped bit" in out and "outcome:" in out

    def test_inject_with_restore(self, capsys):
        assert main(
            ["inject", "gcc", "--seed", "3", "--cycle", "600", "--restore"]
        ) == 0
        assert "rollbacks" in capsys.readouterr().out

    def test_inject_latches_only(self, capsys):
        assert main(
            ["inject", "mcf", "--seed", "1", "--latches-only"]
        ) == 0
        out = capsys.readouterr().out
        assert "ram state" not in out


class TestCampaign:
    def test_arch_campaign(self, capsys):
        assert main(
            ["campaign", "arch", "--trials", "6", "--workloads", "gcc"]
        ) == 0
        out = capsys.readouterr().out
        assert "masked" in out and "coverage" in out

    def test_uarch_campaign(self, capsys):
        assert main(
            ["campaign", "uarch", "--trials", "6", "--workloads", "gcc"]
        ) == 0
        out = capsys.readouterr().out
        assert "checkpoint interval" in out

    def test_bad_workload_list(self):
        with pytest.raises(SystemExit):
            main(["campaign", "arch", "--workloads", "gcc,bogus"])

    def test_journal_and_status_round_trip(self, tmp_path, capsys):
        journal = str(tmp_path / "run.jsonl")
        assert main(
            ["campaign", "arch", "--trials", "6", "--workloads", "gcc",
             "--journal", journal]
        ) == 0
        out = capsys.readouterr().out
        assert "Harness outcomes" in out and "harness-crash" in out
        assert main(["campaign", "status", journal]) == 0
        out = capsys.readouterr().out
        assert "complete" in out and "gcc" in out

    def test_resume_skips_journaled_trials(self, tmp_path, capsys):
        journal = str(tmp_path / "run.jsonl")
        main(["campaign", "arch", "--trials", "6", "--workloads", "gcc",
              "--journal", journal])
        capsys.readouterr()
        assert main(
            ["campaign", "arch", "--trials", "6", "--workloads", "gcc",
             "--journal", journal, "--resume"]
        ) == 0
        assert "trials executed: 0" in capsys.readouterr().out

    def test_parallel_campaign(self, capsys):
        assert main(
            ["campaign", "arch", "--trials", "6",
             "--workloads", "gcc,gzip", "--jobs", "2"]
        ) == 0
        assert "jobs: 2" in capsys.readouterr().out


class TestCampaignHardening:
    def test_zero_trials_rejected_cleanly(self):
        with pytest.raises(SystemExit, match="invalid campaign configuration"):
            main(["campaign", "arch", "--trials", "0", "--workloads", "gcc"])

    def test_negative_seed_rejected_cleanly(self):
        with pytest.raises(SystemExit, match="seed"):
            main(["campaign", "uarch", "--trials", "6", "--seed", "-3",
                  "--workloads", "gcc"])

    def test_bad_jobs_rejected(self):
        with pytest.raises(SystemExit, match="--jobs"):
            main(["campaign", "arch", "--trials", "6", "--jobs", "0",
                  "--workloads", "gcc"])

    def test_bad_trial_timeout_rejected(self):
        with pytest.raises(SystemExit, match="--trial-timeout"):
            main(["campaign", "arch", "--trials", "6", "--trial-timeout",
                  "0", "--workloads", "gcc"])

    def test_resume_requires_journal(self):
        with pytest.raises(SystemExit, match="--resume requires --journal"):
            main(["campaign", "arch", "--trials", "6", "--resume",
                  "--workloads", "gcc"])

    def test_existing_journal_requires_resume(self, tmp_path, capsys):
        journal = str(tmp_path / "run.jsonl")
        main(["campaign", "arch", "--trials", "6", "--workloads", "gcc",
              "--journal", journal])
        capsys.readouterr()
        with pytest.raises(SystemExit, match="--resume"):
            main(["campaign", "arch", "--trials", "6", "--workloads", "gcc",
                  "--journal", journal])

    def test_status_requires_path(self):
        with pytest.raises(SystemExit, match="journal path"):
            main(["campaign", "status"])

    def test_status_missing_journal(self, tmp_path):
        with pytest.raises(SystemExit, match="no such journal"):
            main(["campaign", "status", str(tmp_path / "nope.jsonl")])

    def test_positional_journal_only_for_status(self, tmp_path):
        with pytest.raises(SystemExit, match="--journal"):
            main(["campaign", "arch", str(tmp_path / "run.jsonl")])

    def test_inject_zero_cycle_rejected(self):
        with pytest.raises(SystemExit, match="--cycle"):
            main(["inject", "gcc", "--cycle", "0"])

    def test_inject_negative_seed_rejected(self):
        with pytest.raises(SystemExit, match="--seed"):
            main(["inject", "gcc", "--seed", "-1"])

    def test_inject_max_cycles_must_exceed_cycle(self):
        with pytest.raises(SystemExit, match="--max-cycles"):
            main(["inject", "gcc", "--cycle", "500", "--max-cycles", "400"])


class TestFitAndPerf:
    def test_fit_table(self, capsys):
        assert main(["fit", "--baseline", "0.08", "--combined", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "Figure 8" in out and "8.0x" in out

    def test_perf_points(self, capsys):
        assert main(["perf", "--intervals", "100", "--workloads", "gap"]) == 0
        out = capsys.readouterr().out
        assert "imm" in out and "delayed" in out


class TestWorkloadsListing:
    def test_lists_all_seven(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("bzip2", "gap", "gcc", "gzip", "mcf", "parser", "vortex"):
            assert name in out


class TestTelemetryCli:
    def test_run_with_trace_writes_valid_jsonl(self, tmp_path, capsys):
        trace = str(tmp_path / "run.trace.jsonl")
        assert main(
            ["run", "gcc", "--restore", "--interval", "50", "--trace", trace]
        ) == 0
        assert "trace:" in capsys.readouterr().out
        assert main(["trace", "validate", trace]) == 0
        assert "all schema-valid" in capsys.readouterr().out

    def test_campaign_trace_and_report(self, tmp_path, capsys):
        journal = str(tmp_path / "run.jsonl")
        trace = str(tmp_path / "run.trace.jsonl")
        assert main(
            ["campaign", "uarch", "--trials", "8", "--workloads", "gcc",
             "--journal", journal, "--trace", trace]
        ) == 0
        capsys.readouterr()
        assert main(["trace", "validate", trace]) == 0
        capsys.readouterr()
        assert main(["campaign", "status", journal]) == 0
        assert "telemetry: aggregate" in capsys.readouterr().out
        assert main(["campaign", "report", journal]) == 0
        out = capsys.readouterr().out
        assert "Section 3.3 symptom metrics" in out
        assert "rollback distance" in out

    def test_report_requires_journal_path(self):
        with pytest.raises(SystemExit, match="needs a journal path"):
            main(["campaign", "report"])

    def test_report_missing_journal(self, tmp_path):
        with pytest.raises(SystemExit, match="no such journal"):
            main(["campaign", "report", str(tmp_path / "nope.jsonl")])

    def test_trace_validate_rejects_bad_trace(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind": "unheard_of", "cycle": 0, "position": 0}\n')
        with pytest.raises(SystemExit, match="invalid trace"):
            main(["trace", "validate", str(bad)])

    def test_trace_validate_missing_file(self, tmp_path):
        with pytest.raises(SystemExit, match="no such trace"):
            main(["trace", "validate", str(tmp_path / "nope.jsonl")])


class TestServiceCli:
    """The service-facing commands: submit, jobs, serve."""

    def test_submit_wait_and_inspect(self, tmp_path, capsys):
        from tests.test_service_api import running_service

        with running_service(tmp_path / "svc", workers=1) as (service, _):
            assert main([
                "submit", "arch", "--url", service.address,
                "--trials", "6", "--workloads", "gcc", "--seed", "7",
                "--shards", "2", "--wait", "--timeout", "120",
            ]) == 0
            out = capsys.readouterr().out
            assert "done" in out and "job-000001" in out

            assert main(["jobs", "--url", service.address]) == 0
            out = capsys.readouterr().out
            assert "job-000001" in out and "done" in out

            assert main([
                "jobs", "job-000001", "--url", service.address, "--json"
            ]) == 0
            import json

            view = json.loads(capsys.readouterr().out)
            assert view["state"] == "done" and view["trials"] > 0

            assert main([
                "jobs", "job-000001", "--url", service.address,
                "--results", "--limit", "3",
            ]) == 0
            lines = capsys.readouterr().out.strip().splitlines()
            assert len(lines) == 3
            assert json.loads(lines[0])["kind"] == "trial"

    def test_jobs_cancel(self, tmp_path, capsys):
        from tests.test_service_api import running_service

        with running_service(tmp_path / "svc", workers=0) as (service, _):
            assert main([
                "submit", "arch", "--url", service.address,
                "--trials", "6", "--workloads", "gcc",
            ]) == 0
            capsys.readouterr()
            assert main([
                "jobs", "job-000001", "--url", service.address, "--cancel"
            ]) == 0
            assert "cancelled" in capsys.readouterr().out

    def test_submit_validation(self):
        with pytest.raises(SystemExit, match="--shards"):
            main(["submit", "arch", "--shards", "0"])
        with pytest.raises(SystemExit):
            main(["submit", "arch", "--workloads", "spice"])

    def test_submit_unreachable_service(self):
        with pytest.raises(SystemExit, match="cannot reach"):
            main([
                "submit", "arch", "--url", "http://127.0.0.1:1",
                "--trials", "6", "--workloads", "gcc",
            ])

    def test_serve_validation(self):
        with pytest.raises(SystemExit, match="--workers"):
            main(["serve", "--workers", "-1"])
        with pytest.raises(SystemExit, match="--workers must be >= 1"):
            main(["serve", "--workers", "0"])
        with pytest.raises(SystemExit, match="--lease-ttl"):
            main(["serve", "--lease-ttl", "0"])
        with pytest.raises(SystemExit, match="--max-attempts"):
            main(["serve", "--max-attempts", "0"])


class TestMemhierFlags:
    def test_uarch_campaign_with_memhier_flags(self, tmp_path, capsys):
        journal = str(tmp_path / "mh.jsonl")
        assert main([
            "campaign", "uarch", "--trials", "6", "--workloads", "gcc",
            "--memhier-targets", "--detectors", "miss_spike,spurious_memop",
            "--journal", journal,
        ]) == 0
        capsys.readouterr()
        assert main(["campaign", "report", journal]) == 0
        out = capsys.readouterr().out
        assert "miss_spike" in out and "spurious_memop" in out

    def test_arch_campaign_rejects_memhier_flags(self):
        with pytest.raises(SystemExit, match="uarch-only"):
            main(["campaign", "arch", "--trials", "6", "--memhier-targets"])
        with pytest.raises(SystemExit, match="uarch-only"):
            main(["campaign", "arch", "--trials", "6",
                  "--detectors", "miss_spike"])

    def test_unknown_detector_rejected_cleanly(self):
        with pytest.raises(SystemExit, match="unknown detectors"):
            main(["campaign", "uarch", "--trials", "6",
                  "--detectors", "bogus"])

    def test_submit_options_mirror_campaign_config(self):
        """The service payload built by ``repro submit`` must reconstruct
        into the exact config (and digest) a serial CLI run uses."""
        from repro.cli import _campaign_config_options
        from repro.faults import UarchCampaignConfig
        from repro.service import build_config
        from repro.util.journal import config_to_dict, stable_digest

        options = _campaign_config_options(
            "uarch", 6, ("gcc",), 7,
            memhier_targets=True, detectors=("miss_spike",),
        )
        built = build_config("uarch", options)
        local = UarchCampaignConfig(
            trials_per_workload=6,
            injection_points=min(6, max(4, 6 // 3)),
            workloads=("gcc",), seed=7,
            memhier_targets=True, detectors=("miss_spike",),
        )
        assert stable_digest(config_to_dict(built)) == stable_digest(
            config_to_dict(local)
        )

    def test_submit_options_omit_defaults(self):
        from repro.cli import _campaign_config_options

        options = _campaign_config_options("uarch", 6, ("gcc",), 7)
        assert "memhier_targets" not in options
        assert "detectors" not in options
