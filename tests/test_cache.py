"""The golden-artifact cache: keying, corruption, races, bit-identity.

The load-bearing invariant — pinned from several angles here — is that
the cache is *invisible* in every scientific output: a campaign run
against a cold cache, a warm cache, a corrupt cache, or no cache at all
produces byte-identical journals. The cache may only change how fast the
answer arrives, never the answer.
"""

import os
import pickle
import threading

import pytest

from repro.cache import (
    SCHEMA_VERSION,
    CacheCorruptionWarning,
    GoldenArtifactCache,
    UarchGoldenArtifact,
    program_digest,
)
from repro.campaign import run_campaign
from repro.faults import ArchCampaignConfig, UarchCampaignConfig
from repro.faults import arch_campaign, uarch_campaign
from repro.service import (
    CampaignScheduler,
    JobSpec,
    ResultStore,
    execute_unit,
)

SMALL = {"trials_per_workload": 7, "injection_points": 3}


def read_lines(path):
    with open(path, "rb") as handle:
        return handle.read().splitlines()


# --------------------------------------------------------------- unit level


class TestKeying:
    def test_roundtrip(self, tmp_path, gcc_bundle):
        cache = GoldenArtifactCache(str(tmp_path / "c"))
        config = ArchCampaignConfig(**SMALL)
        payload = {"answer": 42}
        assert cache.load("arch", gcc_bundle.program, config) is None
        assert cache.store("arch", gcc_bundle.program, config, payload)
        assert cache.load("arch", gcc_bundle.program, config) == payload
        assert cache.hits == 1 and cache.misses == 1

    def test_program_change_is_a_miss(self, tmp_path, bundles):
        cache = GoldenArtifactCache(str(tmp_path))
        config = ArchCampaignConfig(**SMALL)
        gcc, gzip = bundles["gcc"].program, bundles["gzip"].program
        assert program_digest(gcc) != program_digest(gzip)
        cache.store("arch", gcc, config, "gcc-golden")
        assert cache.load("arch", gzip, config) is None

    def test_config_change_is_a_miss(self, tmp_path, gcc_bundle):
        cache = GoldenArtifactCache(str(tmp_path))
        stored = ArchCampaignConfig(**SMALL)
        cache.store("arch", gcc_bundle.program, stored, "golden")
        for other in (
            ArchCampaignConfig(seed=1, **SMALL),
            ArchCampaignConfig(workload_scale=2, **SMALL),
            ArchCampaignConfig(trials_per_workload=8, injection_points=3),
        ):
            assert cache.load("arch", gcc_bundle.program, other) is None

    def test_level_is_part_of_the_key(self, tmp_path, gcc_bundle):
        cache = GoldenArtifactCache(str(tmp_path))
        config = ArchCampaignConfig(**SMALL)
        cache.store("arch", gcc_bundle.program, config, "arch-golden")
        assert cache.load("uarch", gcc_bundle.program, config) is None

    def test_empty_root_rejected(self):
        with pytest.raises(ValueError):
            GoldenArtifactCache("")


class TestCorruption:
    def _entry(self, tmp_path, gcc_bundle):
        cache = GoldenArtifactCache(str(tmp_path))
        config = ArchCampaignConfig(**SMALL)
        cache.store("arch", gcc_bundle.program, config, ["golden"])
        return cache, config, cache.entry_path(
            "arch", gcc_bundle.program, config
        )

    def test_truncated_entry_is_a_warned_miss(self, tmp_path, gcc_bundle):
        cache, config, path = self._entry(tmp_path, gcc_bundle)
        blob = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(blob[: len(blob) // 2])
        with pytest.warns(CacheCorruptionWarning, match="recomputing"):
            assert cache.load("arch", gcc_bundle.program, config) is None

    def test_garbage_entry_is_a_warned_miss(self, tmp_path, gcc_bundle):
        cache, config, path = self._entry(tmp_path, gcc_bundle)
        with open(path, "wb") as handle:
            handle.write(b"this is not a pickle")
        with pytest.warns(CacheCorruptionWarning):
            assert cache.load("arch", gcc_bundle.program, config) is None

    def test_schema_mismatch_is_a_warned_miss(self, tmp_path, gcc_bundle):
        cache, config, path = self._entry(tmp_path, gcc_bundle)
        with open(path, "wb") as handle:
            pickle.dump(
                {"schema": SCHEMA_VERSION + 1, "artifact": ["future"]}, handle
            )
        with pytest.warns(CacheCorruptionWarning, match="schema"):
            assert cache.load("arch", gcc_bundle.program, config) is None

    def test_unwritable_root_degrades_to_uncached(self, tmp_path, gcc_bundle):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where the cache dir should go")
        cache = GoldenArtifactCache(str(blocker / "cache"))
        config = ArchCampaignConfig(**SMALL)
        with pytest.warns(CacheCorruptionWarning, match="continues uncached"):
            assert cache.store("arch", gcc_bundle.program, config, "x") is False

    def test_corrupt_entry_recomputes_identically(self, tmp_path, gcc_bundle):
        """End to end: a damaged entry warns, recomputes, and the trial
        records are identical to an uncached run's."""
        config = ArchCampaignConfig(
            trials_per_workload=6, injection_points=3, workloads=("gcc",)
        )
        reference = arch_campaign.run_workload_trials(config, "gcc")
        cache = GoldenArtifactCache(str(tmp_path))
        arch_campaign.run_workload_trials(config, "gcc", cache=cache)
        path = cache.entry_path("arch", gcc_bundle.program, config)
        with open(path, "wb") as handle:
            handle.write(b"\x00" * 64)
        with pytest.warns(CacheCorruptionWarning):
            repaired = arch_campaign.run_workload_trials(
                config, "gcc", cache=cache
            )
        assert repaired.golden_cache == "miss"
        assert [o.to_entry() for o in repaired.outcomes] == [
            o.to_entry() for o in reference.outcomes
        ]
        # The recompute republished a healthy entry.
        warm = arch_campaign.run_workload_trials(config, "gcc", cache=cache)
        assert warm.golden_cache == "hit"


class TestConcurrentPopulate:
    def test_racing_writers_one_key(self, tmp_path, gcc_bundle):
        """Workers racing to populate one key never tear the entry."""
        config = ArchCampaignConfig(**SMALL)
        root = str(tmp_path / "shared")
        artifact = {"trace": list(range(1000))}
        barrier = threading.Barrier(8)
        failures = []

        def worker():
            cache = GoldenArtifactCache(root)
            barrier.wait()
            for _ in range(5):
                if not cache.store("arch", gcc_bundle.program, config, artifact):
                    failures.append("store failed")
                loaded = cache.load("arch", gcc_bundle.program, config)
                if loaded != artifact:
                    failures.append(f"bad load: {loaded!r}")

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert failures == []
        names = os.listdir(root)
        assert [n for n in names if ".tmp." in n] == []
        assert len([n for n in names if n.endswith(".pkl")]) == 1
        reader = GoldenArtifactCache(root)
        assert reader.load("arch", gcc_bundle.program, config) == artifact

    def test_stats_and_clear(self, tmp_path, gcc_bundle):
        cache = GoldenArtifactCache(str(tmp_path))
        config = ArchCampaignConfig(**SMALL)
        cache.store("arch", gcc_bundle.program, config, "a")
        cache.store("uarch", gcc_bundle.program, config, "b")
        stats = cache.stats()
        assert stats.entries == 2 and stats.total_bytes > 0
        assert stats.by_level == {"arch": 1, "uarch": 1}
        assert cache.clear() == 2
        assert cache.stats().entries == 0


# --------------------------------------------- campaign-level bit-identity


@pytest.fixture(scope="module")
def identity_config():
    """Seven kernels, and 7 trials over 3 points — deliberately
    non-divisible so the exact-budget arithmetic is exercised too."""
    return ArchCampaignConfig(**SMALL)


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("golden-cache"))


@pytest.fixture(scope="module")
def uncached_run(tmp_path_factory, identity_config):
    path = str(tmp_path_factory.mktemp("uncached") / "run.jsonl")
    report = run_campaign("arch", identity_config, journal_path=path)
    return report, read_lines(path)


@pytest.fixture(scope="module")
def cold_run(tmp_path_factory, identity_config, cache_dir):
    path = str(tmp_path_factory.mktemp("cold") / "run.jsonl")
    report = run_campaign(
        "arch", identity_config, journal_path=path, cache_dir=cache_dir
    )
    return report, read_lines(path)


@pytest.fixture(scope="module")
def warm_run(tmp_path_factory, identity_config, cache_dir, cold_run):
    path = str(tmp_path_factory.mktemp("warm") / "run.jsonl")
    report = run_campaign(
        "arch", identity_config, journal_path=path, cache_dir=cache_dir
    )
    return report, read_lines(path)


class TestArchCampaignIdentity:
    def test_cold_run_populates(self, cold_run, identity_config, cache_dir):
        report, _ = cold_run
        assert report.cache_misses == len(identity_config.workloads)
        assert report.cache_hits == 0
        stats = GoldenArtifactCache(cache_dir).stats()
        assert stats.by_level.get("arch") == len(identity_config.workloads)

    def test_warm_run_hits_every_workload(self, warm_run, identity_config):
        report, _ = warm_run
        assert report.cache_hits == len(identity_config.workloads)
        assert report.cache_misses == 0

    def test_journals_byte_identical(self, uncached_run, cold_run, warm_run):
        assert uncached_run[1] == cold_run[1] == warm_run[1]

    def test_exactly_the_requested_trials_ran(
        self, uncached_run, identity_config
    ):
        report, _ = uncached_run
        per_workload = identity_config.trials_per_workload
        assert len(report.result.trials) == per_workload * len(
            identity_config.workloads
        )

    def test_parallel_run_matches_serial(
        self, tmp_path, identity_config, cache_dir, uncached_run, cold_run
    ):
        path = str(tmp_path / "parallel.jsonl")
        report = run_campaign(
            "arch", identity_config, journal_path=path, jobs=4,
            cache_dir=cache_dir,
        )
        assert report.cache_hits == len(identity_config.workloads)
        # Workloads complete (and are journaled) in whatever order the
        # pool finishes them, so identity here is up to line order.
        assert sorted(read_lines(path)) == sorted(uncached_run[1])
        assert report.result.table() == uncached_run[0].result.table()

    def test_two_shard_service_matches_serial(
        self, tmp_path, identity_config, cache_dir, uncached_run, cold_run
    ):
        spec = JobSpec.from_request({
            "level": "arch",
            "config": dict(SMALL),
            "shards_per_workload": 2,
        })
        assert spec.config == identity_config
        store = ResultStore(":memory:")
        try:
            scheduler = CampaignScheduler(store, str(tmp_path))
            job_id = scheduler.submit(spec)["job_id"]
            hits = 0
            while leases := scheduler.lease_batch("cache-test-worker", 1):
                [lease] = leases
                unit = lease["unit"]
                result = execute_unit(lease["spec"], unit, cache_dir)
                hits += result["golden_cache"] == "hit"
                scheduler.complete(
                    unit["job_id"], unit["unit_id"], "cache-test-worker",
                    result,
                )
            view = scheduler.job_view(job_id)
            assert view["state"] == "done"
            assert hits == 2 * len(identity_config.workloads)
            assert read_lines(view["journal_path"]) == uncached_run[1]
        finally:
            store.close()


class TestUarchCampaignIdentity:
    @pytest.fixture(scope="class")
    def config(self):
        return UarchCampaignConfig(
            trials_per_workload=8, injection_points=3,
            window_cycles=1200, workloads=("gcc",),
        )

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory, config):
        root = tmp_path_factory.mktemp("uarch-cache")
        journals = {}
        reports = {}
        for name, cache_dir in (
            ("uncached", None), ("cold", str(root / "c")),
            ("warm", str(root / "c")),
        ):
            path = str(root / f"{name}.jsonl")
            reports[name] = run_campaign(
                "uarch", config, journal_path=path, cache_dir=cache_dir
            )
            journals[name] = read_lines(path)
        return reports, journals

    def test_hit_miss_accounting(self, runs):
        reports, _ = runs
        assert (reports["uncached"].cache_hits,
                reports["uncached"].cache_misses) == (0, 0)
        assert (reports["cold"].cache_hits,
                reports["cold"].cache_misses) == (0, 1)
        assert (reports["warm"].cache_hits,
                reports["warm"].cache_misses) == (1, 0)

    def test_journals_byte_identical(self, runs):
        _, journals = runs
        assert journals["uncached"] == journals["cold"] == journals["warm"]

    def test_exactly_the_requested_trials_ran(self, runs, config):
        reports, _ = runs
        assert len(reports["uncached"].result.trials) == (
            config.trials_per_workload
        )

    def test_golden_run_artifact_loads_back_as_a_hit(
        self, tmp_path, config, gcc_bundle
    ):
        golden = uarch_campaign._run_golden(
            gcc_bundle, config, snapshot_cycles=[400, 900]
        )
        assert isinstance(golden, UarchGoldenArtifact)
        cache = GoldenArtifactCache(str(tmp_path))
        assert cache.store("uarch", gcc_bundle.program, config, golden)
        loaded = cache.load("uarch", gcc_bundle.program, config)
        assert (cache.hits, cache.misses) == (1, 0)
        assert type(loaded) is UarchGoldenArtifact
        assert loaded.end_cycle == golden.end_cycle
        assert loaded.retired == golden.retired
        assert loaded.snapshots == golden.snapshots
        assert sorted(loaded.snapshots) == [400, 900]
        assert loaded.retired_at == golden.retired_at
        assert loaded.final_arch_regs == golden.final_arch_regs
        assert loaded.final_memory.equals(golden.final_memory)


class TestSnapshotFastForward:
    def test_warm_start_restores_a_snapshot(
        self, tmp_path, monkeypatch, gcc_bundle
    ):
        """With a snapshot cadence shorter than the golden run, the warm
        path restores mid-run state instead of stepping from zero — and
        still reproduces the cold run bit for bit."""
        monkeypatch.setattr(arch_campaign, "ARCH_SNAPSHOT_INTERVAL", 500)
        config = ArchCampaignConfig(
            trials_per_workload=6, injection_points=3, workloads=("gcc",)
        )
        cache = GoldenArtifactCache(str(tmp_path))
        reference = arch_campaign.run_workload_trials(config, "gcc")
        cold = arch_campaign.run_workload_trials(config, "gcc", cache=cache)
        artifact = cache.load("arch", gcc_bundle.program, config)
        assert artifact is not None
        assert len(artifact.trace.snapshots) >= 2
        assert all(
            snap.retired % 500 == 0 for snap in artifact.trace.snapshots
        )
        warm = arch_campaign.run_workload_trials(config, "gcc", cache=cache)
        assert warm.golden_cache == "hit"

        def entries(outcome):
            return [o.to_entry() for o in outcome.outcomes]

        assert entries(reference) == entries(cold) == entries(warm)

    def test_sharded_warm_start_matches_serial_slice(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(arch_campaign, "ARCH_SNAPSHOT_INTERVAL", 500)
        config = ArchCampaignConfig(
            trials_per_workload=6, injection_points=3, workloads=("gcc",)
        )
        cache = GoldenArtifactCache(str(tmp_path))
        serial = arch_campaign.run_workload_trials(config, "gcc", cache=cache)
        sharded = []
        for index in range(2):
            outcome = arch_campaign.run_workload_trials(
                config, "gcc", shard=(index, 2), cache=cache
            )
            assert outcome.golden_cache == "hit"
            sharded.extend(o.to_entry() for o in outcome.outcomes)
        serial_entries = [o.to_entry() for o in serial.outcomes]

        def key(entry):
            return (entry["point"], entry["index"])

        assert sorted(sharded, key=key) == sorted(serial_entries, key=key)


# ------------------------------------------------------------------- CLI


class TestCacheCli:
    def test_campaign_reports_cache_traffic(self, tmp_path, capsys):
        from repro.cli import main

        cache_dir = str(tmp_path / "cache")
        argv = [
            "campaign", "arch", "--trials", "6", "--workloads", "gcc",
            "--cache-dir", cache_dir,
        ]
        assert main(argv) == 0
        assert "golden cache: hits=0 misses=1" in capsys.readouterr().out
        assert main(argv) == 0
        assert "golden cache: hits=1 misses=0" in capsys.readouterr().out

    def test_no_cache_wins_over_env(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-cache"))
        assert main([
            "campaign", "arch", "--trials", "6", "--workloads", "gcc",
            "--no-cache",
        ]) == 0
        assert "golden cache" not in capsys.readouterr().out
        assert not (tmp_path / "env-cache").exists()

    def test_env_var_enables_cache(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-cache"))
        assert main([
            "campaign", "arch", "--trials", "6", "--workloads", "gcc",
        ]) == 0
        assert "golden cache: hits=0 misses=1" in capsys.readouterr().out

    def test_stats_and_clear(self, tmp_path, capsys, gcc_bundle):
        from repro.cli import main

        cache_dir = str(tmp_path / "cache")
        cache = GoldenArtifactCache(cache_dir)
        cache.store("arch", gcc_bundle.program,
                    ArchCampaignConfig(**SMALL), "x")
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "entries: 1" in out and "arch: 1 entry" in out
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert "entries: 0" in capsys.readouterr().out

    def test_cache_command_needs_a_directory(self, monkeypatch):
        from repro.cli import main

        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        with pytest.raises(SystemExit):
            main(["cache", "stats"])
