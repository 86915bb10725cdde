"""The campaign service: specs, sharding, store, scheduler, leases."""

import json
import os

import pytest

from repro.campaign import run_campaign
from repro.faults import ArchCampaignConfig
from repro.service import (
    CampaignScheduler,
    JobSpec,
    ResultStore,
    ServiceError,
    WorkUnit,
    build_config,
    execute_unit,
    shard_job,
)
from repro.service.shard import round_units
from repro.util.journal import config_to_dict, stable_digest

CONFIG_OPTIONS = {
    "trials_per_workload": 6,
    "injection_points": 4,
    "workloads": ["gcc"],
    "seed": 7,
}


def make_spec(**overrides):
    payload = {"level": "arch", "config": dict(CONFIG_OPTIONS)}
    payload.update(overrides)
    return JobSpec.from_request(payload)


class FakeClock:
    def __init__(self, start=1000.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def scheduler(tmp_path):
    store = ResultStore(":memory:")
    clock = FakeClock()
    sched = CampaignScheduler(
        store, str(tmp_path), lease_ttl=60.0, max_attempts=2, clock=clock
    )
    sched.test_clock = clock
    yield sched
    store.close()


def drain(scheduler, worker="w0", fail_units=()):
    """Run the lease protocol to completion as one synchronous worker."""
    while leases := scheduler.lease_batch(worker, 1):
        [lease] = leases
        unit = lease["unit"]
        if unit["unit_id"] in fail_units:
            scheduler.fail(
                unit["job_id"], unit["unit_id"], worker, "induced failure"
            )
            continue
        result = execute_unit(lease["spec"], unit)
        scheduler.complete(unit["job_id"], unit["unit_id"], worker, result)


class TestJobSpec:
    def test_from_request_round_trips_config(self):
        spec = make_spec()
        expected = ArchCampaignConfig(
            trials_per_workload=6, injection_points=4,
            workloads=("gcc",), seed=7,
        )
        assert spec.config == expected
        assert spec.config_digest == stable_digest(config_to_dict(expected))

    def test_unknown_config_option_rejected(self):
        with pytest.raises(ServiceError, match="unknown arch config option"):
            build_config("arch", {"trails_per_workload": 6})

    def test_fault_model_dropped_not_rejected(self):
        config = build_config(
            "arch", {**CONFIG_OPTIONS, "fault_model": {"whatever": 1}}
        )
        assert config == build_config("arch", CONFIG_OPTIONS)

    def test_unknown_level_rejected(self):
        with pytest.raises(ServiceError, match="unknown campaign level"):
            make_spec(level="rtl")

    def test_bad_shards_rejected(self):
        with pytest.raises(ServiceError, match="shards_per_workload"):
            make_spec(shards=0)
        with pytest.raises(ServiceError, match="shards_per_workload"):
            make_spec(shards="two")

    def test_bad_timeout_rejected(self):
        with pytest.raises(ServiceError, match="trial_timeout"):
            make_spec(trial_timeout=-1)
        with pytest.raises(ServiceError, match="trial_timeout"):
            make_spec(trial_timeout="soon")

    def test_dict_round_trip(self):
        spec = make_spec(shards=3, trial_timeout=2.5, trace=True)
        assert JobSpec.from_dict(spec.to_dict()) == spec


class TestSharding:
    def test_units_cover_workloads_in_order(self):
        spec = make_spec(
            config={**CONFIG_OPTIONS, "workloads": ["gcc", "gzip"]}, shards=2
        )
        units = shard_job("job-1", spec)
        assert [u.unit_id for u in units] == [
            "gcc:0of2", "gcc:1of2", "gzip:0of2", "gzip:1of2",
        ]
        assert all(u.shard == (u.shard_index, 2) for u in units)

    def test_one_function_names_every_unit(self):
        """Round 0 is ``{workload}:{i}of{n}`` for uniform and adaptive jobs
        alike; a later planner round adds an ``r{k}:`` tag."""
        options = {**CONFIG_OPTIONS, "workloads": ["gcc"]}
        uniform = make_spec(config=options, shards=2)
        adaptive = make_spec(
            config=options, shards=2,
            planner={"margin": 0.3, "min_trials": 2, "round_trials": 2},
        )
        for spec in (uniform, adaptive):
            units = shard_job("job-1", spec)
            assert [u.unit_id for u in units] == ["gcc:0of2", "gcc:1of2"]
            assert all(u.round == 0 and u.allocation is None for u in units)
        later = round_units("job-1", adaptive, "gcc", 2, [(5, 2, 2)])
        assert [u.unit_id for u in later] == ["gcc:r2:0of2", "gcc:r2:1of2"]
        assert all(u.round == 2 and u.allocation == ((5, 2, 2),) for u in later)

    def test_single_shard_maps_to_whole_workload(self):
        (unit,) = shard_job("job-1", make_spec())
        assert unit.shard is None

    def test_work_unit_round_trip(self):
        unit = WorkUnit("job-1", "gcc:1of2", "gcc", 1, 2)
        assert WorkUnit.from_dict(unit.to_dict()) == unit

    def test_shards_partition_the_trial_space(self):
        """The union of the stride slices is the serial trial set, each
        trial exactly once — the foundation of serial equivalence."""
        spec = make_spec(shards=3)
        keys = []
        for unit in shard_job("job-1", spec):
            result = execute_unit(spec.to_dict(), unit.to_dict())
            keys.extend(entry["key"] for entry in result["outcomes"])
        serial = run_campaign("arch", spec.config)
        assert sorted(keys) == sorted(o.key for o in serial.outcomes)
        assert len(keys) == len(set(keys))


class TestResultStore:
    def test_trial_ingestion_is_idempotent(self):
        store = ResultStore(":memory:")
        store.create_job("j", 1, "arch", {}, created=0.0)
        rows = [("gcc:1:0", 0, 0, "gcc", 1, 0, "ok", "{}")]
        assert store.add_trials("j", rows) == 1
        assert store.add_trials("j", rows) == 0  # retry re-report: no dup
        assert store.trial_count("j") == 1
        store.close()

    def test_persists_across_reopen(self, tmp_path):
        path = str(tmp_path / "svc.db")
        store = ResultStore(path)
        store.create_job("j", 1, "arch", {"level": "arch"}, created=0.0)
        store.close()
        store = ResultStore(path)
        assert store.job("j")["state"] == "queued"
        store.close()

    def test_lease_respects_job_order(self):
        store = ResultStore(":memory:")
        store.create_job("a", 1, "arch", {}, created=0.0)
        store.create_job("b", 2, "arch", {}, created=1.0)
        store.add_units([
            WorkUnit("b", "gcc:0of1", "gcc", 0, 1),
            WorkUnit("a", "gcc:0of1", "gcc", 0, 1),
        ])
        [leased] = store.lease_batch("w", now=10.0, ttl=5.0, limit=1)
        assert leased["job_id"] == "a"  # oldest job first, not insert order
        store.close()

    def test_reports_require_lease_ownership(self):
        store = ResultStore(":memory:")
        store.create_job("a", 1, "arch", {}, created=0.0)
        store.add_units([WorkUnit("a", "gcc:0of1", "gcc", 0, 1)])
        store.lease_batch("w1", now=0.0, ttl=5.0, limit=1)
        assert not store.heartbeat("a", "gcc:0of1", "w2", expiry=99.0)
        assert not store.complete_unit(
            "a", "gcc:0of1", "w2", skip_reason=None, total_bits=0, metrics=None
        )
        assert store.complete_unit(
            "a", "gcc:0of1", "w1", skip_reason=None, total_bits=0, metrics=None
        )
        store.close()


class TestSchedulerEndToEnd:
    def test_sharded_job_matches_serial_run_bit_for_bit(
        self, scheduler, tmp_path
    ):
        """The acceptance invariant: a 2-shard job's journal and merged
        telemetry are byte-identical to a serial ``run_campaign``."""
        spec = make_spec(
            config={**CONFIG_OPTIONS, "workloads": ["gcc", "gzip"]},
            shards=2, trace=True,
        )
        view = scheduler.submit(spec)
        drain(scheduler)
        view = scheduler.job_view(view["job_id"])
        assert view["state"] == "done"

        serial_journal = str(tmp_path / "serial.jsonl")
        serial_trace = str(tmp_path / "serial.trace.jsonl")
        from repro.telemetry import JsonlTraceSink

        sink = JsonlTraceSink(serial_trace)
        serial = run_campaign(
            "arch", spec.config, journal_path=serial_journal, trace=sink
        )
        sink.close()

        with open(view["journal_path"]) as f, open(serial_journal) as g:
            assert f.read() == g.read()
        with open(view["trace_path"]) as f, open(serial_trace) as g:
            assert f.read() == g.read()
        assert view["outcomes"] == {"ok": len(serial.outcomes)}

    def test_lease_expiry_requeues_killed_workers_unit(self, scheduler):
        """A worker that leases a unit and dies (no heartbeat, no report)
        loses the lease after the TTL; another worker completes the job."""
        scheduler.submit(make_spec())
        [lease] = scheduler.lease_batch("doomed", 1)
        assert scheduler.lease_batch("idle", 1) == []  # nothing else leasable

        scheduler.test_clock.advance(61.0)  # past the 60 s TTL
        drain(scheduler, worker="survivor")
        view = scheduler.job_view("job-000001")
        assert view["state"] == "done"
        assert view["error"] is None  # requeued, not retired

        # The dead worker's late report must bounce, not double-ingest.
        unit = lease["unit"]
        stale = execute_unit(lease["spec"], unit)
        assert not scheduler.complete(
            unit["job_id"], unit["unit_id"], "doomed", stale
        )
        assert scheduler.job_view("job-000001")["trials"] == view["trials"]

    def test_heartbeat_keeps_a_slow_unit_leased(self, scheduler):
        scheduler.submit(make_spec())
        [lease] = scheduler.lease_batch("slow", 1)
        unit = lease["unit"]
        for _ in range(5):
            scheduler.test_clock.advance(40.0)
            assert scheduler.heartbeat(unit["job_id"], unit["unit_id"], "slow")
        assert scheduler.lease_batch("thief", 1) == []  # never expired
        result = execute_unit(lease["spec"], unit)
        assert scheduler.complete(unit["job_id"], unit["unit_id"], "slow", result)
        assert scheduler.job_view(unit["job_id"])["state"] == "done"

    def test_exhausted_attempts_retire_unit_and_skip_workload(self, scheduler):
        spec = make_spec(config={**CONFIG_OPTIONS, "workloads": ["gcc", "gzip"]})
        view = scheduler.submit(spec)
        job_id = view["job_id"]
        drain(scheduler, fail_units=("gcc:0of1",))
        view = scheduler.job_view(job_id)
        assert view["state"] == "done"  # the job completes regardless
        assert "skipped workloads: gcc" in view["error"]
        assert view["units"] == {"done": 1, "failed": 1}

        entries = [
            json.loads(line)
            for line in open(view["journal_path"]).read().splitlines()
        ]
        sentinels = {
            e["workload"]: e for e in entries if e["kind"] == "workload"
        }
        assert sentinels["gcc"]["status"] == "skipped"
        assert "induced failure" in sentinels["gcc"]["reason"]
        assert sentinels["gzip"]["status"] == "done"

    def test_cancel_stops_pending_work(self, scheduler):
        view = scheduler.submit(make_spec(
            config={**CONFIG_OPTIONS, "workloads": ["gcc", "gzip"]}, shards=2
        ))
        job_id = view["job_id"]
        [lease] = scheduler.lease_batch("w0", 1)
        cancelled = scheduler.cancel(job_id)
        assert cancelled["state"] == "cancelled"
        assert scheduler.lease_batch("w0", 1) == []
        # An in-flight result after cancellation is dropped.
        unit = lease["unit"]
        result = execute_unit(lease["spec"], unit)
        assert not scheduler.complete(unit["job_id"], unit["unit_id"], "w0", result)
        assert scheduler.job_view(job_id)["trials"] == 0

    def test_events_tell_the_jobs_story(self, scheduler):
        view = scheduler.submit(make_spec())
        seen = []
        scheduler.add_listener(view["job_id"], seen.append)
        drain(scheduler)
        kinds = [e["event"] for e in scheduler.events(view["job_id"])]
        assert kinds[0] == "submitted"
        assert kinds[-1] == "done"
        assert "leased" in kinds and "unit_done" in kinds
        # The live listener saw everything after it subscribed.
        assert [e["event"] for e in seen] == kinds[1:]

    def test_unknown_job_raises(self, scheduler):
        with pytest.raises(ServiceError, match="no such job"):
            scheduler.job_view("job-999999")

    def test_jobs_view_paginates(self, scheduler):
        for _ in range(3):
            scheduler.submit(make_spec())
        page = scheduler.jobs_view(offset=1, limit=1)
        assert page["total"] == 3
        assert len(page["jobs"]) == 1
        assert page["jobs"][0]["job_id"] == "job-000002"  # newest first

    def test_journals_land_under_the_data_dir(self, scheduler, tmp_path):
        view = scheduler.submit(make_spec())
        drain(scheduler)
        journal = scheduler.job_view(view["job_id"])["journal_path"]
        assert os.path.dirname(journal) == str(tmp_path / "jobs")


class TestDuplicateCompletes:
    def test_second_complete_from_the_same_worker_bounces(self, scheduler):
        """Completing a unit ends the worker's lease, so a second
        complete bounces like any report from a worker without one."""
        scheduler.submit(make_spec())
        [lease] = scheduler.lease_batch("w0", 1)
        unit = lease["unit"]
        result = execute_unit(lease["spec"], unit)
        assert scheduler.complete(unit["job_id"], unit["unit_id"], "w0", result)
        trials = scheduler.job_view(unit["job_id"])["trials"]
        assert not scheduler.complete(
            unit["job_id"], unit["unit_id"], "w0", result
        )
        assert scheduler.job_view(unit["job_id"])["trials"] == trials
        assert scheduler.counters["bounced_completes"] == 1

    def test_duplicate_from_another_worker_still_bounces(self, scheduler):
        scheduler.submit(make_spec())
        [lease] = scheduler.lease_batch("w0", 1)
        unit = lease["unit"]
        result = execute_unit(lease["spec"], unit)
        assert scheduler.complete(unit["job_id"], unit["unit_id"], "w0", result)
        assert not scheduler.complete(
            unit["job_id"], unit["unit_id"], "thief", result
        )
        assert scheduler.counters["bounced_completes"] == 1


class TestLeaseReissue:
    def test_lease_retry_gets_the_same_unit_back(self, scheduler):
        """A worker that asks again while it holds a live lease gets that
        lease re-issued — same unit, same attempt — instead of an idle
        answer that leaves the unit waiting out its TTL."""
        scheduler.submit(make_spec(
            config={**CONFIG_OPTIONS, "workloads": ["gcc", "gzip"]}
        ))
        [first] = scheduler.lease_batch("w0", 1)
        [again] = scheduler.lease_batch("w0", 1)
        assert again["unit"] == first["unit"]
        assert again["attempt"] == first["attempt"] == 1
        assert scheduler.counters["lease_reissues"] == 1
        assert scheduler.counters["leases_granted"] == 1
        events = [
            e["event"] for e in scheduler.events(first["unit"]["job_id"])
        ]
        assert "lease_reissued" in events

    def test_reissue_refreshes_the_lease_expiry(self, scheduler):
        scheduler.submit(make_spec())
        [lease] = scheduler.lease_batch("w0", 1)
        unit = lease["unit"]
        scheduler.test_clock.advance(45.0)  # 15 s left on a 60 s TTL
        assert scheduler.lease_batch("w0", 1)[0]["unit"] == unit
        scheduler.test_clock.advance(45.0)  # past the original expiry
        row = scheduler.store.unit(unit["job_id"], unit["unit_id"])
        assert row["state"] == "leased" and row["worker"] == "w0"

    def test_other_workers_do_not_steal_a_live_lease(self, scheduler):
        scheduler.submit(make_spec())
        [mine] = scheduler.lease_batch("w0", 1)
        assert scheduler.lease_batch("w1", 1) == []
        assert scheduler.lease_batch("w0", 1)[0]["unit"] == mine["unit"]

    def test_expired_lease_is_not_reissued(self, scheduler):
        scheduler.submit(make_spec())
        [first] = scheduler.lease_batch("w0", 1)
        scheduler.test_clock.advance(61.0)
        [second] = scheduler.lease_batch("w0", 1)
        assert second["unit"] == first["unit"]  # requeued, then re-leased
        assert second["attempt"] == 2
        assert scheduler.counters["lease_reissues"] == 0
        assert scheduler.counters["leases_granted"] == 2

    def test_completed_unit_is_not_reissued(self, scheduler):
        scheduler.submit(make_spec(
            config={**CONFIG_OPTIONS, "workloads": ["gcc", "gzip"]}
        ))
        [lease] = scheduler.lease_batch("w0", 1)
        unit = lease["unit"]
        result = execute_unit(lease["spec"], unit)
        scheduler.complete(unit["job_id"], unit["unit_id"], "w0", result)
        [follow_on] = scheduler.lease_batch("w0", 1)
        assert follow_on["unit"] != unit
        assert scheduler.counters["lease_reissues"] == 0


class TestDeadLetterQueue:
    def _dead_letter_one(self, scheduler):
        view = scheduler.submit(make_spec(
            config={**CONFIG_OPTIONS, "workloads": ["gcc", "gzip"]}
        ))
        drain(scheduler, fail_units=("gcc:0of1",))
        return view["job_id"]

    def test_exhausted_units_land_in_the_dead_letter_queue(self, scheduler):
        job_id = self._dead_letter_one(scheduler)
        listing = scheduler.dead_letter_view()
        assert listing["total"] == 1
        (unit,) = listing["units"]
        assert unit["job_id"] == job_id
        assert unit["unit_id"] == "gcc:0of1"
        assert unit["attempts"] == 2
        assert "induced failure" in unit["error"]
        assert scheduler.dead_letter_view(job_id) == listing
        assert scheduler.service_metrics()["dead_letter"] == 1

    def test_requeue_reopens_and_refinalizes_byte_identical(
        self, scheduler, tmp_path
    ):
        """The full recovery arc: a dead-lettered unit is requeued, the
        finalized job reopens, and the rebuilt journal is byte-identical
        to a serial run — the stale skip sentinel and error are gone."""
        job_id = self._dead_letter_one(scheduler)
        assert "skipped workloads: gcc" in scheduler.job_view(job_id)["error"]

        view = scheduler.requeue_unit(job_id, "gcc:0of1")
        assert view["state"] == "running"
        drain(scheduler)
        view = scheduler.job_view(job_id)
        assert view["state"] == "done"
        assert view["error"] is None  # the stale skip note is cleared
        assert scheduler.dead_letter_view()["total"] == 0

        serial_path = str(tmp_path / "serial.jsonl")
        run_campaign(
            "arch",
            build_config(
                "arch", {**CONFIG_OPTIONS, "workloads": ["gcc", "gzip"]}
            ),
            journal_path=serial_path,
        )
        with open(view["journal_path"]) as f, open(serial_path) as g:
            assert f.read() == g.read()
        assert scheduler.counters["dead_letter_requeues"] == 1

    def test_requeue_rejects_non_dead_lettered_units(self, scheduler):
        scheduler.submit(make_spec())
        with pytest.raises(ServiceError, match="not dead-lettered"):
            scheduler.requeue_unit("job-000001", "gcc:0of1")
        with pytest.raises(ServiceError, match="no such unit"):
            scheduler.requeue_unit("job-000001", "gcc:9of9")
        with pytest.raises(ServiceError, match="no such job"):
            scheduler.requeue_unit("job-999999", "gcc:0of1")

    def test_requeue_rejects_cancelled_jobs(self, scheduler):
        job_id = scheduler.submit(make_spec(
            config={**CONFIG_OPTIONS, "workloads": ["gcc", "gzip"]}
        ))["job_id"]
        for _ in range(2):  # exhaust the gcc unit's attempt budget
            [lease] = scheduler.lease_batch("w0", 1)
            scheduler.fail(job_id, lease["unit"]["unit_id"], "w0", "induced")
        scheduler.cancel(job_id)  # gzip still pending: genuinely cancelled
        with pytest.raises(ServiceError, match="cancelled"):
            scheduler.requeue_unit(job_id, "gcc:0of1")

    def test_service_metrics_tell_the_resilience_story(self, scheduler):
        job_id = self._dead_letter_one(scheduler)
        scheduler.requeue_unit(job_id, "gcc:0of1")
        drain(scheduler)
        counters = scheduler.service_metrics()["counters"]
        assert counters["units_dead_lettered"] == 1
        assert counters["dead_letter_requeues"] == 1
        assert counters["units_requeued"] == 1  # the first induced failure
        assert counters["leases_granted"] >= 4


class TestRestartRecovery:
    def test_scheduler_restart_mid_drain_finishes_byte_identical(
        self, tmp_path
    ):
        """Kill the service mid-drain (store survives on disk, leases
        in flight), restart against the same SQLite file, finish the
        drain: the journal must be byte-identical to a serial run."""
        db = str(tmp_path / "service.sqlite")
        spec = make_spec(
            config={**CONFIG_OPTIONS, "workloads": ["gcc", "gzip"]}, shards=2
        )

        store = ResultStore(db)
        clock = FakeClock()
        sched = CampaignScheduler(
            store, str(tmp_path), lease_ttl=60.0, clock=clock
        )
        job_id = sched.submit(spec)["job_id"]
        # Drain one unit fully, then die holding a lease on a second.
        [lease] = sched.lease_batch("w0", 1)
        unit = lease["unit"]
        sched.complete(
            unit["job_id"], unit["unit_id"], "w0",
            execute_unit(lease["spec"], unit),
        )
        assert sched.lease_batch("w0", 1)  # in flight at the "crash"
        store.close()

        store = ResultStore(db)
        reboot_clock = FakeClock(start=3.0)  # a fresh monotonic epoch
        sched = CampaignScheduler(
            store, str(tmp_path), lease_ttl=60.0, clock=reboot_clock
        )
        assert sched.job_view(job_id)["state"] == "running"
        # The orphaned lease was re-armed: it expires one ttl after boot.
        reboot_clock.advance(61.0)
        drain(sched, worker="w1")
        view = sched.job_view(job_id)
        assert view["state"] == "done"
        assert view["error"] is None

        serial_path = str(tmp_path / "serial.jsonl")
        run_campaign("arch", spec.config, journal_path=serial_path)
        with open(view["journal_path"]) as f, open(serial_path) as g:
            assert f.read() == g.read()
        store.close()

    def test_restarted_pool_loop_gets_its_live_lease_back(self, tmp_path):
        """A restarted ``repro serve`` names its pool loops
        ``local-0..N-1`` again, so the lease ``local-0`` held at the
        restart comes straight back to the new ``local-0``: at once, at
        the same attempt, with no TTL wait and no attempt spent."""
        db = str(tmp_path / "service.sqlite")
        store = ResultStore(db)
        sched = CampaignScheduler(
            store, str(tmp_path), lease_ttl=60.0, clock=FakeClock()
        )
        sched.submit(make_spec(
            config={**CONFIG_OPTIONS, "workloads": ["gcc", "gzip"]}
        ))
        [held] = sched.lease_batch("local-0", 1)
        store.close()

        store = ResultStore(db)
        sched = CampaignScheduler(
            store, str(tmp_path), lease_ttl=60.0, clock=FakeClock(start=3.0)
        )
        [again] = sched.lease_batch("local-0", 1)
        assert again["unit"] == held["unit"]
        assert again["attempt"] == held["attempt"] == 1
        assert sched.counters["lease_reissues"] == 1
        assert sched.counters["leases_granted"] == 0  # nothing fresh
        # The other loop gets the next unit, not local-0's.
        [other] = sched.lease_batch("local-1", 1)
        assert other["unit"] != held["unit"]
        store.close()


class TestMonotonicLeases:
    """Lease bookkeeping must run on a monotonic clock (regression: it
    ran on wall time, so an NTP step or an operator fixing the date
    could mass-expire every live lease — or immortalise a dead one)."""

    def _scheduler(self, tmp_path, monkeypatch, **kwargs):
        import repro.service.scheduler as scheduler_module

        mono = FakeClock(start=50.0)
        wall = FakeClock(start=1_700_000_000.0)
        monkeypatch.setattr(scheduler_module, "_lease_clock", mono)
        monkeypatch.setattr(scheduler_module, "_wall_clock", wall)
        store = ResultStore(":memory:")
        sched = CampaignScheduler(
            store, str(tmp_path), lease_ttl=60.0, max_attempts=2, **kwargs
        )
        return sched, mono, wall

    def test_backwards_wall_step_does_not_expire_leases(
        self, tmp_path, monkeypatch
    ):
        sched, mono, wall = self._scheduler(tmp_path, monkeypatch)
        sched.submit(make_spec())
        [lease] = sched.lease_batch("w0", 1)
        wall.advance(-86_400.0)  # the machine's date was a day ahead
        mono.advance(30.0)  # well inside the 60s ttl
        assert sched.requeue_expired() == 0
        unit = lease["unit"]
        assert sched.heartbeat(unit["job_id"], unit["unit_id"], "w0")

    def test_forwards_wall_jump_does_not_expire_leases(
        self, tmp_path, monkeypatch
    ):
        sched, mono, wall = self._scheduler(tmp_path, monkeypatch)
        sched.submit(make_spec())
        assert sched.lease_batch("w0", 1)
        wall.advance(86_400.0)  # NTP catches a slow clock up by a day
        mono.advance(30.0)
        assert sched.requeue_expired() == 0

    def test_leases_expire_by_elapsed_monotonic_time_alone(
        self, tmp_path, monkeypatch
    ):
        sched, mono, wall = self._scheduler(tmp_path, monkeypatch)
        sched.submit(make_spec())
        assert sched.lease_batch("w0", 1)
        wall.advance(-86_400.0)  # irrelevant to expiry either way
        mono.advance(61.0)
        assert sched.requeue_expired() == 1  # genuinely stale: requeued
        assert sched.lease_batch("w1", 1)  # and re-offerable

    def test_display_timestamps_use_the_wall_clock(
        self, tmp_path, monkeypatch
    ):
        sched, mono, wall = self._scheduler(tmp_path, monkeypatch)
        view = sched.submit(make_spec())
        assert view["created"] == 1_700_000_000.0
        drain(sched)
        finished = sched.job_view(view["job_id"])["finished"]
        assert finished == 1_700_000_000.0  # wall clock, not monotonic

    def test_one_injected_test_clock_drives_both(self, tmp_path):
        """The established test idiom — one FakeClock as ``clock`` —
        keeps serving display fields too."""
        store = ResultStore(":memory:")
        clock = FakeClock(start=123.0)
        sched = CampaignScheduler(store, str(tmp_path), clock=clock)
        assert sched.submit(make_spec())["created"] == 123.0

    def test_restart_rearms_persisted_leases(self, tmp_path):
        """Monotonic timestamps are meaningless across a restart (every
        boot has its own epoch), so a new scheduler re-arms persisted
        leases against its own clock: one extra ttl of patience, after
        which a genuinely dead worker's unit is requeued — never an
        immortal lease, never an instant mass expiry."""
        db = str(tmp_path / "service.sqlite")
        store = ResultStore(db)
        first_boot = FakeClock(start=10_000.0)
        sched = CampaignScheduler(
            store, str(tmp_path), lease_ttl=60.0, clock=first_boot
        )
        sched.submit(make_spec())
        assert len(sched.lease_batch("w0", 1)) == 1
        store.close()

        # New process, fresh monotonic epoch far below the persisted
        # expiry of ~10060 — which, taken literally, would pin the unit
        # to its vanished worker for nearly three hours.
        store = ResultStore(db)
        second_boot = FakeClock(start=5.0)
        sched = CampaignScheduler(
            store, str(tmp_path), lease_ttl=60.0, clock=second_boot
        )
        assert sched.requeue_expired() == 0  # within the grace ttl
        second_boot.advance(61.0)
        assert sched.requeue_expired() == 1  # requeued, not immortal
        assert sched.lease_batch("w1", 1)
        store.close()
