"""The batched lease protocol: batch grants and serial equivalence at
every batch size.

The invariants under test:

- a batch is granted in one store transaction under ONE lease clock —
  every fresh unit in the grant carries the same expiry stamp;
- a repeated lease call gets the units the worker already holds back
  first (reissue), without burning attempts;
- the finalized journal is byte-identical to a serial ``run_campaign``
  at every batch size, for every kernel.
"""

import pytest

from repro.campaign import run_campaign
from repro.service import (
    CampaignScheduler,
    JobSpec,
    ResultStore,
    ServiceError,
    execute_unit,
)

ALL_KERNELS = ["bzip2", "gap", "gcc", "gzip", "mcf", "parser", "vortex"]

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


def drain_batched(scheduler, worker="w0", batch=1):
    """Drain the queue leasing ``batch`` units per call, completing each
    unit as soon as it has run (no batch barrier, like the real pool)."""
    while True:
        leases = scheduler.lease_batch(worker, batch)
        if not leases:
            return
        for lease in leases:
            unit = lease["unit"]
            result = execute_unit(lease["spec"], unit)
            scheduler.complete(unit["job_id"], unit["unit_id"], worker, result)


class TestBatchLease:
    def test_batch_grant_shares_one_lease_clock(self, scheduler):
        view = scheduler.submit(make_spec(shards=4))
        job_id = view["job_id"]
        leases = scheduler.lease_batch("w0", 3)
        assert [lease["unit"]["unit_id"] for lease in leases] == [
            "gcc:0of4", "gcc:1of4", "gcc:2of4",
        ]
        expiries = {
            scheduler.store.unit(job_id, lease["unit"]["unit_id"])["lease_expiry"]
            for lease in leases
        }
        assert len(expiries) == 1  # one clock reading stamps the batch
        assert scheduler.counters["leases_granted"] == 3
        assert scheduler.counters["batch_leases_granted"] == 1

    def test_single_lease_is_not_counted_as_a_batch(self, scheduler):
        scheduler.submit(make_spec(shards=2))
        assert scheduler.lease_batch("w0", 1)
        assert scheduler.counters["batch_leases_granted"] == 0

    def test_lost_batch_response_is_reissued_not_recounted(self, scheduler):
        scheduler.submit(make_spec(shards=4))
        first = scheduler.lease_batch("w0", 3)
        # "w0" asks again while holding all three (a restarted service's
        # loop reclaiming its predecessor's leases): it must get the same
        # three units back, same attempt numbers.
        retry = scheduler.lease_batch("w0", 3)
        assert [lease["unit"]["unit_id"] for lease in retry] == [
            lease["unit"]["unit_id"] for lease in first
        ]
        assert all(lease["attempt"] == 1 for lease in retry)
        assert scheduler.counters["lease_reissues"] == 3
        assert scheduler.counters["leases_granted"] == 3  # not re-counted
        # Another worker asking for a big batch only gets what is left.
        rest = scheduler.lease_batch("w1", 8)
        assert [lease["unit"]["unit_id"] for lease in rest] == ["gcc:3of4"]

    def test_lease_count_must_be_positive(self, scheduler):
        scheduler.submit(make_spec())
        with pytest.raises(ServiceError, match="lease count"):
            scheduler.lease_batch("w0", 0)

    def test_partial_batch_completion_with_expiry_mid_batch(
        self, scheduler, tmp_path
    ):
        """Half the batch completes, the lease expires under the rest:
        the straggler units requeue individually, a late report from the
        original holder bounces, and a second worker finishes the job —
        with a journal still byte-identical to a serial run."""
        spec = make_spec(
            config={**CONFIG_OPTIONS, "workloads": ["gcc", "gzip"]},
            shards=2,
        )
        view = scheduler.submit(spec)
        job_id = view["job_id"]
        leases = scheduler.lease_batch("w0", 4)
        assert len(leases) == 4
        done, stragglers = leases[:2], leases[2:]
        results = {
            lease["unit"]["unit_id"]: execute_unit(lease["spec"], lease["unit"])
            for lease in leases
        }
        for lease in done:
            unit = lease["unit"]
            assert scheduler.complete(
                job_id, unit["unit_id"], "w0", results[unit["unit_id"]]
            )

        scheduler.test_clock.advance(61.0)  # past the shared batch clock
        assert scheduler.requeue_expired() == 2  # only the stragglers
        late = stragglers[0]["unit"]
        assert not scheduler.complete(
            job_id, late["unit_id"], "w0", results[late["unit_id"]]
        )
        assert scheduler.counters["bounced_completes"] == 1

        retry = scheduler.lease_batch("w1", 4)
        assert [lease["unit"]["unit_id"] for lease in retry] == [
            lease["unit"]["unit_id"] for lease in stragglers
        ]
        assert all(lease["attempt"] == 2 for lease in retry)
        for lease in retry:
            unit = lease["unit"]
            result = execute_unit(lease["spec"], unit)
            assert scheduler.complete(job_id, unit["unit_id"], "w1", result)

        final = scheduler.job_view(job_id)
        assert final["state"] == "done"
        serial_path = str(tmp_path / "serial.jsonl")
        run_campaign("arch", spec.config, journal_path=serial_path)
        with open(final["journal_path"]) as f, open(serial_path) as g:
            assert f.read() == g.read()


class TestBatchedSerialEquivalence:
    def test_every_batch_size_matches_serial_on_all_kernels(self, tmp_path):
        """The acceptance invariant: batched drains at N = 1, 4, 16 all
        finalize the exact bytes a serial ``run_campaign`` writes, on
        every kernel at once."""
        options = {
            "trials_per_workload": 4,
            "injection_points": 2,
            "workloads": list(ALL_KERNELS),
            "seed": 11,
        }
        spec = JobSpec.from_request(
            {"level": "arch", "config": options, "shards": 2}
        )
        serial_path = str(tmp_path / "serial.jsonl")
        run_campaign("arch", spec.config, journal_path=serial_path)
        with open(serial_path) as handle:
            serial = handle.read()

        for batch in (1, 4, 16):
            store = ResultStore(":memory:")
            scheduler = CampaignScheduler(
                store, str(tmp_path / f"batch-{batch}"), lease_ttl=60.0
            )
            try:
                view = scheduler.submit(spec)
                drain_batched(scheduler, batch=batch)
                final = scheduler.job_view(view["job_id"])
                assert final["state"] == "done", (batch, final)
                with open(final["journal_path"]) as handle:
                    assert handle.read() == serial, f"batch={batch} diverged"
            finally:
                store.close()


class TestMemhierShardedEquivalence:
    def test_two_shard_uarch_memhier_job_matches_serial_journal(
        self, tmp_path
    ):
        """A uarch campaign with memory-hierarchy targets and detectors,
        split over two shards per workload, must finalize the exact bytes
        of a serial run — the new config fields travel the wire and the
        detector latency fields merge per-unit without drift."""
        options = {
            "trials_per_workload": 6,
            "injection_points": 3,
            "window_cycles": 800,
            "workloads": ["gcc"],
            "seed": 7,
            "memhier_targets": True,
            "detectors": ["miss_spike", "stall_outlier", "spurious_memop"],
        }
        spec = JobSpec.from_request(
            {"level": "uarch", "config": options, "shards": 2}
        )
        serial_path = str(tmp_path / "serial.jsonl")
        run_campaign("uarch", spec.config, journal_path=serial_path)

        store = ResultStore(":memory:")
        scheduler = CampaignScheduler(
            store, str(tmp_path / "svc"), lease_ttl=60.0
        )
        try:
            view = scheduler.submit(spec)
            drain_batched(scheduler, batch=2)
            final = scheduler.job_view(view["job_id"])
            assert final["state"] == "done", final
            with open(final["journal_path"]) as handle:
                assert handle.read() == open(serial_path).read()
        finally:
            store.close()
