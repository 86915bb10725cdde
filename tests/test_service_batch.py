"""The batched lease protocol: batch grants, chunked completes,
serial equivalence at every batch size.

The tentpole invariants under test:

- a batch is granted in one store transaction under ONE lease clock —
  every fresh unit in the grant carries the same expiry stamp;
- a retried lease call gets the units the worker already holds back
  first (reissue), without burning attempts;
- chunked completes are idempotent on the trial key: duplicated,
  redelivered, or interleaved chunks can never double-count, and
  partial chunks both require and refresh a live lease;
- the finalized journal is byte-identical to a serial ``run_campaign``
  at every batch size and chunk size, for every kernel.
"""

import threading

import pytest

from repro.campaign import run_campaign
from repro.service import (
    CampaignScheduler,
    JobSpec,
    RemoteWorker,
    ResultStore,
    ServiceError,
    build_config,
    execute_unit,
)
from repro.service.client import ServiceClient
from tests.test_service_chaos import ALL_KERNELS, chaos_service

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
        # The response is "lost"; the worker retries the identical call
        # and must get the same three units back, same attempt numbers.
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


class TestChunkedComplete:
    def run_unit(self, scheduler):
        [lease] = scheduler.lease_batch("w0", 1)
        unit = lease["unit"]
        return unit, execute_unit(lease["spec"], unit)

    def test_chunks_interleaved_with_duplicate_redelivery(
        self, scheduler, tmp_path
    ):
        spec = make_spec()
        view = scheduler.submit(spec)
        job_id = view["job_id"]
        unit, result = self.run_unit(scheduler)
        outcomes = result["outcomes"]
        assert len(outcomes) == 6
        parts = [outcomes[0:2], outcomes[2:4], outcomes[4:6]]
        unit_id = unit["unit_id"]

        assert scheduler.complete_chunk(
            job_id, unit_id, "w0", {"outcomes": parts[0]}, 0, 3
        )
        # The response was lost: chunk 0 is redelivered verbatim.
        assert scheduler.complete_chunk(
            job_id, unit_id, "w0", {"outcomes": parts[0]}, 0, 3
        )
        assert scheduler.complete_chunk(
            job_id, unit_id, "w0", {"outcomes": parts[1]}, 1, 3
        )
        final_chunk = dict(result)
        final_chunk["outcomes"] = parts[2]
        assert scheduler.complete_chunk(
            job_id, unit_id, "w0", final_chunk, 2, 3
        )
        final = scheduler.job_view(job_id)
        assert final["state"] == "done"
        assert final["trials"] == 6  # the duplicated chunk did not double-count

        # Redelivery after the unit is done settles the sender.
        assert scheduler.complete_chunk(
            job_id, unit_id, "w0", final_chunk, 2, 3
        )
        assert scheduler.counters["duplicate_completes"] == 1
        assert scheduler.counters["chunked_completes"] == 5

        serial_path = str(tmp_path / "serial.jsonl")
        run_campaign("arch", spec.config, journal_path=serial_path)
        with open(final["journal_path"]) as f, open(serial_path) as g:
            assert f.read() == g.read()

    def test_partial_chunk_refreshes_the_lease(self, scheduler):
        view = scheduler.submit(make_spec())
        job_id = view["job_id"]
        unit, result = self.run_unit(scheduler)
        scheduler.test_clock.advance(50.0)  # 10s from expiry
        assert scheduler.complete_chunk(
            job_id, unit["unit_id"], "w0",
            {"outcomes": result["outcomes"][:2]}, 0, 2,
        )
        scheduler.test_clock.advance(50.0)  # would have expired unrefreshed
        assert scheduler.requeue_expired() == 0
        final_chunk = dict(result)
        final_chunk["outcomes"] = result["outcomes"][2:]
        assert scheduler.complete_chunk(
            job_id, unit["unit_id"], "w0", final_chunk, 1, 2
        )
        assert scheduler.job_view(job_id)["state"] == "done"

    def test_partial_chunk_from_wrong_worker_bounces(self, scheduler):
        view = scheduler.submit(make_spec())
        job_id = view["job_id"]
        unit, result = self.run_unit(scheduler)
        assert not scheduler.complete_chunk(
            job_id, unit["unit_id"], "intruder",
            {"outcomes": result["outcomes"][:2]}, 0, 2,
        )
        assert scheduler.counters["bounced_completes"] == 1
        assert scheduler.job_view(job_id)["trials"] == 0  # slice dropped

    def test_partial_chunk_after_expiry_bounces(self, scheduler):
        view = scheduler.submit(make_spec())
        job_id = view["job_id"]
        unit, result = self.run_unit(scheduler)
        scheduler.test_clock.advance(61.0)
        scheduler.requeue_expired()
        assert not scheduler.complete_chunk(
            job_id, unit["unit_id"], "w0",
            {"outcomes": result["outcomes"][:2]}, 0, 2,
        )
        assert scheduler.counters["bounced_completes"] == 1

    def test_malformed_chunk_indices_rejected(self, scheduler):
        view = scheduler.submit(make_spec())
        job_id = view["job_id"]
        unit, _result = self.run_unit(scheduler)
        for index, count in ((0, 0), (-1, 3), (3, 3)):
            with pytest.raises(ServiceError, match="invalid chunk"):
                scheduler.complete_chunk(
                    job_id, unit["unit_id"], "w0", {}, index, count
                )


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


class TestBatchedWorkerEndToEnd:
    def test_remote_worker_with_batches_and_chunks_matches_serial(
        self, tmp_path
    ):
        """A real HTTP worker leasing 4 units per call and streaming
        completes in 2-trial chunks produces the serial journal."""
        options = {
            "trials_per_workload": 6,
            "injection_points": 4,
            "workloads": ["gcc", "gzip", "mcf"],
            "seed": 7,
        }
        with chaos_service(
            tmp_path / "svc", lease_ttl=60.0, max_attempts=2
        ) as (service, scheduler):
            control = ServiceClient(service.address)
            view = control.submit(
                {"level": "arch", "config": options, "shards": 2}
            )
            worker = RemoteWorker(
                ServiceClient(service.address), "batcher",
                poll_interval=0.05, lease_batch=4, complete_chunk=2,
                outbox_dir=str(tmp_path / "outbox"),
            )
            thread = threading.Thread(target=worker.run, daemon=True)
            thread.start()
            final = control.wait(view["job_id"], timeout=120)
            worker.stop()
            thread.join(timeout=30)
            assert final["state"] == "done"
            assert final["error"] is None
            metrics = control.service_metrics()
            assert metrics["counters"]["batch_leases_granted"] >= 1
            # Shard 0 of each workload carries 4 outcomes (> chunk size
            # 2), so those three units stream in 2 chunked POSTs each;
            # the 2-outcome shards fit one request and stay unchunked.
            assert metrics["counters"]["chunked_completes"] == 6
            assert metrics["counters"].get("bounced_completes", 0) == 0

        serial_path = str(tmp_path / "serial.jsonl")
        run_campaign(
            "arch", build_config("arch", options), journal_path=serial_path
        )
        with open(final["journal_path"]) as f, open(serial_path) as g:
            assert f.read() == g.read()


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
