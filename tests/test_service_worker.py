"""The resilient client and worker: retries, breakers, outbox, bounces."""

import asyncio
import os
import time

import pytest

from repro.service import (
    LocalWorkerPool,
    RemoteWorker,
    ServiceClientError,
    TransportError,
    WorkerOutbox,
)
from repro.service.client import ServiceClient
from repro.service.worker import WorkerDeliveryWarning
from repro.util.retry import RetryPolicy

FAST_RETRY = RetryPolicy(
    attempts=3, base_delay=0.0, multiplier=1.0, max_delay=0.0, jitter=0.0
)


class ScriptedTransport:
    """A transport whose responses are a scripted list of (status, body)
    tuples or exceptions; repeats the last entry once exhausted."""

    def __init__(self, *script):
        self.script = list(script)
        self.calls = []

    def send(self, method, url, data, headers, timeout):
        self.calls.append((method, url.split("?")[0]))
        action = self.script.pop(0) if self.script else (200, b"{}")
        if isinstance(action, Exception):
            raise action
        return action


def make_client(*script, **kwargs):
    kwargs.setdefault("retry", FAST_RETRY)
    return ServiceClient(
        "http://test", transport=ScriptedTransport(*script), **kwargs
    )


class TestClientRetries:
    def test_transport_errors_retry_until_success(self):
        client = make_client(
            TransportError("down"), TransportError("down"), (200, b'{"ok": 1}')
        )
        assert client.health() == {"ok": 1}
        assert client.counters["retries"] == 2
        assert client.counters["transport_errors"] == 2

    def test_5xx_is_retryable(self):
        client = make_client(
            (500, b'{"error": "boom"}'), (200, b'{"ok": 1}')
        )
        assert client.health() == {"ok": 1}
        assert client.counters["server_errors"] == 1

    def test_truncated_body_is_retryable_corruption(self):
        client = make_client((200, b'{"ok": tru'), (200, b'{"ok": true}'))
        assert client.health() == {"ok": True}
        assert client.counters["transport_errors"] == 1

    def test_4xx_is_fatal_and_immediate(self):
        client = make_client((404, b'{"error": "no such job: j"}'))
        with pytest.raises(ServiceClientError, match="no such job") as info:
            client.job("j")
        assert info.value.status == 404
        assert not info.value.retryable
        assert len(client.transport.calls) == 1  # no retry on 4xx

    def test_exhausted_retries_raise_retryable(self):
        client = make_client(
            TransportError("down"), TransportError("down"),
            TransportError("down"),
        )
        with pytest.raises(ServiceClientError, match="cannot reach") as info:
            client.health()
        assert info.value.retryable
        assert len(client.transport.calls) == FAST_RETRY.attempts

    def test_backoff_delays_follow_the_policy(self):
        slept = []
        policy = RetryPolicy(attempts=3, base_delay=0.2, jitter=0.5)
        client = ServiceClient(
            "http://test",
            transport=ScriptedTransport(
                TransportError("x"), TransportError("x"), (200, b"{}")
            ),
            retry=policy, sleep=slept.append,
        )
        client.health()
        assert slept == [policy.delay(1, key="health"),
                         policy.delay(2, key="health")]


class TestClientBreaker:
    def test_breaker_trips_and_fast_fails_per_endpoint(self):
        client = make_client(
            *[TransportError("down")] * 9,
            breaker_threshold=3, breaker_cooldown=60.0,
        )
        # Two exhausted calls = 6 consecutive failures; the breaker
        # tripped at 3, so the second call only gets as far as its
        # remaining allowance and the third never reaches the wire.
        with pytest.raises(ServiceClientError):
            client.health()
        wire_calls = len(client.transport.calls)
        with pytest.raises(ServiceClientError, match="circuit breaker open"):
            client.health()
        assert len(client.transport.calls) == wire_calls  # fast-failed
        assert client.breaker_trips() == 1
        assert client.counters["breaker_fast_failures"] >= 1
        # Other endpoints are unaffected: breakers are per-endpoint.
        client.transport.script = [(200, b'{"leases": [], "count": 0}')]
        assert client.lease_batch("w", 1) == []

    def test_4xx_resets_the_breaker(self):
        client = make_client(
            TransportError("down"), (400, b'{"error": "bad"}'),
            breaker_threshold=2, breaker_cooldown=60.0,
        )
        with pytest.raises(ServiceClientError, match="bad"):
            client.health()
        # The 4xx proved the endpoint alive: the failure streak is gone.
        assert client._breakers["health"].failures == 0


def fake_lease(unit_id="gcc:0of1", job_id="job-000001"):
    return {
        "unit": {
            "job_id": job_id, "unit_id": unit_id, "workload": "gcc",
            "shard_index": 0, "shard_count": 1,
        },
        "spec": {"level": "arch", "config": {}},
        "lease_ttl": 60.0,
    }


class FakeClient:
    """An in-memory ServiceClient stand-in with scripted behaviours.

    ``complete_script`` / ``heartbeat_script`` hold per-call results:
    an exception instance to raise, or a value to return. Exhausted
    scripts return True (accepted / lease alive).
    """

    def __init__(self, leases=(), complete_script=(), heartbeat_script=()):
        self.leases = list(leases)
        self.complete_script = list(complete_script)
        self.heartbeat_script = list(heartbeat_script)
        self.completes = []
        self.fails = []
        self.heartbeats = 0

    def _next(self, script, default=True):
        action = script.pop(0) if script else default
        if isinstance(action, Exception):
            raise action
        return action

    def lease_batch(self, worker, count):
        granted, self.leases = self.leases[:count], self.leases[count:]
        return granted

    def heartbeat(self, job_id, unit_id, worker):
        self.heartbeats += 1
        return self._next(self.heartbeat_script)

    def complete(self, job_id, unit_id, worker, result):
        accepted = self._next(self.complete_script)
        self.completes.append((job_id, unit_id, worker))
        return accepted

    def fail(self, job_id, unit_id, worker, error):
        self.fails.append((job_id, unit_id, error))
        return True


@pytest.fixture
def stub_execute(monkeypatch):
    """Replace unit execution with a fast counting stub."""
    executed = []

    def fake_execute(spec_dict, unit_dict, cache_dir=None):
        executed.append(unit_dict["unit_id"])
        return {"outcomes": [], "skip_reason": None, "total_bits": 0,
                "metrics": None}

    monkeypatch.setattr("repro.service.worker.execute_unit", fake_execute)
    return executed


def make_worker(client, tmp_path, **kwargs):
    kwargs.setdefault("poll_interval", 0.01)
    kwargs.setdefault("exit_when_idle", True)
    return RemoteWorker(
        client, "w0", outbox_dir=str(tmp_path / "outbox"), **kwargs
    )


class TestRemoteWorkerDelivery:
    def test_flaky_complete_spools_and_replays_without_reexecution(
        self, tmp_path, stub_execute
    ):
        """The satellite regression: an unguarded ``complete`` used to
        crash the worker and lose the finished unit. Now the result is
        spooled and replayed — and the unit is never executed twice."""
        client = FakeClient(
            leases=[fake_lease()],
            complete_script=[
                ServiceClientError("unreachable", retryable=True), True
            ],
        )
        worker = make_worker(client, tmp_path)
        with pytest.warns(WorkerDeliveryWarning, match="spooled"):
            assert worker.run() == 1
        assert stub_execute == ["gcc:0of1"]  # exactly one execution
        assert client.completes == [("job-000001", "gcc:0of1", "w0")]
        assert worker.outbox_spooled == 1
        assert worker.outbox_replayed == 1
        assert worker.units_bounced == 0
        assert worker.outbox.pending() == []

    def test_exit_when_idle_waits_for_the_outbox_to_drain(
        self, tmp_path, stub_execute
    ):
        """A worker must not exit while results are spooled — stranding
        them would let the lease expire and the unit recompute."""
        client = FakeClient(
            leases=[fake_lease()],
            complete_script=[
                ServiceClientError("unreachable", retryable=True),
                ServiceClientError("unreachable", retryable=True),
                True,
            ],
        )
        worker = make_worker(client, tmp_path)
        with pytest.warns(WorkerDeliveryWarning):
            worker.run()
        assert worker.outbox.pending() == []
        assert worker.outbox_replayed == 1

    def test_fatal_rejection_bounces_instead_of_spooling(
        self, tmp_path, stub_execute
    ):
        client = FakeClient(
            leases=[fake_lease()],
            complete_script=[ServiceClientError("bad request", status=400)],
        )
        worker = make_worker(client, tmp_path)
        with pytest.warns(WorkerDeliveryWarning, match="rejected"):
            worker.run()
        assert worker.units_bounced == 1
        assert worker.outbox_spooled == 0
        assert worker.outbox.pending() == []

    def test_reissued_lease_after_fatal_rejection_fails_not_reruns(
        self, tmp_path, stub_execute
    ):
        """The scheduler re-issues a held lease on retry; if the service
        fatally rejected the unit's results, re-executing would loop
        forever producing the same rejected payload. The worker must
        surrender the lease with ``fail`` so the attempt budget (and
        dead-letter backstop) engages."""
        lease = fake_lease()
        client = FakeClient(
            leases=[lease, lease, lease],
            complete_script=[ServiceClientError("bad request", status=400)],
        )
        worker = make_worker(client, tmp_path)
        with pytest.warns(WorkerDeliveryWarning, match="rejected"):
            worker.run()
        assert stub_execute == ["gcc:0of1"]  # executed exactly once
        assert worker.units_bounced == 1
        assert worker.units_failed == 2  # one surrender per re-issue
        assert [f[:2] for f in client.fails] == [
            ("job-000001", "gcc:0of1"),
            ("job-000001", "gcc:0of1"),
        ]
        assert "undeliverable" in client.fails[0][2]

    def test_bounced_complete_is_counted(self, tmp_path, stub_execute):
        client = FakeClient(leases=[fake_lease()], complete_script=[False])
        worker = make_worker(client, tmp_path)
        with pytest.warns(WorkerDeliveryWarning, match="bounced"):
            worker.run()
        assert worker.units_bounced == 1
        assert worker.counters()["units_bounced"] == 1

    def test_bounced_fail_report_is_counted(self, tmp_path, monkeypatch):
        def explode(spec_dict, unit_dict, cache_dir=None):
            raise RuntimeError("executor died")

        monkeypatch.setattr("repro.service.worker.execute_unit", explode)
        client = FakeClient(leases=[fake_lease()])
        client.fail = lambda *args: False
        worker = make_worker(client, tmp_path)
        with pytest.warns(WorkerDeliveryWarning, match="fail report"):
            worker.run()
        assert worker.units_failed == 1
        assert worker.units_bounced == 1

    def test_lease_errors_back_off_instead_of_crashing(
        self, tmp_path, stub_execute
    ):
        client = FakeClient(leases=[fake_lease()])
        calls = {"n": 0}
        real_lease = client.lease_batch

        def flaky_lease(worker, count):
            calls["n"] += 1
            if calls["n"] == 1:
                raise ServiceClientError("unreachable", retryable=True)
            return real_lease(worker, count)

        client.lease_batch = flaky_lease
        worker = make_worker(client, tmp_path)
        assert worker.run() == 1
        assert calls["n"] >= 2

    def test_fatal_lease_error_raises(self, tmp_path, stub_execute):
        client = FakeClient()
        client.lease_batch = lambda worker, count: (_ for _ in ()).throw(
            ServiceClientError("bad auth", status=400)
        )
        worker = make_worker(client, tmp_path)
        with pytest.raises(ServiceClientError, match="bad auth"):
            worker.run()

    def test_outbox_survives_a_worker_restart(self, tmp_path, stub_execute):
        """A successor worker pointed at the same outbox directory
        delivers its dead predecessor's results."""
        down = FakeClient(
            leases=[fake_lease()],
            complete_script=[ServiceClientError("unreachable", retryable=True)],
        )
        first = make_worker(down, tmp_path)
        # The first worker exits while the service is down (simulate a
        # crash after spooling: stop() before the final flush succeeds).
        with pytest.warns(WorkerDeliveryWarning):
            first._run_batch([fake_lease()])
        assert len(first.outbox.pending()) == 1

        up = FakeClient()
        second = make_worker(up, tmp_path)
        assert second.run() == 0  # no new units; just the replay
        assert second.outbox_replayed == 1
        assert up.completes == [("job-000001", "gcc:0of1", "w0")]
        assert second.outbox.pending() == []


class TestRemoteWorkerHeartbeat:
    def _slow_execute(self, monkeypatch, duration):
        def slow(spec_dict, unit_dict, cache_dir=None):
            time.sleep(duration)
            return {"outcomes": [], "skip_reason": None, "total_bits": 0,
                    "metrics": None}

        monkeypatch.setattr("repro.service.worker.execute_unit", slow)

    def test_heartbeat_survives_transient_errors(self, tmp_path, monkeypatch):
        """The satellite regression: one failed heartbeat used to kill
        the beat thread for good, silently expiring long leases."""
        self._slow_execute(monkeypatch, 0.35)
        lease = fake_lease()
        lease["lease_ttl"] = 0.15  # beat interval: max(0.05, 0.05) = 0.05s
        client = FakeClient(
            leases=[lease],
            heartbeat_script=[
                ServiceClientError("unreachable", retryable=True),
                ServiceClientError("unreachable", retryable=True),
            ],
        )
        worker = make_worker(client, tmp_path)
        assert worker.run() == 1
        assert worker.heartbeat_retries == 2
        assert worker.leases_lost == 0
        assert client.heartbeats > 2  # it kept beating after the errors

    def test_heartbeat_stops_on_lease_lost(self, tmp_path, monkeypatch):
        self._slow_execute(monkeypatch, 0.3)
        lease = fake_lease()
        lease["lease_ttl"] = 0.15
        client = FakeClient(leases=[lease], heartbeat_script=[False])
        worker = make_worker(client, tmp_path)
        worker.run()
        assert worker.leases_lost == 1
        assert client.heartbeats == 1  # a definitive "gone" ends the loop


class TestWorkerOutbox:
    def test_spool_is_atomic_and_keyed_by_unit(self, tmp_path):
        outbox = WorkerOutbox(str(tmp_path))
        path = outbox.spool("job-1", "gcc:0of2", "w0", {"outcomes": []})
        again = outbox.spool("job-1", "gcc:0of2", "w0", {"outcomes": [1]})
        assert path == again  # re-spooling a unit overwrites, not duplicates
        assert outbox.pending() == [path]
        assert not [
            name for name in os.listdir(str(tmp_path))
            if name.startswith(".spool-")
        ]

    def test_replay_stops_on_retryable_error_keeping_the_spool(self, tmp_path):
        outbox = WorkerOutbox(str(tmp_path))
        outbox.spool("job-1", "gcc:0of2", "w0", {})
        outbox.spool("job-1", "gcc:1of2", "w0", {})

        class DownClient:
            def complete(self, *args):
                raise ServiceClientError("unreachable", retryable=True)

        delivered, bounced = outbox.replay(DownClient())
        assert (delivered, bounced) == (0, 0)
        assert len(outbox.pending()) == 2  # nothing lost

    def test_replay_discards_bounced_and_unreadable_records(self, tmp_path):
        outbox = WorkerOutbox(str(tmp_path))
        outbox.spool("job-1", "gcc:0of2", "w0", {})
        torn = os.path.join(str(tmp_path), "job-1-torn.json")
        with open(torn, "w") as handle:
            handle.write('{"job_id": "job-1", "unit')  # torn mid-write

        class BouncingClient:
            def complete(self, *args):
                return False

        with pytest.warns(WorkerDeliveryWarning):
            delivered, bounced = outbox.replay(BouncingClient())
        assert (delivered, bounced) == (0, 1)
        assert outbox.pending() == []


class TestLocalPoolBounces:
    def test_bounced_reports_are_counted(self, tmp_path):
        class FakeScheduler:
            def heartbeat(self, *args):
                return True

            def complete(self, *args):
                return False

            def fail(self, *args):
                return False

        pool = LocalWorkerPool(FakeScheduler(), workers=1)

        async def run():
            loop = asyncio.get_running_loop()
            from concurrent.futures import ThreadPoolExecutor

            pool._executor = ThreadPoolExecutor(max_workers=1)
            try:
                with pytest.warns(WorkerDeliveryWarning, match="bounced"):
                    await pool._run_batch("local-0", [{
                        "unit": fake_lease()["unit"],
                        "spec": {"level": "arch",
                                 "config": {"workloads": ["gcc"],
                                            "trials_per_workload": 1,
                                            "injection_points": 1,
                                            "seed": 7}},
                        "lease_ttl": 60.0,
                    }])
            finally:
                pool._executor.shutdown(wait=False)

        asyncio.run(run())
        assert pool.units_bounced == 1
