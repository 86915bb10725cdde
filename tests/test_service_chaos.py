"""Chaos: seeded transport faults + killed workers vs. the invariant.

The service's serial-equivalence guarantee is only worth something if it
survives the failures the architecture claims to absorb. These tests
drive real jobs through the real HTTP stack behind a seeded
:class:`ChaosTransport` (drops, resets, duplicates, truncations,
delays), abandon and SIGKILL workers, and then hold the one line that
matters: the finalized journal is byte-identical to a serial
``run_campaign``, with an empty dead-letter queue and no completed unit
ever re-executed.
"""

import asyncio
import contextlib
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.campaign import run_campaign
from repro.service import (
    CampaignScheduler,
    CampaignService,
    ChaosPlan,
    ChaosTransport,
    LocalWorkerPool,
    RemoteWorker,
    ResultStore,
    TransportError,
    build_config,
)
from repro.service.client import ServiceClient
from repro.util.retry import RetryPolicy

ALL_KERNELS = ["bzip2", "gap", "gcc", "gzip", "mcf", "parser", "vortex"]
CONFIG_OPTIONS = {
    "trials_per_workload": 6,
    "injection_points": 4,
    "workloads": ALL_KERNELS,
    "seed": 7,
}
#: Fast backoff so chaos runs retry in milliseconds, not seconds.
FAST_RETRY = RetryPolicy(
    attempts=3, base_delay=0.01, multiplier=2.0, max_delay=0.05, jitter=0.5
)


class RecordingTransport:
    def __init__(self, *script):
        self.script = list(script)
        self.calls = 0

    def send(self, method, url, data, headers, timeout):
        self.calls += 1
        return self.script.pop(0) if self.script else (200, b'{"ok": 1}')


class TestChaosPlan:
    def test_rates_validated(self):
        with pytest.raises(ValueError, match="drop"):
            ChaosPlan(drop=1.5)
        with pytest.raises(ValueError, match="<= 1"):
            ChaosPlan(drop=0.5, reset=0.6)
        with pytest.raises(ValueError, match="max_delay"):
            ChaosPlan(max_delay=-1.0)
        with pytest.raises(ValueError, match="max_faults"):
            ChaosPlan(max_faults=-1)

    def test_uniform_sets_every_rate(self):
        plan = ChaosPlan.uniform(9, 0.1, max_faults=5)
        assert (plan.drop, plan.reset, plan.duplicate, plan.truncate,
                plan.delay_rate) == (0.1,) * 5
        assert plan.max_faults == 5


def single_fault(**rates):
    """A plan injecting exactly one fault kind at rate 1 (others off)."""
    zeroed = {"drop": 0.0, "reset": 0.0, "duplicate": 0.0, "truncate": 0.0,
              "delay_rate": 0.0}
    zeroed.update(rates)
    return ChaosPlan(seed=1, **zeroed)


class TestChaosTransport:
    def test_schedule_is_a_pure_function_of_the_seed(self):
        plan = ChaosPlan(seed=42, drop=0.2, reset=0.2, duplicate=0.2,
                         truncate=0.2, delay_rate=0.5)
        first = ChaosTransport(plan, inner=RecordingTransport())
        second = ChaosTransport(plan, inner=RecordingTransport())
        assert [first._draw() for _ in range(64)] == [
            second._draw() for _ in range(64)
        ]
        assert first.counters == second.counters
        assert first.faults_injected() > 0  # the schedule actually bites

    def test_drop_never_reaches_the_service(self):
        inner = RecordingTransport()
        transport = ChaosTransport(single_fault(drop=1.0), inner=inner)
        with pytest.raises(TransportError, match="dropped"):
            transport.send("GET", "http://x", None, {}, 1.0)
        assert inner.calls == 0
        assert transport.counters["drop"] == 1

    def test_reset_delivers_then_loses_the_response(self):
        inner = RecordingTransport()
        transport = ChaosTransport(single_fault(reset=1.0), inner=inner)
        with pytest.raises(TransportError, match="reset"):
            transport.send("POST", "http://x", b"{}", {}, 1.0)
        assert inner.calls == 1  # the service processed the request

    def test_duplicate_delivers_twice(self):
        inner = RecordingTransport()
        transport = ChaosTransport(
            single_fault(duplicate=1.0), inner=inner
        )
        status, _body = transport.send("POST", "http://x", b"{}", {}, 1.0)
        assert status == 200
        assert inner.calls == 2

    def test_truncate_halves_the_body(self):
        inner = RecordingTransport((200, b'{"accepted": true}'))
        transport = ChaosTransport(
            single_fault(truncate=1.0), inner=inner
        )
        _status, body = transport.send("GET", "http://x", None, {}, 1.0)
        assert body == b'{"accepted": true}'[:9]  # cut in half mid-token

    def test_delay_sleeps_within_the_bound(self):
        slept = []
        transport = ChaosTransport(
            single_fault(delay_rate=1.0, max_delay=0.25),
            inner=RecordingTransport(), sleep=slept.append,
        )
        for _ in range(8):
            transport.send("GET", "http://x", None, {}, 1.0)
        assert len(slept) == 8
        assert all(0.0 < delay <= 0.25 for delay in slept)

    def test_max_faults_budget_makes_the_transport_eventually_clean(self):
        inner = RecordingTransport()
        transport = ChaosTransport(
            single_fault(drop=1.0, max_faults=3), inner=inner
        )
        outcomes = []
        for _ in range(10):
            try:
                transport.send("GET", "http://x", None, {}, 1.0)
                outcomes.append("ok")
            except TransportError:
                outcomes.append("drop")
        assert outcomes == ["drop"] * 3 + ["ok"] * 7
        assert transport.faults_injected() == 3


@contextlib.contextmanager
def chaos_service(data_dir, *, lease_ttl, max_attempts=4, workers=0,
                  sweep_interval=0.05):
    """Scheduler + HTTP API on a background loop, chaos-test tuned.

    ``max_attempts`` is raised above the production default because a
    chaos schedule can legitimately burn an attempt on a lost lease
    response; the invariant under test is journal equivalence, not the
    attempt budget (which has its own tests)."""
    store = ResultStore(":memory:")
    scheduler = CampaignScheduler(
        store, str(data_dir), lease_ttl=lease_ttl, max_attempts=max_attempts
    )
    service = CampaignService(scheduler, port=0, sweep_interval=sweep_interval)
    pool = None
    if workers:
        pool = LocalWorkerPool(
            scheduler, workers=workers,
            executor=ThreadPoolExecutor(max_workers=workers),
        )
    loop = asyncio.new_event_loop()
    started = threading.Event()
    stopping: list = []

    async def main():
        await service.start()
        if pool is not None:
            pool.start()
        stop = asyncio.Event()
        stopping.append(stop)
        started.set()
        await stop.wait()
        if pool is not None:
            await pool.stop()
        await service.stop()

    thread = threading.Thread(
        target=lambda: loop.run_until_complete(main()), daemon=True
    )
    thread.start()
    assert started.wait(10), "service failed to start"
    try:
        yield service, scheduler
    finally:
        loop.call_soon_threadsafe(stopping[0].set)
        thread.join(timeout=10)
        loop.close()
        store.close()


class TestChaosEndToEnd:
    def test_chaos_fleet_with_killed_worker_matches_serial_run(
        self, tmp_path, monkeypatch
    ):
        """The headline acceptance test. All seven kernels, two workers
        behind seeded chaos transports, one worker hard-killed holding a
        lease (abandoned: no heartbeat, no report — exactly SIGKILL's
        signature). The finalized journal must equal a serial
        ``run_campaign`` byte for byte, the dead-letter queue must be
        empty, and no completed unit may ever run twice."""
        from repro.service import worker as worker_module

        executions: dict[str, int] = {}
        record_lock = threading.Lock()
        real_execute = worker_module.execute_unit

        def counting_execute(spec_dict, unit_dict, cache_dir=None):
            with record_lock:
                key = unit_dict["unit_id"]
                executions[key] = executions.get(key, 0) + 1
            return real_execute(spec_dict, unit_dict, cache_dir)

        monkeypatch.setattr(
            "repro.service.worker.execute_unit", counting_execute
        )

        with chaos_service(
            tmp_path / "svc", lease_ttl=1.5, max_attempts=4
        ) as (service, scheduler):
            control = ServiceClient(service.address)
            view = control.submit(
                {"level": "arch", "config": dict(CONFIG_OPTIONS),
                 "shards": 2}
            )
            job_id = view["job_id"]

            # The doomed worker leases a unit and is "killed": it never
            # heartbeats and never reports, so only the lease TTL can
            # recover its unit.
            assert control.lease_batch("doomed", 1)

            fleet = []
            threads = []
            for index in range(2):
                transport = ChaosTransport(ChaosPlan(
                    seed=1000 + index, drop=0.15, reset=0.10,
                    duplicate=0.05, truncate=0.10, delay_rate=0.10,
                    max_delay=0.02, max_faults=30,
                ))
                client = ServiceClient(
                    service.address, transport=transport, retry=FAST_RETRY
                )
                worker = RemoteWorker(
                    client, f"chaos-{index}", poll_interval=0.05,
                    outbox_dir=str(tmp_path / f"outbox-{index}"),
                )
                worker.chaos_transport = transport
                fleet.append(worker)
                thread = threading.Thread(target=worker.run, daemon=True)
                threads.append(thread)
                thread.start()

            final = control.wait(job_id, timeout=180)
            for worker in fleet:
                worker.stop()
            for thread in threads:
                thread.join(timeout=30)
            events = scheduler.events(job_id)
            assert final["state"] == "done"
            assert final["error"] is None
            assert control.dead_letter()["total"] == 0

            # Chaos genuinely happened — this was not a clean run.
            assert sum(
                w.chaos_transport.faults_injected() for w in fleet
            ) > 0

            # No completed unit was ever re-executed: every repeat
            # execution is explained by a lease requeue (the abandoned
            # unit, or a lease whose grant response chaos ate), and
            # every spooled result was replayed, not recomputed.
            requeued = {
                e["unit_id"] for e in events if e["event"] == "unit_requeued"
            }
            repeated = {u for u, n in executions.items() if n > 1}
            assert repeated <= requeued
            spooled = sum(w.outbox_spooled for w in fleet)
            replayed = sum(w.outbox_replayed for w in fleet)
            assert spooled == replayed
            assert all(w.outbox.pending() == [] for w in fleet)
            assert all(n <= 2 for n in executions.values())

        # The one line that matters: byte-identical to a serial run.
        serial_path = str(tmp_path / "serial.jsonl")
        run_campaign(
            "arch", build_config("arch", CONFIG_OPTIONS),
            journal_path=serial_path,
        )
        with open(final["journal_path"]) as f, open(serial_path) as g:
            assert f.read() == g.read()

    def test_sigkilled_worker_process_unit_is_requeued(self, tmp_path):
        """A real ``repro worker`` OS process is SIGKILLed right after
        leasing: the lease TTL requeues its unit and a healthy worker
        finishes the job with a journal equal to a serial run."""
        from repro.service.chaos import WorkerProcess

        options = {**CONFIG_OPTIONS, "workloads": ["gcc"]}
        with chaos_service(
            tmp_path / "svc", lease_ttl=0.5, max_attempts=4
        ) as (service, scheduler):
            control = ServiceClient(service.address)
            view = control.submit({"level": "arch", "config": options})
            job_id = view["job_id"]

            with WorkerProcess(
                service.address, "victim", poll_interval=0.05
            ) as victim:
                deadline = time.monotonic() + 60.0
                while time.monotonic() < deadline:
                    leased = [
                        e for e in scheduler.events(job_id)
                        if e["event"] == "leased" and e["worker"] == "victim"
                    ]
                    if leased:
                        break
                    time.sleep(0.01)
                assert leased, "the victim never leased a unit"
                victim.kill()  # SIGKILL: no fail report, no heartbeat
            assert victim.wait(timeout=10) is not None

            healthy = RemoteWorker(
                ServiceClient(service.address), "healthy",
                poll_interval=0.05,
                outbox_dir=str(tmp_path / "outbox-healthy"),
            )
            thread = threading.Thread(target=healthy.run, daemon=True)
            thread.start()
            final = control.wait(job_id, timeout=120)
            healthy.stop()
            thread.join(timeout=30)
            events = [e["event"] for e in scheduler.events(job_id)]
            assert final["state"] == "done"
            assert final["error"] is None
            assert "unit_requeued" in events  # the victim's lease expired
            assert control.dead_letter()["total"] == 0

        serial_path = str(tmp_path / "serial.jsonl")
        run_campaign(
            "arch", build_config("arch", options), journal_path=serial_path
        )
        with open(final["journal_path"]) as f, open(serial_path) as g:
            assert f.read() == g.read()
