"""The campaign service over HTTP: API routes, the local pool, end-to-end
runs."""

import asyncio
import contextlib
import json
import socket
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.campaign import run_campaign, summarize_journal, format_status
from repro.service import (
    CampaignScheduler,
    CampaignService,
    JobSpec,
    LocalWorkerPool,
    ResultStore,
    ServiceClientError,
    execute_unit,
)
from repro.service.client import ServiceClient

CONFIG_OPTIONS = {
    "trials_per_workload": 6,
    "injection_points": 4,
    "workloads": ["gcc", "gzip"],
    "seed": 7,
}


@contextlib.contextmanager
def running_service(data_dir, *, workers=2, lease_ttl=60.0, sweep_interval=0.05):
    """Run scheduler + HTTP API (+ local pool) on a background event loop.

    The local pool executes units on threads rather than processes: the
    results are identical (trial records depend only on derived seeds)
    and the tests stay fast on small machines.
    """
    store = ResultStore(":memory:")
    scheduler = CampaignScheduler(store, str(data_dir), lease_ttl=lease_ttl)
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


def submit_payload(**overrides):
    payload = {"level": "arch", "config": dict(CONFIG_OPTIONS)}
    payload.update(overrides)
    return payload


class TestEndToEnd:
    def test_two_worker_sharded_job_equals_serial_run(self, tmp_path):
        """The headline acceptance test: a 2-worker, 2-shard job's journal
        is byte-identical to a serial ``run_campaign``, and the status
        summary of both journals agrees."""
        with running_service(tmp_path / "svc", workers=2) as (service, _):
            client = ServiceClient(service.address)
            view = client.submit(submit_payload(shards=2))
            view = client.wait(view["job_id"], timeout=120)
            assert view["state"] == "done"
            metrics = client.metrics(view["job_id"])["metrics"]

            page, results = {"total": 1}, []
            offset = 0
            while offset < client.results(view["job_id"], limit=1)["total"]:
                page = client.results(view["job_id"], offset=offset, limit=7)
                results.extend(page["results"])
                offset += len(page["results"])

        serial_path = str(tmp_path / "serial.jsonl")
        from repro.service import build_config

        serial = run_campaign(
            "arch", build_config("arch", CONFIG_OPTIONS),
            journal_path=serial_path,
        )
        with open(view["journal_path"]) as f, open(serial_path) as g:
            assert f.read() == g.read()
        def status_lines(path):
            # Identical apart from the header naming the journal file.
            return [
                line for line in
                format_status(summarize_journal(path)).splitlines()
                if not line.startswith("Campaign journal")
            ]

        assert status_lines(view["journal_path"]) == status_lines(serial_path)
        # The paginated API walk returns the same trials, in serial order.
        assert [r["key"] for r in results] == [o.key for o in serial.outcomes]
        # The merged metrics equal the serial journal's telemetry entry.
        tail = [
            json.loads(line)
            for line in open(serial_path).read().splitlines()
        ][-1]
        assert tail["kind"] == "telemetry" and metrics == tail

    def test_killed_worker_lease_expires_and_job_still_finishes(self, tmp_path):
        """A worker leases a unit and is killed (never reports, never
        heartbeats): the service's sweeper requeues the unit after the
        TTL and the local pool finishes the job."""
        store = ResultStore(":memory:")
        scheduler = CampaignScheduler(store, str(tmp_path), lease_ttl=0.3)
        spec = JobSpec.from_request(submit_payload(
            config={**CONFIG_OPTIONS, "workloads": ["gcc"]}
        ))

        async def wait_for(predicate):
            for _ in range(600):  # 30 s
                if predicate():
                    return
                await asyncio.sleep(0.05)

        async def scenario():
            service = CampaignService(scheduler, port=0, sweep_interval=0.05)
            await service.start()
            executor = ThreadPoolExecutor(max_workers=1)
            pool = LocalWorkerPool(
                scheduler, workers=1, poll_interval=0.05, executor=executor
            )
            try:
                job_id = scheduler.submit(spec)["job_id"]
                # The doomed worker takes the one unit and then dies. Only
                # the sweeper can requeue it before the pool starts.
                assert len(scheduler.lease_batch("doomed", 1)) == 1
                await wait_for(lambda: any(
                    e["event"] == "unit_requeued"
                    for e in scheduler.events(job_id)
                ))
                pool.start()
                await wait_for(
                    lambda: scheduler.job_view(job_id)["state"] == "done"
                )
            finally:
                await pool.stop()
                executor.shutdown()
                await service.stop()
            return job_id

        job_id = asyncio.run(scenario())
        try:
            final = scheduler.job_view(job_id)
            assert final["state"] == "done"
            assert final["error"] is None
            events = scheduler.events(job_id)
            assert "unit_requeued" in [e["event"] for e in events]
            assert [
                e["worker"] for e in events if e["event"] == "unit_done"
            ] == ["local-0"]
        finally:
            store.close()


class TestApiContract:
    def test_health(self, tmp_path):
        with running_service(tmp_path, workers=0) as (service, _):
            health = ServiceClient(service.address).health()
            assert health["ok"] is True and "version" in health

    def test_unknown_job_is_404(self, tmp_path):
        with running_service(tmp_path, workers=0) as (service, _):
            with pytest.raises(ServiceClientError, match="no such job") as info:
                ServiceClient(service.address).job("job-424242")
            assert info.value.status == 404

    def test_invalid_submission_is_400(self, tmp_path):
        with running_service(tmp_path, workers=0) as (service, _):
            client = ServiceClient(service.address)
            with pytest.raises(ServiceClientError, match="level") as info:
                client.submit({"config": {}})
            assert info.value.status == 400
            with pytest.raises(
                ServiceClientError, match="unknown arch config option"
            ):
                client.submit(submit_payload(config={"trails": 3}))

    def test_unknown_route_is_404(self, tmp_path):
        with running_service(tmp_path, workers=0) as (service, _):
            with pytest.raises(ServiceClientError) as info:
                ServiceClient(service.address)._request("GET", "/api/nope")
            assert info.value.status in (404, 405)

    def test_bad_pagination_is_400(self, tmp_path):
        with running_service(tmp_path, workers=0) as (service, _):
            client = ServiceClient(service.address)
            view = client.submit(submit_payload())
            with pytest.raises(ServiceClientError, match="offset"):
                client.results(view["job_id"], offset=-1)

    def test_cancel_via_api(self, tmp_path):
        with running_service(tmp_path, workers=0) as (service, scheduler):
            client = ServiceClient(service.address)
            view = client.submit(submit_payload())
            cancelled = client.cancel(view["job_id"])
            assert cancelled["state"] == "cancelled"
            assert scheduler.lease_batch("w", 1) == []

    def test_job_listing_paginates(self, tmp_path):
        with running_service(tmp_path, workers=0) as (service, _):
            client = ServiceClient(service.address)
            for _ in range(3):
                client.submit(submit_payload(
                    config={**CONFIG_OPTIONS, "workloads": ["gcc"]}
                ))
            page = client.jobs(offset=1, limit=1)
            assert page["total"] == 3 and len(page["jobs"]) == 1

    def test_service_metrics_route(self, tmp_path):
        with running_service(tmp_path, workers=0) as (service, scheduler):
            client = ServiceClient(service.address)
            view = client.submit(submit_payload())
            assert scheduler.lease_batch("w", 1)
            metrics = client.service_metrics()
            assert metrics["jobs"] == 1
            assert metrics["dead_letter"] == 0
            assert metrics["counters"]["leases_granted"] == 1
            assert view["job_id"]  # the submission above is the one job

    def test_dead_letter_listing_and_requeue_over_http(self, tmp_path):
        """Drive a unit to the dead-letter queue, then list it, requeue
        it over the API, and drain to a clean finish."""
        with running_service(
            tmp_path / "svc", workers=0
        ) as (service, scheduler):
            client = ServiceClient(service.address)
            view = client.submit(submit_payload(
                config={**CONFIG_OPTIONS, "workloads": ["gcc"]}
            ))
            job_id = view["job_id"]
            for _ in range(2):  # exhaust the unit's attempt budget
                [lease] = scheduler.lease_batch("clumsy", 1)
                unit = lease["unit"]
                scheduler.fail(job_id, unit["unit_id"], "clumsy", "induced")

            listing = client.dead_letter()
            assert listing["total"] == 1
            assert listing["units"][0]["unit_id"] == unit["unit_id"]
            assert client.dead_letter(job_id) == listing
            assert client.service_metrics()["dead_letter"] == 1
            # The job finalized around the dead unit, with the skip noted.
            assert client.wait(job_id, timeout=30)["error"]

            reopened = client.requeue(job_id, unit["unit_id"])
            assert reopened["state"] == "running"
            assert client.dead_letter()["total"] == 0
            [lease] = scheduler.lease_batch("healthy", 1)
            assert scheduler.complete(
                job_id, unit["unit_id"], "healthy",
                execute_unit(lease["spec"], lease["unit"]),
            )
            final = client.wait(job_id, timeout=30)
            assert final["state"] == "done"
            assert final["error"] is None

    def test_requeue_of_live_unit_is_400(self, tmp_path):
        with running_service(tmp_path, workers=0) as (service, _):
            client = ServiceClient(service.address)
            view = client.submit(submit_payload())
            with pytest.raises(
                ServiceClientError, match="not dead-lettered"
            ) as info:
                client.requeue(view["job_id"], "gcc:0of1")
            assert info.value.status == 400

    def test_sse_stream_replays_history_to_terminal_event(self, tmp_path):
        with running_service(tmp_path / "svc", workers=1) as (service, _):
            client = ServiceClient(service.address)
            view = client.submit(submit_payload(
                config={**CONFIG_OPTIONS, "workloads": ["gcc"]}
            ))
            client.wait(view["job_id"], timeout=120)

            with socket.create_connection(
                ("127.0.0.1", service.port), timeout=10
            ) as sock:
                sock.sendall(
                    f"GET /api/jobs/{view['job_id']}/events HTTP/1.1\r\n"
                    f"Host: x\r\n\r\n".encode()
                )
                sock.settimeout(10)
                blob = b""
                while b"event: done" not in blob:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    blob += chunk
            text = blob.decode()
            assert "text/event-stream" in text
            assert "event: submitted" in text
            datas = [
                json.loads(line[6:]) for line in text.splitlines()
                if line.startswith("data: ")
            ]
            assert datas[0]["event"] == "submitted"
            assert datas[-1]["event"] == "done"
