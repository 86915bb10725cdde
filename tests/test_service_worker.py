"""The local worker pool: bounced reports and dying pool processes."""

import asyncio
import logging
import os
import signal
import time
from concurrent.futures import Executor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.campaign import run_campaign
from repro.service import (
    CampaignScheduler,
    JobSpec,
    LocalWorkerPool,
    ResultStore,
)
from repro.service.store import JOB_TERMINAL_STATES
from repro.service.worker import WorkerDeliveryWarning


def fake_lease(unit_id="gcc:0of1", job_id="job-000001"):
    return {
        "unit": {
            "job_id": job_id, "unit_id": unit_id, "workload": "gcc",
            "shard_index": 0, "shard_count": 1,
        },
        "spec": {"level": "arch", "config": {}},
        "lease_ttl": 60.0,
    }


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


def four_by_four_spec():
    """An arch job of 4 workloads x 4 shards: 16 units, so a pool of
    two is still busy well after its first lease."""
    return JobSpec.from_request({
        "level": "arch",
        "config": {
            "trials_per_workload": 8,
            "injection_points": 4,
            "workloads": ["gcc", "gzip", "mcf", "parser"],
            "seed": 7,
        },
        "shards": 4,
    })


async def wait_until(predicate, timeout):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            return False
        await asyncio.sleep(0.02)
    return True


class TestPoolProcessDeath:
    def test_sigkilled_pool_process_unit_is_requeued(self, tmp_path):
        """A pool process is SIGKILLed mid-job, which breaks the whole
        process pool. The pool fails the leases it held back to the
        scheduler, starts a fresh process pool, and finishes the job:
        done, nothing dead-lettered, journal equal to a serial run."""
        spec = four_by_four_spec()
        store = ResultStore(":memory:")
        scheduler = CampaignScheduler(
            store, str(tmp_path / "svc"), lease_ttl=60.0
        )

        async def scenario():
            pool = LocalWorkerPool(scheduler, workers=2, poll_interval=0.05)
            pool.start()
            try:
                job_id = scheduler.submit(spec)["job_id"]
                assert await wait_until(
                    lambda: pool._executor._processes
                    and any(e["event"] == "leased"
                            for e in scheduler.events(job_id)),
                    timeout=30,
                ), "the pool never started a unit"
                assert store.job(job_id)["state"] == "running"
                victim = next(iter(pool._executor._processes))
                os.kill(victim, signal.SIGKILL)
                await wait_until(
                    lambda: store.job(job_id)["state"] in JOB_TERMINAL_STATES,
                    timeout=60,
                )
            finally:
                await pool.stop()
            return job_id

        job_id = asyncio.run(scenario())
        try:
            final = scheduler.job_view(job_id)
            assert final["state"] == "done", final
            assert final["error"] is None
            assert scheduler.dead_letter_view()["total"] == 0
            events = [e["event"] for e in scheduler.events(job_id)]
            assert "unit_requeued" in events  # the killed units came back
        finally:
            store.close()

        serial_path = str(tmp_path / "serial.jsonl")
        run_campaign("arch", spec.config, journal_path=serial_path)
        with open(final["journal_path"]) as f, open(serial_path) as g:
            assert f.read() == g.read()

    def test_broken_injected_executor_stops_the_pool(self, tmp_path, caplog):
        """An injected executor belongs to its caller, so a broken one is
        not replaced: every lease is failed back to the queue and the
        loops end with a logged error instead of stalling."""

        class BrokenPool(Executor):
            def submit(self, fn, /, *args, **kwargs):
                raise BrokenProcessPool("a pool process died")

        store = ResultStore(":memory:")
        scheduler = CampaignScheduler(store, str(tmp_path), lease_ttl=60.0)

        async def scenario():
            pool = LocalWorkerPool(
                scheduler, workers=2, lease_batch=4, poll_interval=0.05,
                executor=BrokenPool(),
            )
            pool.start()
            try:
                job_id = scheduler.submit(four_by_four_spec())["job_id"]
                stopped = await wait_until(
                    lambda: all(task.done() for task in pool._tasks),
                    timeout=10,
                )
            finally:
                await pool.stop()
            return job_id, stopped, pool

        with caplog.at_level(logging.ERROR, logger="repro.service.worker"):
            job_id, stopped, pool = asyncio.run(scenario())
        try:
            assert stopped, "the loops kept running on a broken executor"
            assert "injected executor broke" in caplog.text
            # Every unit a loop leased was failed back and requeued at
            # attempt 1; nothing is left leased.
            assert store.unit_state_counts(job_id) == {"pending": 16}
            assert pool.units_failed == scheduler.counters["leases_granted"]
            assert pool.units_failed >= 4
            assert scheduler.dead_letter_view()["total"] == 0
        finally:
            store.close()
