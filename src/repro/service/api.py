"""The HTTP JSON API: submit, status, results, SSE progress, triage.

A deliberately small HTTP/1.1 server on ``asyncio.start_server`` — no
framework, no dependency — for ``repro submit``, ``repro jobs`` and any
curl:

- ``GET  /api/health`` — liveness + version.
- ``POST /api/jobs`` — submit a job spec; returns the job view.
- ``GET  /api/jobs?offset=&limit=`` — paginated job listing.
- ``GET  /api/jobs/<id>`` — one job's status view.
- ``POST /api/jobs/<id>/cancel`` — cancel queued/running work.
- ``GET  /api/jobs/<id>/results?offset=&limit=&status=&workload=`` —
  paginated trial entries in serial (workload, point, index) order.
- ``GET  /api/jobs/<id>/metrics`` — the merged telemetry aggregate.
- ``GET  /api/jobs/<id>/events`` — Server-Sent Events progress stream
  (history replay, then live events until the job reaches a terminal
  state).
- ``GET  /api/metrics`` — service-level resilience counters (leases,
  lease expiries, requeues, dead-letter totals).
- ``GET  /api/dead-letter`` / ``GET /api/jobs/<id>/dead-letter`` —
  attempt-exhausted units awaiting operator triage.
- ``POST /api/jobs/<id>/units/<unit>/requeue`` — return a dead-lettered
  unit to the queue with a fresh attempt budget.

Units are leased, heartbeated and reported in-process by
:class:`~repro.service.worker.LocalWorkerPool`, not over HTTP. Every
handler delegates to the synchronous
:class:`~repro.service.scheduler.CampaignScheduler`; the server also
runs a sweeper task so the lease of a worker that stopped heartbeating
expires even while no worker is leasing.
"""

from __future__ import annotations

import asyncio
import json
from urllib.parse import parse_qs, unquote, urlsplit

from repro import __version__
from repro.service.scheduler import CampaignScheduler
from repro.service.spec import JobSpec, ServiceError
from repro.service.store import JOB_TERMINAL_STATES

MAX_BODY = 4 * 1024 * 1024
_REASONS = {
    200: "OK", 201: "Created", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    500: "Internal Server Error",
}


class CampaignService:
    """The asyncio HTTP front end over a :class:`CampaignScheduler`."""

    def __init__(
        self,
        scheduler: CampaignScheduler,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        sweep_interval: float = 1.0,
    ):
        self.scheduler = scheduler
        self.host = host
        self.port = port
        self.sweep_interval = sweep_interval
        self._server: asyncio.AbstractServer | None = None
        self._sweeper: asyncio.Task | None = None

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._sweeper = asyncio.get_running_loop().create_task(
            self._sweep_loop()
        )

    async def stop(self) -> None:
        if self._sweeper is not None:
            self._sweeper.cancel()
            try:
                await self._sweeper
            except asyncio.CancelledError:
                pass
            self._sweeper = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def _sweep_loop(self) -> None:
        while True:
            await asyncio.sleep(self.sweep_interval)
            self.scheduler.requeue_expired()

    # -------------------------------------------------------- plumbing

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                method, path, query, body = request
                keep_alive = await self._dispatch(
                    writer, method, path, query, body
                )
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        request_line = await reader.readline()
        if not request_line:
            return None
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3:
            return None
        method, target, _version = parts
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", 0) or 0)
        if length > MAX_BODY:
            return method, target, {}, b"\x00"  # rejected in dispatch
        body = await reader.readexactly(length) if length else b""
        split = urlsplit(target)
        query = {
            key: values[-1] for key, values in parse_qs(split.query).items()
        }
        return method, unquote(split.path), query, body

    @staticmethod
    def _json_payload(body: bytes) -> dict:
        if not body:
            return {}
        try:
            payload = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            raise ServiceError("request body is not valid JSON") from None
        if not isinstance(payload, dict):
            raise ServiceError("request body must be a JSON object")
        return payload

    async def _send_json(
        self, writer: asyncio.StreamWriter, status: int, payload: dict
    ) -> None:
        data = json.dumps(payload).encode("utf-8")
        reason = _REASONS.get(status, "OK")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n"
            f"Connection: keep-alive\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + data)
        await writer.drain()

    # ------------------------------------------------------- dispatch

    async def _dispatch(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        path: str,
        query: dict,
        body: bytes,
    ) -> bool:
        """Route one request; returns whether to keep the connection."""
        if body == b"\x00":
            await self._send_json(
                writer, 413, {"error": "request body too large"}
            )
            return False
        segments = [s for s in path.split("/") if s]
        try:
            if segments[:1] != ["api"]:
                await self._send_json(writer, 404, {"error": f"no route for {path}"})
                return True
            route = segments[1:]
            if route == ["health"] and method == "GET":
                await self._send_json(
                    writer, 200, {"ok": True, "version": __version__}
                )
            elif route == ["metrics"] and method == "GET":
                await self._send_json(
                    writer, 200, self.scheduler.service_metrics()
                )
            elif route == ["dead-letter"] and method == "GET":
                await self._send_json(
                    writer, 200, self.scheduler.dead_letter_view()
                )
            elif (
                route[:1] == ["jobs"] and len(route) == 3
                and route[2] == "dead-letter" and method == "GET"
            ):
                await self._send_json(
                    writer, 200, self.scheduler.dead_letter_view(route[1])
                )
            elif route == ["jobs"] and method == "POST":
                spec = JobSpec.from_request(self._json_payload(body))
                view = self.scheduler.submit(spec)
                await self._send_json(writer, 201, view)
            elif route == ["jobs"] and method == "GET":
                offset = _int_arg(query, "offset", 0, minimum=0)
                limit = _int_arg(query, "limit", 50, minimum=1)
                await self._send_json(
                    writer, 200, self.scheduler.jobs_view(offset, limit)
                )
            elif len(route) == 2 and route[0] == "jobs" and method == "GET":
                await self._send_json(
                    writer, 200, self.scheduler.job_view(route[1])
                )
            elif route[:1] == ["jobs"] and len(route) == 3 and route[2] == "cancel" and method == "POST":
                await self._send_json(
                    writer, 200, self.scheduler.cancel(route[1])
                )
            elif route[:1] == ["jobs"] and len(route) == 3 and route[2] == "results" and method == "GET":
                await self._send_json(
                    writer, 200, self._results(route[1], query)
                )
            elif route[:1] == ["jobs"] and len(route) == 3 and route[2] == "metrics" and method == "GET":
                view = self.scheduler.job_view(route[1])
                if "metrics" not in view:
                    await self._send_json(
                        writer, 404,
                        {"error": f"{route[1]} has no metrics yet "
                                  f"(state: {view['state']})"},
                    )
                else:
                    await self._send_json(
                        writer, 200,
                        {"job_id": route[1], "metrics": view["metrics"]},
                    )
            elif route[:1] == ["jobs"] and len(route) == 3 and route[2] == "events" and method == "GET":
                await self._stream_events(writer, route[1])
                return False  # SSE consumes the connection
            elif (
                len(route) == 5 and route[0] == "jobs" and route[2] == "units"
                and route[4] == "requeue" and method == "POST"
            ):
                await self._send_json(
                    writer, 200, self.scheduler.requeue_unit(route[1], route[3])
                )
            else:
                await self._send_json(
                    writer, 405 if route else 404,
                    {"error": f"no route for {method} {path}"},
                )
        except ServiceError as exc:
            status = 404 if str(exc).startswith("no such job") else 400
            await self._send_json(writer, status, {"error": str(exc)})
        except Exception as exc:  # noqa: BLE001 — the server must not die
            await self._send_json(
                writer, 500, {"error": f"internal error: {exc!r}"}
            )
        return True

    def _results(self, job_id: str, query: dict) -> dict:
        self.scheduler.job_view(job_id)  # 404 on unknown jobs
        offset = _int_arg(query, "offset", 0, minimum=0)
        limit = _int_arg(query, "limit", 100, minimum=1)
        status = query.get("status")
        workload = query.get("workload")
        entries = self.scheduler.store.trial_entries(
            job_id, offset=offset, limit=limit,
            status=status, workload=workload,
        )
        return {
            "job_id": job_id,
            "total": self.scheduler.store.trial_count(
                job_id, status=status, workload=workload
            ),
            "offset": offset,
            "limit": limit,
            "results": entries,
        }

    async def _stream_events(
        self, writer: asyncio.StreamWriter, job_id: str
    ) -> None:
        view = self.scheduler.job_view(job_id)  # raises for unknown jobs
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: text/event-stream\r\n"
            "Cache-Control: no-cache\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1"))
        queue: asyncio.Queue = asyncio.Queue()
        listener = queue.put_nowait
        self.scheduler.add_listener(job_id, listener)
        try:
            for event in self.scheduler.events(job_id):
                await self._send_event(writer, event)
            if view["state"] in JOB_TERMINAL_STATES:
                return
            while True:
                try:
                    event = await asyncio.wait_for(queue.get(), timeout=15.0)
                except asyncio.TimeoutError:
                    writer.write(b": keep-alive\n\n")
                    await writer.drain()
                    continue
                await self._send_event(writer, event)
                if event.get("event") in ("done", "cancelled"):
                    return
        except (ConnectionError, BrokenPipeError):
            pass
        finally:
            self.scheduler.remove_listener(job_id, listener)

    @staticmethod
    async def _send_event(writer: asyncio.StreamWriter, event: dict) -> None:
        data = json.dumps(event)
        writer.write(
            f"event: {event.get('event', 'message')}\ndata: {data}\n\n".encode()
        )
        await writer.drain()


def _int_arg(query: dict, name: str, default: int, *, minimum: int) -> int:
    raw = query.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ServiceError(f"{name} must be an integer, got {raw!r}") from None
    if value < minimum:
        raise ServiceError(f"{name} must be >= {minimum}, got {value}")
    return value
