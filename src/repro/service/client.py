"""A resilient stdlib HTTP client for the campaign service.

Wraps :mod:`urllib.request` with JSON encoding/decoding and turns the
API's error envelopes into :class:`ServiceClientError`. Used by the
``repro submit`` / ``repro jobs`` / ``repro worker`` CLI commands and by
the end-to-end tests; anything else can speak the same trivially-curlable
protocol directly.

Three layers make the client survive a hostile network:

- **Transport abstraction** — all socket work goes through a
  ``send(method, url, data, headers, timeout) -> (status, body)`` object
  (:class:`UrllibTransport` by default). The chaos harness
  (:mod:`repro.service.chaos`) injects faults by wrapping this seam, so
  hostile-network tests exercise the *real* retry/breaker/outbox code.
- **Retry with classification** — transport failures (unreachable,
  timeout, reset), 5xx responses, and truncated/unparsable response
  bodies are *retryable* and follow the :class:`~repro.util.retry.RetryPolicy`
  backoff schedule; any 4xx is *fatal* and raises immediately (the
  request itself is wrong — retrying cannot fix it).
- **Per-endpoint circuit breakers** — after ``breaker_threshold``
  consecutive retryable failures on one endpoint the breaker trips open
  and calls fail fast (``ServiceClientError`` with ``retryable=True``)
  for a cooldown, then one probe is let through. A fleet of workers thus
  degrades to one probe per cooldown instead of a retry storm while the
  scheduler restarts.

Retries are safe because every endpoint is either naturally idempotent
(GETs, heartbeat, cancel) or made so by the scheduler: ``complete`` is
idempotent per (unit, worker), trial ingestion is keyed, and a ``lease``
retried after a lost response merely strands a lease that the TTL sweep
requeues.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Callable
from urllib.parse import urlencode

from repro.util.retry import CircuitBreaker, RetryPolicy

#: The default backoff schedule: 3 tries, ~50ms then ~100ms between them.
DEFAULT_RETRY_POLICY = RetryPolicy(
    attempts=3, base_delay=0.05, multiplier=2.0, max_delay=1.0, jitter=0.5
)


class ServiceClientError(Exception):
    """The service rejected a request (or could not be reached).

    ``retryable`` distinguishes "the network/service was unavailable and
    retries were exhausted (or the breaker is open)" from "the service
    answered and said no" — callers like the worker outbox spool results
    on the former and drop malformed requests on the latter.
    """

    def __init__(
        self, message: str, status: int | None = None,
        retryable: bool = False,
    ):
        super().__init__(message)
        self.status = status
        self.retryable = retryable


class TransportError(Exception):
    """The request never produced an HTTP response (network-level fault)."""


class UrllibTransport:
    """The real transport: one HTTP exchange via :mod:`urllib.request`.

    Returns ``(status, body)`` for *any* HTTP status — classification is
    the client's job — and raises :class:`TransportError` only when no
    response arrived at all.
    """

    def send(
        self, method: str, url: str, data: bytes | None,
        headers: dict, timeout: float,
    ) -> tuple[int, bytes]:
        request = urllib.request.Request(
            url, data=data, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(request, timeout=timeout) as resp:
                return resp.status, resp.read()
        except urllib.error.HTTPError as exc:
            return exc.code, exc.read()
        except urllib.error.URLError as exc:
            raise TransportError(str(exc.reason)) from None
        except (TimeoutError, ConnectionError, OSError) as exc:
            raise TransportError(str(exc) or type(exc).__name__) from None


class ServiceClient:
    """A resilient JSON-over-HTTP client bound to one service base URL."""

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        *,
        transport=None,
        retry: RetryPolicy | None = None,
        breaker_threshold: int = 5,
        breaker_cooldown: float = 5.0,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.transport = transport if transport is not None else UrllibTransport()
        self.retry = retry if retry is not None else DEFAULT_RETRY_POLICY
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown = breaker_cooldown
        self._sleep = sleep
        self._breakers: dict[str, CircuitBreaker] = {}
        self.counters = {
            "requests": 0,
            "retries": 0,
            "transport_errors": 0,
            "server_errors": 0,
            "breaker_fast_failures": 0,
        }

    # ----------------------------------------------------- resilience

    def _breaker(self, endpoint: str) -> CircuitBreaker | None:
        if self.breaker_threshold < 1:
            return None
        breaker = self._breakers.get(endpoint)
        if breaker is None:
            breaker = CircuitBreaker(
                self.breaker_threshold, self.breaker_cooldown
            )
            self._breakers[endpoint] = breaker
        return breaker

    def breaker_trips(self) -> int:
        """Total circuit-breaker trips across all endpoints."""
        return sum(b.trips for b in self._breakers.values())

    def _request(
        self, method: str, path: str, payload: dict | None = None,
        query: dict | None = None, endpoint: str | None = None,
    ) -> dict:
        url = f"{self.base_url}{path}"
        if query:
            url += "?" + urlencode(
                {k: v for k, v in query.items() if v is not None}
            )
        data = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        endpoint = endpoint or f"{method} {path}"
        breaker = self._breaker(endpoint)

        failure: ServiceClientError | None = None
        for attempt in range(1, self.retry.attempts + 1):
            if breaker is not None and not breaker.allow():
                self.counters["breaker_fast_failures"] += 1
                raise ServiceClientError(
                    f"circuit breaker open for {endpoint} "
                    f"(cooling down after repeated failures)",
                    retryable=True,
                )
            self.counters["requests"] += 1
            try:
                payload_out = self._exchange(method, url, data, headers)
            except ServiceClientError as exc:
                if not exc.retryable:
                    # The service answered and said no: the endpoint is
                    # alive (reset the breaker), the request is wrong.
                    if breaker is not None:
                        breaker.record_success()
                    raise
                failure = exc
                if breaker is not None:
                    breaker.record_failure()
                if attempt < self.retry.attempts:
                    self.counters["retries"] += 1
                    self._sleep(self.retry.delay(attempt, key=endpoint))
                continue
            if breaker is not None:
                breaker.record_success()
            return payload_out
        assert failure is not None
        raise failure

    def _exchange(
        self, method: str, url: str, data: bytes | None, headers: dict
    ) -> dict:
        """One transport round trip, classified into success / retryable
        failure / fatal failure."""
        try:
            status, body = self.transport.send(
                method, url, data, headers, self.timeout
            )
        except TransportError as exc:
            self.counters["transport_errors"] += 1
            raise ServiceClientError(
                f"cannot reach campaign service at {self.base_url}: {exc}",
                retryable=True,
            ) from None
        if status >= 500:
            self.counters["server_errors"] += 1
            raise ServiceClientError(
                f"server error {status}: {_error_message(body)}",
                status=status, retryable=True,
            )
        if status >= 400:
            raise ServiceClientError(
                _error_message(body), status=status, retryable=False
            )
        try:
            return json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            # A mangled 2xx body is transport corruption (e.g. truncation
            # mid-flight), not a service decision: retry it.
            self.counters["transport_errors"] += 1
            raise ServiceClientError(
                f"malformed response from {self.base_url} "
                f"({len(body)} bytes, not JSON)",
                retryable=True,
            ) from None

    # ----------------------------------------------------- client side

    def health(self) -> dict:
        return self._request("GET", "/api/health", endpoint="health")

    def submit(self, payload: dict) -> dict:
        return self._request("POST", "/api/jobs", payload, endpoint="submit")

    def jobs(self, offset: int = 0, limit: int = 50) -> dict:
        return self._request(
            "GET", "/api/jobs", query={"offset": offset, "limit": limit},
            endpoint="jobs",
        )

    def job(self, job_id: str) -> dict:
        return self._request("GET", f"/api/jobs/{job_id}", endpoint="job")

    def cancel(self, job_id: str) -> dict:
        return self._request(
            "POST", f"/api/jobs/{job_id}/cancel", {}, endpoint="cancel"
        )

    def results(
        self, job_id: str, *, offset: int = 0, limit: int = 100,
        status: str | None = None, workload: str | None = None,
    ) -> dict:
        return self._request(
            "GET", f"/api/jobs/{job_id}/results",
            query={"offset": offset, "limit": limit, "status": status,
                   "workload": workload},
            endpoint="results",
        )

    def metrics(self, job_id: str) -> dict:
        return self._request(
            "GET", f"/api/jobs/{job_id}/metrics", endpoint="metrics"
        )

    def service_metrics(self) -> dict:
        """The service-wide resilience counters (``GET /api/metrics``)."""
        return self._request("GET", "/api/metrics", endpoint="service-metrics")

    def dead_letter(self, job_id: str | None = None) -> dict:
        """Dead-lettered (attempt-exhausted) units, optionally per job."""
        if job_id is None:
            return self._request(
                "GET", "/api/dead-letter", endpoint="dead-letter"
            )
        return self._request(
            "GET", f"/api/jobs/{job_id}/dead-letter", endpoint="dead-letter"
        )

    def requeue(self, job_id: str, unit_id: str) -> dict:
        """Return a dead-lettered unit to the queue with a fresh budget."""
        return self._request(
            "POST", f"/api/jobs/{job_id}/units/{unit_id}/requeue", {},
            endpoint="requeue",
        )

    def wait(
        self, job_id: str, *, timeout: float = 300.0, poll: float = 0.2
    ) -> dict:
        """Poll until the job reaches a terminal state."""
        from repro.service.store import JOB_TERMINAL_STATES

        deadline = time.monotonic() + timeout
        while True:
            view = self.job(job_id)
            if view["state"] in JOB_TERMINAL_STATES:
                return view
            if time.monotonic() >= deadline:
                raise ServiceClientError(
                    f"timed out after {timeout:.0f}s waiting for {job_id} "
                    f"(state: {view['state']})"
                )
            time.sleep(poll)

    # ----------------------------------------------------- worker side

    def lease_batch(self, worker: str, count: int) -> list[dict]:
        """Lease up to ``count`` units in one round trip.

        Returns a (possibly empty) list of lease dicts, each
        ``{"unit": ..., "spec": ..., "lease_ttl": ..., "attempt": ...}``.
        Safe to retry: the scheduler re-issues the units this worker
        already holds before granting fresh ones, so a retry after a lost
        response gets the same batch back.
        """
        response = self._request(
            "POST", "/api/lease", {"worker": worker, "count": count},
            endpoint="lease",
        )
        return list(response.get("leases") or ())

    def heartbeat(self, job_id: str, unit_id: str, worker: str) -> bool:
        return bool(self._request(
            "POST", f"/api/jobs/{job_id}/units/{unit_id}/heartbeat",
            {"worker": worker}, endpoint="heartbeat",
        ).get("ok"))

    def complete(
        self, job_id: str, unit_id: str, worker: str, result: dict
    ) -> bool:
        return bool(self._request(
            "POST", f"/api/jobs/{job_id}/units/{unit_id}/complete",
            {"worker": worker, "result": result}, endpoint="complete",
        ).get("accepted"))

    def complete_chunked(
        self, job_id: str, unit_id: str, worker: str, result: dict,
        chunk_size: int | None,
    ) -> bool:
        """Deliver a unit result in bounded chunks of ``chunk_size``
        trial outcomes per POST (the final chunk carries the unit-level
        result), so a 500-trial unit never sits on one giant request.

        Falls back to a single :meth:`complete` when the result fits in
        one chunk. Every chunk retries independently under the normal
        policy; redelivered chunks are idempotent on the scheduler side
        (trial keys dedupe them), so a retry after a lost response can
        never double-count. A bounced chunk (``False``) means the lease
        is gone — the stream stops, since the retry attempt will
        regenerate identical records.
        """
        outcomes = result.get("outcomes") or []
        if chunk_size is None or chunk_size < 1 \
                or len(outcomes) <= chunk_size:
            return self.complete(job_id, unit_id, worker, result)
        slices = [
            outcomes[start:start + chunk_size]
            for start in range(0, len(outcomes), chunk_size)
        ]
        count = len(slices)
        path = f"/api/jobs/{job_id}/units/{unit_id}/complete"
        for index, part in enumerate(slices[:-1]):
            accepted = self._request(
                "POST", path,
                {
                    "worker": worker,
                    "chunk": {"index": index, "count": count},
                    "result": {"outcomes": part},
                },
                endpoint="complete",
            ).get("accepted")
            if not accepted:
                return False
        final = dict(result)
        final["outcomes"] = slices[-1]
        return bool(self._request(
            "POST", path,
            {
                "worker": worker,
                "chunk": {"index": count - 1, "count": count},
                "result": final,
            },
            endpoint="complete",
        ).get("accepted"))

    def fail(self, job_id: str, unit_id: str, worker: str, error: str) -> bool:
        return bool(self._request(
            "POST", f"/api/jobs/{job_id}/units/{unit_id}/fail",
            {"worker": worker, "error": error}, endpoint="fail",
        ).get("accepted"))


def _error_message(body: bytes) -> str:
    """Extract the API's ``{"error": ...}`` envelope, tolerating garbage."""
    text = body.decode("utf-8", "replace")
    try:
        message = json.loads(text).get("error", text)
    except (ValueError, AttributeError):
        message = text
    return str(message) or "request failed"
