"""A stdlib HTTP client for the campaign service.

Wraps :mod:`urllib.request` with JSON encoding/decoding and turns the
API's error envelopes into :class:`ServiceClientError`. Used by the
``repro submit`` / ``repro jobs`` CLI commands and by the end-to-end
tests; anything else can speak the same trivially-curlable protocol
directly. Every call is one HTTP exchange: an unreachable service, an
error status, or a body that is not JSON raises at once.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from urllib.parse import urlencode


class ServiceClientError(Exception):
    """The service rejected a request (or could not be reached).

    ``status`` is the HTTP status the service answered with, or None
    when no response arrived.
    """

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status


class ServiceClient:
    """A JSON-over-HTTP client bound to one service base URL."""

    def __init__(self, base_url: str, timeout: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def _request(
        self, method: str, path: str, payload: dict | None = None,
        query: dict | None = None,
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
        request = urllib.request.Request(
            url, data=data, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                status, body = resp.status, resp.read()
        except urllib.error.HTTPError as exc:
            status, body = exc.code, exc.read()
        except urllib.error.URLError as exc:
            raise ServiceClientError(
                f"cannot reach campaign service at {self.base_url}: "
                f"{exc.reason}"
            ) from None
        except OSError as exc:
            raise ServiceClientError(
                f"cannot reach campaign service at {self.base_url}: "
                f"{exc or type(exc).__name__}"
            ) from None
        if status >= 500:
            raise ServiceClientError(
                f"server error {status}: {_error_message(body)}",
                status=status,
            )
        if status >= 400:
            raise ServiceClientError(_error_message(body), status=status)
        try:
            return json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            raise ServiceClientError(
                f"malformed response from {self.base_url} "
                f"({len(body)} bytes, not JSON)"
            ) from None

    def health(self) -> dict:
        return self._request("GET", "/api/health")

    def submit(self, payload: dict) -> dict:
        return self._request("POST", "/api/jobs", payload)

    def jobs(self, offset: int = 0, limit: int = 50) -> dict:
        return self._request(
            "GET", "/api/jobs", query={"offset": offset, "limit": limit}
        )

    def job(self, job_id: str) -> dict:
        return self._request("GET", f"/api/jobs/{job_id}")

    def cancel(self, job_id: str) -> dict:
        return self._request("POST", f"/api/jobs/{job_id}/cancel", {})

    def results(
        self, job_id: str, *, offset: int = 0, limit: int = 100,
        status: str | None = None, workload: str | None = None,
    ) -> dict:
        return self._request(
            "GET", f"/api/jobs/{job_id}/results",
            query={"offset": offset, "limit": limit, "status": status,
                   "workload": workload},
        )

    def metrics(self, job_id: str) -> dict:
        return self._request("GET", f"/api/jobs/{job_id}/metrics")

    def service_metrics(self) -> dict:
        """The service-wide resilience counters (``GET /api/metrics``)."""
        return self._request("GET", "/api/metrics")

    def dead_letter(self, job_id: str | None = None) -> dict:
        """Dead-lettered (attempt-exhausted) units, optionally per job."""
        if job_id is None:
            return self._request("GET", "/api/dead-letter")
        return self._request("GET", f"/api/jobs/{job_id}/dead-letter")

    def requeue(self, job_id: str, unit_id: str) -> dict:
        """Return a dead-lettered unit to the queue with a fresh budget."""
        return self._request(
            "POST", f"/api/jobs/{job_id}/units/{unit_id}/requeue", {}
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


def _error_message(body: bytes) -> str:
    """Extract the API's ``{"error": ...}`` envelope, tolerating garbage."""
    text = body.decode("utf-8", "replace")
    try:
        message = json.loads(text).get("error", text)
    except (ValueError, AttributeError):
        message = text
    return str(message) or "request failed"
