"""Trial containment: exception and wall-clock guards around one trial.

The guard is the boundary between the campaign harness and the system
under test. Everything a trial can do wrong — raise an arbitrary
exception, or spin forever — is converted into a classified
:class:`~repro.campaign.outcomes.TrialOutcome` so the campaign survives.

Wall-clock enforcement uses ``signal.setitimer(ITIMER_REAL)``, which can
interrupt a pure-Python busy loop. It is only armed when running on the
main thread of a process with ``SIGALRM`` support (true for the serial
runner and for ``concurrent.futures`` worker processes on POSIX); where
unavailable — a worker *thread*, Windows, an embedded interpreter — the
guard degrades to exception containment only and emits one
``RuntimeWarning`` so the degradation is visible instead of an uncaught
``ValueError`` from ``signal.signal``.
"""

from __future__ import annotations

import signal
import threading
import traceback
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

from repro.campaign.outcomes import (
    OUTCOME_CRASH,
    OUTCOME_OK,
    OUTCOME_TIMEOUT,
    TrialOutcome,
)


class TrialTimeout(Exception):
    """Raised inside a trial when its wall-clock budget expires."""


def timeout_supported() -> bool:
    """Can this thread arm a wall-clock interrupt for trial containment?"""
    return (
        hasattr(signal, "setitimer")
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )


_warned_no_timeout = False


def _warn_no_timeout(reason: str) -> None:
    """Warn once per process that timeouts degraded to containment-only."""
    global _warned_no_timeout
    if _warned_no_timeout:
        return
    _warned_no_timeout = True
    warnings.warn(
        f"trial wall-clock timeout disabled ({reason}); trials remain "
        "exception-contained but a spinning trial can hang this runner",
        RuntimeWarning,
        stacklevel=4,
    )


@contextmanager
def _wall_clock_limit(seconds: float | None, spent: float = 0.0):
    """Interrupt the body once ``seconds`` of budget are used up, of which
    ``spent`` went to earlier slices of the same trial."""
    if not seconds:
        yield
        return
    if spent >= seconds:
        raise TrialTimeout(f"trial exceeded {seconds:g}s wall-clock budget")
    if not timeout_supported():
        _warn_no_timeout(
            "SIGALRM timers require POSIX signal support and the main thread"
        )
        yield
        return

    def on_alarm(signum, frame):
        raise TrialTimeout(f"trial exceeded {seconds:g}s wall-clock budget")

    try:
        previous = signal.signal(signal.SIGALRM, on_alarm)
    except ValueError as exc:
        # Belt and braces: signal.signal itself refuses outside the main
        # thread (and the support probe can race a thread handoff), so
        # degrade exactly as if the probe had failed.
        _warn_no_timeout(str(exc))
        yield
        return
    signal.setitimer(signal.ITIMER_REAL, seconds - spent)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@dataclass(frozen=True)
class TrialGuard:
    """Runs trial thunks, converting failures into outcome records.

    ``timeout`` is the per-trial wall-clock budget in seconds (``None``
    disables it). ``descriptor`` fields passed to :meth:`run` are copied
    into the error payload so a failed trial can be replayed exactly.
    """

    timeout: float | None = None

    def run(
        self,
        key: str,
        workload: str,
        point: int,
        index: int,
        thunk: Callable[[], object],
        descriptor: dict | None = None,
    ) -> TrialOutcome:
        try:
            with _wall_clock_limit(self.timeout):
                record = thunk()
        except TrialTimeout as exc:
            return TrialOutcome(
                key=key, workload=workload, point=point, index=index,
                status=OUTCOME_TIMEOUT,
                error=self._error_payload(exc, descriptor, with_traceback=False),
            )
        except KeyboardInterrupt:
            raise
        except Exception as exc:
            return TrialOutcome(
                key=key, workload=workload, point=point, index=index,
                status=OUTCOME_CRASH,
                error=self._error_payload(exc, descriptor, with_traceback=True),
            )
        return TrialOutcome(
            key=key, workload=workload, point=point, index=index,
            status=OUTCOME_OK, record=record,
        )

    def limit(self, spent: float = 0.0):
        """The wall-clock limit on one slice of a trial that runs in
        several (a uarch lockstep shadow steps chunk by chunk, outside
        :meth:`run`): what is left of the per-trial budget after ``spent``
        seconds. An overrun raises :class:`TrialTimeout`, with the message
        :meth:`run` records for a serial trial: inside the slice where
        ``SIGALRM`` can interrupt it, and on entering the next slice even
        where it cannot."""
        return _wall_clock_limit(self.timeout, spent)

    def _error_payload(
        self, exc: BaseException, descriptor: dict | None, with_traceback: bool
    ) -> dict:
        payload = {
            "type": type(exc).__name__,
            "message": str(exc),
        }
        if self.timeout is not None:
            payload["timeout_seconds"] = self.timeout
        if with_traceback:
            payload["traceback"] = traceback.format_exc()
        if descriptor:
            payload["descriptor"] = dict(descriptor)
        return payload
