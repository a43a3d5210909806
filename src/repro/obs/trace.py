"""Lightweight span tracing for jobs and fleet chunks.

A :class:`Trace` stamps one unit of work (a job, a chunk) with a trace
id and a sequence of *timed phases*.  The API is deliberately smaller
than a general tracer: :meth:`Trace.mark` closes the current phase and
opens the next at the same monotonic instant, so phases are contiguous
and non-overlapping **by construction** -- the trace test asserts it,
but the data structure cannot express a violation.  All timing is
``time.monotonic()``: an NTP step during a sweep can never produce a
negative span (the wall-clock ``submitted_at``-style fields jobs keep
for display are a separate concern).

The canonical phase sequences::

    job:   validate -> queue-wait -> evaluate
    ingest: validate -> queue-wait -> ingest
    chunk: lease-wait -> worker-eval -> upload -> ack

Callers observe each closed phase into a registry histogram as
:meth:`mark`/:meth:`end` return it, so ``/metrics`` aggregates what
``GET /jobs/{id}`` reports per job.
"""

from __future__ import annotations

import threading
import time
import uuid

__all__ = ["Trace"]


def new_trace_id() -> str:
    """A short, URL-safe, collision-improbable trace id."""
    return uuid.uuid4().hex[:16]


class Trace:
    """One traced unit of work: an id plus contiguous timed phases."""

    def __init__(self, phase: str | None = None, trace_id: str | None = None):
        self.trace_id = trace_id or new_trace_id()
        self._lock = threading.Lock()
        # Each phase is ``[name, start_mono, end_mono | None]``; at most
        # the last one is open.
        self._phases: list[list] = []
        self._started = time.monotonic()
        self._ended: float | None = None
        if phase is not None:
            self._phases.append([phase, self._started, None])

    # -- recording ------------------------------------------------------
    def mark(self, phase: str) -> tuple[str, float] | None:
        """Close the current phase and open ``phase`` at the same instant.

        Returns ``(closed phase name, seconds)`` -- the sample callers
        feed a latency histogram -- or ``None`` when no phase was open.
        Marking after :meth:`end` is a no-op returning ``None``
        (duplicate terminal transitions must not reopen a trace).
        """
        now = time.monotonic()
        with self._lock:
            if self._ended is not None:
                return None
            closed = self._close_open(now)
            self._phases.append([phase, now, None])
            return closed

    def end(self) -> tuple[str, float] | None:
        """Close the open phase and seal the trace (idempotent)."""
        now = time.monotonic()
        with self._lock:
            if self._ended is not None:
                return None
            self._ended = now
            return self._close_open(now)

    def _close_open(self, now: float) -> tuple[str, float] | None:
        # Called under self._lock.
        if self._phases and self._phases[-1][2] is None:
            open_phase = self._phases[-1]
            open_phase[2] = now
            return open_phase[0], open_phase[2] - open_phase[1]
        return None

    # -- observation ----------------------------------------------------
    @property
    def complete(self) -> bool:
        """True once :meth:`end` sealed the trace (no phase is open)."""
        with self._lock:
            return self._ended is not None

    def phases(self) -> list[dict]:
        """Every phase so far: name, seconds, and whether it is open.

        An open phase reports seconds elapsed so far -- live status
        polls want to see where a running job is spending time.
        """
        now = time.monotonic()
        with self._lock:
            return [
                {
                    "phase": name,
                    "seconds": (end if end is not None else now) - start,
                    "open": end is None,
                }
                for name, start, end in self._phases
            ]

    def total_seconds(self) -> float:
        """Monotonic span from trace start to end (or to now, if open)."""
        with self._lock:
            end = self._ended if self._ended is not None else time.monotonic()
            return end - self._started

    def summary(self) -> dict:
        """The JSON shape ``GET /jobs/{id}`` embeds as ``timings``."""
        return {
            "trace_id": self.trace_id,
            "complete": self.complete,
            "total_seconds": self.total_seconds(),
            "phases": self.phases(),
        }
