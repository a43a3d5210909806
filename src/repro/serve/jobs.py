"""The sweep service's job queue: submitted work as first-class state.

``POST /sweep`` used to hold the HTTP connection (and a global lock)
for the whole sweep -- one slow co-design grid head-of-line blocked
every other client.  This module is the replacement architecture: a
submission validates, becomes a :class:`Job`, and returns immediately;
a bounded pool of worker threads leases jobs off a priority queue
(FIFO within each priority level) and runs them against the shared
engine; clients poll or stream a job by id and can cancel it
cooperatively at any pass boundary.

The state machine is deliberately small::

    queued ──▶ running ──▶ done
       │           ├─────▶ failed
       └───────────┴─────▶ cancelled

``queued -> cancelled`` is the only shortcut (cancelling a job the
pool never started).  Terminal states are final.

Concurrent jobs write straight into the shared store without
interleaving half-written records: SQLite's conditional upsert
resolves conflicts row-by-row and SQLite serializes writers itself,
and a plain JSONL appender writes each pass in one write of whole
lines.  Records a job completed stay in the store whether it ends done,
failed, or cancelled, like a crashed local run keeps its partials.

Not every job runs on the pool.  Externally-driven jobs -- ingests
completed inline by the handler, and fleet jobs whose chunks are
evaluated by remote pull workers (:mod:`~repro.serve.fleet`) -- are
:meth:`JobManager.register`-ed and marked running by their owner
instead of submitted, so they are pollable and cancellable by id like
any other job without ever occupying a bounded worker thread.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
import uuid
from typing import Callable, Iterator

from ..dse.entry import RecordEntry
from ..dse.spec import SweepSpec
from ..obs.metrics import get_registry
from ..obs.trace import Trace

__all__ = [
    "Job",
    "JobManager",
    "QUEUED",
    "RUNNING",
    "DONE",
    "FAILED",
    "CANCELLED",
    "TERMINAL_STATES",
    "DEFAULT_PRIORITY",
]

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: States a job can never leave.
TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED})

#: Default submission priority; lower numbers schedule sooner.
DEFAULT_PRIORITY = 10

#: Seconds between keepalive blank lines on an idle record stream --
#: frequent enough that a vanished client is detected (the blank-line
#: write raises) long before a slow job finishes.
STREAM_KEEPALIVE_SECONDS = 1.0


def new_job_id() -> str:
    """A short, URL-safe, collision-improbable job id."""
    return uuid.uuid4().hex[:12]


_METRICS = get_registry()
_JOBS_SUBMITTED = _METRICS.counter(
    "repro_jobs_submitted_total",
    "Jobs accepted into the job table, by kind.",
    ("kind",),
)
_JOBS_FINISHED = _METRICS.counter(
    "repro_jobs_finished_total",
    "Jobs that reached a terminal state, by kind and state.",
    ("kind", "state"),
)
_JOB_PHASE_SECONDS = _METRICS.histogram(
    "repro_job_phase_seconds",
    "Time jobs spend in each traced phase "
    "(validate, queue-wait, evaluate, ingest).",
    ("kind", "phase"),
)


class Job:
    """One unit of submitted work and everything observable about it.

    Thread model: exactly one worker thread mutates the job while it
    runs; any number of handler threads read it (status polls, record
    streams).  All shared mutation happens under one condition
    variable, which also wakes streamers when a record lands or the
    state goes terminal.

    When the service runs with a :class:`~repro.serve.journal.JobJournal`
    it attaches the journal to each accepted job; every state-machine
    edge then journals itself synchronously (after releasing the
    condition, so slow disks never block status polls or streamers).
    """

    kind = "sweep"
    #: The traced phase a job enters when it starts running.
    running_phase = "evaluate"

    def __init__(
        self,
        spec: SweepSpec | None,
        vectorize: bool = True,
        priority: int = DEFAULT_PRIORITY,
        job_id: str | None = None,
        trace: Trace | None = None,
    ):
        self.id = job_id or new_job_id()
        self.spec = spec
        self.vectorize = vectorize
        self.priority = priority
        self.state = QUEUED
        self.error: str | None = None
        #: Completed records in completion order, as the engine's
        #: entries: the record stream sends their text, status and
        #: frontier reads decode their dicts.
        self.entries: list[RecordEntry] = []
        self.counts = {"memo": 0, "store": 0, "evaluated": 0}
        # Wall timestamps are for display and the journal; every
        # *duration* comes from the trace's monotonic clock so an NTP
        # step mid-job can never produce a negative span.
        self.submitted_at = time.time()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        #: The span trace: the service hands in one opened at
        #: "validate" (accepting the job closes it into queue-wait); a
        #: bare construction (tests, direct JobManager use) starts at
        #: queue-wait directly.
        if trace is None:
            self.trace = Trace("queue-wait")
        else:
            self.trace = trace
            self._observe_phase(trace.mark("queue-wait"))
        self._cancel = threading.Event()
        self._changed = threading.Condition()
        #: Attached by the service when journaling is on; every state
        #: edge below records itself through it.
        self.journal = None
        _JOBS_SUBMITTED.inc(kind=self.kind)

    def _journal_transition(self) -> None:
        journal = self.journal
        if journal is not None:
            journal.record_transition(self)

    def _observe_phase(self, closed: tuple[str, float] | None) -> None:
        if closed is not None:
            phase, seconds = closed
            _JOB_PHASE_SECONDS.observe(seconds, kind=self.kind, phase=phase)

    # -- lifecycle (worker side) ---------------------------------------
    def mark_running(self) -> bool:
        """queued -> running; False when the job was cancelled first."""
        with self._changed:
            if self.state != QUEUED:
                return False
            self.state = RUNNING
            self.started_at = time.time()
            self._changed.notify_all()
        self._observe_phase(self.trace.mark(self.running_phase))
        self._journal_transition()
        return True

    def append(self, entry: RecordEntry, source: str) -> None:
        """Record one completed point (memo/store/evaluated tier)."""
        with self._changed:
            self.entries.append(entry)
            self.counts[source] += 1
            self._changed.notify_all()

    def finish(self, state: str, error: str | None = None) -> None:
        """Enter a terminal state (idempotent; the first one sticks)."""
        if state not in TERMINAL_STATES:
            raise ValueError(f"not a terminal job state: {state!r}")
        with self._changed:
            if self.state in TERMINAL_STATES:
                return
            self.state = state
            self.error = error
            self.finished_at = time.time()
            self._changed.notify_all()
        self._observe_phase(self.trace.end())
        _JOBS_FINISHED.inc(kind=self.kind, state=state)
        self._journal_transition()

    # -- cancellation ---------------------------------------------------
    def cancel(self) -> str:
        """Request cooperative cancellation; returns the current state.

        A queued job dies immediately; a running one stops at the next
        pass boundary (the engine polls :meth:`cancel_requested`
        between persisted passes); a terminal job is left untouched.
        """
        self._cancel.set()
        cancelled_queued = False
        with self._changed:
            if self.state == QUEUED:
                self.state = CANCELLED
                self.finished_at = time.time()
                cancelled_queued = True
                self._changed.notify_all()
            state = self.state
        if cancelled_queued:
            self._observe_phase(self.trace.end())
            _JOBS_FINISHED.inc(kind=self.kind, state=CANCELLED)
        # Journal even when only the flag moved: a running job whose
        # cancel was requested but never reached a pass boundary must
        # not resurrect as running after a crash-restart.
        self._journal_transition()
        return state

    def cancel_requested(self) -> bool:
        return self._cancel.is_set()

    # -- observation (handler side) ------------------------------------
    @property
    def done(self) -> bool:
        return self.state in TERMINAL_STATES

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job is terminal; True when it got there."""
        with self._changed:
            return self._changed.wait_for(lambda: self.done, timeout)

    def completed(self) -> int:
        with self._changed:
            return len(self.entries)

    def snapshot_records(self, after: int = 0) -> list[dict]:
        """The completed records past index ``after``, decoded on demand."""
        with self._changed:
            entries = self.entries[after:]
        return [entry.record for entry in entries]

    def stream(
        self, after: int = 0, keepalive: float = STREAM_KEEPALIVE_SECONDS
    ) -> Iterator[list[RecordEntry] | None]:
        """Yield completed entries from index ``after`` until terminal.

        Each wake-up yields every entry that landed since the last one
        as one non-empty list (completion order), so a transport can
        write them in one go.  Blocks between batches; yields ``None``
        after ``keepalive`` seconds of silence so a transport can touch
        its socket (and notice a vanished client) while the job is
        still working.  The terminal state is *not* yielded -- the
        caller reads ``job.state`` after the iterator ends, at which
        point every record is guaranteed delivered (records never land
        after a terminal state).
        """
        cursor = max(0, after)
        while True:
            with self._changed:
                self._changed.wait_for(
                    lambda: len(self.entries) > cursor or self.done,
                    timeout=keepalive,
                )
                batch = self.entries[cursor:]
                finished = self.done
            if not batch and not finished:
                yield None  # keepalive tick
                continue
            if batch:
                yield batch
            cursor += len(batch)
            if finished:
                return

    def progress(self) -> dict:
        """The countable facts: total points and per-tier completions."""
        with self._changed:
            return {
                "points": len(self.spec) if self.spec is not None else 0,
                "completed": len(self.entries),
                "evaluated": self.counts["evaluated"],
                "store_hits": self.counts["store"],
                "memo_hits": self.counts["memo"],
            }

    def duration(self) -> float | None:
        """Monotonic seconds from submission to finish (or to now).

        Derived from the trace, never from wall-clock deltas: a clock
        step between ``submitted_at`` and ``finished_at`` cannot bend
        this number.  Jobs recovered from a journal in a *terminal*
        state have no live trace spanning their run; they fall back to
        the journaled wall timestamps, clamped at zero.
        """
        if self.done and not self.trace.complete:
            # A recovered terminal job: its run happened in a previous
            # process, so the only evidence is the journaled wall clock.
            if self.started_at is None or self.finished_at is None:
                return None
            return max(0.0, self.finished_at - self.started_at)
        return self.trace.total_seconds()

    def status(self) -> dict:
        """The ``GET /jobs/{id}`` body (sans frontier, which is derived)."""
        return {
            "job": self.id,
            "kind": self.kind,
            "state": self.state,
            "priority": self.priority,
            "error": self.error,
            "progress": self.progress(),
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "duration": self.duration(),
            "trace": self.trace.trace_id,
            "timings": self.trace.summary(),
        }


class IngestJob(Job):
    """A ``POST /records`` upload, tracked in the same job table.

    Ingests run inline in the handler thread -- they are quick appends
    that must not queue behind long sweeps -- but registering them as
    jobs makes uploads first-class: visible in ``GET /jobs`` and the
    ``/stats`` job counters, with the same terminal states.
    """

    kind = "ingest"
    running_phase = "ingest"

    def __init__(self, offered: int, trace=None):
        super().__init__(spec=None, priority=0, trace=trace)
        self.offered = offered
        self.appended = 0

    def progress(self) -> dict:
        with self._changed:
            return {"offered": self.offered, "appended": self.appended}


class JobManager:
    """A bounded worker pool draining a priority queue of jobs.

    ``runner(job)`` does the actual work (the service supplies it); the
    manager owns scheduling: FIFO within each priority level (lower
    number first), at most ``pool_size`` jobs running at once, lazy
    worker startup, and cooperative teardown.  The job table keeps
    terminal jobs around for status/record queries until the process
    exits -- this is a sweep service, not a message broker; result
    retention is the point.
    """

    def __init__(
        self,
        runner: Callable[[Job], None],
        pool_size: int = 2,
    ):
        if pool_size < 1:
            raise ValueError("job pool size must be >= 1")
        self.runner = runner
        self.pool_size = pool_size
        self._jobs: dict[str, Job] = {}
        self._queue: queue.PriorityQueue = queue.PriorityQueue()
        self._seq = itertools.count()  # FIFO tie-break within a priority
        self._lock = threading.Lock()
        self._threads: list[threading.Thread] = []
        self._stop = threading.Event()

    # -- submission and lookup -----------------------------------------
    def submit(self, job: Job) -> Job:
        """Enqueue a job for the worker pool (starting it lazily)."""
        with self._lock:
            if self._stop.is_set():
                raise RuntimeError("job manager is shut down")
            self._jobs[job.id] = job
            self._ensure_threads()
        self._queue.put((job.priority, next(self._seq), job))
        return job

    def register(self, job: Job) -> Job:
        """Track a job the caller runs itself (inline ingest jobs)."""
        with self._lock:
            self._jobs[job.id] = job
        return job

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        """Every known job, oldest submission first."""
        with self._lock:
            return sorted(self._jobs.values(), key=lambda j: j.submitted_at)

    def counts(self) -> dict:
        """Jobs per state -- the ``/stats`` surface."""
        tally = {state: 0 for state in (QUEUED, RUNNING, *TERMINAL_STATES)}
        for job in self.jobs():
            tally[job.state] += 1
        tally["total"] = sum(tally.values())
        return tally

    def remove(self, job_ids) -> int:
        """Drop terminal jobs from the table (the retention policy).

        Only terminal jobs are removed -- a stale priority-queue entry
        for an evicted job is harmless because ``mark_running`` refuses
        non-queued jobs, but evicting live work would strand clients.
        """
        removed = 0
        with self._lock:
            for job_id in list(job_ids):
                job = self._jobs.get(job_id)
                if job is not None and job.done:
                    del self._jobs[job_id]
                    removed += 1
        return removed

    # -- the pool ------------------------------------------------------
    def _ensure_threads(self) -> None:
        # Called under self._lock.  Daemonic like the HTTP handler
        # threads: a hard process exit never hangs on a long sweep.
        while len(self._threads) < self.pool_size:
            thread = threading.Thread(
                target=self._work,
                name=f"sweep-job-worker-{len(self._threads)}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()

    def _work(self) -> None:
        while not self._stop.is_set():
            try:
                _, _, job = self._queue.get(timeout=0.1)
            except queue.Empty:
                continue
            if not job.mark_running():
                continue  # cancelled while queued
            try:
                self.runner(job)
            except Exception as error:  # noqa: BLE001 - job boundary
                job.finish(FAILED, error=str(error))
            finally:
                # A runner that returned without finishing the job is a
                # bug; fail loudly rather than leaving it running forever.
                if not job.done:
                    job.finish(FAILED, error="job runner never finished")

    def close(self, cancel: bool = True, timeout: float = 5.0) -> None:
        """Stop the pool: optionally cancel live jobs, then join workers.

        Running jobs see the cancel at their next pass boundary; a
        job stuck inside one long evaluation chunk is abandoned to its
        daemon thread after ``timeout`` (process exit reaps it).
        """
        if cancel:
            for job in self.jobs():
                if not job.done:
                    job.cancel()
        self._stop.set()
        deadline = time.monotonic() + timeout
        for thread in self._threads:
            thread.join(max(0.0, deadline - time.monotonic()))
