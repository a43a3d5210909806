"""Elastic worker fleet: pull-based distributed sweeps with leases.

A fixed shard plan (``repro dse --shard i/n`` per machine) loses a
dead shard until a human re-runs it.  This module inverts the control
flow: the sweep server owns a lease table and *workers pull* --
``repro worker`` processes on any machine that reaches the server.
(On one machine, ``repro dse-launch --fleet N`` needs none of this:
see :mod:`repro.serve.launch`.)

Coordinator side (embedded in
:class:`~repro.serve.server.SweepService`):

* a fleet sweep (``POST /sweep`` with ``"fleet"``) splits into
  hash-range point chunks
  (:meth:`SweepSpec.chunks <repro.dse.spec.SweepSpec.chunks>` -- the
  same disjoint, resumable units ``--shard i/n`` uses);
* workers register with a capacity (``POST /workers/register``), then
  loop: lease a chunk (``POST /workers/{id}/lease`` -- a pull queue,
  so a straggler never gates the sweep), evaluate it, stream the
  records back through the existing ``/records`` ingest, and ack
  (``POST /workers/{id}/ack``);
* a lease expires -- and its chunk silently requeues -- when its
  deadline passes *or* the holder's heartbeat
  (``POST /workers/{id}/heartbeat``) lapses, so a SIGKILLed worker
  costs one lease TTL, not the sweep;
* a chunk completed twice (an expired-then-finished straggler racing
  the worker that stole its chunk) is harmless: the records resolve
  through the store's version-aware conditional upsert, and the
  duplicate ack is acknowledged as exactly that.

Worker side: :class:`FleetWorker`, the loop behind ``repro worker`` --
register -> lease -> evaluate (vectorized) -> ingest -> ack, with
bounded-backoff retries on transient HTTP errors and automatic
re-registration when the server forgets the worker (server restart).

Expiry is lazy: every lease, ack, and stats call sweeps lapsed leases
first, with no background reaper thread on the server.  A lease request
that finds nothing to grant while jobs are active parks on the
coordinator for up to its ``wait`` seconds: an ack, a requeue, a new
job or a job's end wakes it, and it wakes by itself the moment a held
lease lapses, so a requeued chunk is re-leased at once.
"""

from __future__ import annotations

import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Callable

from ..dse.engine import run_sweep
from ..dse.spec import SweepSpec
from ..obs.logs import get_logger
from ..obs.metrics import MetricsRegistry, get_registry
from ..obs.trace import new_trace_id
from .client import ServeClient, ServeError
from .jobs import CANCELLED, DEFAULT_PRIORITY, DONE, FAILED, Job

__all__ = [
    "Chunk",
    "Fleet",
    "FleetJob",
    "FleetWorker",
    "WorkerInfo",
    "DEFAULT_LEASE_TTL",
    "DEFAULT_HEARTBEAT_TTL",
    "DEFAULT_FLEET_CHUNKS",
]

#: Chunk states.  A chunk is pending (leasable), leased (one worker is
#: evaluating it, until a deadline), or completed.  Requeue moves
#: leased back to pending; completion is final.
PENDING = "pending"
LEASED = "leased"
COMPLETED = "completed"

#: Default seconds a lease stays valid without an ack.
DEFAULT_LEASE_TTL = 60.0

#: Default seconds of heartbeat silence before a worker counts as dead
#: (and every lease it holds requeues).
DEFAULT_HEARTBEAT_TTL = 15.0

#: Default chunk count for a fleet job that did not pick one.
DEFAULT_FLEET_CHUNKS = 16

#: Records per ``POST /records`` upload from a worker -- chunk results
#: can exceed what one request body should carry.
INGEST_CHUNK_RECORDS = 20_000

#: Consecutive unexpected heartbeat failures before a worker gives up.
HEARTBEAT_MAX_FAILURES = 5

#: Default seconds a worker keeps retrying when the server is
#: unreachable (a restart in progress) before giving up with exit 1.
#: Spans a server redeploy comfortably; the client's own bounded
#: backoff only covers a few seconds.
DEFAULT_RECONNECT_GRACE = 60.0

_LOG = get_logger(__name__)

_METRICS = get_registry()
_LEASES_GRANTED = _METRICS.counter(
    "repro_fleet_leases_granted_total",
    "Chunk leases granted to fleet workers.",
)
_REQUEUES = _METRICS.counter(
    "repro_fleet_requeues_total",
    "Leased chunks requeued after deadline expiry or worker death.",
)
_ACKS = _METRICS.counter(
    "repro_fleet_acks_total",
    "Chunk acks received by the coordinator, by outcome.",
    labelnames=("result",),
)
_CHUNK_PHASE_SECONDS = _METRICS.histogram(
    "repro_fleet_chunk_phase_seconds",
    "Fleet chunk phase latency: lease-wait, worker-eval, upload, "
    "ack-turnaround.",
    labelnames=("phase",),
)

#: Worker-reported phases the coordinator accepts into the chunk-phase
#: histogram -- a fixed set keeps label cardinality bounded no matter
#: what an ack body carries.
_WORKER_PHASES = ("worker-eval", "upload")

#: Series in each :class:`FleetWorker`'s private registry.  The worker
#: registers them and the coordinator reads them back out of heartbeat
#: snapshots (:func:`_summarize_worker_metrics`), so both sides share
#: these names.
WORKER_CHUNKS_TOTAL = "repro_worker_chunks_total"
WORKER_POINTS_TOTAL = "repro_worker_points_total"
WORKER_EVAL_SECONDS = "repro_worker_eval_seconds"
WORKER_UPLOAD_SECONDS = "repro_worker_upload_seconds"


def _observe_worker_timings(timings: dict | None) -> None:
    """Feed a worker's ack-carried phase timings into the histogram."""
    if not isinstance(timings, dict):
        return
    for phase in _WORKER_PHASES:
        seconds = timings.get(phase)
        if isinstance(seconds, (int, float)) and seconds >= 0:
            _CHUNK_PHASE_SECONDS.observe(float(seconds), phase=phase)


def _summarize_worker_metrics(snapshot: dict) -> dict | None:
    """Boil a heartbeat's registry snapshot down to a ``/workers`` row.

    Workers ship their full :meth:`MetricsRegistry.snapshot`; the
    coordinator keeps only the fields the ops dashboard plots --
    throughput (points, chunks) and where wall-clock goes (eval vs
    upload) -- so ``GET /workers`` stays compact at fleet scale.
    """
    if not isinstance(snapshot, dict):
        return None

    def total(kind: str, name: str, key: str) -> float:
        samples = (snapshot.get(kind) or {}).get(name) or []
        return float(
            sum(
                float(sample.get(key) or 0.0)
                for sample in samples
                if isinstance(sample, dict)
            )
        )

    return {
        "points_total": total("counters", WORKER_POINTS_TOTAL, "value"),
        "chunks_total": total("counters", WORKER_CHUNKS_TOTAL, "value"),
        "eval_seconds_sum": total("histograms", WORKER_EVAL_SECONDS, "sum"),
        "upload_seconds_sum": total("histograms", WORKER_UPLOAD_SECONDS, "sum"),
    }


@dataclass
class Chunk:
    """One leasable hash-range slice of a fleet job's spec."""

    index: int
    spec: SweepSpec
    state: str = PENDING
    worker: str | None = None
    deadline: float | None = None
    attempts: int = 0
    completed_by: str | None = None
    trace_id: str = field(default_factory=new_trace_id)
    #: Monotonic instants driving the chunk phase clock: when the chunk
    #: last became leasable, and when its current lease was granted.
    pending_since: float = field(default_factory=time.monotonic)
    leased_at: float | None = None

    def __len__(self) -> int:
        return len(self.spec)


@dataclass
class WorkerInfo:
    """The coordinator's view of one registered worker."""

    id: str
    name: str
    capacity: int
    registered_at: float
    last_seen: float
    chunks_done: int = field(default=0)
    #: Liveness runs on the monotonic clock (an NTP step must not kill
    #: a healthy fleet); ``last_seen`` stays wall time for display.
    last_seen_mono: float = field(default_factory=time.monotonic)
    #: The latest heartbeat's metrics summary (throughput, eval time).
    metrics: dict | None = None

    def alive(self, now: float, heartbeat_ttl: float) -> bool:
        return now - self.last_seen_mono <= heartbeat_ttl


class FleetJob(Job):
    """A sweep whose chunks are pulled and evaluated by fleet workers.

    Unlike a :class:`~repro.serve.jobs.Job` run by the server's own
    pool, a fleet job never occupies a job-worker thread: it is
    registered, marked running at submission, and driven entirely by
    worker acks -- the job is done when every chunk is completed.  The
    records land in the shared store via ``/records`` ingest, not on
    the job itself, so ``GET /jobs/{id}/records`` streams are empty;
    clients read the store once the job is terminal.
    """

    kind = "fleet"

    def __init__(
        self,
        spec: SweepSpec,
        chunks: int,
        priority: int = DEFAULT_PRIORITY,
        job_id: str | None = None,
        trace=None,
    ):
        if len(spec) == 0:
            raise ValueError("empty sweep")
        super().__init__(spec=spec, priority=priority, job_id=job_id, trace=trace)
        self._chunks = [Chunk(index=i, spec=sub) for i, sub in spec.chunks(chunks)]
        self._by_index = {chunk.index: chunk for chunk in self._chunks}
        self.chunk_count = len(self._chunks)
        # The *requested* partition width, not len(_chunks): hash-range
        # chunking drops empty buckets, so only this count rebuilds the
        # same chunk indexes when recovery reconstructs the job.
        self.chunk_partition = int(chunks)
        self.requeues = 0
        #: Set by :meth:`Fleet.add_job`: wakes the leases parked on the
        #: coordinator when this job ends, however it ends.
        self.on_finish: Callable[[], None] | None = None

    def finish(self, state: str, error: str | None = None) -> None:
        super().finish(state, error)
        if self.on_finish is not None:
            self.on_finish()

    def _journal_lease(self, chunk: Chunk) -> None:
        journal = self.journal
        if journal is not None:
            journal.record_lease(self.id, chunk.index, chunk.state, chunk.attempts)

    def chunk_states(self) -> list[tuple[int, str, int]]:
        """A journal-ready snapshot of the lease table."""
        with self._changed:
            return [(c.index, c.state, c.attempts) for c in self._chunks]

    def restore_chunks(self, leases: dict[int, dict]) -> dict:
        """Rebuild the lease table from journaled rows (restart recovery).

        Completed chunks stay completed; chunks the journal last saw
        *leased* requeue as pending -- their holder was talking to a
        server that no longer exists, so the lease is void (the holder
        may still finish and ack as a straggler; that is the same
        absorbed-duplicate path a TTL expiry produces).  Attempt counts
        survive so operators can see a chunk's full history.
        """
        requeued = 0
        with self._changed:
            for chunk in self._chunks:
                row = leases.get(chunk.index)
                if row is None:
                    continue
                chunk.attempts = int(row.get("attempts") or 0)
                if row.get("state") == COMPLETED:
                    chunk.state = COMPLETED
                elif row.get("state") == LEASED:
                    chunk.state = PENDING
                    requeued += 1
            self.requeues += requeued
            all_done = all(c.state == COMPLETED for c in self._chunks)
        if all_done:
            self.finish(DONE)
        return {
            "requeued": requeued,
            "completed": sum(
                1 for c in self._chunks if c.state == COMPLETED
            ),
        }

    # -- the lease table (all mutation under the job's condition) ------
    def lease_next(self, worker_id: str, now: float, ttl: float) -> Chunk | None:
        """Lease the first pending chunk to ``worker_id``, if any."""
        with self._changed:
            if self.done:
                return None
            for chunk in self._chunks:
                if chunk.state == PENDING:
                    chunk.state = LEASED
                    chunk.worker = worker_id
                    chunk.deadline = now + ttl
                    chunk.attempts += 1
                    mono = time.monotonic()
                    _CHUNK_PHASE_SECONDS.observe(
                        max(0.0, mono - chunk.pending_since),
                        phase="lease-wait",
                    )
                    chunk.leased_at = mono
                    self._journal_lease(chunk)
                    return chunk
            return None

    def expire_leases(
        self, now: float, worker_alive: Callable[[str], bool]
    ) -> int:
        """Requeue leases past deadline or held by a dead worker."""
        with self._changed:
            if self.done:
                return 0
            requeued = 0
            for chunk in self._chunks:
                if chunk.state != LEASED:
                    continue
                if now <= (chunk.deadline or 0.0) and worker_alive(
                    chunk.worker or ""
                ):
                    continue
                chunk.state = PENDING
                chunk.worker = None
                chunk.deadline = None
                chunk.leased_at = None
                chunk.pending_since = time.monotonic()
                requeued += 1
                self._journal_lease(chunk)
            self.requeues += requeued
            return requeued

    def ack_chunk(
        self,
        index: int,
        worker_id: str,
        error: str | None = None,
        timings: dict | None = None,
    ) -> dict:
        """Record a chunk completion (idempotent) or failure.

        An ack is accepted even when the lease already expired and the
        chunk requeued -- the straggler's records went through the
        version-aware upsert, so counting its work is correct.  A
        second completion of an already-completed chunk is reported as
        a duplicate, not an error.  ``timings`` carries the worker's
        measured phases (worker-eval, upload); the work they describe
        happened regardless of duplicate status, so they are observed
        either way.
        """
        with self._changed:
            chunk = self._by_index.get(index)
            if chunk is None:
                raise KeyError(f"job {self.id} has no chunk {index}")
            if error is not None:
                # A poisoned chunk fails the whole job, matching a
                # local sweep aborting on an evaluation error.
                self.finish(FAILED, error=f"chunk {index}: {error}")
                return {"duplicate": False, "job_state": self.state}
            _observe_worker_timings(timings)
            if chunk.state == COMPLETED:
                return {"duplicate": True, "job_state": self.state}
            if chunk.leased_at is not None:
                _CHUNK_PHASE_SECONDS.observe(
                    max(0.0, time.monotonic() - chunk.leased_at),
                    phase="ack-turnaround",
                )
            chunk.state = COMPLETED
            chunk.worker = None
            chunk.deadline = None
            chunk.completed_by = worker_id
            self._journal_lease(chunk)
            if all(c.state == COMPLETED for c in self._chunks):
                self.finish(DONE)
            self._changed.notify_all()
            return {"duplicate": False, "job_state": self.state}

    # -- observation ---------------------------------------------------
    def held_leases(self) -> list[tuple[str, float]]:
        """``(worker, deadline)`` of every chunk currently leased."""
        with self._changed:
            return [
                (chunk.worker or "", chunk.deadline or 0.0)
                for chunk in self._chunks
                if chunk.state == LEASED
            ]

    def leases_held_by(self, worker_id: str) -> int:
        with self._changed:
            return sum(
                1
                for chunk in self._chunks
                if chunk.state == LEASED and chunk.worker == worker_id
            )

    def chunk_counts(self) -> dict:
        with self._changed:
            tally = {PENDING: 0, LEASED: 0, COMPLETED: 0}
            for chunk in self._chunks:
                tally[chunk.state] += 1
            return {"total": len(self._chunks), **tally, "requeues": self.requeues}

    def cancel(self) -> str:
        """Cancel immediately: no worker thread needs a boundary poll.

        In-flight leases are left to finish; their acks land as
        duplicates-of-a-dead-job (the records still upsert cleanly).
        """
        self._cancel.set()
        self.finish(CANCELLED)
        return self.state

    def progress(self) -> dict:
        with self._changed:
            completed_points = sum(
                len(chunk.spec)
                for chunk in self._chunks
                if chunk.state == COMPLETED
            )
            points = len(self.spec) if self.spec is not None else 0
        return {
            "points": points,
            "completed": completed_points,
            "chunks": self.chunk_counts(),
        }


def _new_worker_id() -> str:
    return uuid.uuid4().hex[:12]


class Fleet:
    """The coordinator: registered workers, fleet jobs, and leases.

    Lock order is ``Fleet._lock`` then a job's condition variable.  The
    one call back into the fleet, a job's :attr:`FleetJob.on_finish`
    wake, runs either after the job released its condition (cancel,
    drain, close) or inside :meth:`ack`, which already holds the
    reentrant fleet lock -- so the order cannot invert.
    """

    def __init__(
        self,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        heartbeat_ttl: float = DEFAULT_HEARTBEAT_TTL,
    ):
        if lease_ttl <= 0:
            raise ValueError("lease TTL must be positive")
        if heartbeat_ttl <= 0:
            raise ValueError("heartbeat TTL must be positive")
        self.lease_ttl = lease_ttl
        self.heartbeat_ttl = heartbeat_ttl
        self._lock = threading.RLock()
        # Parked lease requests wait here; every change that can make a
        # chunk grantable, or end a job, notifies.
        self._changed = threading.Condition(self._lock)
        self._workers: dict[str, WorkerInfo] = {}
        self._jobs: dict[str, FleetJob] = {}
        self.leases_granted = 0
        self.requeued = 0
        self.acks = 0
        self.duplicate_acks = 0

    # -- workers -------------------------------------------------------
    def register(self, name: str | None = None, capacity: int = 1) -> dict:
        capacity = int(capacity)
        if capacity < 1:
            raise ValueError("worker capacity must be >= 1")
        now = time.time()
        worker = WorkerInfo(
            id=_new_worker_id(),
            name=str(name or ""),
            capacity=capacity,
            registered_at=now,
            last_seen=now,
        )
        with self._lock:
            self._workers[worker.id] = worker
        return {
            "worker": worker.id,
            "lease_ttl": self.lease_ttl,
            "heartbeat_ttl": self.heartbeat_ttl,
            # Beat well inside the TTL so one dropped request does not
            # kill an otherwise-healthy worker.
            "heartbeat_seconds": self.heartbeat_ttl / 3.0,
        }

    def _worker(self, worker_id: str) -> WorkerInfo:
        # Called under self._lock.
        worker = self._workers.get(worker_id)
        if worker is None:
            raise KeyError(f"no such worker: {worker_id} (register again)")
        return worker

    def heartbeat(self, worker_id: str, metrics: dict | None = None) -> dict:
        """Refresh a worker's liveness; absorb its metrics snapshot.

        Workers piggyback their local registry snapshot on each beat,
        so the coordinator can expose per-worker throughput and
        straggler lag without a second reporting channel.
        """
        with self._lock:
            worker = self._worker(worker_id)
            worker.last_seen = time.time()
            worker.last_seen_mono = time.monotonic()
            if metrics is not None:
                summary = _summarize_worker_metrics(metrics)
                if summary is not None:
                    worker.metrics = summary
            return {"worker": worker.id, "status": "ok"}

    # -- jobs ----------------------------------------------------------
    def add_job(self, job: FleetJob) -> FleetJob:
        job.on_finish = self._wake
        with self._lock:
            self._jobs[job.id] = job
            self._changed.notify_all()
        return job

    def _wake(self) -> None:
        with self._lock:
            self._changed.notify_all()

    def remove_jobs(self, job_ids) -> int:
        """Drop terminal fleet jobs (the retention policy's fleet half)."""
        removed = 0
        with self._lock:
            for job_id in list(job_ids):
                job = self._jobs.get(job_id)
                if job is not None and job.done:
                    del self._jobs[job_id]
                    removed += 1
        return removed

    def _active_jobs(self) -> list[FleetJob]:
        # Called under self._lock.  Same scheduling contract as the
        # job pool: priority first, FIFO within a priority level.
        return sorted(
            (job for job in self._jobs.values() if not job.done),
            key=lambda job: (job.priority, job.submitted_at),
        )

    def _expire(self, now: float) -> None:
        # Called under self._lock -- the lazy sweep every entry point
        # runs before touching the lease table.
        def alive(worker_id: str) -> bool:
            worker = self._workers.get(worker_id)
            return worker is not None and worker.alive(now, self.heartbeat_ttl)

        for job in self._active_jobs():
            requeued = job.expire_leases(now, alive)
            if requeued:
                self.requeued += requeued
                _REQUEUES.inc(requeued)
                self._changed.notify_all()
                _LOG.info(
                    "requeued %d chunk(s) of job %s", requeued, job.id,
                    extra={"job": job.id},
                )

    def _next_lapse(self, active: list[FleetJob]) -> float | None:
        # Called under self._lock, right after _expire (so every holder
        # is registered): the earliest monotonic instant a held lease
        # expires, by its deadline or by its holder's heartbeat.
        return min(
            (
                min(deadline, self._workers[worker].last_seen_mono + self.heartbeat_ttl)
                for job in active
                for worker, deadline in job.held_leases()
            ),
            default=None,
        )

    # -- the pull queue ------------------------------------------------
    def lease(self, worker_id: str, wait: float = 0.0) -> dict:
        """Grant the next pending chunk, or report the queue idle.

        With nothing to grant while jobs are active, the request parks
        for up to ``wait`` seconds (capped at a third of the heartbeat
        TTL, so a parked worker never looks dead) and returns as soon
        as a chunk becomes grantable or the last active job ends.
        """
        wait = min(max(0.0, wait), self.heartbeat_ttl / 3.0)
        # Lease deadlines and heartbeat liveness both run on the
        # monotonic clock: a wall-clock step must never expire (or
        # immortalize) a lease.
        until = time.monotonic() + wait
        with self._lock:
            while True:
                now = time.monotonic()
                worker = self._worker(worker_id)
                worker.last_seen = time.time()  # leasing is an implicit heartbeat
                worker.last_seen_mono = now
                self._expire(now)
                active = self._active_jobs()
                held = sum(job.leases_held_by(worker_id) for job in active)
                if held < worker.capacity:
                    for job in active:
                        chunk = job.lease_next(worker_id, now, self.lease_ttl)
                        if chunk is None:
                            continue
                        self.leases_granted += 1
                        _LEASES_GRANTED.inc()
                        return {
                            "lease": {
                                "job": job.id,
                                "chunk": chunk.index,
                                "attempt": chunk.attempts,
                                "deadline": chunk.deadline,
                                "ttl": self.lease_ttl,
                                "points": len(chunk.spec),
                                "spec": chunk.spec.to_dict(),
                                "trace": chunk.trace_id,
                            }
                        }
                if not active or now >= until:
                    return {"idle": True, "active_jobs": len(active)}
                lapse = self._next_lapse(active)
                wake_at = until if lapse is None else min(until, lapse)
                self._changed.wait(wake_at - now)

    def ack(
        self,
        worker_id: str,
        job_id: str,
        chunk_index: int,
        error: str | None = None,
        timings: dict | None = None,
    ) -> dict:
        with self._lock:
            worker = self._worker(worker_id)
            worker.last_seen = time.time()
            worker.last_seen_mono = time.monotonic()
            job = self._jobs.get(job_id)
            if job is None:
                raise KeyError(f"no such fleet job: {job_id}")
            outcome = job.ack_chunk(
                int(chunk_index), worker_id, error=error, timings=timings
            )
            self.acks += 1
            if outcome["duplicate"]:
                self.duplicate_acks += 1
            else:
                worker.chunks_done += 1
            if error is not None:
                result = "failed"
            elif outcome["duplicate"]:
                result = "duplicate"
            else:
                result = "ok"
            _ACKS.inc(result=result)
            self._changed.notify_all()
            return {"job": job_id, "chunk": int(chunk_index), **outcome}

    # -- observation ---------------------------------------------------
    def workers(self) -> list[dict]:
        """The ``GET /workers`` body: every registration, oldest first."""
        now = time.monotonic()
        with self._lock:
            self._expire(now)
            active = self._active_jobs()
            return [
                {
                    "worker": worker.id,
                    "name": worker.name,
                    "capacity": worker.capacity,
                    "alive": worker.alive(now, self.heartbeat_ttl),
                    "registered_at": worker.registered_at,
                    "last_seen": worker.last_seen,
                    "heartbeat_age": max(0.0, now - worker.last_seen_mono),
                    "chunks_done": worker.chunks_done,
                    "leases": sum(
                        job.leases_held_by(worker.id) for job in active
                    ),
                    "metrics": worker.metrics,
                }
                for worker in sorted(
                    self._workers.values(), key=lambda w: w.registered_at
                )
            ]

    def stats(self) -> dict:
        """The ``/stats`` fleet section."""
        now = time.monotonic()
        with self._lock:
            self._expire(now)
            active = self._active_jobs()
            chunks = {"total": 0, PENDING: 0, LEASED: 0, COMPLETED: 0}
            for job in active:
                counts = job.chunk_counts()
                chunks["total"] += counts["total"]
                for state in (PENDING, LEASED, COMPLETED):
                    chunks[state] += counts[state]
            alive = sum(
                1
                for worker in self._workers.values()
                if worker.alive(now, self.heartbeat_ttl)
            )
            return {
                "workers": {"registered": len(self._workers), "alive": alive},
                "jobs": {"active": len(active), "total": len(self._jobs)},
                "chunks": chunks,
                "leases_granted": self.leases_granted,
                "requeued": self.requeued,
                "acks": self.acks,
                "duplicate_acks": self.duplicate_acks,
            }


def _log_via_logger(message: str) -> None:
    """Default worker log sink: the ``repro.serve.fleet`` logger.

    ``repro worker`` configures the handler (``--log-level`` /
    ``--log-json``); embedders that want raw lines still pass their own
    ``log=`` callable, and tests pass a silent one.
    """
    _LOG.info(message)


class FleetWorker:
    """The pull loop behind ``repro worker``.

    Register, then loop: lease a chunk, evaluate it locally (vectorized
    path, worker-local memo), stream the records back through
    ``/records``, ack.  Heartbeats run on a daemon thread; a lapsed
    server-side registration (restart, eviction) answers leases with
    404, which triggers one transparent re-registration.  Transient
    HTTP failures retry with bounded exponential backoff inside
    :class:`~repro.serve.client.ServeClient`.

    ``poll`` is the longest a lease request waits server-side for a
    chunk while a job is active (the server caps it at a third of its
    heartbeat TTL); the worker sleeps ``poll`` locally only when the
    server reports no active job.
    """

    def __init__(
        self,
        server: str,
        name: str | None = None,
        capacity: int = 1,
        poll: float = 0.5,
        timeout: float = 60.0,
        vectorize: bool = True,
        exit_when_drained: bool = False,
        max_chunks: int | None = None,
        throttle: float = 0.0,
        reconnect_grace: float = DEFAULT_RECONNECT_GRACE,
        log: Callable[[str], None] | None = None,
        client: ServeClient | None = None,
    ):
        self.client = client or ServeClient(
            server, timeout=timeout, retries=5, backoff=0.2
        )
        self.name = name
        self.capacity = capacity
        self.poll = poll
        self.vectorize = vectorize
        self.exit_when_drained = exit_when_drained
        self.max_chunks = max_chunks
        self.throttle = throttle
        self.reconnect_grace = reconnect_grace
        self.log = log or _log_via_logger
        self.worker_id: str | None = None
        self.chunks_done = 0
        self.heartbeat_seconds = DEFAULT_HEARTBEAT_TTL / 3.0
        self._stop = threading.Event()
        self._heartbeat_failed = False
        # A private registry (not the process-global one): heartbeats
        # must carry *this worker's* numbers, and an embedded in-process
        # worker must not double-count into the server's own series.
        self.metrics = MetricsRegistry()
        self._chunks_metric = self.metrics.counter(
            WORKER_CHUNKS_TOTAL,
            "Chunks this worker finished, by result.",
            labelnames=("result",),
        )
        self._points_metric = self.metrics.counter(
            WORKER_POINTS_TOTAL,
            "Design points this worker evaluated.",
        )
        self._eval_seconds = self.metrics.histogram(
            WORKER_EVAL_SECONDS,
            "Per-chunk local evaluation latency on this worker.",
        )
        self._upload_seconds = self.metrics.histogram(
            WORKER_UPLOAD_SECONDS,
            "Per-chunk record upload latency from this worker.",
        )

    def stop(self) -> None:
        self._stop.set()

    def register(self) -> str:
        info = self.client.register_worker(name=self.name, capacity=self.capacity)
        self.worker_id = info["worker"]
        self.heartbeat_seconds = float(
            info.get("heartbeat_seconds") or self.heartbeat_seconds
        )
        self.log(f"worker {self.worker_id}: registered with {self.client.base_url}")
        return self.worker_id

    def _heartbeat_loop(self) -> None:
        # Daemonic.  A ServeError is expected weather (server down or
        # restarting, registration lapsed) -- the main loop's next
        # lease is itself a heartbeat, or re-registers on 404.  An
        # *unexpected* exception must not kill the thread silently:
        # that leaves a worker that looks alive locally while the
        # server requeues all its leases.  Log, back off, retry; give
        # up -- and take the whole worker down with exit 1 -- only
        # after repeated consecutive failures.
        failures = 0
        while not self._stop.wait(
            self.heartbeat_seconds * min(2**failures, 8)
        ):
            try:
                self.client.worker_heartbeat(
                    self.worker_id, metrics=self.metrics.snapshot()
                )
                failures = 0
            except ServeError:
                failures = 0
            except Exception as error:  # noqa: BLE001 - thread boundary
                failures += 1
                self.log(
                    f"worker {self.worker_id}: heartbeat error "
                    f"({failures}/{HEARTBEAT_MAX_FAILURES}): {error}"
                )
                if failures >= HEARTBEAT_MAX_FAILURES:
                    self.log(
                        f"worker {self.worker_id}: heartbeat failing "
                        "persistently; stopping worker"
                    )
                    self._heartbeat_failed = True
                    self._stop.set()
                    return

    def _lease(self) -> dict:
        try:
            return self.client.lease_chunk(self.worker_id, wait=self.poll)
        except ServeError as error:
            if error.code == 404:  # the server forgot us: re-register
                self.register()
                return self.client.lease_chunk(self.worker_id, wait=self.poll)
            raise

    def _execute(self, lease: dict) -> None:
        if self.throttle > 0:
            # Testing/chaos aid: hold the lease for a while before
            # evaluating, so fault injection has a window to hit.
            time.sleep(self.throttle)
        spec = SweepSpec.from_dict(lease["spec"])
        error: str | None = None
        timings: dict[str, float] = {}
        eval_started = time.monotonic()
        try:
            result = run_sweep(spec, vectorize=self.vectorize)
        except Exception as failure:  # noqa: BLE001 - chunk boundary
            error = str(failure)
        timings["worker-eval"] = time.monotonic() - eval_started
        self._eval_seconds.observe(timings["worker-eval"])
        if error is None:
            # The client chunks oversized uploads into bounded ingest
            # batches itself (INGEST_CHUNK_RECORDS per request).
            upload_started = time.monotonic()
            self.client.post_records(
                result.records, batch_size=INGEST_CHUNK_RECORDS
            )
            timings["upload"] = time.monotonic() - upload_started
            self._upload_seconds.observe(timings["upload"])
        try:
            self.client.ack_chunk(
                self.worker_id, lease["job"], lease["chunk"], error=error,
                timings=timings,
            )
        except ServeError as failure:
            if failure.code != 404:
                raise
            # A restarted server forgot this registration; the chunk we
            # just finished was requeued as pending.  Re-register and
            # re-ack: completing a pending chunk is the same absorbed
            # straggler path a TTL expiry produces.  A second 404 means
            # the *job* is gone (finished elsewhere and evicted); the
            # records already landed via /records, so drop the ack.
            self.register()
            try:
                self.client.ack_chunk(
                    self.worker_id, lease["job"], lease["chunk"], error=error,
                    timings=timings,
                )
            except ServeError as second:
                if second.code != 404:
                    raise
                self.log(
                    f"worker {self.worker_id}: job {lease['job']} gone; "
                    f"dropping ack for chunk {lease['chunk']}"
                )
        if error is None:
            self.chunks_done += 1
            self._chunks_metric.inc(result="ok")
            self._points_metric.inc(len(spec))
            self.log(
                f"worker {self.worker_id}: chunk {lease['chunk']} of job "
                f"{lease['job']} done ({len(spec)} points)"
            )
        else:
            self._chunks_metric.inc(result="failed")
            self.log(
                f"worker {self.worker_id}: chunk {lease['chunk']} of job "
                f"{lease['job']} failed: {error}"
            )

    def run(self) -> int:
        """The worker loop; returns a process exit code."""
        try:
            self.register()
        except ServeError as error:
            self.log(f"worker: cannot register: {error}")
            return 1
        heartbeat = threading.Thread(
            target=self._heartbeat_loop, name="fleet-heartbeat", daemon=True
        )
        heartbeat.start()
        outage_started: float | None = None
        try:
            while not self._stop.is_set():
                if self.max_chunks is not None and self.chunks_done >= self.max_chunks:
                    return 0
                try:
                    response = self._lease()
                    lease = response.get("lease")
                    if lease is not None:
                        self._execute(lease)
                except ServeError as error:
                    # A transient failure past the client's own bounded
                    # retries usually means the server is restarting.
                    # Keep polling for a grace period instead of dying:
                    # an unacked chunk requeues by lease TTL, so waiting
                    # is always safe.
                    if not error.transient or self.reconnect_grace <= 0:
                        raise
                    now = time.monotonic()
                    if outage_started is None:
                        outage_started = now
                        self.log(
                            f"worker {self.worker_id}: server unreachable "
                            f"({error}); retrying for up to "
                            f"{self.reconnect_grace:.0f}s"
                        )
                    if now - outage_started > self.reconnect_grace:
                        raise
                    self._stop.wait(max(self.poll, 0.1))
                    continue
                outage_started = None
                # With a job active the server already parked the lease
                # for up to ``poll``; lease again straight away.
                if lease is None and not response.get("active_jobs"):
                    if self.exit_when_drained:
                        self.log(
                            f"worker {self.worker_id}: drained after "
                            f"{self.chunks_done} chunks"
                        )
                        return 0
                    self._stop.wait(self.poll)
            return 1 if self._heartbeat_failed else 0
        except ServeError as error:
            self.log(f"worker {self.worker_id}: giving up: {error}")
            return 1
        finally:
            self._stop.set()
            # Farewell heartbeat: a worker that drains inside one
            # heartbeat period would otherwise exit with its throughput
            # snapshot never shipped.  Best effort -- the server may be
            # the reason we are exiting.
            try:
                self.client.worker_heartbeat(
                    self.worker_id, metrics=self.metrics.snapshot()
                )
            except ServeError:
                pass
