"""The sweep service: a stdlib-only HTTP server over the DSE engine.

One long-lived process owns a result store and the warm in-process
memo (bounded by ``record_cache`` records); many clients submit sweeps,
stream records, and run server-side reductions against the shared store
instead of each re-evaluating (or re-loading) the design space.  The
protocol is deliberately plain -- JSON requests, JSON or NDJSON
responses, ``http.server`` underneath -- so any HTTP client works;
:class:`repro.serve.client.ServeClient` is the thin reference client.

Sweeps run through an async job queue (:mod:`repro.serve.jobs`):
``POST /sweep`` validates the spec and returns a job id immediately,
a bounded worker pool runs jobs concurrently (FIFO within priority
levels), and clients poll ``GET /jobs/{id}``, stream
``GET /jobs/{id}/records``, or ``POST /jobs/{id}/cancel``.  A slow
sweep no longer head-of-line blocks anyone.

Endpoints
---------
``GET /healthz``
    Liveness: status, ``EVAL_VERSION``, sweeps served so far.
``GET /readyz``
    Readiness: 200 once recovery replay finished and the server is
    accepting work; 503 while starting, draining, or closed.
``GET /metrics``
    The process metrics registry in Prometheus text exposition format
    (requests, jobs, fleet, memo, journal, evaluator series).
``GET /stats``
    Store metadata (backend, records, bytes) + memo size, capacity and
    evictions + job counts + aggregated job phase timings.
``GET /records``
    ``?after=HASH&limit=N``: one keyset page of current-version
    records in hash order, ending with ``{"count": n, "next": cursor}``
    (both parameters optional: no ``after`` starts at the smallest
    hash, no ``limit`` means :data:`DEFAULT_PAGE_LIMIT`).  The server
    holds one page, never the store, so million-record dumps stream in
    bounded memory (``ServeClient.records()`` follows pages
    transparently).  Each line is the store's own JSON text for the
    record, written in blocks of :data:`BLOCK_RECORDS` lines without
    being decoded or re-encoded.
``POST /sweep``
    Body ``{"spec": {...}, "vectorize"?: bool, "priority"?: n,
    "fleet"?: true | {"chunks": n}}``, ``spec`` in the JSON sweep-spec
    format (grid or explicit points); a ``"workers"`` field answers 400.
    Validates, enqueues, and immediately returns the job's status
    object (its ``job`` field is the id).  With ``fleet`` the job goes
    to the pull-based lease queue (:mod:`repro.serve.fleet`) instead
    of the server's own pool: registered workers lease its hash-range
    chunks, evaluate them, ingest the records, and ack.
``GET /jobs`` / ``GET /jobs/{id}``
    The job table / one job's status, progress counts, and
    Pareto-frontier-so-far over its completed records.
``GET /jobs/{id}/records``
    NDJSON stream of the job's completed records in completion order,
    live until the job is terminal; ``?after=N`` skips the first N
    records so a dropped client resumes exactly where it left off.
    Ends with one terminal line: ``{"summary": ...}`` (done),
    ``{"error": ...}`` (failed), or ``{"cancelled": true, ...}``.
``POST /jobs/{id}/cancel``
    Cooperative cancellation: queued jobs die immediately, running
    jobs stop at the next pass boundary (nothing half-appended).
``POST /query/pareto`` / ``POST /query/top-k`` /
``POST /query/accuracy-frontier``
    Server-side reductions over the stored records via
    :func:`~repro.dse.queries.run_query`; the body carries the query's
    parameters plus an optional ``where`` equality filter.  Parameters
    are checked before the store is read (a bad one answers 400
    without reading it); the query is then one pass over the
    current-version records in hash order that holds only its answer,
    so the store is queried in O(answer) memory.
``POST /records``
    Ingest a JSON list of records (e.g. a fleet worker streaming a
    chunk's results back); tracked as an ingest job.
``POST /workers/register`` / ``GET /workers``
    Join the worker fleet (body ``{"name"?: str, "capacity"?: n}``;
    returns the worker id and heartbeat cadence) / list every
    registered worker with liveness and lease counts.
``POST /workers/{id}/heartbeat`` / ``POST /workers/{id}/lease`` /
``POST /workers/{id}/ack``
    The fleet pull loop: prove liveness; lease the next pending chunk
    (``{"lease": {...}}`` with the chunk's spec, or ``{"idle": true,
    "active_jobs": n}``); report a chunk done or failed (body
    ``{"job": id, "chunk": n, "error"?: str}``).  A lease body
    ``{"wait": seconds}`` parks the request while jobs are active but
    nothing is grantable, until a chunk frees up or the jobs end, for
    at most ``wait`` seconds (capped at a third of the heartbeat TTL;
    an empty body or a negative wait means no wait, a non-numeric one
    answers 400).  Unknown worker ids answer 404 -- the cue to
    re-register after a server restart.
``POST /shutdown``
    Stop serving after the response -- the clean-exit path.
    ``?drain=true`` drains instead: admission stops (new submissions
    503), running jobs get up to ``--drain-timeout`` seconds to
    finish, then the server exits 0.

Crash safety: with a journal (``--journal``, on by default next to the
store), every job/lease transition is durable and a restarted server
replays it -- queued jobs re-enqueue in order, running jobs resume via
the records they already appended to the store and the store warm
path, fleet lease tables rebuild with in-flight chunks requeued (see
:mod:`repro.serve.journal`).  ``--max-queue-depth`` sheds load with
429 + ``Retry-After``; ``--job-retention``/``--job-ttl`` bound the job
table on long-lived servers.

The served store is SQLite or nothing (:func:`open_served_store`).
Every sweep job streams its records straight into it, concurrent jobs
and ingests commit through SQLite's conditional upsert, and every read
-- pages, queries, ``/stats`` -- is a fresh indexed read that sees each
write at once.  A JSONL store is refused with the ``repro dse-merge``
command that converts it.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import signal
import threading
import time
from contextlib import closing
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Iterator, Mapping
from urllib.parse import parse_qs, urlsplit

from ..dse.engine import iter_sweep
from ..dse.evaluate import _MEMO, DEFAULT_RECORD_CACHE, EVAL_VERSION
from ..dse.queries import pareto_frontier, prepare_query
from ..dse.spec import SweepSpec
from ..dse.sqlite_store import SQLiteStore
from ..dse.store import ResultStoreBase, open_served_store
from ..obs.logs import get_logger
from ..obs.metrics import get_registry
from ..obs.trace import Trace
from .defaults import (
    DEFAULT_DRAIN_TIMEOUT,
    DEFAULT_HEARTBEAT_TTL,
    DEFAULT_JOB_RETENTION,
    DEFAULT_LEASE_TTL,
)
from .fleet import DEFAULT_FLEET_CHUNKS, Fleet, FleetJob
from .jobs import (
    CANCELLED,
    DEFAULT_PRIORITY,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    IngestJob,
    Job,
    JobManager,
)
from .journal import JobJournal, default_journal_path
from .serializers import dumps, records_payload, summary_payload

__all__ = [
    "SweepService",
    "SweepServer",
    "serve",
    "DrainingError",
    "QueueFullError",
    "open_served_store",
]

#: Reject request bodies past this size (a million-point explicit spec
#: is ~300 MB of JSON; nobody submits that in one request by accident).
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Default socket timeout for handler connections; override per server
#: with ``repro serve --client-timeout``.
DEFAULT_CLIENT_TIMEOUT = 600.0

#: The ``Retry-After`` a 429 queue-full rejection advertises.  Queue
#: depth turns over at job, not request, cadence; one second is a
#: polite first retry for both humans and ServeClient's backoff.
DEFAULT_RETRY_AFTER = 1.0

#: Default ``limit`` for ``GET /records?after=``: big enough that a
#: full dump of a small store is one page, small enough that a page
#: never strains server or client memory.
DEFAULT_PAGE_LIMIT = 5_000

#: Records per NDJSON write on ``/records`` pages and job record
#: streams (~100 KB of DSE records): one socket write and flush per
#: block instead of per record, while a block stays small next to a
#: page.
BLOCK_RECORDS = 128

_JOB_PATH = re.compile(r"^/jobs/([0-9a-f]+)(/records|/cancel)?$")
_WORKER_PATH = re.compile(r"^/workers/([0-9a-f]+)/(heartbeat|lease|ack)$")

_LOG = get_logger(__name__)

_METRICS = get_registry()
_HTTP_REQUESTS = _METRICS.counter(
    "repro_http_requests_total",
    "HTTP requests served, by endpoint template, method, and status.",
    labelnames=("endpoint", "method", "status"),
)
_HTTP_SECONDS = _METRICS.histogram(
    "repro_http_request_seconds",
    "HTTP request handling latency, by endpoint template and method.",
    labelnames=("endpoint", "method"),
)

#: Fixed paths the endpoint label passes through verbatim.  Everything
#: else normalizes to a template (``/jobs/{id}``) or ``other`` so label
#: cardinality stays bounded no matter what clients request.
_STATIC_ENDPOINTS = frozenset(
    {
        "/",
        "/healthz",
        "/readyz",
        "/stats",
        "/metrics",
        "/records",
        "/jobs",
        "/workers",
        "/sweep",
        "/shutdown",
        "/workers/register",
    }
)


def _endpoint_label(path: str) -> str:
    """Collapse a request path to its endpoint template."""
    if path in _STATIC_ENDPOINTS:
        return path
    if match := _JOB_PATH.match(path):
        return "/jobs/{id}" + (match.group(2) or "")
    if match := _WORKER_PATH.match(path):
        return "/workers/{id}/" + match.group(2)
    if path.startswith("/query/"):
        return "/query/{name}"
    return "other"


def _chunks(items, size: int) -> Iterator[list]:
    """Consecutive lists of up to ``size`` items."""
    iterator = iter(items)
    while chunk := list(itertools.islice(iterator, size)):
        yield chunk


def _ndjson_block(texts) -> bytes:
    """JSON texts as one NDJSON byte block, one line per text."""
    return ("\n".join(texts) + "\n").encode()


class DrainingError(RuntimeError):
    """The server is draining: no new submissions, 503 the client."""


class QueueFullError(RuntimeError):
    """Admission control rejected a submission: 429 + ``Retry-After``.

    A rejection leaves no server-side state behind, which is what lets
    :class:`~repro.serve.client.ServeClient` retry it on *any* request,
    idempotent or not.
    """

    def __init__(self, message: str, retry_after: float = DEFAULT_RETRY_AFTER):
        super().__init__(message)
        self.retry_after = retry_after


class SweepService:
    """The service state: one store, one memo, one job queue.

    Handlers delegate here; the class is HTTP-free so tests (and other
    frontends) can drive it directly.  Sweeps are jobs on a bounded
    worker pool -- ``job_workers`` of them run concurrently while every
    read endpoint stays lock-free under the threading server.
    """

    def __init__(
        self,
        store: SQLiteStore | str | os.PathLike | None = None,
        vectorize: bool = True,
        job_workers: int = 2,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        heartbeat_ttl: float = DEFAULT_HEARTBEAT_TTL,
        journal: JobJournal | str | os.PathLike | None = None,
        max_queue_depth: int | None = None,
        job_retention: int | None = None,
        job_ttl: float | None = None,
        record_cache: int = DEFAULT_RECORD_CACHE,
    ):
        # Opened before the journal: a refused store leaves no file.
        self.store = open_served_store(store) if store is not None else None
        # The process-wide record memo is the only record cache; the
        # service sizes it (0 keeps no records).
        _MEMO.resize(record_cache)
        self.vectorize = vectorize
        self.sweeps_served = 0
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError("max queue depth must be >= 1")
        self.max_queue_depth = max_queue_depth
        self.job_retention = job_retention
        self.job_ttl = job_ttl
        self.jobs = JobManager(self._run_sweep_job, pool_size=job_workers)
        self.fleet = Fleet(lease_ttl=lease_ttl, heartbeat_ttl=heartbeat_ttl)
        # Serializes ingests: an append checks the store for newer
        # versions before it writes, and two interleaved check-then-
        # write batches could both pass.  Sweep jobs never take it:
        # they stream upserts, one transaction per pass, straight into
        # the shared store.
        self._store_lock = threading.Lock()
        self._draining = False
        self._closed = False
        self._ready = False  # flips true once recovery replay finishes
        self.rejected_jobs = 0
        self.evicted_jobs = 0
        self.recovery_info: dict | None = None
        if journal is None:
            self.journal: JobJournal | None = None
        elif isinstance(journal, JobJournal):
            self.journal = journal
        else:
            self.journal = JobJournal(journal)
        if self.journal is not None:
            self.recovery_info = self._recover()
        self._ready = True
        # Keyed registration: a test suite constructing many services
        # replaces the previous one's collector instead of leaking a
        # closure over every dead service.
        _METRICS.add_collector(self._collect_metrics, key="service")

    def health(self) -> dict:
        return {
            "status": "ok",
            "eval_version": EVAL_VERSION,
            "sweeps_served": self.sweeps_served,
        }

    def readiness(self) -> dict:
        """The ``GET /readyz`` body: can this server accept work *now*?

        Distinct from liveness (``/healthz``): a server mid-recovery or
        draining is alive but not ready, and load balancers or scripts
        waiting to submit should hold off (503) until it is.
        """
        if not self._ready:
            reason = "starting: journal recovery in progress"
        elif self._closed:
            reason = "closed"
        elif self._draining:
            reason = "draining"
        else:
            reason = None
        return {
            "ready": reason is None,
            **({"reason": reason} if reason else {}),
        }

    def _collect_metrics(self, registry) -> None:
        """The scrape-time collector: state cheaper to read than track.

        Runs under the registry's ``key="service"`` slot on every
        render/snapshot; gauges overwrite, so stale values never
        accumulate.  Liveness expiry runs as a side effect of
        ``fleet.stats()`` -- the same lazy sweep every fleet entry
        point performs.
        """
        jobs = registry.gauge(
            "repro_jobs", "Jobs in the table, by state.", labelnames=("state",)
        )
        for state, count in self.jobs.counts().items():
            if state != "total":
                jobs.set(count, state=state)
        fleet_stats = self.fleet.stats()
        workers = registry.gauge(
            "repro_fleet_workers",
            "Fleet workers, registered and heartbeat-alive.",
            labelnames=("state",),
        )
        workers.set(fleet_stats["workers"]["registered"], state="registered")
        workers.set(fleet_stats["workers"]["alive"], state="alive")
        chunks = registry.gauge(
            "repro_fleet_chunks",
            "Chunks of active fleet jobs, by lease state.",
            labelnames=("state",),
        )
        for state, count in fleet_stats["chunks"].items():
            if state != "total":
                chunks.set(count, state=state)
        registry.gauge(
            "repro_draining", "1 while the server is draining, else 0."
        ).set(1 if self._draining else 0)

    # -- crash recovery -------------------------------------------------
    def _recover(self) -> dict:
        """Replay the journal: rebuild the job table a dead server lost.

        Runs once, from ``__init__``, before the server accepts a
        single request.  Queued jobs re-enqueue in their original
        priority-FIFO order (the journal's ``seq`` is submission order
        and rows come back pre-sorted); running jobs re-enqueue too --
        the records they appended before the crash are in the store, so
        the warm path resolves them and recovered work is never
        recomputed; fleet jobs rebuild their lease tables with
        previously-leased chunks requeued.
        """
        journal = self.journal
        marker = journal.consume_clean_shutdown()
        rows = journal.jobs()
        info = {
            "prior_shutdown": (
                marker.get("mode") if marker else ("crash" if rows else None)
            ),
            "recovered_queued": 0,
            "recovered_running": 0,
            "recovered_fleet": 0,
            "recovered_terminal": 0,
            "requeued_chunks": 0,
            "cancelled_on_recovery": 0,
        }
        for row in rows:  # already in (priority, seq) replay order
            if row["kind"] == "fleet":
                self._recover_fleet_job(row, info)
            else:
                self._recover_pool_job(row, info)
        journal.set_recovery_info(info)
        return info

    def _recover_pool_job(self, row: dict, info: dict) -> None:
        if not row["spec"]:
            return  # nothing actionable without a spec
        source = json.loads(row["spec"])
        job = Job(
            spec=SweepSpec.from_dict(source),
            vectorize=bool(
                self.vectorize if row["vectorize"] is None else row["vectorize"]
            ),
            priority=int(row["priority"]),
            job_id=row["id"],
        )
        job.submitted_at = row["submitted_at"] or job.submitted_at
        job.started_at = row["started_at"]
        if row["state"] in TERMINAL_STATES:
            # Kept for visibility (status polls still answer), subject
            # to the retention policy like any other terminal job.  Its
            # records live in the store; the in-memory record list died
            # with the old process.
            job.state = row["state"]
            job.error = row["error"]
            job.finished_at = row["finished_at"]
            job.journal = self.journal
            self.jobs.register(job)
            info["recovered_terminal"] += 1
            return
        job.journal = self.journal
        if row["cancel_requested"]:
            # The cancel outran the crash; honor it instead of rerunning.
            self.jobs.register(job)
            job.cancel()
            info["cancelled_on_recovery"] += 1
            return
        was_running = row["state"] == RUNNING
        job.started_at = None  # it will start again, on this server
        # Normalize the row back to queued, keeping its spec as sent.
        self.journal.record_submit(job, spec=source)
        self.jobs.submit(job)
        info["recovered_running" if was_running else "recovered_queued"] += 1

    def _recover_fleet_job(self, row: dict, info: dict) -> None:
        source = json.loads(row["spec"])
        job = FleetJob(
            spec=SweepSpec.from_dict(source),
            chunks=int(row["chunks"] or DEFAULT_FLEET_CHUNKS),
            priority=int(row["priority"]),
            job_id=row["id"],
        )
        job.submitted_at = row["submitted_at"] or job.submitted_at
        if row["state"] in TERMINAL_STATES:
            job.state = row["state"]
            job.error = row["error"]
            job.started_at = row["started_at"]
            job.finished_at = row["finished_at"]
            job.journal = self.journal
            self.jobs.register(job)
            info["recovered_terminal"] += 1
            return
        job.journal = self.journal
        outcome = job.restore_chunks(self.journal.leases(job.id))
        info["requeued_chunks"] += outcome["requeued"]
        self.jobs.register(job)
        if row["cancel_requested"]:
            job.cancel()
            info["cancelled_on_recovery"] += 1
            return
        if not job.done:
            # restore_chunks finishes a fully-acked job itself; anything
            # else goes back on the lease queue for workers to drain.
            job.mark_running()
            job.started_at = row["started_at"] or job.started_at
            self.fleet.add_job(job)
        # Re-snapshot the lease table, keeping the spec as sent.
        self.journal.record_submit(job, spec=source)
        info["recovered_fleet"] += 1

    def stats(self) -> dict:
        self._evict_terminal()  # /stats is polled: the TTL clock tick
        # Uncached: the store's record count is one SELECT COUNT(*),
        # so every poll sees every write.
        store_stats = None if self.store is None else self.store.stats()
        journal_stats = None
        if self.journal is not None:
            journal_stats = {
                "path": str(self.journal.path),
                "recovery": self.recovery_info,
            }
        return {
            "eval_version": EVAL_VERSION,
            "sweeps_served": self.sweeps_served,
            "phases": self._job_phase_summary(),
            "memo_records": len(_MEMO),
            "record_cache": {
                "capacity": _MEMO.capacity,
                "evictions": _MEMO.evictions,
            },
            "store": store_stats,
            "jobs": self.jobs.counts(),
            "fleet": self.fleet.stats(),
            "journal": journal_stats,
            "admission": {
                "draining": self._draining,
                "max_queue_depth": self.max_queue_depth,
                "rejected": self.rejected_jobs,
                "evicted": self.evicted_jobs,
            },
        }

    def _job_phase_summary(self) -> dict:
        """Aggregate job phase timings for ``/stats``: kind -> phase.

        The per-job breakdown lives on ``GET /jobs/{id}`` (``timings``);
        this is the fleet-wide roll-up of the same trace phases, read
        back out of the registry so one instrument feeds both surfaces.
        """
        histograms = _METRICS.snapshot().get("histograms", {})
        summary: dict = {}
        for sample in histograms.get("repro_job_phase_seconds", []):
            labels = sample.get("labels", {})
            by_kind = summary.setdefault(labels.get("kind", "?"), {})
            by_kind[labels.get("phase", "?")] = {
                "seconds": sample.get("sum", 0.0),
                "count": sample.get("count", 0),
            }
        return summary

    def record_page_stream(
        self, after: str | None = None, limit: int | None = None
    ) -> Iterator[bytes | dict]:
        """One keyset page of current-version records as NDJSON blocks.

        Yields the page's lines in hash order as ``bytes`` blocks of at
        most :data:`BLOCK_RECORDS` records, then a terminal ``{"count":
        n, "next": cursor}`` object; ``next`` is the cursor for the
        following page, or ``None`` when this page already reached the
        end of the store.  Store pages come off SQLite's keyset index
        as its stored JSON text (``iter_page_json``, never decoded),
        which is byte-for-byte the wire line; a storeless page sends
        its memo entries' text.  Pages
        are never cached, and the server never holds more than one.
        """
        limit = DEFAULT_PAGE_LIMIT if limit is None else limit
        if limit < 1:
            raise ValueError("limit must be >= 1")
        if self.store is None:
            memo = sorted(
                (
                    entry
                    for entry in _MEMO.values()
                    if (after is None or entry.hash > after)
                    and entry.record.get("version") == EVAL_VERSION
                ),
                key=lambda entry: entry.hash,
            )[:limit]
            lines = ((entry.hash, entry.text) for entry in memo)
        else:
            lines = self.store.iter_page_json(
                after=after, limit=limit, version=EVAL_VERSION
            )
        count, last = 0, None
        for block in _chunks(lines, BLOCK_RECORDS):
            count += len(block)
            last = block[-1][0]
            yield _ndjson_block(text for _, text in block)
        # A short page proves the dump is complete; a full one needs
        # one more (possibly empty) request to prove it.
        yield {"count": count, "next": last if count == limit else None}

    def query(self, name: str, params: Mapping | None = None) -> list[dict]:
        """Run one named reduction over every current-version record.

        The parameters are checked before anything is read.  A store is
        then read afresh, so the answer sees every write (a job, an
        ingest, an external process), in one pass in hash order
        (``iter_page`` streams it off the primary key), holding only
        the answer.
        A storeless service answers from the in-process memo: what it
        evaluated and still holds.
        """
        reduce = prepare_query(name, params)
        if self.store is None:
            return reduce(
                entry.record
                for entry in _MEMO.values()
                if entry.record.get("version") == EVAL_VERSION
            )
        with closing(self.store.iter_page(version=EVAL_VERSION)) as records:
            return reduce(records)

    def ingest(self, records: list) -> dict:
        """Append posted records to the store (shard-merge upload path).

        Runs inline -- an upload is a quick append that must not queue
        behind long sweeps -- but is tracked as an ingest job so
        ``/jobs`` and the ``/stats`` counters see every write path.
        """
        trace = Trace("validate")
        if self.store is None:
            raise ValueError("server has no store to ingest records into")
        if not isinstance(records, list) or not all(
            isinstance(r, dict) and r.get("hash") for r in records
        ):
            raise ValueError(
                'ingest wants a JSON list of record objects with "hash" keys'
            )
        job = self.jobs.register(IngestJob(offered=len(records), trace=trace))
        job.mark_running()
        try:
            with self._store_lock:
                appended = self.store.append(records)
        except Exception as error:
            job.finish(FAILED, error=str(error))
            raise
        job.appended = appended
        job.finish(DONE)
        # Only report what this request did; GET /stats has the totals.
        return {"appended": appended, "job": job.id}

    # -- the job queue --------------------------------------------------
    def submit(self, payload: Mapping) -> Job:
        """Validate a sweep request and enqueue it as a job.

        The spec parses *before* the job exists, so malformed
        submissions fail as client errors and never occupy the queue.
        Returns the queued :class:`Job` immediately -- the worker pool
        runs it; poll or stream it by id.

        A ``"fleet"`` field (``true`` or ``{"chunks": n}``) routes the
        sweep to the pull-based lease queue instead: the job is
        chunked, marked running immediately, and driven entirely by
        registered workers leasing, evaluating, ingesting, and acking
        its chunks.  Fleet records land in the shared store, so a
        fleet job requires one.
        """
        if self._draining:
            raise DrainingError(
                "server is draining: not accepting new submissions"
            )
        if not isinstance(payload, Mapping):
            raise ValueError('sweep wants a JSON object body: {"spec": ...}')
        # The trace opens before parsing: validation time is the first
        # phase of every accepted job (rejected specs never make a job,
        # so their trace dies here with the exception).
        trace = Trace("validate")
        source = payload.get("spec") or {}
        spec = SweepSpec.from_dict(source)
        if "workers" in payload:
            raise ValueError(
                '"workers" is not a sweep option; use "fleet" for more processes'
            )
        vectorize = payload.get("vectorize")
        if vectorize is None:
            vectorize = self.vectorize
        priority = payload.get("priority")
        priority = DEFAULT_PRIORITY if priority is None else int(priority)
        self._evict_terminal()
        fleet = payload.get("fleet")
        if fleet:
            job = self._submit_fleet(spec, fleet, priority, trace, source)
        else:
            # Fleet jobs are exempt from the queue-depth bound: they
            # never occupy the pool queue (workers pull their chunks).
            if self.max_queue_depth is not None:
                queued = sum(
                    1 for j in self.jobs.jobs() if j.state == QUEUED
                )
                if queued >= self.max_queue_depth:
                    self.rejected_jobs += 1
                    raise QueueFullError(
                        f"job queue is full ({queued} queued, bound "
                        f"{self.max_queue_depth}); retry later"
                    )
            job = Job(
                spec=spec,
                vectorize=bool(vectorize),
                priority=priority,
                trace=trace,
            )
            # Journal before the id is visible: a submission the client
            # heard about always survives a crash.  A journal write
            # failure here fails the submission (503), not the journal.
            # The spec is journaled as sent (a grid stays a grid), not
            # re-serialized point by point.
            if self.journal is not None:
                job.journal = self.journal
                self.journal.record_submit(job, spec=source)
            self.jobs.submit(job)
        self.sweeps_served += 1
        _LOG.info(
            "accepted %s job %s (%d points, priority %d)",
            job.kind, job.id, len(spec), priority,
            extra={"job": job.id, "trace": job.trace.trace_id},
        )
        return job

    def _submit_fleet(
        self,
        spec: SweepSpec,
        fleet,
        priority: int,
        trace: Trace | None = None,
        source: Mapping | None = None,
    ) -> Job:
        """Register a fleet job on the lease queue (workers drive it)."""
        if self.store is None:
            raise ValueError(
                "fleet sweeps need a store: workers stream records back "
                "through /records ingest"
            )
        if len(spec) == 0:
            raise ValueError("empty sweep")
        chunks = None
        if isinstance(fleet, Mapping):
            chunks = fleet.get("chunks")
        elif fleet is not True:
            raise ValueError('"fleet" must be true or {"chunks": n}')
        if chunks is None:
            chunks = max(1, min(len(spec), DEFAULT_FLEET_CHUNKS))
        chunks = int(chunks)
        if chunks < 1:
            raise ValueError("fleet chunks must be >= 1")
        job = FleetJob(spec=spec, chunks=chunks, priority=priority, trace=trace)
        if self.journal is not None:
            job.journal = self.journal
            self.journal.record_submit(job, spec=source)
        # Registered, not pool-submitted: the job occupies no worker
        # thread and is "running" from the moment it is leasable.
        self.jobs.register(job)
        job.mark_running()
        self.fleet.add_job(job)
        return job

    # -- the worker fleet ----------------------------------------------
    def worker_register(self, payload) -> dict:
        if not isinstance(payload, Mapping):
            raise ValueError(
                'register wants a JSON object body: {"name"?, "capacity"?}'
            )
        return self.fleet.register(
            name=payload.get("name"), capacity=payload.get("capacity", 1)
        )

    def worker_lease(self, worker_id: str, payload) -> dict:
        """Lease a chunk, parking up to the body's ``wait`` seconds."""
        if not isinstance(payload, Mapping):
            raise ValueError('lease wants a JSON object body: {"wait"?: seconds}')
        wait = payload.get("wait")
        if wait is None:
            wait = 0.0
        elif isinstance(wait, bool) or not isinstance(wait, (int, float)):
            raise ValueError(f"lease wait must be a number of seconds, not {wait!r}")
        return self.fleet.lease(worker_id, wait=wait)

    def worker_ack(self, worker_id: str, payload) -> dict:
        if not isinstance(payload, Mapping) or not {"job", "chunk"} <= set(
            payload
        ):
            raise ValueError('ack wants {"job": id, "chunk": index}')
        error = payload.get("error")
        timings = payload.get("timings")
        outcome = self.fleet.ack(
            worker_id,
            str(payload["job"]),
            int(payload["chunk"]),
            error=None if error is None else str(error),
            timings=timings if isinstance(timings, Mapping) else None,
        )
        return outcome

    def job(self, job_id: str) -> Job | None:
        return self.jobs.get(job_id)

    def job_status(self, job: Job) -> dict:
        """One job's status body, including its frontier-so-far."""
        status = job.status()
        if job.kind == "sweep":
            status["frontier"] = pareto_frontier(job.snapshot_records())
        return status

    def cancel(self, job: Job) -> dict:
        """Request cancellation; reports the state the request found."""
        state = job.cancel()
        return {"job": job.id, "state": state, "cancel_requested": True}

    def _run_sweep_job(self, job: Job) -> None:
        """Execute one sweep job on a pool worker thread.

        The job streams its records straight into the shared store:
        SQLite's conditional upsert makes concurrent appenders safe.
        Completed records are kept whatever stops the job, the way an
        interrupted local run keeps its partials.
        """
        try:
            for sweep_record in iter_sweep(
                job.spec,
                store=self.store,
                vectorize=job.vectorize,
                should_cancel=job.cancel_requested,
            ):
                job.append(sweep_record.entry, sweep_record.source)
        except Exception as failure:  # noqa: BLE001 - job boundary
            job.finish(FAILED, error=str(failure))
        else:
            job.finish(CANCELLED if job.cancel_requested() else DONE)

    def job_summary(self, job: Job) -> dict:
        """The tier summary of a job's (possibly partial) record set.

        Tier counts default to 0 for job kinds that do not track them
        (fleet jobs resolve tiers worker-side; their records live in
        the store, not on the job).
        """
        progress = job.progress()
        return summary_payload(
            points=progress.get("points", 0),
            evaluated=progress.get("evaluated", 0),
            store_hits=progress.get("store_hits", 0),
            memo_hits=progress.get("memo_hits", 0),
        )

    def job_record_stream(
        self, job: Job, after: int = 0
    ) -> Iterator[bytes | dict | None]:
        """The ``GET /jobs/{id}/records`` NDJSON stream.

        Records from index ``after`` in completion order (live while
        the job runs; ``None`` keepalive ticks let the transport probe
        the socket), then exactly one terminal line so a client can
        tell completion from a torn connection.  Each batch of records
        the job has gathered goes out as NDJSON ``bytes`` blocks of at
        most :data:`BLOCK_RECORDS` records, joined from the entries'
        canonical text: a record read from SQLite or encoded once on
        its way into the store is never encoded again here.
        """
        if after < 0:
            raise ValueError("after must be >= 0")
        for batch in job.stream(after=after):
            if batch is None:
                yield None
                continue
            for block in _chunks(batch, BLOCK_RECORDS):
                yield _ndjson_block(entry.text for entry in block)
        if job.state == DONE:
            yield {"summary": self.job_summary(job)}
        elif job.state == FAILED:
            yield {"error": job.error or "job failed"}
        else:
            yield {"cancelled": True, "summary": self.job_summary(job)}

    # -- retention ------------------------------------------------------
    def _evict_terminal(self) -> int:
        """Apply the retention policy: drop old terminal jobs everywhere.

        Two independent bounds -- keep at most ``job_retention``
        terminal jobs (oldest-finished evicted first) and none finished
        more than ``job_ttl`` seconds ago -- applied to memory, the
        fleet's job map, and the journal together, so a week-long
        server's job table (and its journal file) stays bounded.
        """
        if self.job_retention is None and self.job_ttl is None:
            return 0
        now = time.time()
        terminal = sorted(
            (job for job in self.jobs.jobs() if job.done),
            key=lambda job: job.finished_at or now,
        )
        victims: list[str] = []
        if self.job_ttl is not None:
            cutoff = now - self.job_ttl
            victims.extend(
                job.id for job in terminal if (job.finished_at or now) < cutoff
            )
        if self.job_retention is not None:
            excess = len(terminal) - self.job_retention
            if excess > 0:
                victims.extend(job.id for job in terminal[:excess])
        if not victims:
            return 0
        ids = list(dict.fromkeys(victims))
        removed = self.jobs.remove(ids)
        self.fleet.remove_jobs(ids)
        if self.journal is not None:
            self.journal.evict(ids)
        self.evicted_jobs += removed
        return removed

    # -- shutdown -------------------------------------------------------
    def drain(self, timeout: float = DEFAULT_DRAIN_TIMEOUT) -> dict:
        """Graceful shutdown: stop admission, let running jobs finish.

        New submissions 503 the moment draining starts; jobs already
        accepted get up to ``timeout`` seconds to reach a terminal
        state (fleet jobs included -- workers keep leasing, ingesting,
        and acking throughout).  Stragglers past the deadline are
        cancelled by :meth:`close`, whose journal suspension keeps
        their resumable states on disk for the next server.
        """
        self._draining = True
        deadline = time.monotonic() + max(0.0, timeout)
        live = [job for job in self.jobs.jobs() if not job.done]
        for job in live:
            job.wait(timeout=max(0.0, deadline - time.monotonic()))
        finished = sum(1 for job in live if job.done)
        _LOG.info(
            "drain finished: %d jobs done, %d cancelled",
            finished, len(live) - finished,
        )
        self.close(mode="drain")
        return {
            "drained": finished,
            "cancelled": len(live) - finished,
        }

    def close(self, mode: str = "fast") -> None:
        """Stop the job pool (cancelling live jobs) -- shutdown path.

        With a journal: write the clean-shutdown marker (``mode`` says
        which path), then *suspend* journaling before cancelling live
        jobs -- so a fast shutdown's cancels do not overwrite the
        resumable ``queued``/``running`` states the next server's
        recovery will replay.  Idempotent: drain-then-serve-exit calls
        it twice.
        """
        if self._closed:
            return
        self._closed = True
        if self.journal is not None:
            self.journal.mark_clean_shutdown(mode)
            self.journal.suspend()
        self.jobs.close(cancel=True)
        if self.journal is not None:
            self.journal.close()


class _Handler(BaseHTTPRequestHandler):
    """Route HTTP requests onto the :class:`SweepService`."""

    server_version = "repro-serve/2.0"
    # HTTP/1.0: streamed responses are close-delimited, no chunked
    # framing needed, and every stdlib client reads them naturally.
    protocol_version = "HTTP/1.0"

    def setup(self) -> None:
        # Socket timeout (reads AND writes), configurable per server
        # (``repro serve --client-timeout``): a client that stops
        # reading mid-stream with a full TCP window must error out and
        # free this handler thread instead of pinning it for good.
        self.timeout = getattr(
            self.server, "client_timeout", DEFAULT_CLIENT_TIMEOUT
        )
        super().setup()

    @property
    def service(self) -> SweepService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if getattr(self.server, "verbose", False):  # pragma: no cover
            super().log_message(format, *args)

    # -- instrumentation ------------------------------------------------
    def send_response(self, code, message=None):  # noqa: A002
        self._obs_status = code
        super().send_response(code, message)

    def _instrumented(self, method: str, handler) -> None:
        """Count and time one request against the endpoint's template.

        The status label records what :meth:`send_response` last sent
        (``0`` if the handler died before any status line), so errors
        and 4xx/5xx rates fall out of the same counter.
        """
        self._obs_status = 0
        started = time.monotonic()
        try:
            handler()
        finally:
            endpoint = _endpoint_label(urlsplit(self.path).path)
            _HTTP_SECONDS.observe(
                time.monotonic() - started, endpoint=endpoint, method=method
            )
            _HTTP_REQUESTS.inc(
                endpoint=endpoint,
                method=method,
                status=str(self._obs_status),
            )

    # -- response helpers ----------------------------------------------
    def _send_json(
        self, payload, status: int = 200, headers: Mapping | None = None
    ) -> None:
        body = (dumps(payload) + "\n").encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, str(value))
        self.end_headers()
        self.wfile.write(body)

    def _send_ndjson(self, items) -> None:
        """Stream NDJSON, one write and flush per item.

        A ``bytes`` item is a pre-encoded block of NDJSON lines, sent
        as is; a dict is encoded as one line.  Streams are
        close-delimited (HTTP/1.0), so every streamed endpoint ends
        with a terminal object (``summary``/``error``/``cancelled`` for
        job streams, ``count`` for /records) that clients require -- a
        truncated connection is then distinguishable from a complete
        response.  A ``None`` item is a keepalive: a blank line (NDJSON
        readers skip it) whose write detects a vanished client while
        the stream is otherwise idle.
        """
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.end_headers()
        try:
            for item in items:
                if item is None:
                    self.wfile.write(b"\n")
                elif isinstance(item, bytes):
                    self.wfile.write(item)
                else:
                    self.wfile.write(
                        (json.dumps(item, sort_keys=True) + "\n").encode()
                    )
                self.wfile.flush()
        except Exception as error:  # noqa: BLE001 - headers are gone
            # Mid-stream failure of any kind (store I/O, a dead socket,
            # database lock): the status line is sent, so signal
            # in-band; clients treat an "error" object as fatal.
            try:
                self.wfile.write(
                    (json.dumps({"error": str(error)}) + "\n").encode()
                )
            except OSError:  # pragma: no cover - client went away too
                pass
        finally:
            # Deterministically close an abandoned stream generator so
            # anything it holds open is released now, not at GC time.
            close = getattr(items, "close", None)
            if close is not None:
                close()

    def _read_json(self):
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            raise ValueError(f"request body over {MAX_BODY_BYTES} bytes")
        body = self.rfile.read(length) if length > 0 else b""
        if not body:
            return {}
        data = json.loads(body)
        if not isinstance(data, (dict, list)):
            raise ValueError("request body must be a JSON object or list")
        return data

    def _job_or_404(self, job_id: str):
        job = self.service.job(job_id)
        if job is None:
            self._send_json(
                {"error": f"no such job: {job_id}"}, status=404
            )
        return job

    def _send_metrics(self) -> None:
        body = _METRICS.render().encode()
        self.send_response(200)
        self.send_header(
            "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
        )
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    # -- routes --------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._instrumented("GET", self._handle_get)

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._instrumented("POST", self._handle_post)

    def _handle_get(self) -> None:
        parts = urlsplit(self.path)
        path = parts.path
        try:
            if path == "/healthz":
                self._send_json(self.service.health())
            elif path == "/readyz":
                readiness = self.service.readiness()
                self._send_json(
                    readiness, status=200 if readiness["ready"] else 503
                )
            elif path == "/metrics":
                self._send_metrics()
            elif path == "/stats":
                self._send_json(self.service.stats())
            elif path == "/records":
                after, limit = self._page_params(parts.query)
                # Materialize the one bounded page before sending
                # headers: store failures become clean 400/503
                # statuses, and the server never holds more than
                # ``limit`` records.
                page = list(
                    self.service.record_page_stream(after=after, limit=limit)
                )
                self._send_ndjson(iter(page))
            elif path == "/jobs":
                self._send_json(
                    {"jobs": [job.status() for job in self.service.jobs.jobs()]}
                )
            elif path == "/workers":
                self._send_json({"workers": self.service.fleet.workers()})
            elif match := _JOB_PATH.match(path):
                job_id, tail = match.groups()
                job = self._job_or_404(job_id)
                if job is None:
                    return
                if tail == "/records":
                    after = self._after_param(parts.query)
                    self._send_ndjson(
                        self.service.job_record_stream(job, after=after)
                    )
                elif tail is None:
                    self._send_json(self.service.job_status(job))
                else:  # GET on /cancel
                    self._not_found(path)
            elif path == "/":
                self._send_json({"endpoints": sorted(_ENDPOINTS)})
            else:
                self._not_found(path)
        except BrokenPipeError:  # pragma: no cover - client went away
            pass
        except (KeyError, TypeError, ValueError) as error:
            # Same mapping as do_POST: e.g. a store backend forced onto
            # the wrong file raises ValueError from the read path too.
            self._send_json({"error": str(error)}, status=400)
        except OSError as error:
            # Store I/O failure (e.g. SQLite locked past its timeout):
            # transient server-side trouble, not a bad request.
            self._send_json({"error": str(error)}, status=503)

    def _after_param(self, query: str) -> int:
        values = parse_qs(query).get("after", ["0"])
        after = int(values[-1])
        if after < 0:
            raise ValueError("after must be >= 0")
        return after

    def _page_params(self, query: str) -> tuple[str | None, int | None]:
        """``/records`` pagination params, validated before streaming
        starts so bad requests still get a clean 400 status line."""
        params = parse_qs(query)
        after_values = params.get("after")
        after = after_values[-1] if after_values else None
        limit = None
        limit_values = params.get("limit")
        if limit_values:
            limit = int(limit_values[-1])  # ValueError -> 400
            if limit < 1:
                raise ValueError("limit must be >= 1")
        return after, limit

    def _handle_post(self) -> None:
        path = urlsplit(self.path).path
        try:
            if path == "/sweep":
                job = self.service.submit(self._read_json())
                self._send_json(job.status(), status=202)
            elif match := _JOB_PATH.match(path):
                job_id, tail = match.groups()
                if tail != "/cancel":
                    self._not_found(path)
                    return
                job = self._job_or_404(job_id)
                if job is not None:
                    self._send_json(self.service.cancel(job))
            elif path == "/records":
                data = self._read_json()
                if isinstance(data, dict):
                    data = data.get("records")
                self._send_json(self.service.ingest(data))
            elif path == "/workers/register":
                self._send_json(
                    self.service.worker_register(self._read_json())
                )
            elif match := _WORKER_PATH.match(path):
                worker_id, action = match.groups()
                # Unknown worker/job ids answer 404 here, not the
                # generic KeyError->400 below: a worker uses the 404 as
                # its re-register cue after a server restart.
                try:
                    if action == "heartbeat":
                        body = self._read_json()
                        metrics = (
                            body.get("metrics")
                            if isinstance(body, Mapping)
                            else None
                        )
                        response = self.service.fleet.heartbeat(
                            worker_id, metrics=metrics
                        )
                    elif action == "lease":
                        response = self.service.worker_lease(
                            worker_id, self._read_json()
                        )
                    else:
                        response = self.service.worker_ack(
                            worker_id, self._read_json()
                        )
                except KeyError as missing:
                    self._send_json({"error": str(missing)}, status=404)
                else:
                    self._send_json(response)
            elif path.startswith("/query/"):
                name = path[len("/query/") :]
                params = self._read_json()
                self._send_json(
                    records_payload(self.service.query(name, params))
                )
            elif path == "/shutdown":
                query = parse_qs(urlsplit(self.path).query)
                drain = query.get("drain", ["false"])[-1].lower() in (
                    "1",
                    "true",
                    "yes",
                )
                if drain:
                    # Flip admission off before the response leaves, so
                    # "draining" in the reply is already true.
                    self.service._draining = True
                    self._send_json({"status": "draining"})
                    threading.Thread(
                        target=self._drain_then_shutdown, daemon=True
                    ).start()
                else:
                    self._send_json({"status": "shutting down"})
                    threading.Thread(
                        target=self.server.shutdown, daemon=True
                    ).start()
            else:
                self._not_found(path)
        except BrokenPipeError:  # pragma: no cover - client went away
            pass
        except QueueFullError as error:
            self._send_json(
                {"error": str(error), "retry_after": error.retry_after},
                status=429,
                headers={"Retry-After": f"{error.retry_after:g}"},
            )
        except DrainingError as error:
            self._send_json({"error": str(error)}, status=503)
        except (KeyError, TypeError, ValueError) as error:
            self._send_json({"error": str(error)}, status=400)
        except OSError as error:
            self._send_json({"error": str(error)}, status=503)

    def _drain_then_shutdown(self) -> None:
        self.service.drain(
            timeout=getattr(self.server, "drain_timeout", DEFAULT_DRAIN_TIMEOUT)
        )
        self.server.shutdown()

    def _not_found(self, path: str) -> None:
        self._send_json(
            {"error": f"no such endpoint: {path}", "endpoints": sorted(_ENDPOINTS)},
            status=404,
        )


_ENDPOINTS = (
    "GET /healthz",
    "GET /readyz",
    "GET /metrics",
    "GET /stats",
    "GET /records",
    "GET /records?after={hash}&limit={n}",
    "GET /jobs",
    "GET /jobs/{id}",
    "GET /jobs/{id}/records",
    "GET /workers",
    "POST /sweep",
    "POST /jobs/{id}/cancel",
    "POST /records",
    "POST /workers/register",
    "POST /workers/{id}/heartbeat",
    "POST /workers/{id}/lease",
    "POST /workers/{id}/ack",
    "POST /query/pareto",
    "POST /query/top-k",
    "POST /query/accuracy-frontier",
    "POST /shutdown",
)


class SweepServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`SweepService`.

    ``port=0`` binds an ephemeral port; read :attr:`url` for the real
    address.  Handler threads are daemonic so a hard exit never hangs
    on a slow client.  ``client_timeout`` bounds every handler socket
    operation (``repro serve --client-timeout``).
    """

    daemon_threads = True

    def __init__(
        self,
        service: SweepService,
        host: str = "127.0.0.1",
        port: int = 0,
        verbose: bool = False,
        client_timeout: float = DEFAULT_CLIENT_TIMEOUT,
        drain_timeout: float = DEFAULT_DRAIN_TIMEOUT,
    ):
        self.service = service
        self.verbose = verbose
        self.client_timeout = client_timeout
        self.drain_timeout = drain_timeout
        super().__init__((host, port), _Handler)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


def _announce_stdout(message: str) -> None:
    # flush=True: the announce line must reach a redirected log while
    # serve_forever still blocks (CI polls the log for the bound URL).
    print(message, flush=True)


def serve(
    store: SQLiteStore | str | os.PathLike | None = None,
    host: str = "127.0.0.1",
    port: int = 0,
    vectorize: bool = True,
    job_workers: int = 2,
    client_timeout: float = DEFAULT_CLIENT_TIMEOUT,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    heartbeat_ttl: float = DEFAULT_HEARTBEAT_TTL,
    journal: JobJournal | str | os.PathLike | bool | None = None,
    drain_timeout: float = DEFAULT_DRAIN_TIMEOUT,
    max_queue_depth: int | None = None,
    job_retention: int | None = DEFAULT_JOB_RETENTION,
    job_ttl: float | None = None,
    record_cache: int = DEFAULT_RECORD_CACHE,
    verbose: bool = False,
    announce=_announce_stdout,
    ready=None,
) -> int:
    """Blocking entry point behind ``repro serve``.

    Announces the bound URL (ephemeral ports resolve before serving),
    then serves until ``POST /shutdown``, SIGTERM, or Ctrl-C; returns 0
    on a clean shutdown.  The fast path (plain ``/shutdown``, Ctrl-C)
    cancels live jobs at their next pass boundary; SIGTERM and
    ``/shutdown?drain=true`` drain instead -- admission stops, running
    jobs get up to ``drain_timeout`` seconds to finish.

    ``store`` is a SQLite store or path (see :func:`open_served_store`),
    or ``None`` to serve from the in-process memo alone.

    ``journal`` controls crash safety: ``None`` (the default) colocates
    a journal next to ``store`` when there is one, a path uses that
    path, and ``False`` disables journaling.  On startup an existing
    journal is replayed -- queued and running jobs resume, fleet lease
    tables rebuild -- so a SIGKILLed server restarted against the same
    store + journal completes every accepted sweep without recomputing
    recovered work.

    ``lease_ttl`` and ``heartbeat_ttl`` tune the worker fleet's failure
    detection; ``max_queue_depth`` bounds accepted-but-unstarted jobs
    (beyond it submissions 429 with ``Retry-After``); ``job_retention``
    / ``job_ttl`` evict old terminal jobs from memory and journal;
    ``record_cache`` bounds the in-process record memo in records,
    least recently used evicted first (``repro serve --record-cache``,
    0 keeps none).
    ``ready``, when given, receives the :class:`SweepServer` right
    before the loop starts -- the hook tests and embedders use to reach
    the live server object.
    """
    if journal is False:
        journal = None
    elif journal is None and store is not None:
        journal = default_journal_path(
            store.path if isinstance(store, ResultStoreBase) else store
        )
    elif journal is True:
        raise ValueError("journal=True needs a store to colocate with")
    service = SweepService(
        store=store,
        vectorize=vectorize,
        job_workers=job_workers,
        lease_ttl=lease_ttl,
        heartbeat_ttl=heartbeat_ttl,
        journal=journal,
        max_queue_depth=max_queue_depth,
        job_retention=job_retention or None,
        job_ttl=job_ttl,
        record_cache=record_cache,
    )
    server = SweepServer(
        service,
        host=host,
        port=port,
        verbose=verbose,
        client_timeout=client_timeout,
        drain_timeout=drain_timeout,
    )
    where = (
        f"store: {service.store.backend}:{service.store.path}"
        if service.store is not None
        else "no store: serving from the in-process memo"
    )
    announce(f"serving DSE sweeps on {server.url} ({where})")
    if service.journal is not None:
        recovery = service.recovery_info or {}
        recovered = sum(
            recovery.get(key, 0)
            for key in ("recovered_queued", "recovered_running", "recovered_fleet")
        )
        announce(
            f"journal: {service.journal.path} "
            f"(prior shutdown: {recovery.get('prior_shutdown') or 'none'}, "
            f"recovered {recovered} live jobs, requeued "
            f"{recovery.get('requeued_chunks', 0)} chunks)"
        )

    def _handle_sigterm(signum, frame):  # pragma: no cover - signal path
        announce("SIGTERM: draining before shutdown")
        service._draining = True

        def _drain():
            service.drain(timeout=drain_timeout)
            server.shutdown()

        threading.Thread(target=_drain, daemon=True).start()

    previous_sigterm = None
    in_main_thread = threading.current_thread() is threading.main_thread()
    if in_main_thread:
        # Only the main thread may install signal handlers; embedded
        # servers (tests, say) skip this quietly.
        previous_sigterm = signal.signal(signal.SIGTERM, _handle_sigterm)
    if ready is not None:
        ready(server)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    finally:
        if in_main_thread:
            signal.signal(signal.SIGTERM, previous_sigterm)
        server.server_close()
        service.close()
    announce("server shut down cleanly")
    return 0
