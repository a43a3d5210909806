"""Thin stdlib HTTP client for the sweep service.

Speaks the plain JSON/NDJSON protocol of :mod:`repro.serve.server`
with nothing beyond ``urllib``.  ``repro dse --server URL`` runs on
this client; scripts can too::

    client = ServeClient("http://127.0.0.1:8000")
    records, summary = client.sweep({"grid": {"workloads": ["LSTM"]}})
    frontier = client.pareto(where={"workload": "LSTM"})

Sweeps are server-side jobs: :meth:`ServeClient.submit_job` returns a
job id immediately, :meth:`~ServeClient.job_status` polls it,
:meth:`~ServeClient.stream_job` follows its records live (resumable
with ``after=``), and :meth:`~ServeClient.cancel_job` stops it at the
next record boundary.  :meth:`~ServeClient.submit` and
:meth:`~ServeClient.sweep` compose submit + stream, so their
records-in, records-out contract (bit-identical to a local run) is
unchanged from the lock-serialized protocol they replaced.
"""

from __future__ import annotations

import json
import time
from http.client import HTTPException
from typing import Iterator, Mapping
from urllib import request as _request
from urllib.error import HTTPError, URLError
from urllib.parse import quote

__all__ = ["ServeClient", "ServeError"]

#: Default ``limit`` per ``GET /records`` page the client requests.
#: Matches the server's default page size; a million-record dump is
#: ~200 bounded requests instead of one unbounded response.
DEFAULT_PAGE_RECORDS = 5_000

#: Records per ``POST /records`` request: uploads above this chunk
#: into multiple bounded ingest transactions client-side, keeping
#: request bodies and server-side transactions small.
INGEST_BATCH_RECORDS = 20_000


class ServeError(RuntimeError):
    """The server rejected a request or could not be reached.

    ``code`` carries the HTTP status when the server answered at all;
    ``transient`` marks transport-level failures (connection reset,
    timeout, torn response) that an *idempotent* request may safely
    retry -- a 4xx rejection is not transient, re-sending it cannot
    help.  The one 4xx exception is 429 (admission control): the
    server rejected *before* creating any state, so any request may be
    re-sent after ``retry_after`` seconds (the ``Retry-After`` header).
    """

    def __init__(
        self,
        message: str,
        code: int | None = None,
        transient: bool = False,
        retry_after: float | None = None,
    ):
        super().__init__(message)
        self.code = code
        self.transient = transient
        self.retry_after = retry_after


def _is_transient(error: BaseException) -> bool:
    # ConnectionError covers ConnectionResetError and (via
    # http.client.RemoteDisconnected) a server vanishing mid-exchange;
    # TimeoutError covers socket.timeout.  Any other HTTPException is a
    # garbled response from a dying peer -- worth one more try on an
    # idempotent request, never on a mutation.
    return isinstance(error, (ConnectionError, TimeoutError, HTTPException))


class ServeClient:
    """One server, many requests; no connection state to manage.

    ``timeout`` bounds every socket operation, including the wait for
    the next streamed record -- sweeps queue server-side, so raise it
    when long sweeps may sit behind others (``repro dse --server``
    exposes this as ``--timeout``).

    Idempotent requests (bare GETs, and the fleet-worker calls whose
    server-side handling is idempotent by construction) retry transient
    transport failures up to ``retries`` extra times with exponential
    backoff starting at ``backoff`` seconds; mutations such as
    ``POST /sweep`` are never retried -- a duplicate submission is a
    duplicate job.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 600.0,
        retries: int = 3,
        backoff: float = 0.1,
    ):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.backoff = backoff
        #: Tier summary of the most recent streamed sweep.
        self.last_summary: dict | None = None

    # -- plumbing ------------------------------------------------------
    def _open_once(self, path: str, payload=None):
        data = None
        headers = {}
        if payload is not None:
            data = json.dumps(payload).encode()
            headers["Content-Type"] = "application/json"
        req = _request.Request(
            self.base_url + path, data=data, headers=headers
        )
        try:
            return _request.urlopen(req, timeout=self.timeout)
        except HTTPError as error:
            detail = ""
            retry_after = None
            try:
                body = json.loads(error.read())
                detail = body.get("error", "")
                retry_after = body.get("retry_after")
            except (ValueError, OSError):
                pass
            if retry_after is None:
                try:
                    retry_after = float(error.headers.get("Retry-After"))
                except (AttributeError, TypeError, ValueError):
                    retry_after = None
            raise ServeError(
                f"{path}: HTTP {error.code}"
                + (f": {detail}" if detail else ""),
                code=error.code,
                retry_after=retry_after,
            ) from None
        except URLError as error:
            raise ServeError(
                f"cannot reach sweep server at {self.base_url}: "
                f"{error.reason}",
                transient=_is_transient(error.reason),
            ) from None
        except (HTTPException, OSError) as error:
            # E.g. RemoteDisconnected or ConnectionResetError: the
            # server dropped the connection before sending a status
            # line (urlopen only wraps errors from the *send* side
            # into URLError; response-read failures escape raw).
            raise ServeError(
                f"sweep server at {self.base_url} dropped the "
                f"connection: {error or type(error).__name__}",
                transient=_is_transient(error),
            ) from None

    def _open(self, path: str, payload=None, idempotent: bool | None = None):
        """Open a request, retrying transient failures when idempotent.

        ``idempotent`` defaults to ``payload is None`` -- bare GETs are
        safe to re-send, POST bodies are not unless the caller vouches
        for them (the fleet-worker endpoints do: leases expire, acks
        and record upserts are idempotent server-side).

        A 429 (queue full) retries regardless of idempotency -- the
        server rejected before creating any state -- honoring its
        ``Retry-After`` when it is longer than the backoff step.
        """
        if idempotent is None:
            idempotent = payload is None
        failures = 0
        while True:
            try:
                return self._open_once(path, payload)
            except ServeError as error:
                failures = self._retry(error, failures, idempotent)

    def _retry(
        self, error: ServeError, failures: int, idempotent: bool = True
    ) -> int:
        """The client's one retry policy: back off, or re-raise ``error``.

        ``failures`` counts the retries already spent in a row; the
        budget is ``retries``.  Transient failures retry only when
        ``idempotent``; a 429 retries on any request, waiting at least
        its ``Retry-After``.  Returns the new failure count -- callers
        that make progress (a stream yielding records) reset theirs.
        """
        throttled = error.code == 429
        retryable = throttled or (idempotent and error.transient)
        if not retryable or failures >= self.retries:
            raise error
        delay = self.backoff * (2**failures)
        if throttled and error.retry_after:
            delay = max(delay, error.retry_after)
        time.sleep(delay)
        return failures + 1

    def _json(
        self, path: str, payload=None, idempotent: bool | None = None
    ) -> dict:
        with self._open(path, payload, idempotent=idempotent) as response:
            try:
                return json.load(response)
            except (OSError, HTTPException, ValueError) as error:
                raise ServeError(
                    f"{path}: invalid or truncated response: {error}"
                ) from None

    def _ndjson(self, path: str, payload=None) -> Iterator[dict]:
        # Read-side failures (server killed mid-stream, socket timeout,
        # torn final line) must surface as ServeError like every other
        # transport problem, not as raw JSONDecodeError/OSError.  A
        # mid-stream drop is transient: resumable streams re-issue the
        # request with ``after=`` (see stream_job).
        with self._open(path, payload) as response:
            while True:
                try:
                    line = response.readline()
                except (OSError, HTTPException) as error:
                    raise ServeError(
                        f"{path}: stream interrupted: "
                        f"{error or type(error).__name__}",
                        transient=True,
                    ) from None
                if not line:
                    return
                line = line.strip()
                if not line:
                    continue
                try:
                    yield json.loads(line)
                except ValueError as error:
                    raise ServeError(
                        f"{path}: torn stream line: {error}"
                    ) from None

    # -- endpoints -----------------------------------------------------
    def health(self) -> dict:
        return self._json("/healthz")

    def ready(self) -> bool:
        """``GET /readyz``: True when the server is accepting work.

        A 503 (still replaying the journal, or draining) is a normal
        readiness answer, not an error; anything else propagates.
        """
        try:
            self._json("/readyz")
        except ServeError as error:
            if error.code == 503:
                return False
            raise
        return True

    def stats(self) -> dict:
        return self._json("/stats")

    def metrics(self) -> str:
        """``GET /metrics``: the raw Prometheus text exposition body."""
        with self._open("/metrics") as response:
            try:
                return response.read().decode("utf-8", "replace")
            except (OSError, HTTPException) as error:
                raise ServeError(
                    f"/metrics: invalid or truncated response: {error}"
                ) from None

    def records(self, page_size: int = DEFAULT_PAGE_RECORDS) -> list[dict]:
        """Every current-version record the server holds, in hash order.

        Pages through ``GET /records?after=&limit=`` transparently --
        each request (and the server's memory) is bounded by
        ``page_size``, and a transient mid-page failure re-fetches only
        that page (keyset cursors make the re-read idempotent).

        Streams are close-delimited, so every page requires its
        terminal ``count`` line: a connection dropped mid-stream
        retries, then raises -- never a silently truncated list.
        """
        if page_size < 1:
            raise ValueError("page_size must be >= 1")
        records: list[dict] = []
        after: str | None = None
        while True:
            page, after = self._records_page(after, page_size)
            records.extend(page)
            if after is None:
                return records

    def _records_page(
        self, after: str | None, limit: int
    ) -> tuple[list[dict], str | None]:
        """One ``/records`` page request; ``(records, next cursor)``.

        Transient failures (dropped connection, missing terminal)
        retry the same page under :meth:`_retry`.
        """
        path = f"/records?limit={limit}"
        if after is not None:
            path += f"&after={quote(after, safe='')}"
        failures = 0
        while True:
            try:
                page: list[dict] = []
                count: int | None = None
                next_cursor: str | None = None
                for item in self._ndjson(path):
                    if "hash" in item:
                        page.append(item)
                    elif "error" in item:
                        raise ServeError(f"/records: {item['error']}")
                    elif "count" in item:
                        count = item["count"]
                        next_cursor = item.get("next")
                if count is None or count != len(page):
                    raise ServeError(
                        f"/records stream truncated: got {len(page)} "
                        f"records, terminal count {count}",
                        transient=True,
                    )
                return page, next_cursor
            except ServeError as error:
                failures = self._retry(error, failures)

    # -- the job API ---------------------------------------------------
    def submit_job(
        self,
        spec: Mapping,
        vectorize: bool | None = None,
        priority: int | None = None,
        fleet: bool | Mapping | None = None,
    ) -> dict:
        """Submit a sweep spec as a job; returns its status object.

        ``spec`` is the JSON sweep-spec format (``{"grid": ...}`` or
        ``{"points": ...}``, e.g. ``SweepSpec.to_dict()``).  The server
        validates, enqueues, and answers immediately -- the returned
        dict's ``"job"`` field is the id to poll, stream, or cancel.
        Lower ``priority`` numbers schedule sooner (FIFO within a
        level).  ``fleet=True`` (or ``fleet={"chunks": n}``) submits a
        fleet job: chunked into the lease queue and evaluated by pull
        workers instead of the server's own pool.
        """
        payload: dict = {"spec": dict(spec)}
        if vectorize is not None:
            payload["vectorize"] = vectorize
        if priority is not None:
            payload["priority"] = priority
        if fleet:
            payload["fleet"] = True if fleet is True else dict(fleet)
        return self._json("/sweep", payload)

    def job_status(self, job_id: str) -> dict:
        """One job's state, progress counts, and frontier-so-far."""
        return self._json(f"/jobs/{job_id}")

    def jobs(self) -> list[dict]:
        """Every job the server knows, oldest first."""
        return self._json("/jobs")["jobs"]

    def cancel_job(self, job_id: str) -> dict:
        """Request cooperative cancellation of a job."""
        return self._json(f"/jobs/{job_id}/cancel", {})

    def stream_job(self, job_id: str, after: int = 0) -> Iterator[dict]:
        """Follow a job's records live, from index ``after``.

        Yields completed records in completion order until the job is
        terminal; the stream endpoint is resumable with
        ``after=<records already seen>``, and this method uses that
        itself -- a transient mid-stream drop (connection reset,
        timeout) transparently re-issues the request from the current
        cursor, up to ``retries`` times back to back.  A ``done`` job
        ends by capturing the tier summary on :attr:`last_summary`;
        ``failed`` and ``cancelled`` terminals raise
        :class:`ServeError` (the records yielded so far are valid
        either way).
        """
        cursor = int(after)  # negative values reach the server's 400
        self.last_summary = None
        failures = 0
        while True:
            path = f"/jobs/{job_id}/records"
            if cursor:
                path += f"?after={cursor}"
            try:
                for item in self._ndjson(path):
                    if "hash" in item:
                        yield item
                        cursor += 1
                        failures = 0  # progress resets the retry budget
                    elif item.get("cancelled"):
                        raise ServeError(f"job {job_id} was cancelled")
                    elif "summary" in item:
                        self.last_summary = item["summary"]
                    elif "error" in item:
                        raise ServeError(f"job {job_id}: {item['error']}")
            except ServeError as error:
                failures = self._retry(error, failures)
                continue
            if self.last_summary is None:
                # Streams are close-delimited; no terminal line means
                # the connection died before the job finished.
                raise ServeError(
                    f"job {job_id} stream ended without a summary "
                    "(truncated?)"
                )
            return

    def submit(
        self,
        spec: Mapping,
        vectorize: bool | None = None,
        priority: int | None = None,
    ) -> Iterator[dict]:
        """Submit a sweep and follow it: records in completion order.

        Submit-then-stream over the job queue; the trailing summary is
        captured on :attr:`last_summary` rather than yielded, exactly
        like the pre-job-queue streaming protocol.
        """
        job = self.submit_job(spec, vectorize=vectorize, priority=priority)
        yield from self.stream_job(job["job"])

    def sweep(
        self,
        spec: Mapping,
        vectorize: bool | None = None,
        priority: int | None = None,
    ) -> tuple[list[dict], dict | None]:
        """Drain :meth:`submit`; returns ``(records, summary)``."""
        records = list(self.submit(spec, vectorize=vectorize, priority=priority))
        return records, self.last_summary

    def query(self, name: str, **params) -> list[dict]:
        """Run a named server-side reduction; returns its records."""
        body = {k: v for k, v in params.items() if v is not None}
        return self._json(f"/query/{name}", body)["records"]

    def pareto(self, objectives=None, senses=None, where=None) -> list[dict]:
        return self.query(
            "pareto", objectives=objectives, senses=senses, where=where
        )

    def top_k(
        self,
        objective: str = "total_seconds",
        k: int = 10,
        sense: str = "min",
        where=None,
    ) -> list[dict]:
        return self.query(
            "top-k", objective=objective, k=k, sense=sense, where=where
        )

    def accuracy_frontier(
        self,
        accuracy_by_policy: Mapping[str, float],
        objective: str = "total_seconds",
        sense: str = "min",
        where=None,
    ) -> list[dict]:
        return self.query(
            "accuracy-frontier",
            accuracy_by_policy=dict(accuracy_by_policy),
            objective=objective,
            sense=sense,
            where=where,
        )

    def post_records(
        self,
        records: list[dict],
        batch_size: int | None = INGEST_BATCH_RECORDS,
    ) -> dict:
        """Ingest records into the server's store (shard upload path).

        Uploads above ``batch_size`` records chunk into multiple
        requests client-side, so request bodies and the server's
        per-request transactions stay bounded however large the shard.
        Retried on transient failures: the store's version-aware
        conditional upsert makes a replayed batch a no-op.  Returns
        ``{"appended": total, "job": last_id}`` (plus ``"jobs"`` with
        every ingest-job id when the upload chunked).
        """
        records = list(records)
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if batch_size is None or len(records) <= batch_size:
            return self._json(
                "/records", {"records": records}, idempotent=True
            )
        appended = 0
        jobs: list[str] = []
        for start in range(0, len(records), batch_size):
            reply = self._json(
                "/records",
                {"records": records[start : start + batch_size]},
                idempotent=True,
            )
            appended += reply.get("appended", 0)
            jobs.append(reply.get("job"))
        return {"appended": appended, "job": jobs[-1], "jobs": jobs}

    # -- the fleet API (worker side) -------------------------------------
    def register_worker(
        self, name: str | None = None, capacity: int = 1
    ) -> dict:
        """Register as a fleet worker; returns id and heartbeat cadence."""
        payload: dict = {"capacity": capacity}
        if name:
            payload["name"] = name
        return self._json("/workers/register", payload)

    def worker_heartbeat(
        self, worker_id: str, metrics: dict | None = None
    ) -> dict:
        """Tell the server this worker is still alive (idempotent).

        ``metrics`` piggybacks the worker's local registry snapshot
        (:meth:`MetricsRegistry.snapshot`) so the coordinator can show
        per-worker throughput without a second reporting channel.
        """
        payload: dict = {}
        if metrics is not None:
            payload["metrics"] = metrics
        return self._json(
            f"/workers/{worker_id}/heartbeat", payload, idempotent=True
        )

    def lease_chunk(self, worker_id: str, wait: float = 0.0) -> dict:
        """Pull the next chunk lease (or an idle report).

        With ``wait`` > 0 and a job active but nothing to grant, the
        server holds the request for up to ``wait`` seconds until a
        chunk becomes grantable or the job ends.  Safe to retry: a
        lease granted into a dropped response simply expires and
        requeues after the lease TTL.
        """
        payload = {"wait": wait} if wait else {}
        return self._json(f"/workers/{worker_id}/lease", payload, idempotent=True)

    def ack_chunk(
        self,
        worker_id: str,
        job_id: str,
        chunk: int,
        error: str | None = None,
        timings: dict | None = None,
    ) -> dict:
        """Report a chunk done (or failed).  Acks are idempotent.

        ``timings`` carries the worker's measured phase durations
        (``worker-eval``, ``upload``, in seconds) for the coordinator's
        chunk-phase histogram.
        """
        payload: dict = {"job": job_id, "chunk": chunk}
        if error is not None:
            payload["error"] = error
        if timings:
            payload["timings"] = timings
        return self._json(
            f"/workers/{worker_id}/ack", payload, idempotent=True
        )

    def workers(self) -> list[dict]:
        """Every registered fleet worker, oldest registration first."""
        return self._json("/workers")["workers"]

    def shutdown(self, drain: bool = False) -> dict:
        """Ask the server to stop serving cleanly.

        ``drain=True`` requests a graceful drain: admission stops
        immediately (the response says ``"draining"``), running jobs
        get up to the server's ``--drain-timeout`` to finish, and the
        server exits 0 afterwards.
        """
        path = "/shutdown?drain=true" if drain else "/shutdown"
        return self._json(path, {})
