"""Crash-safe persistence for the sweep service's coordination state.

Everything the service knows about submitted work -- the job table,
each job's lifecycle state, and the per-chunk lease table of fleet
jobs -- used to live only in process memory: a server crash or
redeploy lost queued jobs and stranded running fleet sweeps.  This
module is the durability layer that makes the server restartable at
any instant without losing accepted work.

:class:`JobJournal` is a SQLite WAL journal (``repro serve --journal
PATH``, colocated with the server store by default) that records every
lifecycle transition *synchronously at the state boundary that caused
it*: a submission is journaled before the client sees its job id, a
``queued -> running`` edge before the first record is evaluated, every
fleet lease grant/requeue/completion as it happens.  ``PRAGMA
synchronous=FULL`` under WAL means a committed transition survives a
SIGKILL whole; there is no torn tail to tolerate.

Recovery (:meth:`JobJournal.recover_state` driven by
:class:`~repro.serve.server.SweepService`) replays the journal on
startup:

* queued jobs re-enqueue in their original priority-FIFO order;
* running jobs re-enqueue too -- the records they appended to the
  store before the crash are still there, so the resumed sweep
  resolves those points through the hash-keyed warm path and only
  evaluates the remainder (recovered work is never recomputed);
* fleet jobs rebuild their lease tables with completed chunks kept and
  every previously-leased chunk requeued as pending (the holder is
  gone; workers re-register and steal the chunk back).

The journal is an *operational* record, not a result store: records
live in the result store, the journal only remembers what was accepted
and how far it got.  Journal write failures after startup degrade
recovery, not service -- they warn (:class:`JournalWarning`) instead of
failing the job that triggered them.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
import warnings
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping

from ..obs.metrics import get_registry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .jobs import Job

__all__ = [
    "JobJournal",
    "JournalWarning",
    "default_journal_path",
]

_METRICS = get_registry()
_JOURNAL_WRITES = _METRICS.counter(
    "repro_journal_writes_total",
    "Journal write transactions, by result (ok, degraded, error).",
    labelnames=("result",),
)
_JOURNAL_WRITE_SECONDS = _METRICS.histogram(
    "repro_journal_write_seconds",
    "Latency of one committed journal transaction.",
)

_SCHEMA = (
    "CREATE TABLE IF NOT EXISTS jobs ("
    " id TEXT PRIMARY KEY,"
    " seq INTEGER NOT NULL,"  # submission order, the FIFO replay key
    " kind TEXT NOT NULL,"
    " spec TEXT,"  # sweep-spec JSON as submitted (SweepSpec.from_dict form)
    " vectorize INTEGER,"
    " priority INTEGER NOT NULL DEFAULT 10,"
    " chunks INTEGER,"  # fleet partition width; NULL for pool jobs
    " state TEXT NOT NULL,"
    " error TEXT,"
    " cancel_requested INTEGER NOT NULL DEFAULT 0,"
    " submitted_at REAL,"
    " started_at REAL,"
    " finished_at REAL"
    ")",
    "CREATE TABLE IF NOT EXISTS leases ("
    " job TEXT NOT NULL,"
    " chunk INTEGER NOT NULL,"
    " state TEXT NOT NULL,"
    " attempts INTEGER NOT NULL DEFAULT 0,"
    " PRIMARY KEY (job, chunk)"
    ")",
    "CREATE TABLE IF NOT EXISTS meta ("
    " key TEXT PRIMARY KEY,"
    " value TEXT NOT NULL"
    ")",
)


class JournalWarning(UserWarning):
    """A journal write failed; service continues, recovery degrades."""


def default_journal_path(store_path: str | os.PathLike) -> Path:
    """The journal path colocated with a server store by default."""
    path = Path(store_path)
    return path.with_name(path.name + ".journal")


def _flag(value) -> int | None:
    return None if value is None else int(bool(value))


class JobJournal:
    """The durable job/lease journal behind a sweep service.

    One long-lived WAL connection, shared across handler and job-worker
    threads under a lock; every public method is one small committed
    transaction, so a transition is either fully journaled or not at
    all.  :meth:`suspend` turns further writes into no-ops -- the
    shutdown path uses it so cancelling live jobs on a *fast* exit does
    not overwrite their resumable ``queued``/``running`` states.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._suspended = False
        try:
            self._db = sqlite3.connect(self.path, check_same_thread=False)
            self._db.execute("PRAGMA journal_mode=WAL")
            # FULL under WAL: a committed state boundary survives power
            # loss, not just a process kill.  Transitions are rare and
            # tiny relative to evaluation work; durability wins.
            self._db.execute("PRAGMA synchronous=FULL")
            self._db.execute("PRAGMA busy_timeout=10000")
            with self._db:
                for statement in _SCHEMA:
                    self._db.execute(statement)
        except sqlite3.DatabaseError as error:
            raise OSError(f"cannot open job journal {self.path}: {error}") from None

    # -- plumbing ------------------------------------------------------
    def _write(self, statements: Iterable[tuple[str, tuple]], critical: bool = False):
        """Commit statements as one transaction; warn (or raise) on failure."""
        started = time.monotonic()
        with self._lock:
            if self._suspended:
                return
            try:
                with self._db:
                    for sql, params in statements:
                        self._db.execute(sql, params)
            except sqlite3.Error as error:
                if critical:
                    _JOURNAL_WRITES.inc(result="error")
                    raise OSError(
                        f"job journal {self.path}: {error}"
                    ) from None
                _JOURNAL_WRITES.inc(result="degraded")
                warnings.warn(
                    f"job journal {self.path}: transition write failed "
                    f"({error}); recovery of this job may be incomplete",
                    JournalWarning,
                    stacklevel=3,
                )
            else:
                _JOURNAL_WRITES.inc(result="ok")
                _JOURNAL_WRITE_SECONDS.observe(time.monotonic() - started)

    def _read(self, sql: str, params: tuple = ()) -> list[tuple]:
        with self._lock:
            return list(self._db.execute(sql, params))

    def suspend(self) -> None:
        """Stop journaling transitions (the fast-shutdown path).

        A fast ``POST /shutdown`` cancels live jobs only to tear the
        process down promptly; journaling those cancels would turn a
        restartable ``queued``/``running`` entry into a terminal one
        and lose the work.  Suspended, the journal keeps each job's
        last real state for recovery to replay.
        """
        with self._lock:
            self._suspended = True

    def close(self) -> None:
        with self._lock:
            try:
                self._db.close()
            except sqlite3.Error:  # pragma: no cover - close is best-effort
                pass

    # -- lifecycle writes ----------------------------------------------
    def record_submit(self, job: "Job", spec: Mapping | None = None) -> None:
        """Journal an accepted job (critical: accepted work must be durable).

        Runs before the submission response leaves the server, so a job
        id a client holds always has a journal entry behind it.  Fleet
        jobs journal their full chunk table alongside.

        ``spec`` is the sweep-spec mapping the job's spec was parsed
        from: the service journals the spec as the client sent it (a
        grid stays a grid) instead of re-serializing every point, and
        recovery re-journals the spec it replayed.  Without it the
        job's ``spec.to_dict()`` is journaled.  Either form rebuilds
        the same points through ``SweepSpec.from_dict``.
        """
        if spec is None and job.spec is not None:
            spec = job.spec.to_dict()
        if spec is not None:
            spec = json.dumps(spec, sort_keys=True)
        statements: list[tuple[str, tuple]] = [
            (
                "INSERT OR REPLACE INTO jobs"
                " (id, seq, kind, spec, vectorize, priority,"
                "  chunks, state, error, cancel_requested, submitted_at,"
                "  started_at, finished_at)"
                " VALUES (?, COALESCE((SELECT seq FROM jobs WHERE id = ?1),"
                "  (SELECT MAX(seq) + 1 FROM jobs), 0),"
                "  ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    job.id,
                    job.kind,
                    spec,
                    _flag(getattr(job, "vectorize", None)),
                    job.priority,
                    getattr(job, "chunk_partition", None),
                    job.state,
                    job.error,
                    int(job.cancel_requested()),
                    job.submitted_at,
                    job.started_at,
                    job.finished_at,
                ),
            )
        ]
        for index, state, attempts in getattr(job, "chunk_states", lambda: ())():
            statements.append(
                (
                    "INSERT OR REPLACE INTO leases (job, chunk, state, attempts)"
                    " VALUES (?, ?, ?, ?)",
                    (job.id, index, state, attempts),
                )
            )
        self._write(statements, critical=True)

    def record_transition(self, job: "Job") -> None:
        """Journal a state-machine edge (queued->running, ->terminal, cancel)."""
        self._write(
            [
                (
                    "UPDATE jobs SET state = ?, error = ?,"
                    " cancel_requested = ?, started_at = ?, finished_at = ?"
                    " WHERE id = ?",
                    (
                        job.state,
                        job.error,
                        int(job.cancel_requested()),
                        job.started_at,
                        job.finished_at,
                        job.id,
                    ),
                )
            ]
        )

    def record_lease(
        self, job_id: str, chunk: int, state: str, attempts: int
    ) -> None:
        """Journal one chunk's lease-table entry (grant, requeue, ack)."""
        self._write(
            [
                (
                    "INSERT OR REPLACE INTO leases (job, chunk, state, attempts)"
                    " VALUES (?, ?, ?, ?)",
                    (job_id, chunk, state, attempts),
                )
            ]
        )

    def evict(self, job_ids: Iterable[str]) -> None:
        """Forget terminal jobs (the retention policy's journal half)."""
        ids = list(job_ids)
        if not ids:
            return
        statements: list[tuple[str, tuple]] = []
        for job_id in ids:
            statements.append(("DELETE FROM leases WHERE job = ?", (job_id,)))
            statements.append(("DELETE FROM jobs WHERE id = ?", (job_id,)))
        statements.append(
            (
                "INSERT INTO meta (key, value) VALUES ('evicted_total', ?)"
                " ON CONFLICT (key) DO UPDATE SET"
                " value = CAST(value AS INTEGER) + excluded.value",
                (len(ids),),
            )
        )
        self._write(statements)

    # -- shutdown marker and recovery metadata -------------------------
    def mark_clean_shutdown(self, mode: str) -> None:
        """Journal that this process exited on purpose (``drain``/``fast``)."""
        self._write(
            [
                (
                    "INSERT OR REPLACE INTO meta (key, value) VALUES"
                    " ('clean_shutdown', ?)",
                    (json.dumps({"mode": mode, "at": time.time()}),),
                )
            ],
        )

    def consume_clean_shutdown(self) -> dict | None:
        """Read and clear the clean-shutdown marker (startup does this).

        ``None`` means the previous process never shut down cleanly --
        a crash, the case recovery exists for.  Clearing the marker on
        every startup keeps the invariant: a marker present on open
        always describes the *immediately preceding* exit.
        """
        rows = self._read("SELECT value FROM meta WHERE key = 'clean_shutdown'")
        self._write([("DELETE FROM meta WHERE key = 'clean_shutdown'", ())])
        return json.loads(rows[0][0]) if rows else None

    def set_recovery_info(self, info: Mapping) -> None:
        """Persist the last recovery's counters for ``--inspect-journal``."""
        self._write(
            [
                (
                    "INSERT OR REPLACE INTO meta (key, value) VALUES"
                    " ('last_recovery', ?)",
                    (json.dumps(dict(info), sort_keys=True),),
                )
            ]
        )

    # -- readers -------------------------------------------------------
    def jobs(self) -> list[dict]:
        """Every journaled job, in priority-FIFO replay order."""
        rows = self._read(
            "SELECT id, seq, kind, spec, vectorize, priority,"
            " chunks, state, error, cancel_requested, submitted_at,"
            " started_at, finished_at"
            " FROM jobs ORDER BY priority, seq"
        )
        keys = (
            "id",
            "seq",
            "kind",
            "spec",
            "vectorize",
            "priority",
            "chunks",
            "state",
            "error",
            "cancel_requested",
            "submitted_at",
            "started_at",
            "finished_at",
        )
        return [dict(zip(keys, row)) for row in rows]

    def leases(self, job_id: str) -> dict[int, dict]:
        """One fleet job's journaled chunk table: ``{index: row}``."""
        return {
            chunk: {"state": state, "attempts": attempts}
            for chunk, state, attempts in self._read(
                "SELECT chunk, state, attempts FROM leases WHERE job = ?",
                (job_id,),
            )
        }

    def summary(self) -> dict:
        """The ``repro serve --inspect-journal`` payload."""
        jobs: dict[str, int] = {}
        for (state, count) in self._read(
            "SELECT state, COUNT(*) FROM jobs GROUP BY state"
        ):
            jobs[state] = count
        chunks: dict[str, int] = {}
        for (state, count) in self._read(
            "SELECT state, COUNT(*) FROM leases GROUP BY state"
        ):
            chunks[state] = count
        meta = dict(self._read("SELECT key, value FROM meta"))
        clean = meta.get("clean_shutdown")
        recovery = meta.get("last_recovery")
        return {
            "path": str(self.path),
            "jobs": {**jobs, "total": sum(jobs.values())},
            "chunks": {**chunks, "total": sum(chunks.values())},
            "clean_shutdown": json.loads(clean) if clean else None,
            "last_recovery": json.loads(recovery) if recovery else None,
            "evicted_total": int(meta.get("evicted_total", 0)),
        }
