"""SQLite-backed result store: one resolved row per config hash.

Same contract as the JSONL :class:`~repro.dse.store.ResultStore` --
version-aware last-write-wins, ``merge``/``compact`` parity, records
bit-identical through the JSON round-trip -- but the resolution rule is
applied *at write time* by a conditional upsert, so the table always
holds exactly the surviving record per hash.  That turns the engine's
warm path (:meth:`~repro.dse.store.ResultStoreBase.entries_for`) into
an indexed point lookup instead of a full-file parse: a million-record
store resolves a sweep in time proportional to the sweep, not the
store, and hands back each hit's stored text without decoding it.

Durability comes from SQLite's transactional writes: there is no torn
tail to tolerate, every committed record survives a crash whole.  The
streaming :meth:`appender` commits per record for parity with the JSONL
flush-per-record behaviour, while bulk :meth:`append` batches one
transaction.  Stores are plain single files, safe to copy or merge
across machines like their JSONL siblings; ``gzip`` conversion is a
JSONL-only concept and is rejected explicitly.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import warnings
from contextlib import closing, contextmanager
from operator import itemgetter
from typing import Callable, Iterable, Iterator

from .entry import RecordEntry
from .store import ResultStoreBase, StoreWarning, _source_records

__all__ = ["SQLiteStore"]

_SCHEMA = (
    "CREATE TABLE IF NOT EXISTS records ("
    " hash TEXT PRIMARY KEY,"
    " version INTEGER NOT NULL DEFAULT 0,"
    " record TEXT NOT NULL"
    ") WITHOUT ROWID",
    "CREATE INDEX IF NOT EXISTS records_version ON records (version)",
)

# The whole resolution rule in one statement: replace only when the
# incoming version ties or beats the stored one (_supersedes in SQL).
_UPSERT = (
    "INSERT INTO records (hash, version, record) VALUES (?, ?, ?) "
    "ON CONFLICT (hash) DO UPDATE SET"
    " version = excluded.version, record = excluded.record"
    " WHERE excluded.version >= records.version"
)

#: Point lookups batch their IN-lists to stay under SQLite's host
#: parameter limit (999 in older builds).
_SELECT_CHUNK = 500

#: Rows per transaction for bulk appends and merges.  One transaction
#: over a million-row upload holds the write lock (and the journal
#: growth) for the whole body; bounded batches keep each commit short
#: so streaming appenders and readers interleave, while staying large
#: enough that per-transaction fsync cost amortizes away.
APPEND_BATCH_ROWS = 5_000


def _row(record: dict | RecordEntry, path=None) -> tuple[str, int, str] | None:
    """The (hash, version, json) row for a record; None when keyless.

    An entry's text is stored as is (encoded once, when it has none
    yet), so a streamed record is encoded at most once on its way to
    the table and the wire.
    """
    if isinstance(record, RecordEntry):
        return (record.hash, record.record.get("version", 0), record.text)
    key = record.get("hash") if isinstance(record, dict) else None
    if not key:
        if path is not None:
            warnings.warn(
                f"{path}: dropping keyless record on append (records "
                'need a "hash" key to ever be read back)',
                StoreWarning,
                stacklevel=3,
            )
        return None  # keyless records are unloadable in any backend
    return (key, record.get("version", 0), json.dumps(record, sort_keys=True))


class SQLiteStore(ResultStoreBase):
    """Persistent cache of evaluated design points in a SQLite file."""

    backend = "sqlite"

    def __init__(self, path: "str | os.PathLike"):
        super().__init__(path)
        # change_token() holds one long-lived connection: PRAGMA
        # data_version only moves relative to a *held* connection (a
        # fresh connection always reads the same initial value).  The
        # connection is shared across handler threads under a lock.
        self._token_db: sqlite3.Connection | None = None
        self._token_ino: int | None = None
        self._token_lock = threading.Lock()

    def change_token(self) -> tuple | None:
        """``(data_version, mtime, size)`` -- the cache-invalidation key.

        ``PRAGMA data_version`` increments whenever *another* connection
        commits to the database, which catches the case a stat key
        cannot: an external same-size upsert landing inside one coarse
        mtime tick (every store write in this codebase opens its own
        connection, so the service's own appends count as "another
        connection" too).  The stat fields catch the file being
        replaced wholesale, in which case the held connection -- now
        pointing at the old inode -- is reopened.
        """
        try:
            stat = self.path.stat()
        except OSError:
            return None
        with self._token_lock:
            try:
                if self._token_db is None or self._token_ino != stat.st_ino:
                    if self._token_db is not None:
                        self._token_db.close()
                    self._token_db = sqlite3.connect(
                        self.path, check_same_thread=False
                    )
                    # Same busy wait as _connect(): without it, a
                    # writer holding the lock makes the PRAGMA raise
                    # and the token degrade to None -- disabling the
                    # server's read caches under exactly the
                    # concurrent-write load they exist for.
                    self._token_db.execute("PRAGMA busy_timeout = 10000")
                    self._token_ino = stat.st_ino
                (version,) = self._token_db.execute(
                    "PRAGMA data_version"
                ).fetchone()
            except sqlite3.Error:
                if self._token_db is not None:
                    self._token_db.close()
                    self._token_db = None
                return None
        return (version, stat.st_mtime_ns, stat.st_size)

    @contextmanager
    def _guard(self) -> Iterator[None]:
        """Translate sqlite3 errors (locked database, corruption) into
        OSError at the store boundary, so callers -- the CLI's error
        mapping, the server's 503 path -- handle store I/O failures
        uniformly without knowing the backend."""
        try:
            yield
        except sqlite3.Error as error:
            raise OSError(f"sqlite store {self.path}: {error}") from None

    def _connect(self) -> sqlite3.Connection:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        connection = sqlite3.connect(self.path)
        # Writers from merge/ingest can overlap a streaming appender;
        # wait for the lock instead of failing fast.
        connection.execute("PRAGMA busy_timeout = 10000")
        try:
            for statement in _SCHEMA:
                connection.execute(statement)
        except sqlite3.OperationalError:
            # E.g. locked past the busy timeout: a real I/O failure,
            # mapped to OSError by the calling method's _guard.
            connection.close()
            raise
        except sqlite3.DatabaseError:
            # E.g. --backend sqlite forced onto a JSONL file.
            connection.close()
            raise ValueError(
                f"{self.path} is not a SQLite store (open it with the "
                "jsonl backend, or pick a fresh path)"
            )
        return connection

    def load(self) -> dict[str, dict]:
        """All stored records as ``{config_hash: record}`` (pre-resolved)."""
        if not self.exists():
            return {}
        with self._guard(), closing(self._connect()) as db:
            return {
                key: json.loads(blob)
                for key, blob in db.execute("SELECT hash, record FROM records")
            }

    def iter_lines(self) -> Iterator[dict]:
        """One surviving record per hash (duplicates resolved on write)."""
        if not self.exists():
            return
        with self._guard(), closing(self._connect()) as db:
            for (blob,) in db.execute("SELECT record FROM records"):
                yield json.loads(blob)

    def append(self, records: Iterable[dict]) -> int:
        """Upsert in bounded transactions; returns rows that changed.

        The body chunks into :data:`APPEND_BATCH_ROWS`-row transactions
        so a million-record ingest never holds the write lock (or grows
        the rollback journal) for the whole upload.  The return value
        is the shared contract: rows that actually changed the store --
        ``db.total_changes`` deltas across the batches -- not rows
        offered, so a stale-version upload the conditional upsert drops
        reports 0, the same as the JSONL backend.
        """
        rows = [
            row
            for row in (_row(record, self.path) for record in records)
            if row is not None
        ]
        # Hash order: random 64-hex keys inserted as they come split
        # pages all over the WITHOUT ROWID B-tree; sorted, each batch
        # walks it once.  The sort is stable, so duplicates within one
        # call keep their order and the last write still wins.
        rows.sort(key=itemgetter(0))
        changed = 0
        with self._guard(), closing(self._connect()) as db:
            for start in range(0, len(rows), APPEND_BATCH_ROWS):
                before = db.total_changes
                with db:
                    db.executemany(
                        _UPSERT, rows[start : start + APPEND_BATCH_ROWS]
                    )
                changed += db.total_changes - before
        return changed

    @contextmanager
    def appender(self) -> Iterator[Callable[[dict | RecordEntry], None]]:
        """One held-open connection, one committed transaction per record.

        Commit-per-record mirrors the JSONL flush-per-record contract:
        every completed record is durable before the next evaluation
        starts, so an interrupted run keeps its partials.  The database
        file is only created once something is written.  Writes take
        dicts or entries (see :func:`_row`).
        """
        db: sqlite3.Connection | None = None
        try:

            def write(record: dict | RecordEntry) -> None:
                nonlocal db
                row = _row(record, self.path)
                if row is None:
                    return
                with self._guard():
                    if db is None:
                        db = self._connect()
                    with db:
                        db.execute(_UPSERT, row)

            yield write
        finally:
            if db is not None:
                db.close()

    def _rows_for(
        self, hashes: Iterable[str], version: int | None
    ) -> list[tuple[str, str]]:
        """Indexed point lookup: ``(hash, stored text)`` of each hit.

        Only the requested rows are read, so resolving a sweep against
        a huge warm store costs time proportional to the sweep.
        """
        keys = list(dict.fromkeys(hashes))
        if not keys or not self.exists():
            return []
        rows: list[tuple[str, str]] = []
        with self._guard(), closing(self._connect()) as db:
            for start in range(0, len(keys), _SELECT_CHUNK):
                chunk = keys[start : start + _SELECT_CHUNK]
                marks = ",".join("?" * len(chunk))
                sql = f"SELECT hash, record FROM records WHERE hash IN ({marks})"
                params: list = list(chunk)
                if version is not None:
                    sql += " AND version = ?"
                    params.append(version)
                rows.extend(db.execute(sql, params))
        return rows

    def records_for(
        self, hashes: Iterable[str], version: int | None = None
    ) -> dict[str, dict]:
        """Indexed point lookup, decoded (see :meth:`_rows_for`)."""
        return {key: json.loads(blob) for key, blob in self._rows_for(hashes, version)}

    def entries_for(
        self, hashes: Iterable[str], version: int | None = None
    ) -> dict[str, RecordEntry]:
        """The engine's warm path: hits as their stored text, undecoded.

        The ``record`` column holds ``json.dumps(record,
        sort_keys=True)`` (see :func:`_row`), exactly an entry's text,
        so a served store hit streams without a decode or an encode;
        its dict is only built if a consumer reads it.
        """
        return {
            key: RecordEntry(key, text=blob)
            for key, blob in self._rows_for(hashes, version)
        }

    def iter_records(self, version: int | None = None) -> Iterator[dict]:
        """Stream rows, with the version filter pushed into SQL.

        ``WHERE version = ?`` rides the ``records_version`` index, so
        serving the current-version dump of a store full of stale
        versions never parses (or transfers) the rows it will drop --
        unlike a Python-side post-filter of a full :meth:`load`.
        """
        if not self.exists():
            return
        sql = "SELECT record FROM records"
        params: tuple = ()
        if version is not None:
            sql += " WHERE version = ?"
            params = (version,)
        with self._guard(), closing(self._connect()) as db:
            for (blob,) in db.execute(sql, params):
                yield json.loads(blob)

    def iter_page(
        self,
        after: str | None = None,
        limit: int | None = None,
        version: int | None = None,
    ) -> Iterator[dict]:
        """Keyset page straight off the primary-key index."""
        for _, blob in self.iter_page_json(after, limit, version):
            yield json.loads(blob)

    def iter_page_json(
        self,
        after: str | None = None,
        limit: int | None = None,
        version: int | None = None,
    ) -> Iterator[tuple[str, str]]:
        """Keyset page of ``(hash, stored JSON text)``, never decoded.

        ``hash`` is the WITHOUT ROWID primary key, so ``WHERE hash > ?
        ORDER BY hash LIMIT ?`` walks the index from the cursor and
        stops after one page -- no sort, no full scan, memory O(1).
        The ``record`` column already holds ``json.dumps(record,
        sort_keys=True)`` (see :func:`_row`), so it is returned as is.
        """
        if limit is not None and limit < 1:
            raise ValueError("limit must be >= 1")
        if not self.exists():
            return
        sql = "SELECT hash, record FROM records"
        clauses: list[str] = []
        params: list = []
        if after is not None:
            clauses.append("hash > ?")
            params.append(after)
        if version is not None:
            clauses.append("version = ?")
            params.append(version)
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY hash"
        if limit is not None:
            sql += " LIMIT ?"
            params.append(limit)
        with self._guard(), closing(self._connect()) as db:
            yield from db.execute(sql, params)

    def hashes(self, version: int | None = None) -> set[str]:
        if not self.exists():
            return set()
        sql = "SELECT hash FROM records"
        params: tuple = ()
        if version is not None:
            sql += " WHERE version = ?"
            params = (version,)
        with self._guard(), closing(self._connect()) as db:
            return {key for (key,) in db.execute(sql, params)}

    def merge(
        self,
        sources: Iterable,
        gzip: bool | None = None,
    ) -> int:
        """Upsert every source's surviving records; returns the row count.

        Incremental by construction: existing rows participate through
        the upsert's version comparison (a later source wins a
        same-version tie), and this store's own records are never
        re-read or re-written.  Sources may be stores of either
        backend, paths, or already-loaded ``{hash: record}`` mappings.
        """
        if gzip:
            raise ValueError("SQLite stores do not support gzip")
        with self._guard(), closing(self._connect()) as db:
            for items in _source_records(sources):
                rows = [
                    row
                    for row in (_row(record) for _, record in items)
                    if row is not None
                ]
                # Bounded transactions, like append: a huge source
                # store must not pin the write lock in one commit.
                for start in range(0, len(rows), APPEND_BATCH_ROWS):
                    with db:
                        db.executemany(
                            _UPSERT, rows[start : start + APPEND_BATCH_ROWS]
                        )
            return db.execute("SELECT COUNT(*) FROM records").fetchone()[0]

    def compact(
        self, gzip: bool | None = None, drop_stale: bool = True
    ) -> tuple[int, int]:
        """Drop stale-version rows and vacuum; returns ``(kept, dropped)``.

        Superseded duplicates never reach the table (the upsert resolves
        them), so compaction only removes records at versions other than
        the current ``EVAL_VERSION`` (when ``drop_stale``) and reclaims
        the freed pages.
        """
        if gzip:
            raise ValueError("SQLite stores do not support gzip")
        if not self.exists():
            return (0, 0)
        with self._guard(), closing(self._connect()) as db:
            with db:
                total = db.execute(
                    "SELECT COUNT(*) FROM records"
                ).fetchone()[0]
                if drop_stale:
                    from .evaluate import EVAL_VERSION

                    db.execute(
                        "DELETE FROM records WHERE version != ?",
                        (EVAL_VERSION,),
                    )
                kept = db.execute("SELECT COUNT(*) FROM records").fetchone()[0]
            db.execute("VACUUM")
        return (kept, total - kept)

    def __len__(self) -> int:
        if not self.exists():
            return 0
        with self._guard(), closing(self._connect()) as db:
            return db.execute("SELECT COUNT(*) FROM records").fetchone()[0]

    def __contains__(self, config_hash: str) -> bool:
        if not self.exists():
            return False
        with self._guard(), closing(self._connect()) as db:
            row = db.execute(
                "SELECT 1 FROM records WHERE hash = ?", (config_hash,)
            ).fetchone()
            return row is not None
