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
streaming :meth:`appender` commits once per pass -- one
``executemany`` in one transaction, the same boundary at which the
JSONL appender writes and flushes -- and bulk :meth:`append` commits
in bounded batches; both encode a batch's records together.  Stores
are plain single files, safe to copy or merge across machines like
their JSONL siblings; ``gzip`` conversion is a JSONL-only concept and
is rejected explicitly.

This is the only backend the sweep service serves: its keyset pages
walk the hash index, and every read opens its own connection, so it
sees every committed write.

Layout: ``records`` is an ordinary rowid table whose ``hash TEXT
PRIMARY KEY`` gets SQLite's unique autoindex, and that index is the
only one.  Each ~730 B record lives in the table's own B-tree, which
fills its pages as rows arrive; the index holds only the 64-hex keys.
Point lookups, keyset pages and the upsert's ``ON CONFLICT (hash)``
all run on the autoindex, and ``version = ?`` is a residual filter on
the rows they reach -- every row is at the current version unless
``EVAL_VERSION`` was bumped, and :meth:`SQLiteStore.compact` removes
the stale ones.  There is no version index to maintain on each write.

Stores written before this layout keep their ``WITHOUT ROWID`` table
(each record inside a primary-key B-tree whose keyed inserts leave
pages about half full) and its ``records_version`` index: ``CREATE
TABLE IF NOT EXISTS`` leaves them as they are, and every statement
here runs on either layout.  ``repro dse-merge NEW.sqlite OLD.sqlite``
copies one into the current layout.

Only writers (:meth:`~SQLiteStore.append`, :meth:`~SQLiteStore.
appender`, :meth:`~SQLiteStore.merge`, :meth:`~SQLiteStore.compact`)
create the schema; reads run no DDL.
"""

from __future__ import annotations

import json
import sqlite3
from contextlib import closing, contextmanager
from operator import itemgetter
from typing import Callable, Iterable, Iterator

from .entry import RecordEntry, entry_texts
from .store import ResultStoreBase, _as_entries, _source_records

__all__ = ["SQLiteStore"]

_SCHEMA = (
    "CREATE TABLE IF NOT EXISTS records ("
    " hash TEXT PRIMARY KEY NOT NULL,"
    " version INTEGER NOT NULL DEFAULT 0,"
    " record TEXT NOT NULL"
    ")"
)

#: Reads filter on ``+version``: the unary plus keeps the term off any
#: index, so an old-layout store's ``records_version`` index never
#: displaces the hash index (whose order the pages need) from a plan.
_AT_VERSION = "+version = ?"

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


def _rows(
    records: Iterable[dict | RecordEntry], path=None
) -> list[tuple[str, int, str]]:
    """The (hash, version, json) rows of a batch, in hash order.

    Keyless records are dropped (see :func:`~repro.dse.store.
    _as_entries`).  An entry's text is stored as is, and the batch's
    missing texts are encoded together in one
    :func:`~repro.dse.entry.canonical_texts` call, so a streamed record
    is encoded at most once on its way to the table and the wire.
    Hash order: random 64-hex keys inserted as they come touch pages
    all over the hash index (and all over an old-layout store's
    primary-key B-tree); sorted, each batch walks it once.  The sort is
    stable, so duplicates within one batch keep their order and the
    last write still wins.
    """
    entries = _as_entries(records, path, stacklevel=4)
    rows = [
        (entry.hash, entry.record.get("version", 0), text)
        for entry, text in zip(entries, entry_texts(entries))
    ]
    rows.sort(key=itemgetter(0))
    return rows


class SQLiteStore(ResultStoreBase):
    """Persistent cache of evaluated design points in a SQLite file."""

    backend = "sqlite"

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

    def _open(self) -> sqlite3.Connection:
        # Writers from merge/ingest can overlap a streaming appender;
        # wait up to 10 s for the lock instead of failing fast.
        return sqlite3.connect(self.path, timeout=10.0)

    def _not_a_store(self) -> ValueError:
        # E.g. --backend sqlite forced onto a JSONL file.
        return ValueError(
            f"{self.path} is not a SQLite store (open it with the "
            "jsonl backend, or pick a fresh path)"
        )

    def _connect(self) -> sqlite3.Connection:
        """A writer's connection, with the schema created if missing."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        connection = self._open()
        try:
            connection.execute(_SCHEMA)
        except sqlite3.OperationalError:
            # E.g. locked past the busy timeout: a real I/O failure,
            # mapped to OSError by the calling method's _guard.
            connection.close()
            raise
        except sqlite3.DatabaseError:
            connection.close()
            raise self._not_a_store() from None
        return connection

    @contextmanager
    def _reader(self) -> Iterator[sqlite3.Connection]:
        """A read connection, with no DDL run on it.

        Only writers create the table, so a reader can meet a store
        file without one (a 0-byte file): the "no such table" error
        ends the ``with`` block quietly and the caller's empty answer
        after it stands.  A file that is not SQLite raises the same
        ``ValueError`` a writer's :meth:`_connect` does.
        """
        with self._guard(), closing(self._open()) as db:
            try:
                yield db
            except sqlite3.OperationalError as error:
                if "no such table" not in str(error):
                    raise
            except sqlite3.DatabaseError:
                raise self._not_a_store() from None

    def load(self) -> dict[str, dict]:
        """All stored records as ``{config_hash: record}`` (pre-resolved)."""
        if self.exists():
            with self._reader() as db:
                return {
                    key: json.loads(blob)
                    for key, blob in db.execute("SELECT hash, record FROM records")
                }
        return {}

    def iter_lines(self) -> Iterator[dict]:
        """One surviving record per hash (duplicates resolved on write)."""
        if not self.exists():
            return
        with self._reader() as db:
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
        rows = _rows(records, self.path)
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
    def appender(self) -> Iterator[Callable[[Iterable[dict | RecordEntry]], None]]:
        """One held-open connection, one committed transaction per pass.

        The yielded callable takes one pass -- a batch of dicts or
        entries (see :func:`_rows`) -- and upserts it with one
        ``executemany`` in one transaction, so every persisted pass is
        durable before the next evaluation starts and an interrupted
        run keeps its partials.  The database file is only created
        once something is written.
        """
        db: sqlite3.Connection | None = None
        try:

            def write(records: Iterable[dict | RecordEntry]) -> None:
                nonlocal db
                rows = _rows(records, self.path)
                if not rows:
                    return
                with self._guard():
                    if db is None:
                        db = self._connect()
                    with db:
                        db.executemany(_UPSERT, rows)

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
        with self._reader() as db:
            for start in range(0, len(keys), _SELECT_CHUNK):
                chunk = keys[start : start + _SELECT_CHUNK]
                marks = ",".join("?" * len(chunk))
                sql = f"SELECT hash, record FROM records WHERE hash IN ({marks})"
                params: list = list(chunk)
                if version is not None:
                    sql += f" AND {_AT_VERSION}"
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
        sort_keys=True)`` (see :func:`_rows`), exactly an entry's text,
        so a served store hit streams without a decode or an encode;
        its dict is only built if a consumer reads it.
        """
        return {
            key: RecordEntry(key, text=blob)
            for key, blob in self._rows_for(hashes, version)
        }

    def iter_page(
        self,
        after: str | None = None,
        limit: int | None = None,
        version: int | None = None,
    ) -> Iterator[dict]:
        """Up to ``limit`` records hashed strictly after ``after``, in
        hash order, optionally at one ``version`` (see
        :meth:`iter_page_json`).  The next page's cursor is the last
        record's hash; an empty page ends the dump."""
        for _, blob in self.iter_page_json(after, limit, version):
            yield json.loads(blob)

    def iter_page_json(
        self,
        after: str | None = None,
        limit: int | None = None,
        version: int | None = None,
    ) -> Iterator[tuple[str, str]]:
        """Keyset page of ``(hash, stored JSON text)``, never decoded.

        ``hash`` is the primary key, so ``WHERE hash > ? ORDER BY hash
        LIMIT ?`` walks its index from the cursor and stops after one
        page -- no sort, no full scan, memory O(1).  ``version`` is a
        residual filter on the rows the walk reaches (see
        :data:`_AT_VERSION`).
        The ``record`` column already holds ``json.dumps(record,
        sort_keys=True)`` (see :func:`_rows`), so it is returned as is.
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
            clauses.append(_AT_VERSION)
            params.append(version)
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY hash"
        if limit is not None:
            sql += " LIMIT ?"
            params.append(limit)
        with self._reader() as db:
            yield from db.execute(sql, params)

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
                rows = _rows(record for _, record in items)
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
        the freed pages.  With no version index the delete scans the
        whole table; compaction is rare, and every write is cheaper for
        the index it does not maintain.
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
        if self.exists():
            with self._reader() as db:
                return db.execute("SELECT COUNT(*) FROM records").fetchone()[0]
        return 0

    def __contains__(self, config_hash: str) -> bool:
        if self.exists():
            with self._reader() as db:
                row = db.execute(
                    "SELECT 1 FROM records WHERE hash = ?", (config_hash,)
                ).fetchone()
                return row is not None
        return False
