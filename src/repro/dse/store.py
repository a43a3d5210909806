"""Persistent result stores for DSE records: JSONL and SQLite backends.

Stores are keyed by the point's config hash and share one resolution
rule, *version-aware last-write-wins*: a record only supersedes an
earlier record for the same hash when its ``version`` is at least as
new, so a stale re-append can never shadow a current record.  Two
backends implement the :class:`ResultStoreBase` interface:

* :class:`ResultStore` -- the append-only JSONL file.  One JSON record
  per line; appends are crash-safe in the usual JSONL sense (a torn
  final line is skipped with a warning on load, and the next append
  starts on a fresh line), duplicate hashes
  resolve at load time, point lookups decode only the lines that may
  hold a wanted hash, :meth:`~ResultStoreBase.compact` rewrites the
  file keeping only survivors (optionally gzip-compressed, detected by
  magic bytes on every operation).
* :class:`~repro.dse.sqlite_store.SQLiteStore` -- one row per hash in a
  SQLite table, with the same resolution rule applied at write time by
  a conditional upsert.  Point lookups (:meth:`~ResultStoreBase.
  records_for`) are indexed, so a large warm store resolves a sweep
  without re-parsing every record the way a JSONL load must.

Two backends, and only two: JSONL is the portable format (and the
golden one the record pins are written in), SQLite the indexed one.
:func:`open_store` picks the backend from an explicit name, SQLite
magic bytes in an existing file, or the path suffix (``.sqlite`` /
``.sqlite3`` / ``.db`` select SQLite), so every CLI ``--store`` flag
and every ``store=`` argument accepts either backend transparently.
Per-shard stores of either backend union into one via
:meth:`ResultStoreBase.merge` under the same resolution rules (see
:meth:`SweepSpec.shard <repro.dse.spec.SweepSpec.shard>`).

Writers work in batches.  A streaming :meth:`ResultStoreBase.appender`
takes one pass of records per call -- one ``write`` of the joined lines
and one ``flush`` on JSONL, one ``executemany`` in one transaction on
SQLite -- and every bulk writer (``append``, ``merge``, ``compact``)
encodes its records together through
:func:`~repro.dse.entry.canonical_texts`, byte-identical to one
``json.dumps(record, sort_keys=True)`` per record.  The engine persists
a pass before it yields any of its records, so a process killed at any
point leaves every yielded record in the store.

Stores of the retired hash-partitioned backend (a ``.parts``
directory of ``part-*.jsonl`` files) are refused with the command that
converts them: each part file is a plain JSONL store, so ``repro
dse-merge OUT.sqlite DIR/part-*.jsonl`` unions them into one.
"""

from __future__ import annotations

import gzip as gzip_module
import json
import os
import shlex
import warnings
import zlib
from contextlib import contextmanager
from itertools import islice
from pathlib import Path
from typing import IO, TYPE_CHECKING, Callable, Container, Iterable, Iterator, Mapping

from .entry import RecordEntry, canonical_texts, entry_texts

if TYPE_CHECKING:
    from .sqlite_store import SQLiteStore

__all__ = [
    "ResultStore",
    "ResultStoreBase",
    "StoreWarning",
    "open_served_store",
    "open_store",
]

_GZIP_MAGIC = b"\x1f\x8b"
_SQLITE_MAGIC = b"SQLite format 3\x00"
_SQLITE_SUFFIXES = (".sqlite", ".sqlite3", ".db")

#: Records encoded per ``canonical_texts`` call when a rewrite streams
#: a whole store back out, so it never holds every line at once.
_ENCODE_BATCH = 5_000


def _durable_replace(tmp: Path, path: Path) -> None:
    """Rename ``tmp`` over ``path`` so the swap survives a power loss.

    The temp file's bytes are fsynced before the rename (else the new
    name can point at an empty file after a crash) and the parent
    directory after it (else the rename itself can be lost).
    """
    with open(tmp, "rb") as handle:
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


def _lines(texts: list[str]) -> str:
    """Canonical texts as JSONL lines, ready for one write."""
    return "".join([text + "\n" for text in texts])


class StoreWarning(UserWarning):
    """A store file held lines that could not be parsed (and were skipped)."""


def _supersedes(new: dict, old: dict) -> bool:
    """Version-aware last-write-wins: newer-or-equal version replaces."""
    return new.get("version", 0) >= old.get("version", 0)


def _resolve(lines: Iterable[dict]) -> dict[str, dict]:
    """Record lines in file order, resolved to ``{hash: survivor}``."""
    records: dict[str, dict] = {}
    for record in lines:
        key = record["hash"]
        if key not in records or _supersedes(record, records[key]):
            records[key] = record
    return records


_HASH_KEY = b'"hash"'
_HASH_MARKER = b'"hash": "'


def _plain_hash(raw: bytes) -> str | None:
    """The ``hash`` of a stored JSONL line, read without decoding it.

    Only answers when the bytes leave no doubt: the line ends in ``}``,
    holds no backslash (so every ``"`` delimits a string and no key or
    value is escaped), and has exactly one ``"hash"`` token, followed
    by ``": "`` -- the spelling every writer emits with
    ``json.dumps(record, sort_keys=True)``.  The answer is then the
    hash :func:`json.loads` would give the line, if it has one at all.
    Anything else (compact or hand-written lines, nested or repeated
    ``"hash"`` keys, escapes, undecodable bytes) returns ``None``, and
    the caller must decode the line.
    """
    if not raw.endswith(b"}") or b"\\" in raw or raw.count(_HASH_KEY) != 1:
        return None
    start = raw.find(_HASH_MARKER)
    if start < 0:
        return None
    start += len(_HASH_MARKER)
    end = raw.find(b'"', start)
    if end < 0:
        return None
    try:
        return raw[start:end].decode("utf-8")
    except UnicodeDecodeError:
        return None


def _as_entries(
    records: Iterable[dict | RecordEntry], path=None, stacklevel: int = 3
) -> list[RecordEntry]:
    """A batch of writes as entries, keyless records dropped.

    Writers take dicts or entries: the engine hands them entries, so a
    record whose text already exists is written without re-encoding,
    and whatever text a write encodes stays on the entry for the next
    consumer (the job stream).  Keyless records are unloadable in any
    backend -- ``iter_lines`` drops them on read -- so they are skipped
    instead of accumulating dead lines or rows, with a
    :class:`StoreWarning` when ``path`` is given.
    """
    if isinstance(records, (dict, RecordEntry)):
        raise TypeError("store writers take a batch of records, not one record")
    entries: list[RecordEntry] = []
    for record in records:
        if isinstance(record, RecordEntry):
            entries.append(record)
        elif isinstance(record, dict) and record.get("hash"):
            entries.append(RecordEntry.of(record))
        elif path is not None:
            warnings.warn(
                f"{path}: dropping keyless record on append (records need "
                'a "hash" key to ever be read back)',
                StoreWarning,
                stacklevel=stacklevel,
            )
    return entries


class ResultStoreBase:
    """The persistent-cache interface both store backends implement.

    Subclasses provide ``load``/``append``/``appender``/``iter_lines``/
    ``merge``/``compact``; the base supplies derived conveniences with
    load-everything fallbacks that indexed backends override.
    """

    #: Short backend name, reported by :meth:`stats` and the CLI.
    backend = "base"

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)

    def exists(self) -> bool:
        return self.path.exists()

    def is_gzipped(self) -> bool:
        return False

    # -- interface implemented per backend -----------------------------
    def load(self) -> dict[str, dict]:
        raise NotImplementedError

    def append(self, records: Iterable[dict]) -> int:
        raise NotImplementedError

    def appender(self) -> "contextmanager":
        raise NotImplementedError

    def iter_lines(self) -> Iterator[dict]:
        raise NotImplementedError

    def compact(
        self, gzip: bool | None = None, drop_stale: bool = True
    ) -> tuple[int, int]:
        raise NotImplementedError

    def records_for(
        self, hashes: Iterable[str], version: int | None = None
    ) -> dict[str, dict]:
        """The stored records for the given config hashes.

        ``version`` restricts hits to records at exactly that
        ``EVAL_VERSION`` -- the engine's warm path, which only wants
        records it will not re-evaluate anyway.  The JSONL backend
        still reads the whole file but decodes only the lines that may
        hold a wanted hash; the SQLite backend answers from an indexed
        point lookup.
        """
        # Missing versions count as 0, matching _supersedes and the
        # SQLite column default -- the backends must agree on
        # versionless records.
        raise NotImplementedError

    def entries_for(
        self, hashes: Iterable[str], version: int | None = None
    ) -> dict[str, RecordEntry]:
        """:meth:`records_for` as entries, in the backend's native form.

        The engine's warm lookup.  Entries carry whatever the backend
        already had: this default wraps the decoded records of
        :meth:`records_for`, and SQLite overrides it to hand back its
        stored column text undecoded, so a served store hit goes to the
        wire without a decode or an encode.
        """
        return {
            key: RecordEntry(key, record=record)
            for key, record in self.records_for(hashes, version=version).items()
        }

    # -- derived queries (overridden where the backend can do better) --
    def stats(self) -> dict:
        """Store metadata for health/stats surfaces (no record bodies)."""
        exists = self.exists()
        return {
            "backend": self.backend,
            "path": str(self.path),
            "exists": exists,
            "records": len(self) if exists else 0,
            "size_bytes": self.path.stat().st_size if exists else 0,
            "gzipped": self.is_gzipped(),
        }

    def merge(
        self,
        sources: Iterable["ResultStoreBase | Mapping | str | os.PathLike"],
        gzip: bool | None = None,
    ) -> int:
        """Union source stores into this one; returns the record count.

        Existing records in this store participate too: for each hash
        the surviving record is picked version-aware last-write-wins
        across self and the sources, in argument order (a later source
        wins a same-version tie).  Sources may be either backend --
        paths go through :func:`open_store` -- or already-loaded
        ``{hash: record}`` mappings (a caller that just read a store
        need not re-parse it); missing source files are skipped, so
        empty shards that never produced a store merge cleanly.
        """
        merged = self.load()
        for source in _source_records(sources):
            for key, record in source:
                if key not in merged or _supersedes(record, merged[key]):
                    merged[key] = record
        self._replace_all(merged.values(), gzip=gzip)
        return len(merged)

    def _replace_all(
        self, records: Iterable[dict], gzip: bool | None = None
    ) -> None:
        raise NotImplementedError

    def __len__(self) -> int:
        return len(self.load())

    def __contains__(self, config_hash: str) -> bool:
        return config_hash in self.load()


class ResultStore(ResultStoreBase):
    """The append-only JSONL result store (one JSON record per line).

    Gzipped stores are detected by magic bytes, so every operation --
    load, append, merge, compact -- is transparent to whether the file
    is compressed; appends to a gzipped store add a new gzip member,
    which the multi-member reader handles natively.
    """

    backend = "jsonl"

    def is_gzipped(self) -> bool:
        """Whether the store file is gzip-compressed (magic-byte sniff)."""
        if not self.path.exists():
            return False
        with self.path.open("rb") as handle:
            return handle.read(2) == _GZIP_MAGIC

    def _reject_sqlite_file(self) -> None:
        # A forced jsonl backend on a SQLite file must hard-error:
        # treating the binary pages as torn lines would read as an
        # empty store, and appending JSONL after them would write
        # records no later open (which sniffs SQLite magic) can see.
        if not self.path.exists():
            return
        with self.path.open("rb") as handle:
            if handle.read(len(_SQLITE_MAGIC)) == _SQLITE_MAGIC:
                raise ValueError(
                    f"{self.path} is a SQLite store (open it with the "
                    "sqlite backend, or pick a fresh path)"
                )

    def _open_read(self) -> IO[bytes]:
        # Binary on purpose: a crash mid-append can tear a multi-byte
        # character, and a text-mode handle would raise mid-iteration.
        # ``json.loads`` decodes each line itself.
        self._reject_sqlite_file()
        if self.is_gzipped():
            return gzip_module.open(self.path, "rb")
        return self.path.open("rb")

    def _torn_tail(self) -> bool:
        """Whether the plain file's last line lacks its newline."""
        try:
            with self.path.open("rb") as handle:
                handle.seek(-1, os.SEEK_END)
                return handle.read(1) != b"\n"
        except OSError:  # missing or empty
            return False

    def _open_append(self) -> IO[str]:
        self._reject_sqlite_file()
        if self.is_gzipped():
            # A new gzip member; readers treat members as one stream.
            return gzip_module.open(self.path, "at", encoding="utf-8")
        torn = self._torn_tail()
        handle = self.path.open("a", encoding="utf-8")
        if torn:
            # Start on a fresh line: a record glued onto a crashed
            # append's torn tail would be skipped along with it.
            handle.write("\n")
        return handle

    def iter_lines(self, only: Container[str] | None = None) -> Iterator[dict]:
        """Every parseable record line in file order (no dedup).

        A line that fails to parse -- the torn tail of a
        crash-interrupted append, or a mid-file corruption -- is skipped
        with a :class:`StoreWarning` instead of aborting the load, so a
        crashed run's store keeps serving everything that landed.

        ``only`` restricts the lines to records whose hash it holds.  A
        line whose hash :func:`_plain_hash` reads without decoding is
        skipped unparsed when unwanted; every other line is decoded as
        usual and then filtered, so a lookup never holds more than the
        records it asked for.
        """
        if not self.path.exists():
            return
        try:
            with self._open_read() as handle:
                for lineno, raw in enumerate(handle, 1):
                    raw = raw.strip()
                    if not raw:
                        continue
                    if only is not None:
                        key = _plain_hash(raw)
                        if key is not None and key not in only:
                            continue
                    try:
                        record = json.loads(raw)
                    except (json.JSONDecodeError, UnicodeDecodeError):
                        warnings.warn(
                            f"{self.path}: skipping unparseable record on "
                            f"line {lineno} (torn write from an interrupted "
                            "append?)",
                            StoreWarning,
                            stacklevel=2,
                        )
                        continue
                    if (
                        isinstance(record, dict)
                        and record.get("hash")
                        and (only is None or record["hash"] in only)
                    ):
                        yield record
        except (EOFError, gzip_module.BadGzipFile, zlib.error):
            warnings.warn(
                f"{self.path}: torn or corrupt gzip member; keeping the "
                "records that parsed",
                StoreWarning,
                stacklevel=2,
            )
            return

    def load(self) -> dict[str, dict]:
        """All stored records as ``{config_hash: record}``.

        Duplicate hashes resolve version-aware last-write-wins: among
        lines for one hash, the last line whose ``version`` ties or
        beats every earlier line survives, so a stale-``EVAL_VERSION``
        re-append never shadows a current record.
        """
        return _resolve(self.iter_lines())

    def records_for(
        self, hashes: Iterable[str], version: int | None = None
    ) -> dict[str, dict]:
        """:meth:`ResultStoreBase.records_for`, decoding only the lines
        that may hold a wanted hash, then resolving exactly as
        :meth:`load` does."""
        wanted = set(hashes)
        return {
            key: record
            for key, record in _resolve(self.iter_lines(only=wanted)).items()
            if version is None or record.get("version", 0) == version
        }

    def append(self, records: Iterable[dict]) -> int:
        """Append records; returns how many changed the resolved view.

        The shared :meth:`ResultStoreBase.append` contract: the count
        is lines that actually landed, not lines offered.  Keyless
        records are skipped with a :class:`StoreWarning` (they could
        never be read back -- ``iter_lines`` drops them -- and SQLite's
        row builder skips them too), and a record superseded by what
        the store already holds (or by an earlier record in the same
        batch) is not written at all, so a stale re-upload reports 0 on
        every backend instead of quietly growing the file with dead
        lines.
        """
        entries = _as_entries(records, self.path)
        if not entries:
            return 0
        versions = {
            key: record.get("version", 0)
            for key, record in self.load().items()
        }
        kept = []
        for entry in entries:
            version = entry.record.get("version", 0)
            if entry.hash in versions and version < versions[entry.hash]:
                continue
            kept.append(entry)
            versions[entry.hash] = version
        if kept:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            # One write: a concurrent streaming appender's passes land
            # between batches, never inside one.
            with self._open_append() as handle:
                handle.write(_lines(entry_texts(kept)))
        return len(kept)

    @contextmanager
    def appender(self) -> Iterator[Callable[[Iterable[dict | RecordEntry]], None]]:
        """One held-open append handle for streaming writers.

        The yielded callable takes one pass -- a batch of dicts or
        :class:`~repro.dse.entry.RecordEntry` objects, whose texts are
        written as they are -- and writes it with one ``write`` of the
        joined lines and one ``flush``.  Every persisted pass is then
        on disk for crash recovery (gzip flushes with a sync point)
        without a file open per pass, concurrent appenders on a plain
        file interleave between passes and never inside a line, and a
        gzipped store gains one member per run.  The file is only
        created once something is written.
        Keyless records are skipped with a :class:`StoreWarning`;
        unlike bulk :meth:`append` there is no stale check -- resolving
        each pass against the store would cost a full parse, and the
        engine only streams freshly evaluated records.
        """
        handle: IO[str] | None = None
        try:

            def write(records: Iterable[dict | RecordEntry]) -> None:
                nonlocal handle
                entries = _as_entries(records, self.path)
                if not entries:
                    return
                if handle is None:
                    self.path.parent.mkdir(parents=True, exist_ok=True)
                    handle = self._open_append()
                handle.write(_lines(entry_texts(entries)))
                handle.flush()

            yield write
        finally:
            if handle is not None:
                handle.close()

    def _rewrite(self, records: Iterable[dict], gzip: bool) -> None:
        """Atomically and durably replace the file, one line per record."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(self.path.name + ".tmp")
        opener = gzip_module.open if gzip else open
        records = iter(records)
        with opener(tmp, "wt", encoding="utf-8") as handle:
            while batch := list(islice(records, _ENCODE_BATCH)):
                handle.write(_lines(canonical_texts(batch)))
        _durable_replace(tmp, self.path)

    def _replace_all(
        self, records: Iterable[dict], gzip: bool | None = None
    ) -> None:
        if gzip is None:
            gzip = self.is_gzipped()
        self._rewrite(records, gzip=gzip)

    def compact(
        self, gzip: bool | None = None, drop_stale: bool = True
    ) -> tuple[int, int]:
        """Drop superseded lines; returns ``(kept, dropped)`` line counts.

        ``dropped`` counts parseable record lines that lost resolution;
        blank or torn lines are removed too but not counted.
        Keeps one line per hash (the version-aware last-write-wins
        survivor) and, when ``drop_stale``, only records at the current
        ``EVAL_VERSION`` -- anything else would be re-evaluated by the
        engine anyway.  ``gzip=True``/``False`` converts the file;
        ``None`` keeps its current compression.  The rewrite is atomic
        (temp file + rename), so a crash mid-compact leaves the
        original store intact.
        """
        if not self.path.exists():
            return (0, 0)
        total = 0
        records: dict[str, dict] = {}
        for record in self.iter_lines():
            total += 1
            key = record["hash"]
            if key not in records or _supersedes(record, records[key]):
                records[key] = record
        if drop_stale:
            from .evaluate import EVAL_VERSION

            records = {
                key: record
                for key, record in records.items()
                if record.get("version") == EVAL_VERSION
            }
        if gzip is None:
            gzip = self.is_gzipped()
        self._rewrite(records.values(), gzip=gzip)
        return (len(records), total - len(records))


def _source_records(
    sources: Iterable["ResultStoreBase | Mapping | str | os.PathLike"],
) -> Iterator[Iterable[tuple[str, dict]]]:
    """Each merge source as ``(hash, record)`` items, in source order."""
    for source in sources:
        if isinstance(source, Mapping):
            yield source.items()
        else:
            if not isinstance(source, ResultStoreBase):
                source = open_store(source)
            yield source.load().items()


def _partitioned_store_error(path) -> ValueError:
    """The refusal for a store of the retired hash-partitioned backend.

    A partitioned store was a directory of ``part-*.jsonl`` files, each
    a plain JSONL store, so the message carries the ``dse-merge``
    command that unions them into one SQLite store.
    """
    return ValueError(
        f"{path}: partitioned stores are no longer supported; convert the "
        f"part files with: repro dse-merge OUT.sqlite {shlex.quote(str(path))}"
        "/part-*.jsonl"
    )


def _sniff_backend(path: Path) -> str:
    """Pick a backend for a path: file magic, then suffix."""
    try:
        if path.exists() and path.stat().st_size > 0:
            with path.open("rb") as handle:
                head = handle.read(len(_SQLITE_MAGIC))
            return "sqlite" if head == _SQLITE_MAGIC else "jsonl"
    except OSError:
        pass
    return "sqlite" if path.suffix.lower() in _SQLITE_SUFFIXES else "jsonl"


def open_store(
    path: "ResultStoreBase | str | os.PathLike", backend: str | None = None
) -> ResultStoreBase:
    """Open a result store, picking the backend when not forced.

    ``backend`` is ``"jsonl"``, ``"sqlite"``, or ``None`` to decide
    from the path itself: an existing non-empty file goes by its magic
    bytes (so a mis-suffixed store still opens correctly), a fresh path
    by its suffix (``.sqlite`` / ``.sqlite3`` / ``.db`` select SQLite,
    anything else JSONL).  An already-constructed store passes through
    untouched, so every ``store=`` argument accepts paths and store
    objects interchangeably.

    A store of the retired partitioned backend -- ``backend=
    "partitioned"``, an existing directory, or a fresh ``.parts`` path
    -- raises :func:`_partitioned_store_error`, whose message is the
    ``repro dse-merge`` command that converts it.
    """
    if isinstance(path, ResultStoreBase):
        return path
    resolved = Path(path)
    if (
        backend == "partitioned"
        or resolved.is_dir()
        or (
            backend is None
            and resolved.suffix.lower() == ".parts"
            and not resolved.exists()
        )
    ):
        raise _partitioned_store_error(resolved)
    if backend is None:
        backend = _sniff_backend(resolved)
    if backend == "sqlite":
        from .sqlite_store import SQLiteStore

        return SQLiteStore(resolved)
    if backend == "jsonl":
        return ResultStore(resolved)
    raise ValueError(
        f"unknown store backend {backend!r}; choose 'jsonl' or 'sqlite'"
    )


def open_served_store(
    store: "ResultStoreBase | str | os.PathLike", backend: str | None = None
) -> SQLiteStore:
    """Open a store that must be SQLite: the sweep service's and the launcher's.

    Anything that does not sniff as SQLite -- an existing JSONL file,
    gzipped or not, a fresh path that :func:`open_store` would make a
    JSONL store, or a JSONL store object -- raises one ``ValueError``
    ending in the ``repro dse-merge`` command that converts it.  Only
    the path is inspected, so a refusal writes no file.
    """
    from .sqlite_store import SQLiteStore

    opened = open_store(store, backend=backend)
    if isinstance(opened, SQLiteStore) and (
        not opened.exists() or _sniff_backend(opened.path) == "sqlite"
    ):
        return opened
    raise ValueError(
        f"{opened.path} is not a SQLite store, and the sweep service "
        "serves SQLite only; convert it with: "
        f"repro dse-merge OUT.sqlite {shlex.quote(str(opened.path))}"
    )
