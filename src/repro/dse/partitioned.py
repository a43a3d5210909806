"""Hash-partitioned JSONL store: N part files under one manifest.

A single JSONL file serves a million records only by parsing all of
them for every operation, and compacting it rewrites the whole store.
:class:`PartitionedStore` spreads records across ``parts`` hash-range
JSONL part files inside one directory::

    results.parts/
        manifest.json       # format, parts, per-part line/live counts
        part-0000.jsonl     # records whose hash falls in range 0
        part-0001.jsonl
        ...

Each config hash maps to exactly one part by a *monotone* hash-range
rule (see :func:`part_index`): every key in ``part-0000`` sorts before
every key in ``part-0001``, and so on.  That ordering is what makes the
layout pay off at scale:

* point lookups (:meth:`~repro.dse.store.ResultStoreBase.records_for`)
  parse only the parts that hold the requested hashes;
* keyset pagination (:meth:`~repro.dse.store.ResultStoreBase.iter_page`)
  streams parts in order -- a full paginated dump parses each part once
  and holds one part in memory, instead of re-parsing the whole store
  per page;
* compaction rewrites only the parts that need it.  The manifest tracks
  per-part ``lines`` (record lines in the file) and ``live``
  (surviving records) counts, so the stale fraction of each part is
  known without parsing it.  Bulk appends keep the counts exact (they
  resolve against the part anyway, skipping stale and duplicate
  writes); streamed appends bump them optimistically and the next
  compaction or bulk append recounts.  The compaction policy
  (:meth:`PartitionedStore.compact_stale_parts`, applied automatically
  after appends when ``compact_threshold`` is set) rewrites exactly
  the parts whose stale fraction exceeds the threshold, keeping every
  resolution survivor -- unlike full
  :meth:`~repro.dse.store.ResultStoreBase.compact`, it never drops
  old-version records.

Every part is a plain :class:`~repro.dse.store.ResultStore`, so torn
tails from crashed appends are tolerated per part, part rewrites are
atomic (temp file + rename), and the shared resolution rule --
version-aware last-write-wins -- applies unchanged.  Gzip compression
is a single-file JSONL concept and is rejected like the SQLite
backend does.  :func:`~repro.dse.store.open_store` selects this
backend for any existing directory, or a fresh path with a ``.parts``
suffix.
"""

from __future__ import annotations

import hashlib
import json
import os
from bisect import bisect_right
from contextlib import ExitStack, contextmanager
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping

from .entry import RecordEntry
from .store import (
    ResultStore,
    ResultStoreBase,
    _as_entry,
    _durable_replace,
    _keyed,
    _supersedes,
)

__all__ = ["PartitionedStore", "part_index", "DEFAULT_PARTS"]

MANIFEST_NAME = "manifest.json"

#: Default part-file count for fresh stores.  16 parts keep a 10^6
#: record store at ~60k records per part -- small enough that loading
#: or rewriting one part is cheap -- without scattering small stores
#: across hundreds of files.
DEFAULT_PARTS = 16

#: Default stale-line fraction past which a part is rewritten by the
#: append-time compaction policy (``compact_threshold=None`` disables).
DEFAULT_COMPACT_THRESHOLD = 0.5

#: How many leading bytes of a key the range rule ranks on.  Config
#: hashes are 64 hex chars; 8 bytes of prefix splits them far finer
#: than any realistic part count.
_PREFIX_BYTES = 8


def _key_rank(key: str) -> int:
    """A monotone integer rank: ``k1 <= k2`` implies rank order.

    Big-endian value of the key's first UTF-8 bytes, zero-padded --
    UTF-8 byte order preserves code-point order, so ranks sort exactly
    like Python strings (ties only between keys sharing the full
    prefix, which land in the same part).
    """
    raw = key.encode("utf-8", "surrogatepass")[:_PREFIX_BYTES]
    return int.from_bytes(raw.ljust(_PREFIX_BYTES, b"\0"), "big")


@lru_cache(maxsize=64)
def _boundaries(parts: int) -> tuple[int, ...]:
    # Boundary i is the rank of the *hex string* at i/parts of the
    # sha-256 key space: hex config hashes then spread uniformly
    # across parts, while arbitrary keys still map monotonically
    # (everything above "f..." lands in the last part).
    width = 2 * _PREFIX_BYTES
    space = 16**width
    return tuple(
        _key_rank(format((index * space) // parts, f"0{width}x"))
        for index in range(1, parts)
    )


def part_index(key: str, parts: int) -> int:
    """The part a key belongs to: contiguous, monotone hash ranges.

    Monotone means every key in part ``i`` sorts strictly before every
    key in part ``i + 1``, so streaming parts in index order yields
    records in global hash order -- the property keyset pagination
    leans on.  Boundaries split the hex key space evenly, so sha-256
    config hashes balance uniformly.
    """
    if parts < 1:
        raise ValueError("parts must be >= 1")
    if parts == 1:
        return 0
    return bisect_right(_boundaries(parts), _key_rank(key))


def _resolve_part(part: ResultStore) -> tuple[int, dict[str, dict]]:
    """One part's parseable line count and resolved survivors."""
    lines = 0
    current: dict[str, dict] = {}
    for record in part.iter_lines():
        lines += 1
        key = record["hash"]
        if key not in current or _supersedes(record, current[key]):
            current[key] = record
    return lines, current


def _stale_fraction(entry: Mapping) -> float:
    lines = entry.get("lines", 0)
    if lines <= 0:
        return 0.0
    return max(0, lines - entry.get("live", 0)) / lines


class PartitionedStore(ResultStoreBase):
    """A directory of hash-range JSONL parts behind one manifest."""

    backend = "partitioned"

    def __init__(
        self,
        path: str | os.PathLike,
        parts: int = DEFAULT_PARTS,
        compact_threshold: float | None = DEFAULT_COMPACT_THRESHOLD,
    ):
        super().__init__(path)
        if parts < 1:
            raise ValueError("parts must be >= 1")
        if compact_threshold is not None and not (
            0 <= compact_threshold <= 1
        ):
            raise ValueError("compact_threshold must be in [0, 1] or None")
        #: Used only when creating a fresh store; an existing
        #: manifest's part count always wins (the routing of records
        #: already on disk depends on it).
        self._requested_parts = int(parts)
        self.compact_threshold = compact_threshold
        self._part_cache: dict[int, ResultStore] = {}

    # -- manifest -------------------------------------------------------
    @property
    def _manifest_path(self) -> Path:
        return self.path / MANIFEST_NAME

    def exists(self) -> bool:
        return self._manifest_path.exists()

    @property
    def parts(self) -> int:
        manifest = self._read_manifest()
        return (
            self._requested_parts if manifest is None else manifest["parts"]
        )

    def _read_manifest(self) -> dict | None:
        if self.path.exists() and not self.path.is_dir():
            raise ValueError(
                f"{self.path} is not a partitioned store (expected a "
                "store directory; open the file with the jsonl or "
                "sqlite backend, or pick a fresh path)"
            )
        try:
            raw = self._manifest_path.read_text(encoding="utf-8")
        except OSError:
            return None
        manifest = json.loads(raw)  # JSONDecodeError is a ValueError
        parts = int(manifest.get("parts") or 0)
        if parts < 1:
            raise ValueError(
                f"{self._manifest_path}: invalid manifest "
                f"(parts={manifest.get('parts')!r})"
            )
        manifest["parts"] = parts
        counts = [
            {"lines": int(entry.get("lines", 0)), "live": int(entry.get("live", 0))}
            for entry in (manifest.get("counts") or [])[:parts]
        ]
        counts += [{"lines": 0, "live": 0}] * (parts - len(counts))
        manifest["counts"] = counts
        return manifest

    def _ensure_manifest(self) -> dict:
        manifest = self._read_manifest()
        if manifest is not None:
            return manifest
        self.path.mkdir(parents=True, exist_ok=True)
        manifest = {
            "format": 1,
            "backend": self.backend,
            "parts": self._requested_parts,
            "scheme": {
                "kind": "hex-range-byte-prefix",
                "prefix_bytes": _PREFIX_BYTES,
            },
            "counts": [
                {"lines": 0, "live": 0}
                for _ in range(self._requested_parts)
            ],
        }
        self._write_manifest(manifest)
        return manifest

    def _write_manifest(self, manifest: dict) -> None:
        # Atomic and durable like part rewrites: a crash mid-write
        # leaves the old manifest (counts may lag reality, which only
        # skews the compaction-policy estimate -- loads never read the
        # counts).
        tmp = self._manifest_path.with_name(MANIFEST_NAME + ".tmp")
        tmp.write_text(
            json.dumps(manifest, sort_keys=True) + "\n", encoding="utf-8"
        )
        _durable_replace(tmp, self._manifest_path)

    # -- parts ----------------------------------------------------------
    def _part(self, index: int) -> ResultStore:
        part = self._part_cache.get(index)
        if part is None:
            part = ResultStore(self.path / f"part-{index:04d}.jsonl")
            self._part_cache[index] = part
        return part

    def _parts_on_disk(self) -> Iterator[tuple[int, ResultStore]]:
        """Existing parts in index (= hash) order, tolerant of a lost
        manifest: read paths glob the directory instead of trusting
        counts, so every record that landed is always served."""
        if not self.path.is_dir():
            if self.path.exists():
                # Forced onto a regular file: reading it as a store
                # directory would report an empty store -- hard error,
                # matching the other backends' mismatch handling.
                self._read_manifest()
            return
        for path in sorted(self.path.glob("part-*.jsonl")):
            stem = path.name[len("part-") : -len(".jsonl")]
            if stem.isdigit():
                yield int(stem), self._part(int(stem))

    # -- reads ----------------------------------------------------------
    def load(self) -> dict[str, dict]:
        records: dict[str, dict] = {}
        for _, part in self._parts_on_disk():
            for key, record in part.load().items():
                # Keys are disjoint across parts by construction;
                # resolving anyway keeps a tampered or hand-merged
                # store consistent with JSONL load semantics.
                if key not in records or _supersedes(record, records[key]):
                    records[key] = record
        return records

    def iter_lines(self) -> Iterator[dict]:
        for _, part in self._parts_on_disk():
            yield from part.iter_lines()

    def iter_records(self, version: int | None = None) -> Iterator[dict]:
        """Stream survivors one part at a time (memory: one part)."""
        for _, part in self._parts_on_disk():
            for record in part.load().values():
                if version is None or record.get("version", 0) == version:
                    yield record

    def iter_page(
        self,
        after: str | None = None,
        limit: int | None = None,
        version: int | None = None,
    ) -> Iterator[dict]:
        """Keyset page by walking parts in hash-range order.

        Parts before the cursor's part are skipped without opening
        them; a full paginated dump therefore parses each part exactly
        once across all pages, holding one resolved part in memory --
        not the store, and not a re-parse of it per page.
        """
        if limit is not None and limit < 1:
            raise ValueError("limit must be >= 1")
        manifest = self._read_manifest()
        if manifest is None:
            return
        start = 0
        if after is not None:
            start = part_index(after, manifest["parts"])
        remaining = limit
        for index, part in self._parts_on_disk():
            if index < start:
                continue
            records = part.load()
            for key in sorted(records):
                if after is not None and key <= after:
                    continue
                record = records[key]
                if (
                    version is not None
                    and record.get("version", 0) != version
                ):
                    continue
                yield record
                if remaining is not None:
                    remaining -= 1
                    if remaining <= 0:
                        return

    def records_for(
        self, hashes: Iterable[str], version: int | None = None
    ) -> dict[str, dict]:
        """Point lookups parse only the parts holding requested hashes."""
        keys = list(dict.fromkeys(hashes))
        manifest = self._read_manifest() if keys else None
        if not keys or manifest is None:
            return {}
        parts = manifest["parts"]
        grouped: dict[int, list[str]] = {}
        for key in keys:
            grouped.setdefault(part_index(key, parts), []).append(key)
        out: dict[str, dict] = {}
        for index, part_keys in grouped.items():
            out.update(
                self._part(index).records_for(part_keys, version=version)
            )
        return out

    def hashes(self, version: int | None = None) -> set[str]:
        found: set[str] = set()
        for _, part in self._parts_on_disk():
            found |= part.hashes(version=version)
        return found

    def __contains__(self, config_hash: str) -> bool:
        manifest = self._read_manifest()
        if manifest is None:
            return False
        part = self._part(part_index(config_hash, manifest["parts"]))
        return config_hash in part.load()

    def change_token(self) -> tuple | None:
        """Manifest fingerprint: every API write rewrites the manifest.

        Appends, merges, and compactions all end by writing updated
        counts (a no-change append still bumps the manifest mtime), so
        the manifest's stat + content hash moves with every write this
        API makes -- without fingerprinting N part files per check.
        A writer bypassing the API and editing part files in place is
        outside the contract, same as editing a SQLite file's pages.
        """
        try:
            stat = self._manifest_path.stat()
            blob = self._manifest_path.read_bytes()
        except OSError:
            return None
        return (
            stat.st_mtime_ns,
            stat.st_size,
            hashlib.sha256(blob).hexdigest(),
        )

    def stats(self) -> dict:
        exists = self.exists()
        size = 0
        manifest = None
        if exists:
            manifest = self._read_manifest()
            try:
                size = self._manifest_path.stat().st_size
                for _, part in self._parts_on_disk():
                    if part.exists():
                        size += part.path.stat().st_size
            except OSError:
                pass
        total_lines = stale_lines = 0
        for entry in (manifest or {}).get("counts", []):
            total_lines += entry["lines"]
            stale_lines += max(0, entry["lines"] - entry["live"])
        return {
            "backend": self.backend,
            "path": str(self.path),
            "exists": exists,
            "records": len(self) if exists else 0,
            "size_bytes": size,
            "gzipped": False,
            "parts": manifest["parts"] if manifest else self._requested_parts,
            "total_lines": total_lines,
            "stale_lines": stale_lines,
        }

    # -- writes ---------------------------------------------------------
    def append(self, records: Iterable[dict]) -> int:
        """Route records to their parts; returns how many changed.

        Same contract as every backend: keyless records are skipped
        with a warning, records superseded by stored (or same-batch)
        ones are not written, and the return value counts lines that
        actually landed.  Each touched part is resolved once, which
        also makes the manifest's ``lines``/``live`` counts exact; the
        compaction policy then rewrites any touched part whose stale
        fraction exceeds ``compact_threshold``.
        """
        batch = [record for record in records if _keyed(record, self.path)]
        if not batch:
            return 0
        manifest = self._ensure_manifest()
        parts = manifest["parts"]
        grouped: dict[int, list[dict]] = {}
        for record in batch:
            grouped.setdefault(
                part_index(record["hash"], parts), []
            ).append(record)
        counts = manifest["counts"]
        written = 0
        for index in sorted(grouped):
            wrote, lines, live = self._append_part(index, grouped[index])
            written += wrote
            counts[index] = {"lines": lines, "live": live}
        self._write_manifest(manifest)
        if self.compact_threshold is not None:
            victims = [
                index
                for index in sorted(grouped)
                if _stale_fraction(counts[index]) > self.compact_threshold
            ]
            if victims:
                self._compact_parts(manifest, victims)
        return written

    def _append_part(
        self, index: int, group: list[dict]
    ) -> tuple[int, int, int]:
        """Append one part's records; returns (written, lines, live)."""
        part = self._part(index)
        lines, current = _resolve_part(part)
        to_write: list[dict] = []
        for record in group:
            key = record["hash"]
            prev = current.get(key)
            if prev is not None and not _supersedes(record, prev):
                continue
            current[key] = record
            to_write.append(record)
        if to_write:
            part.path.parent.mkdir(parents=True, exist_ok=True)
            with part._open_append() as handle:
                for record in to_write:
                    handle.write(json.dumps(record, sort_keys=True) + "\n")
        return len(to_write), lines + len(to_write), len(current)

    @contextmanager
    def appender(self) -> Iterator[Callable[[dict | RecordEntry], None]]:
        """Streaming writes, one held-open handle per touched part.

        Flush-per-record like the JSONL appender (each part's appender
        does the flushing).  No stale resolution on this path -- that
        would cost a part parse per record -- so the manifest's
        ``live`` counts are bumped optimistically and corrected by the
        next bulk append or compaction of each part.  Nothing is
        created until something is written.
        """
        writes: dict[int, int] = {}
        state: dict[str, int] = {}
        try:
            with ExitStack() as stack:
                writers: dict[int, Callable[[RecordEntry], None]] = {}

                def write(record: dict | RecordEntry) -> None:
                    entry = _as_entry(record, self.path)
                    if entry is None:
                        return
                    if "parts" not in state:
                        state["parts"] = self._ensure_manifest()["parts"]
                    index = part_index(entry.hash, state["parts"])
                    writer = writers.get(index)
                    if writer is None:
                        writer = stack.enter_context(
                            self._part(index).appender()
                        )
                        writers[index] = writer
                    writer(entry)
                    writes[index] = writes.get(index, 0) + 1

                yield write
        finally:
            if writes:
                manifest = self._ensure_manifest()
                counts = manifest["counts"]
                for index, count in writes.items():
                    entry = counts[index]
                    entry["lines"] += count
                    entry["live"] = min(
                        entry["live"] + count, entry["lines"]
                    )
                self._write_manifest(manifest)

    def _replace_all(
        self, records: Iterable[dict], gzip: bool | None = None
    ) -> None:
        if gzip:
            raise ValueError("partitioned stores do not support gzip")
        manifest = self._ensure_manifest()
        parts = manifest["parts"]
        grouped: dict[int, list[dict]] = {
            index: [] for index in range(parts)
        }
        for record in records:
            grouped[part_index(record["hash"], parts)].append(record)
        counts = []
        for index in range(parts):
            part = self._part(index)
            group = grouped[index]
            if group:
                part._replace_all(group, gzip=False)
            else:
                part.path.unlink(missing_ok=True)
            counts.append({"lines": len(group), "live": len(group)})
        # Drop stray parts outside the manifest's range (hand-copied
        # files): a full replace must define the store's entire content.
        for index, part in list(self._parts_on_disk()):
            if index >= parts:
                part.path.unlink(missing_ok=True)
        manifest["counts"] = counts
        self._write_manifest(manifest)

    def merge(
        self,
        sources: Iterable["ResultStoreBase | Mapping | str | os.PathLike"],
        gzip: bool | None = None,
    ) -> int:
        if gzip:
            raise ValueError("partitioned stores do not support gzip")
        return super().merge(sources, gzip=None)

    # -- compaction -----------------------------------------------------
    def compact(
        self, gzip: bool | None = None, drop_stale: bool = True
    ) -> tuple[int, int]:
        """Rewrite every part; returns ``(kept, dropped)`` line counts.

        Same semantics as the single-file backends: one line per hash
        (the resolution survivor), and with ``drop_stale`` only records
        at the current ``EVAL_VERSION``.  Each part rewrite is atomic;
        the manifest's counts come out exact.
        """
        if gzip:
            raise ValueError("partitioned stores do not support gzip")
        if not self.exists():
            return (0, 0)
        if drop_stale:
            from .evaluate import EVAL_VERSION
        manifest = self._ensure_manifest()
        known = {index for index, _ in self._parts_on_disk()}
        known.update(range(manifest["parts"]))
        kept = dropped = 0
        counts = [
            {"lines": 0, "live": 0} for _ in range(manifest["parts"])
        ]
        for index in sorted(known):
            part = self._part(index)
            lines, current = _resolve_part(part)
            if drop_stale:
                current = {
                    key: record
                    for key, record in current.items()
                    if record.get("version") == EVAL_VERSION
                }
            if current and index < manifest["parts"]:
                part._replace_all(current.values(), gzip=False)
                counts[index] = {
                    "lines": len(current),
                    "live": len(current),
                }
            elif current:
                # A stray part outside the manifest range: re-route its
                # survivors into the manifest's parts, then drop it.
                part.path.unlink(missing_ok=True)
                self.append(current.values())
                manifest = self._ensure_manifest()
                counts = manifest["counts"]
            else:
                part.path.unlink(missing_ok=True)
            kept += len(current)
            dropped += lines - len(current)
        manifest["counts"] = counts
        self._write_manifest(manifest)
        return (kept, dropped)

    def compact_stale_parts(self, threshold: float | None = None) -> dict:
        """The compaction policy: rewrite only stale-enough parts.

        A part qualifies when its manifest-estimated stale fraction
        (``1 - live/lines``) *exceeds* ``threshold`` (defaulting to the
        store's ``compact_threshold``).  Rewrites keep every resolution
        survivor whatever its version -- the policy reclaims dead
        lines, it never discards data -- and are atomic per part.
        Returns ``{"examined": n, "compacted": n, "dropped": lines}``.
        """
        if threshold is None:
            threshold = (
                DEFAULT_COMPACT_THRESHOLD
                if self.compact_threshold is None
                else self.compact_threshold
            )
        manifest = self._read_manifest()
        if manifest is None:
            return {"examined": 0, "compacted": 0, "dropped": 0}
        counts = manifest["counts"]
        victims = [
            index
            for index in range(manifest["parts"])
            if _stale_fraction(counts[index]) > threshold
        ]
        compacted, dropped = self._compact_parts(manifest, victims)
        return {
            "examined": manifest["parts"],
            "compacted": compacted,
            "dropped": dropped,
        }

    def _compact_parts(
        self, manifest: dict, indices: Iterable[int]
    ) -> tuple[int, int]:
        """Rewrite the given parts keeping all survivors; exact counts."""
        indices = sorted(set(indices))
        compacted = dropped = 0
        counts = manifest["counts"]
        for index in indices:
            part = self._part(index)
            lines, current = _resolve_part(part)
            if lines > len(current):
                if current:
                    part._replace_all(current.values(), gzip=False)
                else:
                    part.path.unlink(missing_ok=True)
                compacted += 1
                dropped += lines - len(current)
            counts[index] = {"lines": len(current), "live": len(current)}
        if indices:
            self._write_manifest(manifest)
        return compacted, dropped
