"""The streaming, batched design-space-exploration engine.

``iter_sweep`` is the primitive: it resolves every unique point of a
sweep against three cache tiers -- the per-process memo, an optional
persistent store (JSONL or SQLite), and finally a cold evaluation --
and yields a :class:`SweepRecord` per unique config *as its pass
completes*.  Cache hits stream out first; cold evaluations follow one
pass (up to :data:`DEFAULT_CHUNK_SIZE` points) at a time in this
process.  A pass travels from the kernel to the disk as one batch: it
is encoded once, column by column
(:func:`~repro.dse.entry.canonical_texts`), put in the memo under one
lock, and persisted with one appender call -- one write and flush on
JSONL, one transaction on SQLite -- before its first record is
yielded, so an interrupted run keeps every record it yielded.  Callers
can render partial Pareto frontiers or pipe records downstream without
waiting for the sweep to finish.

``run_sweep`` is the batch API over the same passes: it returns
records in point order plus per-tier hit counts, and reads each pass as
a batch instead of one :class:`SweepRecord` at a time.

Each record travels as a :class:`~repro.dse.entry.RecordEntry`, so its
canonical JSON text is made at most once: when its pass is evaluated
with a store to write (the job stream reuses the text) or when the
store reads it (SQLite hands back its stored text).  Memo, store
appender and stream all share that one entry; the dict is decoded only
when a consumer reads :attr:`SweepRecord.record`.
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from ..obs.metrics import get_registry
from .entry import RecordEntry, canonical_texts
from .evaluate import _MEMO, EVAL_VERSION, evaluate_point, evaluate_points
from .spec import SweepPoint, SweepSpec
from .store import ResultStoreBase, open_store

__all__ = ["SweepRecord", "SweepResult", "iter_sweep", "run_sweep"]

#: Most points one cold evaluation pass takes.  A pass has a fixed
#: cost; on 972-point sweeps (2-vCPU VM, lowering cached) a sweep took
#: ~68 ms at 32, ~45 ms at 128, ~34 ms at 256-512 and ~39 ms at 1024,
#: and one 512-point pass takes ~10-30 ms.
DEFAULT_CHUNK_SIZE = 512

# Tier counts are accumulated in plain locals on the hot path and
# flushed to the registry once per iter_sweep call (its finally), so
# instrumentation costs one dict update per *sweep*, not per record --
# the obs-overhead benchmark gates this at <=5%.
_METRICS = get_registry()
_EVAL_POINTS = _METRICS.counter(
    "repro_eval_points_total",
    "Sweep points resolved, by tier (memo, store, evaluated).",
    labelnames=("tier",),
)
_EVAL_CHUNK_SECONDS = _METRICS.histogram(
    "repro_eval_chunk_seconds",
    "Latency of one vectorized evaluation chunk.",
)


@dataclass(frozen=True)
class SweepRecord:
    """One streamed result: a unique config resolved through some tier."""

    index: int  # position of the first point with this hash in the sweep
    point: SweepPoint
    entry: RecordEntry = field(repr=False)
    source: str  # "memo" | "store" | "evaluated"

    @property
    def hash(self) -> str:
        return self.entry.hash

    @property
    def record(self) -> dict:
        """The record dict (decoded from the stored text on first use)."""
        return self.entry.record

    @property
    def text(self) -> str:
        """The canonical JSON text (encoded from the dict on first use)."""
        return self.entry.text


@dataclass
class SweepResult:
    """Outcome of one engine run."""

    records: list[dict] = field(repr=False)
    evaluated: int  # unique points simulated cold this run
    from_store: int  # unique points served from the persistent store
    from_memo: int  # unique points served from the in-process memo

    def __len__(self) -> int:
        return len(self.records)

    @property
    def unique_points(self) -> int:
        return self.evaluated + self.from_store + self.from_memo

    def summary(self) -> str:
        return (
            f"{len(self.records)} points ({self.unique_points} unique): "
            f"{self.evaluated} evaluated, {self.from_store} store hits, "
            f"{self.from_memo} memo hits"
        )


def _lowered_chunks(
    points: list[SweepPoint], chunk_size: int
) -> list[list[SweepPoint]]:
    """Pack pending points into evaluation passes of <= ``chunk_size``.

    Points are grouped by lowered-workload key -- (kind, workload,
    batch, policy) -- and whole groups are packed, in first-appearance
    order, into chunks of at most ``chunk_size`` points; each chunk is
    one :func:`~repro.dse.evaluate.evaluate_points` pass.  Only a group
    larger than ``chunk_size`` splits, into ``chunk_size`` pieces and a
    remainder that packs like any other group.
    """
    groups: dict[tuple, list[SweepPoint]] = {}
    for point in points:
        key = (point.kind, point.workload, point.batch, point.policy.lower())
        groups.setdefault(key, []).append(point)
    chunks: list[list[SweepPoint]] = []
    chunk: list[SweepPoint] = []
    for group in groups.values():
        for start in range(0, len(group), chunk_size):
            piece = group[start : start + chunk_size]
            if len(chunk) + len(piece) > chunk_size:
                chunks.append(chunk)
                chunk = []
            chunk += piece
    if chunk:
        chunks.append(chunk)
    return chunks


def _fresh_entries(records: list[dict], encode: bool) -> list[RecordEntry]:
    """One entry per freshly evaluated record of a pass.

    With ``encode`` (there is a store to write), the pass is encoded in
    one :func:`~repro.dse.entry.canonical_texts` call and every entry
    carries its text; without it the text stays lazy, since a
    storeless in-process sweep may never need it.
    """
    if not encode:
        return [RecordEntry(record["hash"], record=record) for record in records]
    return [
        RecordEntry(record["hash"], record, text)
        for record, text in zip(records, canonical_texts(records))
    ]


def _batches(
    points: list[SweepPoint],
    store: ResultStoreBase | str | os.PathLike | None,
    vectorize: bool,
    should_cancel: Callable[[], bool] | None,
) -> Iterator[tuple[str, list[int], list[RecordEntry]]]:
    """The sweep resolved in batches of ``(tier, first indices, entries)``.

    The memo and store hits come first, in point order, as runs of one
    tier each; then one batch per cold pass.  Every batch is persisted
    before it is yielded.  This is :func:`iter_sweep` without a
    :class:`SweepRecord` per record, so :func:`run_sweep` pays per
    batch, not per record.
    """

    def cancelled() -> bool:
        return should_cancel is not None and should_cancel()

    if cancelled():
        return
    if store is not None and not isinstance(store, ResultStoreBase):
        store = open_store(store)
    # Each point is hashed once: the first index of every distinct hash
    # feeds the store lookup, the tier split and the cold-record index.
    first: dict[str, int] = {}
    for index, point in enumerate(points):
        first.setdefault(point.config_hash(), index)
    stored: dict[str, RecordEntry] = {}
    if store is not None:
        # Only the sweep's own hashes, only at the current version: the
        # JSONL backend scans the file but decodes only lines that may
        # hold one of them, the SQLite backend answers from an indexed
        # point lookup with its stored text, undecoded -- a huge warm
        # SQLite store costs time proportional to the sweep, not the
        # store.
        stored = store.entries_for(list(first), version=EVAL_VERSION)

    # One held-open append handle for the whole stream, written once
    # per batch: one write and flush (JSONL) or one transaction (SQLite).
    sink = store.appender() if store is not None else contextlib.nullcontext()
    tiers = {"memo": 0, "store": 0, "evaluated": 0}
    try:
        with sink as persist:
            memo = _MEMO.get_many(first)
            # Hits in point order, as runs of one tier each.
            runs: list[tuple[str, list[int], list[RecordEntry]]] = []
            pending: list[SweepPoint] = []
            for key, index in first.items():
                tier, entry = "memo", memo.get(key)
                if entry is None:
                    tier, entry = "store", stored.get(key)
                    if entry is None:
                        pending.append(points[index])
                        continue
                if not runs or runs[-1][0] != tier:
                    runs.append((tier, [], []))
                runs[-1][1].append(index)
                runs[-1][2].append(entry)
            unpersisted = [entry for entry in memo.values() if entry.hash not in stored]
            if persist is not None and unpersisted:
                persist(unpersisted)
            # A store hit warms the in-process memo: the next sweep over
            # this config is served without touching the store.
            _MEMO.put_many(
                entry for tier, _, entries in runs if tier == "store" for entry in entries
            )
            for tier, indices, entries in runs:
                tiers[tier] += len(entries)
                yield tier, indices, entries

            if vectorize:
                passes = _lowered_chunks(pending, DEFAULT_CHUNK_SIZE)
            else:
                passes = [[point] for point in pending]
            for chunk in passes:
                if cancelled():
                    return
                if vectorize:
                    chunk_started = time.monotonic()
                    records = evaluate_points(chunk)
                    _EVAL_CHUNK_SECONDS.observe(time.monotonic() - chunk_started)
                else:
                    records = [evaluate_point(point) for point in chunk]
                # One entry per fresh record: the memo, the store and
                # every consumer share both its forms from here on.
                entries = _fresh_entries(records, encode=persist is not None)
                _MEMO.put_many(entries)
                if persist is not None:
                    persist(entries)
                tiers["evaluated"] += len(entries)
                yield "evaluated", [first[entry.hash] for entry in entries], entries
    finally:
        # One registry touch per tier per sweep (never per record);
        # fires on normal exhaustion, cancellation, errors, and early
        # generator close alike.
        for tier, count in tiers.items():
            if count:
                _EVAL_POINTS.inc(count, tier=tier)


def iter_sweep(
    sweep: SweepSpec | Iterable[SweepPoint],
    store: ResultStoreBase | str | os.PathLike | None = None,
    vectorize: bool = True,
    should_cancel: Callable[[], bool] | None = None,
) -> Iterator[SweepRecord]:
    """Stream a sweep's records in completion order, one per unique config.

    Memo and store hits yield first (they are already complete);
    cold evaluations follow pass by pass.  Every yielded record is on
    disk before it is yielded: memo hits the store has not seen are
    persisted in one call before the first hit, and each cold pass is
    persisted whole before its first record.  A consumer that stops
    early (or crashes) therefore leaves a store holding at least what
    it was given.  An empty sweep, e.g. an empty shard of a fine
    partition, yields nothing.

    With ``vectorize`` (the default) cold points are evaluated through
    the numpy evaluator in chunks of at most :data:`DEFAULT_CHUNK_SIZE`
    points: whole lowered-workload groups are packed into a chunk, only
    a larger group splits, and each chunk is **one** kernel pass however
    many groups it spans.  ``vectorize=False`` is the scalar oracle, one
    point per pass; records are bit-identical either way.  The sweep
    runs in this process: multi-process evaluation is the launcher's
    and the fleet's job (``repro dse-launch --fleet N`` shard
    processes, ``repro worker``).

    ``should_cancel`` is polled at pass boundaries: before the first
    record, and before each cold pass.  When it turns true the
    generator returns: every record of a pass already persisted has
    been yielded, so the records a cancelled run yielded are exactly
    the records its passes added to the store, and no further pass
    starts.  The sweep-service job queue uses this for cooperative
    ``POST /jobs/{id}/cancel``.  A cancel, or the first cold record of
    a served job, can wait for one whole pass (~10-30 ms at 512
    points).  An evaluation error fails the whole pass it occurs in;
    records of earlier passes stay persisted.
    """
    points = list(sweep.points) if isinstance(sweep, SweepSpec) else list(sweep)
    with contextlib.closing(
        _batches(points, store, vectorize, should_cancel)
    ) as batches:
        for source, indices, entries in batches:
            for index, entry in zip(indices, entries):
                yield SweepRecord(index, points[index], entry, source)


def run_sweep(
    sweep: SweepSpec | Iterable[SweepPoint],
    store: ResultStoreBase | str | os.PathLike | None = None,
    vectorize: bool = True,
) -> SweepResult:
    """Evaluate a sweep through the memo -> store -> simulate tiers."""
    points = list(sweep.points) if isinstance(sweep, SweepSpec) else list(sweep)
    if not points:
        raise ValueError("empty sweep")
    hashes = [point.config_hash() for point in points]

    resolved: dict[str, dict] = {}
    counts = {"memo": 0, "store": 0, "evaluated": 0}
    for source, _, entries in _batches(points, store, vectorize, None):
        resolved.update([(entry.hash, entry.record) for entry in entries])
        counts[source] += len(entries)

    return SweepResult(
        records=[resolved[key] for key in hashes],
        evaluated=counts["evaluated"],
        from_store=counts["store"],
        from_memo=counts["memo"],
    )
