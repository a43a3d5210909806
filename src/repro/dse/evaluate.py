"""Point evaluation for the DSE engine.

``evaluate_point`` turns one :class:`~repro.dse.spec.SweepPoint` into a
flat, JSON-able *record*: the point's identity (hash + human-readable
keys) plus every aggregate metric the simulator produces.  Records are
what the engine memoizes, the store persists, and the queries consume.

``evaluate_points`` is the batched, vectorized sibling: it groups a
chunk of points by their lowered-workload key -- (workload, batch,
policy) -- lowers each group's network **once** into a
:class:`~repro.sim.lowered.LoweredNetwork`, and evaluates every group
of the chunk in **one** pass of numpy array expressions: spec work runs
once per distinct spec of the pass, each point reads its own network's
layers, and float energies are summed over a zero-padded
(max-layers x points) matrix (the padding is exact;
:mod:`repro.sim.lowered` says why).  Records
are bit-identical to ``evaluate_point``'s (the equivalence and golden
tests pin this), just much cheaper to produce: a 1008-point grid
typically shares a few dozen lowered networks.

The metrics are read off :class:`~repro.sim.simulator.NetworkResult`
(or :class:`~repro.baselines.gpu.GPUResult`) verbatim, so a record is
float-for-float identical to a direct simulation -- and because JSON
serialization of floats round-trips exactly, a record reloaded from the
store is bit-identical to the cold evaluation that produced it.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import OrderedDict
from typing import Sequence

from ..baselines.gpu import simulate_gpu
from ..hw import platforms as _platforms
from ..obs.metrics import get_registry
from ..sim import lowered as _lowered
from ..sim import performance as _performance
from ..sim.lowered import LoweredNetwork, evaluate_lowered_groups, lower_network
from ..sim.simulator import simulate_network
from . import policies as _policies
from . import spec as _spec
from .entry import RecordEntry
from .spec import SweepPoint, cached_network

__all__ = [
    "EVAL_VERSION",
    "DEFAULT_RECORD_CACHE",
    "evaluate_point",
    "evaluate_points",
    "clear_memo",
    "clear_caches",
    "lowered_for",
]

#: Bump whenever simulator or cost-model semantics change: stored records
#: carry the version and the engine ignores (and re-evaluates) stale ones.
EVAL_VERSION = 1

#: Default capacity (records) of the memo; ``repro serve --record-cache``.
DEFAULT_RECORD_CACHE = 100_000

_EVICTIONS = get_registry().counter(
    "repro_memo_evictions_total",
    "Records the in-process eval memo evicted (least recently used first).",
)
_PHASE_SECONDS = get_registry().histogram(
    "repro_eval_phase_seconds",
    "Latency of one evaluate_points pass, by phase (lower, kernel, records).",
    labelnames=("phase",),
)


class _Memo:
    """The process's record cache: a lock-guarded LRU, hash -> entry.

    Values are :class:`~repro.dse.entry.RecordEntry` objects, not
    dicts: an entry keeps the form its producer had (an evaluation's
    dict, a SQLite row's text) and derives the other on first use, so
    a served memo hit streams its cached text and an in-process one
    reads its cached dict, neither re-encoding nor re-decoding.

    Every lookup is one :meth:`get` under the lock (a hit moves its key
    to the end), so a concurrent eviction can never strike between a
    membership test and a read.  Past ``capacity`` records the least
    recently used go first; ``OrderedDict.popitem(last=False)`` evicts
    in O(1).  A capacity of 0 keeps nothing.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._records: OrderedDict[str, RecordEntry] = OrderedDict()
        self.capacity = DEFAULT_RECORD_CACHE
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._records)

    def get(self, key: str) -> RecordEntry | None:
        with self._lock:
            entry = self._records.get(key)
            if entry is not None:
                self._records.move_to_end(key)
            return entry

    def put(self, key: str, entry: RecordEntry) -> None:
        with self._lock:
            self._records[key] = entry
            self._records.move_to_end(key)
            self._evict()

    def values(self) -> list[RecordEntry]:  # a snapshot, least recent first
        with self._lock:
            return list(self._records.values())

    def resize(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError("record cache capacity must be >= 0")
        with self._lock:
            self.capacity = capacity
            self._evict()

    def clear(self) -> None:  # and restore the default capacity
        with self._lock:
            self._records.clear()
            self.capacity = DEFAULT_RECORD_CACHE
            self.evictions = 0

    def _evict(self) -> None:
        while len(self._records) > self.capacity:
            self._records.popitem(last=False)
            self.evictions += 1
            _EVICTIONS.inc()


_MEMO = _Memo()


def clear_memo() -> None:
    """Drop the in-process record memo and restore its default capacity."""
    _MEMO.clear()


def clear_caches() -> None:
    """Drop the record memo *and* every evaluation-path cache.

    ``clear_memo`` only forgets finished records (and restores the
    memo's default capacity); the evaluation path
    also memoizes network/policy builds, lowered IRs and their GEMM
    shapes, per-spec multiplier/energy lookup tables, and factor pairs.
    True-cold benchmarking (and tests that must observe first-fill
    behavior) go through this single hook instead of reaching into the
    private caches module by module.
    """
    clear_memo()
    lowered_for.cache_clear()
    _lowered._gemm_shapes.cache_clear()
    _spec._cached_network.cache_clear()
    _spec._resolve_policy.cache_clear()
    _policies._string_policy_name.cache_clear()
    _platforms._throughput_multiplier.cache_clear()
    _platforms._mac_energy_pj.cache_clear()
    _platforms._multiplier_table.cache_clear()
    _platforms._mac_energy_table.cache_clear()
    _performance.factor_pairs.cache_clear()


@functools.lru_cache(maxsize=512)
def lowered_for(workload: str, batch: int | None, policy: str) -> LoweredNetwork:
    """The cached lowered IR of a (workload, batch, policy) combination.

    Sized above the policy-axis working set: a quant-dse-shaped sweep
    multiplies (workload, batch) by generated per-layer policies (the
    policy-axis bench alone holds 168 distinct IRs), and an undersized
    LRU would evict cyclically and re-lower every warm pass.
    """
    return lower_network(cached_network(workload, batch, policy))


def _collect_evaluator(registry) -> None:
    """Collector: lowered-IR cache effectiveness + memo size, on scrape.

    Gauges rather than hot-path counters: ``lru_cache`` already tracks
    its own hit/miss totals, so the scrape just copies them out and the
    evaluation path pays nothing.
    """
    info = lowered_for.cache_info()
    lowered = registry.gauge(
        "repro_lowered_cache",
        "Lowered-IR lru_cache counters, by field.",
        labelnames=("field",),
    )
    lowered.set(info.hits, field="hits")
    lowered.set(info.misses, field="misses")
    lowered.set(info.currsize, field="size")
    registry.gauge(
        "repro_memo_records", "Records in the in-process eval memo."
    ).set(len(_MEMO))


get_registry().add_collector(_collect_evaluator, key="evaluator")


def _record(point: SweepPoint, metrics: dict) -> dict:
    return {
        "hash": point.config_hash(),
        "version": EVAL_VERSION,
        "kind": point.kind,
        "workload": point.workload,
        "platform": point.target_name,
        "memory": point.memory.name if point.memory is not None else None,
        "policy": point.policy.lower(),
        "batch": point.batch,
        "metrics": metrics,
    }


def _gpu_metrics(point: SweepPoint) -> dict:
    network = cached_network(point.workload, point.batch, point.policy)
    result = simulate_gpu(network, point.gpu, precision=point.gpu_precision)
    return {
        "total_seconds": result.total_seconds,
        "total_ops": result.total_ops,
        "ops_per_second": result.ops_per_second,
        "average_power_w": result.average_power_w,
        "total_energy_j": result.average_power_w * result.total_seconds,
        "perf_per_watt": result.perf_per_watt,
    }


def evaluate_point(point: SweepPoint) -> dict:
    """Simulate one design point, scalar path, and return its record.

    No record caching -- but the (workload, batch, policy) network build
    is shared through :func:`~repro.dse.spec.cached_network`, so repeated
    points of a sweep stop rebuilding identical networks.
    """
    if point.kind == "gpu":
        return _record(point, _gpu_metrics(point))
    network = cached_network(point.workload, point.batch, point.policy)
    result = simulate_network(network, point.platform, point.memory)
    metrics = {
        "total_cycles": result.total_cycles,
        "total_seconds": result.total_seconds,
        "total_macs": result.total_macs,
        "total_traffic_bytes": result.total_traffic_bytes,
        "compute_energy_pj": result.compute_energy_pj,
        "sram_energy_pj": result.sram_energy_pj,
        "dram_energy_pj": result.dram_energy_pj,
        "uncore_energy_pj": result.uncore_energy_pj,
        "total_energy_pj": result.total_energy_pj,
        "total_energy_j": result.total_energy_j,
        "ops_per_second": result.ops_per_second,
        "average_power_w": result.average_power_w,
        "perf_per_watt": result.perf_per_watt,
        "memory_bound_fraction": result.memory_bound_fraction,
    }
    return _record(point, metrics)


def evaluate_points(points: Sequence[SweepPoint]) -> list[dict]:
    """Evaluate a chunk of design points, vectorized, in input order.

    ASIC points are grouped by lowered-workload key; each group shares
    one :class:`~repro.sim.lowered.LoweredNetwork`, and every group of
    the chunk is evaluated in one array pass
    (:func:`~repro.sim.lowered.evaluate_lowered_groups`), with spec
    work once per distinct spec of the pass.  GPU points fall back to
    the scalar path.  Records are bit-identical to
    :func:`evaluate_point`.  The pass's ``lower``, ``kernel`` and
    ``records`` phases are each observed once into
    ``repro_eval_phase_seconds``.
    """
    started = time.monotonic()
    groups: dict[tuple[str, int | None, str], list[int]] = {}
    gpu: list[int] = []
    for index, point in enumerate(points):
        if point.kind == "gpu":
            gpu.append(index)
        else:
            key = (point.workload, point.batch, point.policy.lower())
            groups.setdefault(key, []).append(index)
    networks = [lowered_for(*key) for key in groups]
    lowered_at = time.monotonic()

    metrics: list[dict | None] = [None] * len(points)
    for index in gpu:
        metrics[index] = _gpu_metrics(points[index])
    passes = evaluate_lowered_groups(
        [
            (network, [(points[i].platform, points[i].memory) for i in indices])
            for network, indices in zip(networks, groups.values())
        ]
    )
    for indices, group_metrics in zip(groups.values(), passes):
        for index, point_metrics in zip(indices, group_metrics):
            metrics[index] = point_metrics
    evaluated_at = time.monotonic()

    records = [_record(point, m) for point, m in zip(points, metrics)]
    _PHASE_SECONDS.observe(lowered_at - started, phase="lower")
    _PHASE_SECONDS.observe(evaluated_at - lowered_at, phase="kernel")
    _PHASE_SECONDS.observe(time.monotonic() - evaluated_at, phase="records")
    return records
