"""Store backends at scale: SQLite vs JSONL on a 50k-record store.

Acceptance bench for the engine's warm resolution
(:meth:`~repro.dse.store.ResultStoreBase.records_for` over a sweep-
sized hash sample at the current ``EVAL_VERSION``) on both backends.
Each backend is gated on what it promises, timed as a median of
``RUNS``:

* JSONL reads the whole file but decodes only the lines that may hold
  a wanted hash, so its lookup must beat its own full ``load()`` on the
  same store by at least ``MIN_SPEEDUP`` (3x).
* SQLite answers from an indexed point lookup, so its cost tracks the
  sweep, not the store: the same lookup on the 50k-record store must
  stay within ``MAX_SQLITE_GROWTH`` (2x) of a 5k-record store.

SQLite vs JSONL lookup and full ``load()`` times are reported as
context, and both backends must return bit-identical records for the
sampled hashes.

The write path is gated too: a cold 1008-point ``run_sweep`` into a
fresh SQLite store must take at most ``MAX_SQLITE_COLD_RATIO`` (2x) the
same sweep into a fresh JSONL store (medians of ``RUNS`` interleaved
runs).  Both appenders persist once per evaluation pass -- one
transaction on SQLite, one write and flush on JSONL -- so a commit per
record would show here as a ~10x ratio.

Emits ``BENCH_store_backends.json`` (path overridable via the
``BENCH_STORE_BACKENDS_JSON`` env var) so CI can archive the numbers;
each test adds its own keys to the file.
"""

import hashlib
import json
import os
import statistics
import time

from bench_dse_engine import _sweep_spec
from repro.dse import EVAL_VERSION, ResultStore, SQLiteStore, clear_memo, run_sweep
from repro.sim import format_table

N_RECORDS = int(os.environ.get("REPRO_BENCH_STORE_RECORDS", "50000"))
SMALL_RECORDS = max(1, N_RECORDS // 10)  # the store SQLite must not slow on
SAMPLE_SIZE = 2000  # a realistic sweep against a warm store
MIN_SPEEDUP = float(os.environ.get("REPRO_MIN_STORE_SPEEDUP", "3.0"))
MAX_SQLITE_GROWTH = 2.0
MAX_SQLITE_COLD_RATIO = 2.0
RUNS = 5

_WORKLOADS = ("AlexNet", "Inception-v1", "ResNet-18", "ResNet-50", "RNN", "LSTM")
_PLATFORMS = ("TPU-like", "BitFusion", "BPVeC")


def _median_seconds(fn):
    """``(median wall seconds over RUNS calls, last result)``."""
    times = []
    for _ in range(RUNS):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def _update_artifact(payload: dict) -> None:
    """Merge ``payload`` into the JSON artifact (each test adds its keys)."""
    artifact = os.environ.get(
        "BENCH_STORE_BACKENDS_JSON", "BENCH_store_backends.json"
    )
    merged = {}
    if os.path.exists(artifact):
        with open(artifact) as handle:
            merged = json.load(handle)
    merged.update(payload)
    with open(artifact, "w") as handle:
        json.dump(merged, handle, indent=2)


def _synthetic_record(index: int) -> dict:
    """One DSE-shaped record with a unique, deterministic hash."""
    key = hashlib.sha256(f"bench-store-{index}".encode()).hexdigest()
    return {
        "hash": key,
        "version": EVAL_VERSION,
        "kind": "asic",
        "workload": _WORKLOADS[index % len(_WORKLOADS)],
        "platform": _PLATFORMS[index % len(_PLATFORMS)],
        "memory": "DDR4" if index % 2 else "HBM2",
        "policy": "homogeneous-8bit",
        "batch": 1 << (index % 7),
        "metrics": {
            "total_cycles": 10_000_000 + index,
            "total_seconds": 0.02 + index * 1e-9,
            "total_macs": 8_589_934_592,
            "total_traffic_bytes": 55_555_555 + index,
            "compute_energy_pj": 4.1e9 + index,
            "sram_energy_pj": 2.6e9,
            "dram_energy_pj": 7.6e10,
            "uncore_energy_pj": 8.8e9,
            "total_energy_pj": 9.2e10,
            "total_energy_j": 0.092,
            "ops_per_second": 4.8e11,
            "average_power_w": 2.61,
            "perf_per_watt": 1.86e11,
            "memory_bound_fraction": 1.0,
        },
    }


def test_sqlite_vs_jsonl_warm_resolution(benchmark, show, tmp_path):
    records = [_synthetic_record(i) for i in range(N_RECORDS)]
    # Sample from the small store's records so both SQLite stores
    # answer the same lookup; the sample shrinks with small
    # REPRO_BENCH_STORE_RECORDS overrides instead of crashing.
    sample_size = min(SAMPLE_SIZE, SMALL_RECORDS)
    stride = max(1, SMALL_RECORDS // sample_size)
    sample = [records[i]["hash"] for i in range(0, SMALL_RECORDS, stride)]
    sample = sample[:sample_size]
    assert len(sample) == sample_size

    jsonl = ResultStore(tmp_path / "store.jsonl")
    start = time.perf_counter()
    jsonl.append(records)
    jsonl_append_seconds = time.perf_counter() - start

    sqlite = SQLiteStore(tmp_path / "store.sqlite")
    start = time.perf_counter()
    sqlite.append(records)
    sqlite_append_seconds = time.perf_counter() - start
    sqlite_small = SQLiteStore(tmp_path / "small.sqlite")
    sqlite_small.append(records[:SMALL_RECORDS])

    # The gated path: resolve a sweep-sized hash sample against the
    # warm store, exactly what iter_sweep asks a store per run.
    jsonl_resolve_seconds, jsonl_hits = _median_seconds(
        lambda: jsonl.records_for(sample, version=EVAL_VERSION)
    )

    def sqlite_resolve():
        return sqlite.records_for(sample, version=EVAL_VERSION)

    benchmark(sqlite_resolve)
    sqlite_resolve_seconds, sqlite_hits = _median_seconds(sqlite_resolve)
    sqlite_small_resolve_seconds, small_hits = _median_seconds(
        lambda: sqlite_small.records_for(sample, version=EVAL_VERSION)
    )

    assert len(jsonl_hits) == len(sqlite_hits) == sample_size
    assert sqlite_hits == jsonl_hits == small_hits  # bit-identical everywhere

    jsonl_load_seconds, jsonl_loaded = _median_seconds(jsonl.load)
    sqlite_load_seconds, sqlite_loaded = _median_seconds(sqlite.load)
    assert len(jsonl_loaded) == len(sqlite_loaded) == N_RECORDS

    jsonl_speedup = jsonl_load_seconds / jsonl_resolve_seconds
    sqlite_growth = sqlite_resolve_seconds / sqlite_small_resolve_seconds
    rows = [
        (
            f"append {N_RECORDS}",
            jsonl_append_seconds * 1e3,
            sqlite_append_seconds * 1e3,
        ),
        (
            f"resolve {sample_size}-point sweep",
            jsonl_resolve_seconds * 1e3,
            sqlite_resolve_seconds * 1e3,
        ),
        (
            f"  same, {SMALL_RECORDS}-record store",
            "-",
            sqlite_small_resolve_seconds * 1e3,
        ),
        ("full load", jsonl_load_seconds * 1e3, sqlite_load_seconds * 1e3),
    ]
    show(
        f"Store backends, {N_RECORDS} records, median of {RUNS} "
        f"(JSONL lookup {jsonl_speedup:.1f}x faster than its load; "
        f"SQLite lookup {sqlite_growth:.2f}x its {SMALL_RECORDS}-record time)",
        format_table(["Operation", "JSONL (ms)", "SQLite (ms)"], rows),
    )

    payload = {
        "records": N_RECORDS,
        "small_records": SMALL_RECORDS,
        "sample_size": sample_size,
        "runs": RUNS,
        "jsonl_append_seconds": round(jsonl_append_seconds, 4),
        "sqlite_append_seconds": round(sqlite_append_seconds, 4),
        "jsonl_resolve_seconds": round(jsonl_resolve_seconds, 4),
        "sqlite_resolve_seconds": round(sqlite_resolve_seconds, 4),
        "sqlite_small_resolve_seconds": round(sqlite_small_resolve_seconds, 4),
        "jsonl_load_seconds": round(jsonl_load_seconds, 4),
        "sqlite_load_seconds": round(sqlite_load_seconds, 4),
        "jsonl_lookup_speedup": round(jsonl_speedup, 2),
        "sqlite_store_growth": round(sqlite_growth, 2),
        "sqlite_vs_jsonl_resolution": round(
            jsonl_resolve_seconds / sqlite_resolve_seconds, 2
        ),
        "min_speedup_gate": MIN_SPEEDUP,
        "max_sqlite_growth_gate": MAX_SQLITE_GROWTH,
    }
    _update_artifact(payload)
    benchmark.extra_info.update(payload)

    assert jsonl_speedup >= MIN_SPEEDUP, (
        f"JSONL records_for only {jsonl_speedup:.2f}x faster than its full "
        f"load ({jsonl_resolve_seconds:.4f}s vs {jsonl_load_seconds:.4f}s) "
        f"on a {N_RECORDS}-record store; gate is {MIN_SPEEDUP:.1f}x"
    )
    assert sqlite_growth <= MAX_SQLITE_GROWTH, (
        f"SQLite records_for took {sqlite_growth:.2f}x longer on "
        f"{N_RECORDS} records than on {SMALL_RECORDS} "
        f"({sqlite_resolve_seconds:.4f}s vs {sqlite_small_resolve_seconds:.4f}s); "
        f"gate is {MAX_SQLITE_GROWTH:.1f}x"
    )


def test_cold_sweep_sqlite_within_2x_of_jsonl(show, tmp_path):
    spec = _sweep_spec()
    clear_memo()
    run_sweep(spec)  # untimed: warm the lowering caches for both backends
    seconds = {"jsonl": [], "sqlite": []}
    for run in range(RUNS):
        for backend in ("jsonl", "sqlite"):
            clear_memo()  # every point cold, into a fresh store
            start = time.perf_counter()
            result = run_sweep(spec, store=tmp_path / f"cold-{run}.{backend}")
            seconds[backend].append(time.perf_counter() - start)
            assert result.evaluated == len(spec)
    jsonl_seconds = statistics.median(seconds["jsonl"])
    sqlite_seconds = statistics.median(seconds["sqlite"])
    ratio = sqlite_seconds / jsonl_seconds
    show(
        f"Cold {len(spec)}-point run_sweep into a fresh store, median of "
        f"{RUNS} interleaved runs (SQLite {ratio:.2f}x JSONL)",
        format_table(
            ["Backend", "Cold sweep (ms)"],
            [("JSONL", jsonl_seconds * 1e3), ("SQLite", sqlite_seconds * 1e3)],
        ),
    )
    _update_artifact(
        {
            "cold_sweep_points": len(spec),
            "jsonl_cold_sweep_seconds": round(jsonl_seconds, 4),
            "sqlite_cold_sweep_seconds": round(sqlite_seconds, 4),
            "sqlite_vs_jsonl_cold_sweep": round(ratio, 2),
            "max_sqlite_cold_ratio_gate": MAX_SQLITE_COLD_RATIO,
        }
    )
    assert ratio <= MAX_SQLITE_COLD_RATIO, (
        f"cold {len(spec)}-point sweep into SQLite took {ratio:.2f}x the "
        f"JSONL one ({sqlite_seconds:.3f}s vs {jsonl_seconds:.3f}s); gate is "
        f"{MAX_SQLITE_COLD_RATIO:.1f}x"
    )
