"""Million-record store tier at 10^5 scale: ingest + paginated dumps.

Acceptance bench for the store-scale work: fill a SQLite store with
``N_RECORDS`` (100k in CI) DSE-shaped records through the batched
ingest path, then compare the two ways a client can dump the store:

* the full load (``store.load()``): every survivor materialized in
  server memory at once;
* the paginated walk (``service.record_page_stream`` behind
  ``GET /records?after=&limit=``): keyset pages of ``PAGE_LIMIT``
  records as stored NDJSON bytes, never holding more than one page.

Two gates pin the tier:

* **ingest**: one batched ``append`` (bounded multi-row transactions)
  must beat row-at-a-time appends by ``MIN_INGEST_SPEEDUP`` per
  record -- the regression that motivated the batching was ingest
  collapsing to one transaction per record;
* **dump**: the paginated walk must beat the full load by
  ``MIN_PAGE_FACTOR`` on *both* server-side peak memory (tracemalloc,
  full walk) and time-to-first-page (perf_counter, warm store).

Emits ``BENCH_store_scale.json`` (path overridable via
``BENCH_STORE_SCALE_JSON``) so CI can archive the numbers.
"""

import hashlib
import json
import os
import time
import tracemalloc

from repro.dse import EVAL_VERSION, SQLiteStore
from repro.serve import SweepService
from repro.sim import format_table

N_RECORDS = int(os.environ.get("REPRO_BENCH_SCALE_RECORDS", "100000"))
PAGE_LIMIT = int(os.environ.get("REPRO_BENCH_SCALE_PAGE", "5000"))
ROW_SAMPLE = min(500, N_RECORDS)  # row-at-a-time appends are the slow side
MIN_INGEST_SPEEDUP = float(os.environ.get("REPRO_MIN_INGEST_SPEEDUP", "3.0"))
MIN_PAGE_FACTOR = float(os.environ.get("REPRO_MIN_PAGE_FACTOR", "3.0"))

_WORKLOADS = ("AlexNet", "ResNet-18", "ResNet-50", "RNN", "LSTM")


def _synthetic_record(index: int) -> dict:
    key = hashlib.sha256(f"bench-scale-{index}".encode()).hexdigest()
    return {
        "hash": key,
        "version": EVAL_VERSION,
        "kind": "asic",
        "workload": _WORKLOADS[index % len(_WORKLOADS)],
        "platform": "BPVeC",
        "memory": "DDR4" if index % 2 else "HBM2",
        "policy": "homogeneous-8bit",
        "batch": 1 << (index % 7),
        "metrics": {
            "total_cycles": 10_000_000 + index,
            "total_seconds": 0.02 + index * 1e-9,
            "total_energy_pj": 9.2e10,
            "perf_per_watt": 1.86e11 - index,
            "memory_bound_fraction": 1.0,
        },
    }


def _traced_peak(operation):
    """(result, peak_bytes, seconds) for one traced call."""
    tracemalloc.start()
    start = time.perf_counter()
    result = operation()
    seconds = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return result, peak, seconds


def test_batched_ingest_and_paginated_dump(benchmark, show, tmp_path):
    records = [_synthetic_record(i) for i in range(N_RECORDS)]

    # -- ingest: one batched append vs row-at-a-time transactions -----
    sqlite = SQLiteStore(tmp_path / "scale.sqlite")
    start = time.perf_counter()
    appended = sqlite.append(records)
    batched_seconds = time.perf_counter() - start
    assert appended == N_RECORDS

    rowwise = SQLiteStore(tmp_path / "rowwise.sqlite")
    start = time.perf_counter()
    for record in records[:ROW_SAMPLE]:
        rowwise.append([record])
    rowwise_seconds = time.perf_counter() - start

    batched_rate = N_RECORDS / batched_seconds
    rowwise_rate = ROW_SAMPLE / rowwise_seconds
    ingest_speedup = batched_rate / rowwise_rate

    assert len(sqlite) == N_RECORDS

    # -- dump: full load vs the keyset-paginated walk ------------------
    # Queries and pages both stream the store on every call: this
    # measures the streaming paths themselves.
    service = SweepService(store=sqlite.path)

    def full_load():
        return len(service.store.load())

    full_count, full_peak, full_seconds = _traced_peak(full_load)
    assert full_count == N_RECORDS

    def paginated_walk():
        # Pages arrive as NDJSON byte blocks (one line per record), then
        # the {"count", "next"} terminal.
        count, after = 0, None
        while True:
            *blocks, terminal = service.record_page_stream(
                after=after, limit=PAGE_LIMIT
            )
            count += sum(block.count(b"\n") for block in blocks)
            if terminal["next"] is None:
                return count
            after = terminal["next"]

    page_count, page_peak, walk_seconds = _traced_peak(paginated_walk)
    assert page_count == N_RECORDS

    def first_page():
        return list(service.record_page_stream(limit=PAGE_LIMIT))

    benchmark(first_page)
    start = time.perf_counter()
    *blocks, terminal = first_page()
    first_page_seconds = time.perf_counter() - start
    assert terminal["count"] == PAGE_LIMIT
    assert sum(block.count(b"\n") for block in blocks) == PAGE_LIMIT

    memory_factor = full_peak / max(1, page_peak)
    latency_factor = full_seconds / max(1e-9, first_page_seconds)

    rows = [
        ("batched ingest (records/s)", f"{batched_rate:,.0f}", ""),
        ("row-at-a-time ingest (records/s)", f"{rowwise_rate:,.0f}", ""),
        ("full load", f"{full_seconds * 1e3:.0f} ms", f"{full_peak >> 20} MiB peak"),
        ("paginated walk", f"{walk_seconds * 1e3:.0f} ms", f"{page_peak >> 20} MiB peak"),
        ("first page", f"{first_page_seconds * 1e3:.1f} ms", ""),
    ]
    show(
        f"Store scale, {N_RECORDS} records (page={PAGE_LIMIT}): "
        f"ingest {ingest_speedup:.0f}x, page memory {memory_factor:.0f}x, "
        f"first-page latency {latency_factor:.0f}x",
        format_table(["Operation", "Time", "Memory"], rows),
    )

    payload = {
        "records": N_RECORDS,
        "page_limit": PAGE_LIMIT,
        "batched_ingest_seconds": round(batched_seconds, 4),
        "batched_ingest_rate": round(batched_rate, 1),
        "rowwise_ingest_rate": round(rowwise_rate, 1),
        "ingest_speedup": round(ingest_speedup, 2),
        "full_load_seconds": round(full_seconds, 4),
        "full_load_peak_bytes": full_peak,
        "paginated_walk_seconds": round(walk_seconds, 4),
        "paginated_peak_bytes": page_peak,
        "first_page_seconds": round(first_page_seconds, 5),
        "memory_factor": round(memory_factor, 2),
        "latency_factor": round(latency_factor, 2),
        "min_ingest_speedup_gate": MIN_INGEST_SPEEDUP,
        "min_page_factor_gate": MIN_PAGE_FACTOR,
    }
    artifact = os.environ.get("BENCH_STORE_SCALE_JSON", "BENCH_store_scale.json")
    with open(artifact, "w") as handle:
        json.dump(payload, handle, indent=2)
    benchmark.extra_info.update(payload)

    assert ingest_speedup >= MIN_INGEST_SPEEDUP, (
        f"batched ingest only {ingest_speedup:.2f}x faster per record than "
        f"row-at-a-time ({batched_rate:,.0f} vs {rowwise_rate:,.0f} "
        f"records/s); gate is {MIN_INGEST_SPEEDUP:.1f}x"
    )
    assert memory_factor >= MIN_PAGE_FACTOR, (
        f"paginated dump peaked at {page_peak} bytes vs {full_peak} for a "
        f"full load (only {memory_factor:.2f}x better); gate is "
        f"{MIN_PAGE_FACTOR:.1f}x -- the server is materializing more than "
        f"a page"
    )
    assert latency_factor >= MIN_PAGE_FACTOR, (
        f"first page took {first_page_seconds:.4f}s vs {full_seconds:.4f}s "
        f"for a full load (only {latency_factor:.2f}x better); gate is "
        f"{MIN_PAGE_FACTOR:.1f}x"
    )
