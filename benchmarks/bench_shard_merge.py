"""Sharded sweep execution at scale: 2-shard run + merge vs unsharded.

The acceptance bar for distributed-ready execution: split the same
1008-point design-space sweep as ``bench_dse_engine`` into two
hash-range shards, evaluate each into its own store (memo cleared in
between, as two machines would), merge the per-shard stores, and show

* the merged result set -- and its Pareto frontier -- is identical to
  the unsharded run, record-for-record;
* serving the sweep from the warm merged store (the "2-shard warm
  merge" path) is at least 5x faster than cold *scalar* evaluation
  (the pre-vectorizer baseline this bar was set against; the
  vectorized evaluator has since pulled cold default runs to within a
  few x of the warm path -- both cold times are reported);
* compaction keeps the merged store at one line per config without
  changing any query result.
"""

import time

from repro.dse import (
    ResultStore,
    SweepSpec,
    clear_caches,
    clear_memo,
    pareto_frontier,
    run_sweep,
)
from repro.hw import DDR4, HBM2, scaled_memory

# 6 workloads x 3 platforms x 4 memories x 2 policies x 7 batches = 1008.
MEMORIES = (
    DDR4,
    HBM2,
    scaled_memory(DDR4, 64),
    scaled_memory(HBM2, 512),
)
POLICIES = ("homogeneous-8bit", "paper-heterogeneous")
BATCHES = (1, 2, 4, 8, 16, 32, 64)


def _sweep_spec() -> SweepSpec:
    return SweepSpec.grid(
        workloads=(
            "AlexNet", "Inception-v1", "ResNet-18", "ResNet-50", "RNN", "LSTM"
        ),
        platforms=("tpu", "bitfusion", "bpvec"),
        memories=MEMORIES,
        policies=POLICIES,
        batches=BATCHES,
    )


def test_two_shard_merge_matches_unsharded(benchmark, show, tmp_path):
    spec = _sweep_spec()
    assert len(spec) >= 1000

    # Unsharded reference runs: vectorized default and scalar baseline,
    # each genuinely cold (every evaluation-path cache dropped).
    clear_caches()
    t0 = time.perf_counter()
    single = run_sweep(spec, store=tmp_path / "single.jsonl")
    cold_seconds = time.perf_counter() - t0
    assert single.evaluated == len(spec)

    clear_caches()
    t0 = time.perf_counter()
    scalar = run_sweep(spec, vectorize=False)
    scalar_seconds = time.perf_counter() - t0
    assert scalar.records == single.records

    # Two shards, each on its own "machine" (fresh memo, own store).
    shard_paths = []
    shard_sizes = []
    shard_seconds = []
    for index in range(2):
        clear_caches()  # each shard behaves like its own cold machine
        shard = spec.shard(index, 2)
        path = tmp_path / f"shard{index}.jsonl"
        t0 = time.perf_counter()
        result = run_sweep(shard, store=path)
        shard_seconds.append(time.perf_counter() - t0)
        assert result.evaluated == len(shard)
        shard_paths.append(path)
        shard_sizes.append(len(shard))
    assert sum(shard_sizes) == len(spec)

    # Merge the per-shard stores; benchmark the warm merge path.
    def merge_shards():
        dest = ResultStore(tmp_path / "merged.jsonl")
        dest.merge(shard_paths)
        return dest

    merged = benchmark(merge_shards)

    t0 = time.perf_counter()
    merge_shards()
    merge_seconds = time.perf_counter() - t0
    speedup = scalar_seconds / merge_seconds
    assert speedup >= 5.0, (
        f"2-shard warm merge only {speedup:.1f}x faster than cold scalar "
        f"evaluation ({scalar_seconds:.2f}s vs {merge_seconds:.2f}s)"
    )

    # Record-for-record identity, frontier included.
    merged_records = merged.load()
    single_records = {r["hash"]: r for r in single.records}
    assert merged_records == single_records
    merged_front = pareto_frontier(list(merged_records.values()))
    single_front = pareto_frontier(list(single_records.values()))
    assert {r["hash"] for r in merged_front} == {
        r["hash"] for r in single_front
    }

    # Compaction: one line per config, queries unchanged.
    kept, dropped = merged.compact()
    assert kept == len(spec)
    assert merged.load() == merged_records

    show(
        f"Sharded DSE: {len(spec)}-point sweep as 2 shards "
        f"({shard_sizes[0]}+{shard_sizes[1]} points, "
        f"{shard_seconds[0] * 1e3:.0f}+{shard_seconds[1] * 1e3:.0f} ms) "
        f"merged in {merge_seconds * 1e3:.0f} ms "
        f"({speedup:.0f}x faster than {scalar_seconds * 1e3:.0f} ms cold "
        f"scalar, {cold_seconds * 1e3:.0f} ms cold vectorized); "
        f"frontier {len(merged_front)} points, identical to unsharded",
        f"merged store: {kept} records, {dropped} superseded lines dropped",
    )
    benchmark.extra_info["points"] = len(spec)
    benchmark.extra_info["shard_sizes"] = shard_sizes
    benchmark.extra_info["cold_seconds"] = round(cold_seconds, 3)
    benchmark.extra_info["cold_scalar_seconds"] = round(scalar_seconds, 3)
    benchmark.extra_info["merge_vs_cold_scalar_speedup"] = round(speedup, 1)


def test_streaming_sweep_yields_all_records(show):
    """``iter_sweep`` streams every unique record ``run_sweep`` returns."""
    from repro.dse import iter_sweep

    spec = SweepSpec.grid(
        workloads=("AlexNet", "RNN", "LSTM"),
        platforms=("tpu", "bpvec"),
        memories=(DDR4, HBM2),
        batches=(1, 8),
    )
    clear_memo()
    batch = run_sweep(spec)
    by_hash = {r["hash"]: r for r in batch.records}
    clear_memo()
    streamed = list(iter_sweep(spec))
    assert {s.hash for s in streamed} == set(by_hash)
    assert all(s.record == by_hash[s.hash] for s in streamed)
    show(
        "DSE engine: streaming sweep",
        f"{len(streamed)} records streamed in completion order, identical "
        f"to the batch run",
    )
