"""DSE engine at scale: a 1000+-point sweep, cold vs warm store.

The acceptance bar for the engine: evaluate a >= 1000-point design-space
sweep, persist it to the JSONL result store, and re-run the identical
sweep against the warm store.  The warm run must evaluate nothing,
serve every point from the store bit-identically, and cost at most 3x a
plain ``ResultStore.load()`` of the same file (medians of interleaved
runs): the warm path is hashing plus one store read, no simulation.
The gate is on the warm path's own cost, so a faster cold path cannot
tighten it; the cold/warm ratio is reported, not gated.
"""

import statistics
import time

from repro.dse import ResultStore, SweepSpec, clear_memo, pareto_frontier, run_sweep
from repro.hw import DDR4, HBM2, scaled_memory
from repro.sim import format_table

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


def test_dse_engine_cold_vs_warm(benchmark, show, tmp_path):
    spec = _sweep_spec()
    assert len(spec) >= 1000

    store = tmp_path / "dse-results.jsonl"
    clear_memo()
    t0 = time.perf_counter()
    cold = run_sweep(spec, store=store)
    cold_seconds = time.perf_counter() - t0
    assert cold.evaluated == len(spec)

    def warm_run():
        clear_memo()  # only the persistent store may serve hits
        return run_sweep(spec, store=store)

    warm = benchmark(warm_run)
    assert warm.evaluated == 0
    assert warm.from_store == len(spec)
    assert warm.records == cold.records  # bit-identical through the store

    warm_times, load_times = [], []
    for _ in range(5):
        t0 = time.perf_counter()
        warm_run()
        warm_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        loaded = ResultStore(store).load()
        load_times.append(time.perf_counter() - t0)
    assert len(loaded) == len(spec)
    warm_seconds = statistics.median(warm_times)
    load_seconds = statistics.median(load_times)
    assert warm_seconds <= 3.0 * load_seconds, (
        f"warm store run {warm_seconds * 1e3:.0f} ms is more than 3x a plain "
        f"store load ({load_seconds * 1e3:.0f} ms)"
    )
    speedup = cold_seconds / warm_seconds

    frontier = pareto_frontier(cold.records)
    show(
        f"DSE engine: {len(spec)}-point sweep, cold {cold_seconds * 1e3:.0f} ms "
        f"vs warm {warm_seconds * 1e3:.0f} ms ({speedup:.0f}x; store load "
        f"{load_seconds * 1e3:.0f} ms); "
        f"Pareto frontier {len(frontier)} points",
        format_table(
            ["Workload", "Platform", "Memory", "Policy", "Batch", "Time (ms)"],
            [
                (
                    r["workload"], r["platform"], r["memory"], r["policy"],
                    r["batch"], r["metrics"]["total_seconds"] * 1e3,
                )
                for r in frontier
            ],
        ),
    )
    benchmark.extra_info["points"] = len(spec)
    benchmark.extra_info["cold_seconds"] = round(cold_seconds, 3)
    benchmark.extra_info["warm_vs_cold_speedup"] = round(speedup, 1)
    benchmark.extra_info["warm_vs_load"] = round(warm_seconds / load_seconds, 2)
