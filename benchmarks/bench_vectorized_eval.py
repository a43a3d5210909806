"""Vectorized lowered-IR evaluator at scale: cold 1008-point sweep.

Acceptance bench for :mod:`repro.sim.lowered`: evaluate the same
1008-point design-space grid cold through the scalar per-point path
(``vectorize=False``, the ``--no-vectorize`` escape hatch) and through
the vectorized evaluator.  The records must be bit-identical, and the
vectorized run must beat the scalar run by at least ``MIN_SPEEDUP`` (3x
by default -- a CI-safe floor; locally the margin is far larger).

A second case stresses the **policy axis**: the same hardware grid
crossed with four generated per-layer policies per workload -- the
shape ``repro quant-dse`` sweeps produce.  Every (workload, batch,
policy) combination is a distinct lowered IR, so this pins the
lowered-IR cache behavior when policies multiply the key space.

Emits ``BENCH_vectorized_eval.json`` and ``BENCH_policy_axis.json``
(paths overridable via the ``BENCH_VECTORIZED_EVAL_JSON`` /
``BENCH_POLICY_AXIS_JSON`` env vars) so CI can archive the numbers as
artifacts next to the pytest-benchmark JSON.
"""

import json
import os
import time

from repro.dse import PolicySpec, SweepSpec, clear_caches, run_sweep
from repro.dse.spec import build_network
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

MIN_SPEEDUP = float(os.environ.get("REPRO_MIN_VECTOR_SPEEDUP", "3.0"))


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


def _timed_cold_run(**kwargs):
    # Every evaluation-path cache dropped, and fresh SweepPoint
    # instances so the per-point config-hash memo is paid inside every
    # timed run -- scalar and vectorized alike.
    clear_caches()
    spec = _sweep_spec()
    start = time.perf_counter()
    result = run_sweep(spec, **kwargs)
    return result, time.perf_counter() - start


def test_vectorized_vs_scalar_cold_sweep(benchmark, show):
    spec = _sweep_spec()
    assert len(spec) >= 1000

    scalar, scalar_seconds = _timed_cold_run(vectorize=False)
    assert scalar.evaluated == len(spec)

    def vectorized_run():
        result, _ = _timed_cold_run(vectorize=True)
        return result

    vectorized = benchmark(vectorized_run)
    assert vectorized.evaluated == len(spec)
    assert vectorized.records == scalar.records  # bit-identical, all 1008

    _, vectorized_seconds = _timed_cold_run(vectorize=True)
    speedup = scalar_seconds / vectorized_seconds

    rows = [
        ("scalar (--no-vectorize)", scalar_seconds * 1e3, 1.0),
        ("vectorized", vectorized_seconds * 1e3, speedup),
    ]
    show(
        f"Vectorized evaluator: cold {len(spec)}-point sweep "
        f"({speedup:.1f}x)",
        format_table(["Path", "Time (ms)", "Speedup"], rows),
    )

    payload = {
        "points": len(spec),
        "scalar_seconds": round(scalar_seconds, 4),
        "vectorized_seconds": round(vectorized_seconds, 4),
        "single_process_speedup": round(speedup, 2),
        "min_speedup_gate": MIN_SPEEDUP,
    }
    artifact = os.environ.get(
        "BENCH_VECTORIZED_EVAL_JSON", "BENCH_vectorized_eval.json"
    )
    with open(artifact, "w") as handle:
        json.dump(payload, handle, indent=2)
    benchmark.extra_info.update(payload)

    assert speedup >= MIN_SPEEDUP, (
        f"vectorized cold sweep only {speedup:.2f}x faster than scalar "
        f"({vectorized_seconds:.3f}s vs {scalar_seconds:.3f}s); "
        f"gate is {MIN_SPEEDUP:.1f}x"
    )


# ----------------------------------------------------------------------
# Policy axis: same grid x 4 generated per-layer policies per workload
# ----------------------------------------------------------------------
WORKLOADS = ("AlexNet", "Inception-v1", "ResNet-18", "ResNet-50", "RNN", "LSTM")


def _generated_policies(num_layers: int) -> list[str]:
    """Four distinct deterministic per-layer policies, quant-dse style."""
    wide, mid, narrow = 8, 4, 2
    if num_layers >= 3:
        # The classic deep-quantization shape: wide boundary layers.
        mixed = [narrow] * num_layers
        mixed[0] = mixed[-1] = wide
    else:
        # Too few layers to mix widths distinctly; use a fourth uniform.
        mixed = [6] * num_layers
    return [
        PolicySpec.from_assignment(bits).name
        for bits in (
            [wide] * num_layers,
            [mid] * num_layers,
            [narrow] * num_layers,
            mixed,
        )
    ]


def _policy_axis_spec() -> SweepSpec:
    points = []
    for workload in WORKLOADS:
        policies = _generated_policies(len(build_network(workload).weighted_layers))
        points.extend(
            SweepSpec.grid(
                workloads=(workload,),
                platforms=("tpu", "bitfusion", "bpvec"),
                memories=MEMORIES,
                policies=policies,
                batches=BATCHES,
            ).points
        )
    return SweepSpec(points=tuple(points))


def test_policy_axis_cold_sweep(benchmark, show):
    spec = _policy_axis_spec()
    # 6 workloads x 4 policies x 3 platforms x 4 memories x 7 batches.
    assert len(spec) == len(WORKLOADS) * 4 * 3 * len(MEMORIES) * len(BATCHES)
    lowered_keys = {
        (p.workload, p.batch, p.policy) for p in spec.points if p.kind == "asic"
    }

    def cold_run(**kwargs):
        clear_caches()
        start = time.perf_counter()
        result = run_sweep(_policy_axis_spec(), **kwargs)
        return result, time.perf_counter() - start

    scalar, scalar_seconds = cold_run(vectorize=False)
    assert scalar.evaluated == len(spec)

    def vectorized_run():
        result, _ = cold_run(vectorize=True)
        return result

    vectorized = benchmark(vectorized_run)
    assert vectorized.evaluated == len(spec)
    # Bit-identity holds for arbitrary generated policies, all points.
    assert vectorized.records == scalar.records

    _, vectorized_seconds = cold_run(vectorize=True)
    speedup = scalar_seconds / vectorized_seconds

    show(
        f"Policy-axis sweep: {len(spec)} points, "
        f"{len(lowered_keys)} lowered IRs ({speedup:.1f}x vectorized)",
        format_table(
            ["Path", "Time (ms)", "Speedup"],
            [
                ("scalar (--no-vectorize)", scalar_seconds * 1e3, 1.0),
                ("vectorized", vectorized_seconds * 1e3, speedup),
            ],
        ),
    )

    payload = {
        "points": len(spec),
        "generated_policies_per_workload": 4,
        "lowered_networks": len(lowered_keys),
        "scalar_seconds": round(scalar_seconds, 4),
        "vectorized_seconds": round(vectorized_seconds, 4),
        "single_process_speedup": round(speedup, 2),
        "min_speedup_gate": MIN_SPEEDUP,
    }
    artifact = os.environ.get("BENCH_POLICY_AXIS_JSON", "BENCH_policy_axis.json")
    with open(artifact, "w") as handle:
        json.dump(payload, handle, indent=2)
    benchmark.extra_info.update(payload)

    assert speedup >= MIN_SPEEDUP, (
        f"vectorized policy-axis sweep only {speedup:.2f}x faster than "
        f"scalar ({vectorized_seconds:.3f}s vs {scalar_seconds:.3f}s); "
        f"gate is {MIN_SPEEDUP:.1f}x"
    )
