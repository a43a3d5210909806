"""Bit-identity of the vectorized lowered-IR evaluator vs the scalar path.

The contract of :mod:`repro.sim.lowered` is not "close": every metric a
record carries must be **bit-for-bit identical** to the scalar
simulation.  Integer cycle/traffic math is exact, and the float energy
terms are computed with the same operations in the same order, so the
comparisons below use ``==`` (via byte-equal JSON), never ``approx``.

Coverage: a deterministic equivalence sweep over every named platform x
memory x workload x policy in the registry, kernel-level equivalence of
the batched compute-cycles and traffic arrays against the exposed scalar
kernels, and hypothesis property tests over randomized
``AcceleratorSpec`` / ``MemorySpec`` / bitwidth-policy draws (including
fully random networks that never touch the registry), plus one-pass
evaluation of many networks at once against each network alone.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dse import SweepPoint, clear_caches, evaluate_point, evaluate_points
from repro.dse.spec import (
    MEMORY_NAMES,
    PLATFORM_NAMES,
    cached_network,
    resolve_memory,
    resolve_platform,
)
from repro.hw import DDR4, HBM2, AcceleratorSpec, MemorySpec
from repro.nn import (
    WORKLOAD_BUILDERS,
    Conv2D,
    Dense,
    LayerBitwidth,
    LSTMCell,
    Network,
    RNNCell,
)
from repro.sim import (
    compute_cycles_batch,
    evaluate_lowered,
    evaluate_lowered_groups,
    evaluate_lowered_many,
    gemm_compute_cycles,
    lower_network,
    plan_traffic,
    simulate_network,
    traffic_batch,
)
from repro.sim.lowered import _gemm_shapes

POLICIES = ("homogeneous-8bit", "paper-heterogeneous")


def _dumps(record: dict) -> str:
    return json.dumps(record, sort_keys=True)


def _network_metrics(result) -> dict:
    """The record metrics evaluate_point reads off a NetworkResult."""
    return {
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


# ----------------------------------------------------------------------
# Deterministic registry sweep: every platform x memory x workload x policy
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", sorted(WORKLOAD_BUILDERS))
def test_registry_equivalence_sweep(workload):
    points = [
        SweepPoint(
            workload=workload,
            policy=policy,
            platform=resolve_platform(platform),
            memory=resolve_memory(memory),
        )
        for platform in PLATFORM_NAMES
        for memory in MEMORY_NAMES
        for policy in POLICIES
    ]
    vectorized = evaluate_points(points)
    for point, record in zip(points, vectorized):
        assert _dumps(record) == _dumps(evaluate_point(point))


@pytest.mark.parametrize("workload", sorted(WORKLOAD_BUILDERS))
@pytest.mark.parametrize("platform", PLATFORM_NAMES)
def test_kernel_equivalence(workload, platform):
    """Batched kernels equal the exposed scalar kernels, GEMM by GEMM."""
    spec = resolve_platform(platform)
    network = cached_network(workload, None, "paper-heterogeneous")
    lowered = lower_network(network)
    cycles = compute_cycles_batch(lowered, spec)
    traffic = traffic_batch(lowered, spec)
    index = 0
    for layer in network.layers:
        gemms = layer.gemms(network.batch)
        if not gemms:
            continue
        bw = network.bitwidth(layer.name)
        for gemm in gemms:
            assert cycles[index] == gemm_compute_cycles(
                gemm.m, gemm.k, gemm.n, gemm.count, spec, bw.activations, bw.weights
            )
            unique = None
            if isinstance(layer, Conv2D):
                unique = layer.input_elements(network.batch) // gemm.count
            plan = plan_traffic(
                gemm, bw.activations, bw.weights, spec, input_unique_elements=unique
            )
            assert traffic[index] == plan.total_traffic
            index += 1
    assert index == lowered.num_gemms


def test_lowered_ir_shape():
    network = cached_network("LSTM", 4, "homogeneous-8bit")
    lowered = lower_network(network)
    assert lowered.network_name == network.name
    assert lowered.batch == 4
    assert lowered.num_layers == len(network.weighted_layers)
    assert lowered.num_gemms >= lowered.num_layers
    assert lowered.macs.sum() == network.total_macs()
    # Arrays are shared caches; they must be frozen.
    with pytest.raises(ValueError):
        lowered.m[0] = 1


def test_empty_network_raises():
    from repro.nn import Pool2D

    net = Network("empty", [Pool2D("p", 8, kernel=2, in_size=8)])
    with pytest.raises(ValueError, match="no simulatable layers"):
        lower_network(net)


# ----------------------------------------------------------------------
# Hypothesis: randomized spec / memory / policy draws over the registry
# ----------------------------------------------------------------------
def _spec_strategy():
    def build(style, rows, cols, lanes, freq, kb, uncore, max_bw):
        if style in ("conventional", "stripes", "loom"):
            lanes = 1
        else:
            # Composable styles raise (on both paths) for bitwidths above
            # max_bitwidth; keep them at 8 so any policy draw is valid.
            max_bw = 8
        return AcceleratorSpec(
            name=f"fuzz-{style}",
            style=style,
            num_macs=rows * cols * lanes,
            array_rows=rows,
            array_cols=cols,
            lanes=lanes,
            frequency_hz=freq,
            onchip_bytes=kb * 1024,
            uncore_power_mw=uncore,
            max_bitwidth=max_bw,
        )

    return st.builds(
        build,
        style=st.sampled_from(
            ["conventional", "bitfusion", "bpvec", "stripes", "loom"]
        ),
        rows=st.integers(1, 32),
        cols=st.integers(1, 64),
        lanes=st.sampled_from([1, 2, 4, 8, 16]),
        freq=st.sampled_from([100e6, 500e6, 1.1e9]),
        kb=st.integers(16, 512),
        uncore=st.floats(10.0, 500.0),
        max_bw=st.sampled_from([4, 8]),
    )


def _memory_strategy():
    return st.builds(
        MemorySpec,
        name=st.just("fuzz-mem"),
        bandwidth_gb_s=st.floats(1.0, 512.0),
        energy_pj_per_bit=st.floats(0.1, 20.0),
        efficiency=st.floats(0.5, 1.0),
        background_power_w=st.floats(0.0, 1.0),
    )


@settings(max_examples=40, deadline=None)
@given(
    workload=st.sampled_from(sorted(WORKLOAD_BUILDERS)),
    spec=_spec_strategy(),
    memory=_memory_strategy(),
    act=st.integers(1, 8),
    wgt=st.integers(1, 8),
    batch=st.sampled_from([None, 1, 3, 16]),
)
def test_records_bit_identical_on_random_hardware(
    workload, spec, memory, act, wgt, batch
):
    point = SweepPoint(
        workload=workload,
        policy=f"uniform-{act}x{wgt}",
        platform=spec,
        memory=memory,
        batch=batch,
    )
    (vectorized,) = evaluate_points([point])
    assert _dumps(vectorized) == _dumps(evaluate_point(point))


def _reduced_max_bitwidth_spec(style):
    return AcceleratorSpec(
        name=f"narrow-{style}",
        style=style,
        num_macs=64,
        array_rows=8,
        array_cols=8,
        max_bitwidth=4,
    )


@pytest.mark.parametrize("style", ["conventional", "stripes", "loom"])
def test_policy_bitwidth_above_spec_max_still_bit_identical(style):
    # Serial/conventional datapaths accept bitwidths above their own
    # max_bitwidth (multiplier clamps to 1); the vectorized path must
    # not die on the table gather.
    point = SweepPoint(
        workload="RNN",
        policy="uniform-8x8",
        platform=_reduced_max_bitwidth_spec(style),
        memory=DDR4,
    )
    (vectorized,) = evaluate_points([point])
    assert _dumps(vectorized) == _dumps(evaluate_point(point))


@pytest.mark.parametrize("style", ["bitfusion", "bpvec"])
def test_uncomposable_bitwidth_raises_scalar_error(style):
    # Composable styles cannot run pairs above max_bitwidth; both paths
    # must raise the same scalar-kernel ValueError.
    point = SweepPoint(
        workload="RNN",
        policy="uniform-8x8",
        platform=_reduced_max_bitwidth_spec(style),
        memory=DDR4,
    )
    with pytest.raises(ValueError, match="outside supported range"):
        evaluate_point(point)
    with pytest.raises(ValueError, match="outside supported range"):
        evaluate_points([point])
    # Also when the failing spec is not the chunk's first distinct spec.
    composable = dataclasses.replace(point, platform=resolve_platform("bpvec"))
    with pytest.raises(ValueError, match="outside supported range"):
        evaluate_points([composable, composable, point])


def test_points_sharing_spec_objects_match_lone_evaluation():
    # Spec-derived work runs once per distinct spec *object*; interleave
    # one shared object, equal-but-distinct copies and distinct specs.
    lowered = lower_network(cached_network("ResNet-18", 2, "paper-heterogeneous"))
    shared = resolve_platform("bpvec")
    targets = [
        (shared, DDR4),
        (resolve_platform("tpu"), HBM2),
        (dataclasses.replace(shared), HBM2),
        (shared, HBM2),
        (resolve_platform("bitfusion"), DDR4),
        (dataclasses.replace(shared, frequency_hz=1e9), DDR4),
        (dataclasses.replace(shared), DDR4),
        (shared, DDR4),
    ]
    together = evaluate_lowered_many(lowered, targets)
    alone = [evaluate_lowered(lowered, spec, memory) for spec, memory in targets]
    assert [_dumps(m) for m in together] == [_dumps(m) for m in alone]


def test_policies_share_gemm_shapes_until_clear_caches():
    clear_caches()
    heterogeneous = lower_network(cached_network("LSTM", 4, "paper-heterogeneous"))
    uniform = lower_network(cached_network("LSTM", 4, "uniform-4x4"))
    assert uniform.m is heterogeneous.m
    assert _gemm_shapes.cache_info().currsize == 1
    clear_caches()
    assert _gemm_shapes.cache_info().currsize == 0


# ----------------------------------------------------------------------
# Hypothesis: fully random networks, straight through the sim layer
# ----------------------------------------------------------------------
@st.composite
def _random_network(draw):
    layers = []
    kind = draw(st.sampled_from(["cnn", "mlp", "rnn"]))
    n_layers = draw(st.integers(1, 5))
    if kind == "cnn":
        size = draw(st.sampled_from([16, 28]))
        channels = draw(st.integers(1, 16))
        for i in range(n_layers):
            out_ch = draw(st.integers(1, 32))
            kernel = draw(st.sampled_from([1, 3]))
            groups = draw(st.sampled_from([1, 1, 2]))
            if channels % groups or out_ch % groups:
                groups = 1
            layers.append(
                Conv2D(
                    f"conv{i}",
                    channels,
                    out_ch,
                    kernel=kernel,
                    in_size=size,
                    padding=kernel // 2,
                    groups=groups,
                )
            )
            channels = out_ch
    elif kind == "mlp":
        features = draw(st.integers(1, 512))
        for i in range(n_layers):
            out = draw(st.integers(1, 512))
            layers.append(Dense(f"fc{i}", features, out))
            features = out
    else:
        cell = draw(st.sampled_from([RNNCell, LSTMCell]))
        layers.append(
            cell(
                "cell0",
                input_size=draw(st.integers(1, 256)),
                hidden_size=draw(st.integers(1, 256)),
                steps=draw(st.integers(1, 8)),
            )
        )
    net = Network("fuzz", layers, batch=draw(st.integers(1, 8)))
    assignment = {}
    for layer in net.weighted_layers:
        assignment[layer.name] = LayerBitwidth(
            draw(st.integers(1, 8)), draw(st.integers(1, 8))
        )
    net.set_bitwidths(assignment)
    return net


@settings(max_examples=40, deadline=None)
@given(
    net=_random_network(),
    spec=_spec_strategy(),
    memory=st.sampled_from([DDR4, HBM2]),
)
def test_lowered_metrics_bit_identical_on_random_networks(net, spec, memory):
    scalar = _network_metrics(simulate_network(net, spec, memory))
    vectorized = evaluate_lowered(lower_network(net), spec, memory)
    assert _dumps(vectorized) == _dumps(scalar)


# ----------------------------------------------------------------------
# One pass over many networks
# ----------------------------------------------------------------------
@st.composite
def _pass(draw):
    """Groups of (random network, targets), sharing some spec objects."""
    shared = draw(st.lists(_spec_strategy(), min_size=1, max_size=3))
    groups = []
    for _ in range(draw(st.integers(1, 4))):
        net = draw(_random_network())
        targets = [
            (
                draw(st.one_of(st.sampled_from(shared), _spec_strategy())),
                draw(st.one_of(st.sampled_from([DDR4, HBM2]), _memory_strategy())),
            )
            for _ in range(draw(st.integers(1, 4)))
        ]
        groups.append((net, targets))
    return groups


@settings(max_examples=40, deadline=None)
@given(groups=_pass())
def test_one_pass_matches_each_network_alone(groups):
    lowered = [(lower_network(net), targets) for net, targets in groups]
    together = evaluate_lowered_groups(lowered)
    assert len(together) == len(groups)
    for (net, targets), (ir, _), metrics in zip(groups, lowered, together):
        alone = evaluate_lowered_many(ir, targets)
        scalar = [
            _network_metrics(simulate_network(net, spec, memory))
            for spec, memory in targets
        ]
        assert [_dumps(m) for m in metrics] == [_dumps(m) for m in alone]
        assert [_dumps(m) for m in metrics] == [_dumps(m) for m in scalar]


_MIXED_POINT = st.tuples(
    st.sampled_from(sorted(WORKLOAD_BUILDERS)),
    st.sampled_from(POLICIES + ("uniform-2x4",)),
    st.sampled_from([None, 1, 4]),
    st.one_of(
        st.sampled_from(PLATFORM_NAMES).map(resolve_platform),
        _spec_strategy(),
        st.just("gpu"),
    ),
    st.one_of(st.sampled_from([DDR4, HBM2]), _memory_strategy()),
)


@settings(max_examples=25, deadline=None)
@given(draws=st.lists(_MIXED_POINT, min_size=1, max_size=12))
def test_mixed_chunk_matches_scalar_records(draws):
    # Registry networks of 1 to ~60 layers (RNN/LSTM cells lower to
    # several GEMMs per layer), custom platforms and memories, and GPU
    # points, all in one evaluate_points chunk.
    from repro.dse import resolve_gpu

    gpu = resolve_gpu("rtx-2080-ti")
    points = []
    for workload, policy, batch, spec, memory in draws:
        if spec == "gpu":
            points.append(SweepPoint(workload=workload, gpu=gpu, batch=batch))
        else:
            points.append(
                SweepPoint(
                    workload=workload,
                    policy=policy,
                    platform=spec,
                    memory=memory,
                    batch=batch,
                )
            )
    records = evaluate_points(points)
    assert [_dumps(r) for r in records] == [_dumps(evaluate_point(p)) for p in points]


def _rnn(policy):
    return lower_network(cached_network("RNN", 1, policy))


def test_narrow_spec_on_a_narrow_network_beside_a_wide_one_raises_nothing(monkeypatch):
    # A 4-bit BPVeC cannot compose 8-bit pairs (sentinel 0 in its table).
    # Paired only with the 4-bit group, it must not trip the sentinel on
    # the 8-bit group's GEMMs, nor hand a 0 to factor_pairs.
    import repro.sim.lowered as lowered_module

    real = lowered_module.factor_pairs

    def checked(value):
        assert value > 0
        return real(value)

    monkeypatch.setattr(lowered_module, "factor_pairs", checked)
    narrow = _reduced_max_bitwidth_spec("bpvec")
    wide = resolve_platform("bpvec")
    four, eight = _rnn("uniform-4x4"), _rnn("uniform-8x8")
    groups = [(four, [(narrow, DDR4), (wide, HBM2)]), (eight, [(wide, DDR4)])]
    together = evaluate_lowered_groups(groups)
    alone = [evaluate_lowered_many(ir, targets) for ir, targets in groups]
    dumped = [[_dumps(m) for m in g] for g in together]
    assert dumped == [[_dumps(m) for m in g] for g in alone]
    points = [
        SweepPoint(workload="RNN", policy="uniform-4x4", platform=narrow, memory=DDR4),
        SweepPoint(workload="RNN", policy="uniform-8x8", platform=wide, memory=DDR4),
    ]
    assert evaluate_points(points) == [evaluate_point(p) for p in points]


def test_narrow_spec_on_the_wide_network_raises_the_scalar_error():
    narrow = _reduced_max_bitwidth_spec("bpvec")
    wide = resolve_platform("bpvec")
    bad = SweepPoint(workload="RNN", policy="uniform-8x8", platform=narrow, memory=DDR4)
    with pytest.raises(ValueError) as scalar:
        evaluate_point(bad)
    groups = [
        (_rnn("uniform-4x4"), [(narrow, DDR4)]),
        (_rnn("uniform-8x8"), [(wide, DDR4), (narrow, HBM2)]),
    ]
    with pytest.raises(ValueError) as vectorized:
        evaluate_lowered_groups(groups)
    assert str(vectorized.value) == str(scalar.value)
    fine = SweepPoint(workload="RNN", policy="uniform-4x4", platform=narrow, memory=DDR4)
    with pytest.raises(ValueError) as chunk:
        evaluate_points([fine, bad])
    assert str(chunk.value) == str(scalar.value)
