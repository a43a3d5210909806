"""Cold sweeps pay per distinct axis value, not per point.

A sweep repeats a handful of platforms, memories, (workload, policy)
pairs and (workload, batch) pairs across every point; parsing,
validation and lowering must each run once per distinct value, and
``clear_caches()`` must forget every cache that makes this so.
"""

import dataclasses
import functools
import importlib
import json
import random

import numpy as np
import pytest

from repro.baselines.gpu import RTX_2080_TI
from repro.dse import (
    SweepPoint,
    SweepSpec,
    build_network,
    cached_network,
    clear_caches,
    evaluate_point,
    lowered_for,
    run_sweep,
)
from repro.dse import spec as spec_module
from repro.hw import BPVEC, DDR4, HBM2, AcceleratorSpec, MemorySpec
from repro.nn.models import WORKLOAD_BUILDERS
from repro.sim.lowered import lower_network

WORKLOADS = tuple(WORKLOAD_BUILDERS)
PLATFORMS = ("tpu", "bitfusion", "bpvec")

#: The modules of the evaluation path whose ``functools.lru_cache``
#: functions ``clear_caches()`` must empty.
EVALUATION_MODULES = (
    "repro.dse.spec",
    "repro.dse.policies",
    "repro.dse.evaluate",
    "repro.sim.lowered",
    "repro.sim.performance",
    "repro.hw.platforms",
)


def _perlayer(rng: random.Random, workload: str) -> str:
    count = len(build_network(workload).weighted_layers)
    pairs = "-".join(
        f"{rng.choice((2, 4, 8))}x{rng.choice((2, 4, 8))}" for _ in range(count)
    )
    return f"perlayer-{pairs}"


def _cold_sweep_dict(seed: int = 3) -> dict:
    """A 972-point explicit-points sweep, as JSON delivers it: 6
    workloads x 3 policies x 3 batches x 3 platforms x 6 memories, every
    hardware spec spelled out as its own field dict."""
    rng = random.Random(seed)
    platforms = [
        dataclasses.asdict(spec_module.resolve_platform(name)) for name in PLATFORMS
    ]
    memories = []
    for index in range(6):
        scale = rng.uniform(0.25, 4.0)
        base = DDR4 if index % 2 == 0 else HBM2
        memories.append(
            dataclasses.asdict(
                dataclasses.replace(
                    base,
                    name=f"{base.name}x{scale:.4f}",
                    bandwidth_gb_s=base.bandwidth_gb_s * scale,
                )
            )
        )
    batches = [None, 4, 32]
    points = []
    for workload in WORKLOADS:
        policies = ["uniform-4x4"] + [_perlayer(rng, workload) for _ in range(2)]
        for policy in policies:
            for batch in batches:
                for platform in platforms:
                    for memory in memories:
                        point = {
                            "workload": workload,
                            "policy": policy,
                            "platform": platform,
                            "memory": memory,
                        }
                        if batch is not None:
                            point["batch"] = batch
                        points.append(point)
    return json.loads(json.dumps({"points": points}))


def _counting(monkeypatch, owner, name: str) -> list:
    calls = []
    original = getattr(owner, name)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_cold_sweep_parses_validates_and_lowers_each_distinct_value_once(
    monkeypatch,
):
    data = _cold_sweep_dict()
    points = data["points"]
    assert len(points) == 972
    pairs = {(p["workload"], p["policy"]) for p in points}
    shapes = {(p["workload"], p.get("batch")) for p in points}
    combos = {(p["workload"], p.get("batch"), p["policy"]) for p in points}
    assert (len(pairs), len(shapes), len(combos)) == (18, 18, 54)

    clear_caches()
    platforms = _counting(monkeypatch, AcceleratorSpec, "__init__")
    memories = _counting(monkeypatch, MemorySpec, "__init__")
    validations = _counting(monkeypatch, spec_module, "resolve_policy")
    spec = SweepSpec.from_dict(data)
    assert len(platforms) == len(PLATFORMS)
    assert len(memories) == 6
    assert len(validations) == len(pairs)

    builds = []

    def counted(builder):
        def build(*args, **kwargs):
            builds.append(builder)
            return builder(*args, **kwargs)

        return build

    for name, builder in list(WORKLOAD_BUILDERS.items()):
        monkeypatch.setitem(WORKLOAD_BUILDERS, name, counted(builder))
    result = run_sweep(spec)
    assert result.evaluated == 972
    assert len(builds) <= len(shapes) + len(pairs) < len(combos)
    monkeypatch.undo()
    for index in range(0, 972, 97):
        assert result.records[index] == evaluate_point(spec.points[index])


def test_an_invalid_pair_raises_on_every_point():
    # Validation is cached per (workload, policy) pair; failures are not.
    clear_caches()
    alexnet = _perlayer(random.Random(1), "AlexNet")
    for _ in range(3):
        with pytest.raises(ValueError, match="weighted layers"):
            SweepPoint(workload="LSTM", policy=alexnet, platform=BPVEC, memory=DDR4)
        with pytest.raises(KeyError, match="unknown policy"):
            SweepPoint(workload="LSTM", policy="fp32", platform=BPVEC, memory=DDR4)
    assert spec_module._checked_pair.cache_info().currsize == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_list_does_not_depend_on_batch(workload):
    # The (workload, policy) bitwidth cache builds each workload at its
    # default batch and indexes its layers by position at every batch.
    def signature(network):
        return [
            (layer.name, type(layer), layer.has_weights) for layer in network.layers
        ]

    default = signature(build_network(workload))
    for batch in (None, 1, 7, 256):
        assert signature(build_network(workload, batch)) == default


@pytest.mark.parametrize("workload", WORKLOADS)
def test_lowered_for_matches_lowering_the_whole_network(workload):
    clear_caches()
    rng = random.Random(workload)
    policies = (
        "homogeneous-8bit",
        "paper-heterogeneous",
        "uniform-2x8",
        _perlayer(rng, workload),
    )
    for batch in (None, 1, 7):
        for policy in policies:
            assembled = lowered_for(workload.lower(), batch, policy.upper())
            whole = lower_network(cached_network(workload, batch, policy))
            for field in dataclasses.fields(whole):
                a, b = getattr(assembled, field.name), getattr(whole, field.name)
                if isinstance(b, np.ndarray):
                    assert a.dtype == b.dtype and np.array_equal(a, b), field.name
                    assert not a.flags.writeable, field.name
                else:
                    assert a == b, field.name


def _lru_caches():
    for name in EVALUATION_MODULES:
        module = importlib.import_module(name)
        for attr, value in vars(module).items():
            if callable(getattr(value, "cache_info", None)):
                yield f"{name}.{attr}", value


def test_clear_caches_empties_every_evaluation_path_cache():
    memory = dataclasses.asdict(HBM2)
    perlayer = _perlayer(random.Random(0), "RNN")
    spec = SweepSpec.from_dict(
        {
            "points": [
                {
                    "workload": "RNN",
                    "policy": perlayer,
                    "platform": "bpvec",
                    "memory": memory,
                    "batch": 2,
                },
                {
                    "workload": "LSTM",
                    "policy": "uniform-4x8",
                    "platform": "tpu",
                    "memory": "ddr4",
                },
                {"workload": "LSTM", "gpu": "rtx-2080-ti", "precision": 4},
            ]
        }
    )
    run_sweep(spec)
    evaluate_point(spec.points[0])
    SweepPoint(workload="RNN", gpu=RTX_2080_TI).config_hash()
    caches = dict(_lru_caches())
    for name in (
        "repro.dse.spec._checked_pair",
        "repro.dse.spec._weighted_layer_count",
        "repro.dse.spec._asic_hash_head",
        "repro.dse.spec._hash_tail",
        "repro.dse.evaluate._shapes_for",
        "repro.dse.evaluate._bitwidths_for",
        "repro.dse.evaluate.lowered_for",
        "repro.sim.lowered._gemm_shapes",
    ):
        assert caches[name].cache_info().currsize > 0, name
    clear_caches()
    full = {
        name: cache.cache_info().currsize
        for name, cache in caches.items()
        if cache.cache_info().currsize
    }
    assert full == {}
