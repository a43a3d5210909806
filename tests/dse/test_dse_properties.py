"""Property-based tests for the DSE engine and core simulator invariants.

Five invariants pinned down across issues:

* a cache hit (memo or JSON store round-trip) is bit-identical to the
  cold evaluation that produced it;
* a Pareto frontier contains no dominated point, and every excluded
  point is dominated by some frontier point -- and the incremental
  tracker agrees with the batch computation on any stream; the
  frontier, top-k and every named query equal their brute-force
  definitions (the O(n^2) dominance loop, ``sorted(...)[:k]``), output
  order and ties included;
* hash-range shards are pairwise disjoint and cover the spec for any
  shard count;
* merging per-shard stores reproduces the single-store run
  record-for-record;
* ``simulate_layer`` cycles are monotone non-increasing as the array
  grows (more columns can only help or tie, never hurt);
* a point's config hash is the SHA-256 of its canonical ``config()``
  JSON, however the point was built;
* a grid-built spec's wire form (its axes) rebuilds the same points in
  the same order, whatever spelling each axis value used.
"""

import dataclasses
import hashlib
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dse import (
    ParetoTracker,
    ResultStore,
    SweepPoint,
    SweepSpec,
    clear_memo,
    evaluate_point,
    pareto_frontier,
    run_query,
    run_sweep,
    shard_index,
    top_k,
)
from repro.baselines.gpu import RTX_2080_TI
from repro.hw import BITFUSION, BPVEC, DDR4, HBM2, TPU_LIKE, with_units
from repro.nn.models import WORKLOAD_BUILDERS
from repro.sim.performance import simulate_layer


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
_platforms = st.sampled_from([TPU_LIKE, BITFUSION, BPVEC])
_memories = st.sampled_from([DDR4, HBM2])
# Small batches keep a single example in the low milliseconds.
_points = st.builds(
    SweepPoint,
    workload=st.sampled_from(sorted(WORKLOAD_BUILDERS)),
    policy=st.sampled_from(
        ["homogeneous-8bit", "paper-heterogeneous", "uniform-4x4", "uniform-2x6"]
    ),
    platform=_platforms,
    memory=_memories,
    batch=st.one_of(st.none(), st.integers(min_value=1, max_value=4)),
)

_metric_vectors = st.lists(
    st.tuples(
        st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
        st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
    ),
    min_size=1,
    max_size=40,
)


# ----------------------------------------------------------------------
# Invariant 1: warm results are bit-identical to cold evaluation
# ----------------------------------------------------------------------
@settings(max_examples=15, deadline=None)
@given(point=_points)
def test_cache_hit_bit_identical_to_cold(point, tmp_path_factory):
    cold = evaluate_point(point)

    # JSON store round-trip preserves every float bit-for-bit.
    store = ResultStore(
        tmp_path_factory.mktemp("dse") / f"{point.config_hash()[:12]}.jsonl"
    )
    store.append([cold])
    warm = store.load()[point.config_hash()]
    assert warm == cold

    # The engine's memo tier returns the identical record too.
    clear_memo()
    first = run_sweep([point]).records[0]
    second = run_sweep([point]).records[0]
    assert first == cold
    assert second is first

    # And a raw JSON text round-trip agrees (belt and braces).
    assert json.loads(json.dumps(cold)) == cold


# ----------------------------------------------------------------------
# Invariant 2: Pareto frontiers are dominated-point-free and complete
# ----------------------------------------------------------------------
def _dominates(a, b):
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


@settings(max_examples=200, deadline=None)
@given(vectors=_metric_vectors)
def test_pareto_frontier_dominated_point_free(vectors):
    records = [
        {
            "hash": str(i),
            "metrics": {"total_seconds": s, "total_energy_j": e},
        }
        for i, (s, e) in enumerate(vectors)
    ]
    frontier = pareto_frontier(records)
    vec = {
        r["hash"]: (r["metrics"]["total_seconds"], r["metrics"]["total_energy_j"])
        for r in records
    }

    assert frontier, "a non-empty record set always has a frontier"
    frontier_keys = {r["hash"] for r in frontier}
    # No frontier point is dominated by any record.
    for f in frontier:
        assert not any(
            _dominates(vec[r["hash"]], vec[f["hash"]]) for r in records
        )
    # Every excluded point is dominated by some frontier point.
    for r in records:
        if r["hash"] not in frontier_keys:
            assert any(_dominates(vec[k], vec[r["hash"]]) for k in frontier_keys)


@settings(max_examples=200, deadline=None)
@given(vectors=_metric_vectors)
def test_pareto_tracker_matches_batch_frontier(vectors):
    records = [
        {
            "hash": str(i),
            "metrics": {"total_seconds": s, "total_energy_j": e},
        }
        for i, (s, e) in enumerate(vectors)
    ]
    tracker = ParetoTracker()
    for record in records:
        tracker.add(record)
    assert tracker.seen == len(records)
    assert [r["hash"] for r in tracker.frontier] == [
        r["hash"] for r in pareto_frontier(records)
    ]


def _vector(record, objectives, senses):
    metrics = record["metrics"]
    return tuple(
        metrics[name] if sense == "min" else -metrics[name]
        for name, sense in zip(objectives, senses)
    )


def _brute_force_frontier(
    records, objectives=("total_seconds", "total_energy_j"), senses=None
):
    """The definition, in O(n^2): every record no record dominates, in
    input order."""
    senses = senses or ("min",) * len(objectives)
    entries = [(record, _vector(record, objectives, senses)) for record in records]
    return [
        record
        for record, vec in entries
        if not any(_dominates(other, vec) for _, other in entries)
    ]


# Few distinct values, so equal vectors and equal keys are common.
_tied_vectors = st.lists(
    st.tuples(st.integers(1, 5), st.integers(1, 5)), min_size=0, max_size=40
)
_senses = st.sampled_from(["min", "max"])


def _tied_records(vectors):
    return [
        {
            "hash": f"{i:04d}",
            "workload": "AB"[i % 2],
            "policy": "pq"[i // 2 % 2],
            "metrics": {"total_seconds": float(s), "total_energy_j": float(e)},
        }
        for i, (s, e) in enumerate(vectors)
    ]


@settings(max_examples=200, deadline=None)
@given(vectors=_tied_vectors, senses=st.tuples(_senses, _senses))
def test_pareto_frontier_matches_brute_force(vectors, senses):
    records = _tied_records(vectors)
    expected = _brute_force_frontier(records, senses=senses)
    assert pareto_frontier(records, senses=senses) == expected


@settings(max_examples=200, deadline=None)
@given(vectors=_tied_vectors, k=st.integers(0, 45), sense=_senses)
def test_top_k_is_the_sorted_prefix(vectors, k, sense):
    records = _tied_records(vectors)
    sign = 1.0 if sense == "min" else -1.0
    expected = sorted(records, key=lambda r: sign * r["metrics"]["total_seconds"])
    assert top_k(records, "total_seconds", k=k, sense=sense) == expected[:k]


@settings(max_examples=100, deadline=None)
@given(
    vectors=_tied_vectors,
    where=st.sampled_from([None, {"workload": "A"}, {"workload": "B", "policy": "q"}]),
    sense=_senses,
)
def test_named_queries_match_their_definitions(vectors, where, sense):
    records = _tied_records(vectors)
    kept = [
        r for r in records if all(r.get(key) == v for key, v in (where or {}).items())
    ]
    params = {"where": where} if where else {}
    assert run_query(records, "pareto", params) == _brute_force_frontier(kept)
    sign = 1.0 if sense == "min" else -1.0
    ranked = sorted(kept, key=lambda r: sign * r["metrics"]["total_energy_j"])
    ranking = {"objective": "total_energy_j", "k": 3, "sense": sense, **params}
    assert run_query(records, "top-k", ranking) == ranked[:3]
    accuracy = {"p": 0.5, "q": 0.75}
    joined = [
        {**r, "metrics": {**r["metrics"], "accuracy": accuracy[r["policy"]]}}
        for r in kept
    ]
    frontier = {"accuracy_by_policy": accuracy, "sense": sense, **params}
    expected = _brute_force_frontier(
        joined, objectives=("total_seconds", "accuracy"), senses=(sense, "max")
    )
    assert run_query(records, "accuracy-frontier", frontier) == expected


# ----------------------------------------------------------------------
# Invariant 3: shards partition the spec; merged shards == single run
# ----------------------------------------------------------------------
# A small pool keeps the number of distinct configs tiny, so the memo
# makes every example after the first evaluation near-free.
_pool_points = st.builds(
    SweepPoint,
    workload=st.sampled_from(["LSTM", "RNN"]),
    platform=st.sampled_from([TPU_LIKE, BPVEC]),
    memory=st.just(DDR4),
    batch=st.just(1),
)


@settings(max_examples=50, deadline=None)
@given(points=st.lists(_points, min_size=1, max_size=8), n=st.integers(1, 7))
def test_shards_disjoint_and_cover_spec(points, n):
    spec = SweepSpec(points=tuple(points))
    shards = [spec.shard(i, n) for i in range(n)]
    # Cover: every point lands in exactly one shard, order preserved.
    assert sum(len(s) for s in shards) == len(spec)
    for shard, index in ((s, i) for i, s in enumerate(shards)):
        for point in shard.points:
            assert shard_index(point.config_hash(), n) == index
    # Disjoint: no hash appears in two shards.
    owned = [{p.config_hash() for p in s.points} for s in shards]
    assert sum(len(o) for o in owned) == len(
        {p.config_hash() for p in spec.points}
    )


@settings(max_examples=15, deadline=None)
@given(
    points=st.lists(_pool_points, min_size=1, max_size=6),
    n=st.integers(1, 4),
)
def test_merged_shard_stores_equal_single_store_run(
    points, n, tmp_path_factory
):
    tmp = tmp_path_factory.mktemp("shards")
    spec = SweepSpec(points=tuple(points))

    single = ResultStore(tmp / "single.jsonl")
    run_sweep(spec, store=single)

    shard_paths = []
    for index in range(n):
        shard = spec.shard(index, n)
        path = tmp / f"shard{index}.jsonl"
        if len(shard):
            run_sweep(shard, store=path)
        shard_paths.append(path)  # empty shards never created a store

    merged = ResultStore(tmp / "merged.jsonl")
    merged.merge(shard_paths)
    assert merged.load() == single.load()


# ----------------------------------------------------------------------
# Invariant 4: more array never means more cycles
# ----------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(
    base=_platforms,
    memory=_memories,
    workload=st.sampled_from(["AlexNet", "ResNet-18", "RNN", "LSTM"]),
    policy=st.sampled_from(["homogeneous-8bit", "paper-heterogeneous"]),
    layer_index=st.integers(min_value=0, max_value=30),
)
def test_layer_cycles_monotone_in_array_size(
    base, memory, workload, policy, layer_index
):
    from repro.dse import build_network, resolve_policy

    network = build_network(workload, batch=2)
    resolve_policy(policy)(network)
    weighted = network.weighted_layers
    layer = weighted[layer_index % len(weighted)]

    previous = None
    for scale in (1, 2, 4, 8):
        spec = with_units(base, base.num_macs * scale)
        result = simulate_layer(layer, network, spec, memory)
        assert result is not None
        if previous is not None:
            assert result.cycles <= previous.cycles
            assert result.compute_cycles <= previous.compute_cycles
        previous = result


# ----------------------------------------------------------------------
# Invariant 5: the config hash is the SHA-256 of config()
# ----------------------------------------------------------------------
# Names mix ASCII, accents, CJK and astral characters; floats include
# integral values and both zeros, which ``json.dumps`` spells distinctly.
_names = st.text(
    alphabet=st.sampled_from("aZ09 -_.\"\\/éßЖ字😀\x7f"), max_size=12
)
_custom_memories = st.builds(
    lambda base, name, bandwidth, energy: dataclasses.replace(
        base, name=name, bandwidth_gb_s=bandwidth, energy_pj_per_bit=energy
    ),
    st.sampled_from([DDR4, HBM2]),
    _names,
    st.one_of(st.just(1.0), st.floats(min_value=1e-3, max_value=1e4)),
    st.sampled_from([0.0, -0.0, 1.0, 2.5, 1e-300]),
)
_custom_platforms = st.builds(
    lambda base, name: dataclasses.replace(base, name=name),
    _platforms,
    _names,
)
_custom_gpus = st.builds(
    lambda name, tdp: dataclasses.replace(RTX_2080_TI, name=name, tdp_w=tdp),
    _names,
    st.floats(min_value=1.0, max_value=1e3),
)
_batches = st.one_of(st.none(), st.integers(min_value=1, max_value=2**40))
_policies = st.sampled_from(["homogeneous-8bit", "Uniform-4x4", "uniform-2x6"])
_hash_points = st.one_of(
    st.builds(
        SweepPoint,
        workload=st.sampled_from(sorted(WORKLOAD_BUILDERS)),
        policy=_policies,
        platform=st.one_of(_platforms, _custom_platforms),
        memory=st.one_of(_memories, _custom_memories),
        batch=_batches,
    ),
    st.builds(
        SweepPoint,
        workload=st.sampled_from(sorted(WORKLOAD_BUILDERS)),
        policy=_policies,
        gpu=st.one_of(st.just(RTX_2080_TI), _custom_gpus),
        gpu_precision=st.sampled_from([4, 8]),
        batch=_batches,
    ),
)


def _reference_hash(point) -> str:
    blob = json.dumps(point.config(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@settings(max_examples=200, deadline=None)
@given(points=st.lists(_hash_points, min_size=1, max_size=6))
def test_config_hash_is_sha256_of_config(points):
    # Direct construction, and a wire round-trip whose points share
    # resolved spec objects (and their memoized JSON) within one build.
    rebuilt = SweepSpec.from_dict(SweepSpec(points=tuple(points)).to_dict())
    for point, again in zip(points, rebuilt.points):
        assert point.config_hash() == _reference_hash(point)
        assert again.config_hash() == _reference_hash(again)
        assert again.config_hash() == point.config_hash()


# ----------------------------------------------------------------------
# Invariant 6: a grid's wire form rebuilds its points, in order
# ----------------------------------------------------------------------
def _spellings(names, specs):
    """An axis value as a registry name, a spec object or a field dict."""
    return st.one_of(st.sampled_from(names), specs, specs.map(dataclasses.asdict))


@settings(max_examples=60, deadline=None)
@given(
    workloads=st.lists(
        st.sampled_from(sorted(WORKLOAD_BUILDERS) + ["lstm"]),
        min_size=1,
        max_size=2,
    ),
    platforms=st.lists(
        _spellings(["tpu", "BitFusion", "bpvec"], _custom_platforms), max_size=2
    ),
    memories=st.lists(
        _spellings(["ddr4", "HBM2"], _custom_memories), min_size=1, max_size=2
    ),
    policies=st.lists(_policies, min_size=1, max_size=2),
    batches=st.lists(_batches, min_size=1, max_size=2),
    gpus=st.lists(_spellings(["rtx-2080-ti"], _custom_gpus), max_size=2),
    precisions=st.lists(st.sampled_from([4, 8]), min_size=1, max_size=2),
)
def test_grid_wire_form_rebuilds_the_same_points(
    workloads, platforms, memories, policies, batches, gpus, precisions
):
    spec = SweepSpec.grid(
        workloads=workloads,
        platforms=platforms,
        memories=memories,
        policies=policies,
        batches=batches,
        gpus=gpus,
        gpu_precisions=precisions,
    )
    wire = json.loads(json.dumps(spec.to_dict()))
    assert set(wire) == {"grid"}
    rebuilt = SweepSpec.from_dict(wire)
    assert [p.config_hash() for p in rebuilt.points] == [
        p.config_hash() for p in spec.points
    ]
    assert rebuilt.points == spec.points
