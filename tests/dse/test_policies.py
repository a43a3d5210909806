"""Tests for bitwidth policies as first-class sweep-axis values."""

import json

import pytest

from repro.dse import (
    PolicySpec,
    SweepPoint,
    SweepSpec,
    accuracy_perf_frontier,
    attach_policy_metric,
    co_explore,
    evaluate_point,
    evaluate_points,
    policy_name,
    resolve_policy,
    run_sweep,
    sensitivity_policies,
)
from repro.hw import BPVEC, DDR4, HBM2, TPU_LIKE
from repro.nn import rnn_workload


class TestPolicySpec:
    def test_canonical_name(self):
        spec = PolicySpec(layers=((8, 8), (4, 4), (2, 6)))
        assert spec.name == "perlayer-8x8-4x4-2x6"
        assert spec.num_layers == 3

    def test_name_round_trip(self):
        spec = PolicySpec(layers=((8, 2), (3, 7)))
        assert PolicySpec.from_name(spec.name) == spec

    def test_lists_and_ints_canonicalize(self):
        # JSON round-trips turn tuples into lists; assign_bitwidths
        # emits bare ints.  All spellings are one spec.
        reference = PolicySpec(layers=((4, 4), (8, 8)))
        assert PolicySpec(layers=[[4, 4], [8, 8]]) == reference
        assert PolicySpec(layers=[4, 8]) == reference
        assert hash(PolicySpec(layers=[[4, 4], (8, 8)])) == hash(reference)

    def test_bool_entries_coerce_to_int(self):
        # bool is an int subclass; True must canonicalize as 1, not
        # render an unparseable "perlayer-TruexTrue" name.
        assert PolicySpec(layers=[True, 2]) == PolicySpec(layers=[1, 2])
        assert PolicySpec(layers=[True, 2]).name == "perlayer-1x1-2x2"

    def test_label_is_not_identity(self):
        a = PolicySpec(layers=((8, 8),), label="a")
        b = PolicySpec(layers=((8, 8),), label="b")
        assert a == b and hash(a) == hash(b) and a.name == b.name

    def test_dict_round_trip(self):
        spec = PolicySpec(layers=((8, 8), (4, 2)), label="searched")
        reloaded = PolicySpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert reloaded == spec
        assert reloaded.label == "searched"

    def test_from_assignment(self):
        spec = PolicySpec.from_assignment((8, 4, 2))
        assert spec.layers == ((8, 8), (4, 4), (2, 2))
        asym = PolicySpec.from_assignment((8, 4), bits_activations=(2, 6))
        assert asym.layers == ((2, 8), (6, 4))

    def test_average_bits(self):
        assert PolicySpec(layers=((8, 8), (4, 4))).average_bits == 6.0
        assert PolicySpec(layers=((2, 6),)).average_bits == 4.0

    def test_apply_assigns_in_layer_order(self):
        network = rnn_workload()
        PolicySpec(layers=((8, 2), (4, 4))).apply(network)
        first, second = network.weighted_layers
        assert network.bitwidth(first.name).activations == 8
        assert network.bitwidth(first.name).weights == 2
        assert network.bitwidth(second.name).activations == 4

    def test_apply_rejects_layer_count_mismatch(self):
        with pytest.raises(ValueError, match="weighted layers"):
            PolicySpec(layers=((8, 8),)).apply(rnn_workload())

    @pytest.mark.parametrize(
        "layers",
        [(), ((0, 8),), ((8, 9),), ((8, 8, 8),)],
        ids=["empty", "too-narrow", "too-wide", "triple"],
    )
    def test_invalid_layers_rejected(self, layers):
        with pytest.raises(ValueError):
            PolicySpec(layers=layers)

    @pytest.mark.parametrize(
        "name", ["perlayer-", "perlayer-8", "uniform-4x4", "perlayer-8x8x8"]
    )
    def test_bad_names_rejected(self, name):
        with pytest.raises(ValueError):
            PolicySpec.from_name(name)


class TestPolicyName:
    def test_string_passthrough_lowercases(self):
        assert policy_name("Homogeneous-8BIT") == "homogeneous-8bit"

    def test_spec_dict_and_sequence_forms(self):
        spec = PolicySpec(layers=((8, 8), (4, 4)))
        assert policy_name(spec) == spec.name
        assert policy_name({"layers": [[8, 8], [4, 4]]}) == spec.name
        assert policy_name([[8, 8], [4, 4]]) == spec.name

    def test_non_canonical_perlayer_spellings_canonicalize(self):
        # One spelling, one config hash: zero-padded or upper-cased
        # per-layer names must not split the store's cache lines.
        assert policy_name("perlayer-08x8-4x04") == "perlayer-8x8-4x4"
        assert policy_name("PERLAYER-8X8-4X4") == "perlayer-8x8-4x4"
        kwargs = dict(workload="RNN", platform=BPVEC, memory=DDR4)
        assert (
            SweepPoint(policy="perlayer-08x8-4x4", **kwargs).config_hash()
            == SweepPoint(policy="perlayer-8x8-4x4", **kwargs).config_hash()
        )

    def test_rejects_unusable_values(self):
        with pytest.raises(TypeError):
            policy_name(42)

    def test_string_names_are_memoized_until_clear_caches(self):
        from repro.dse import clear_caches
        from repro.dse.policies import _string_policy_name

        clear_caches()
        assert policy_name("perlayer-08x8-4x04") == "perlayer-8x8-4x4"
        assert policy_name("perlayer-08x8-4x04") == "perlayer-8x8-4x4"
        assert _string_policy_name.cache_info().hits == 1
        # Invalid names still raise every time (errors are not cached).
        for _ in range(2):
            with pytest.raises(ValueError):
                policy_name("perlayer-8x9")
        clear_caches()
        assert _string_policy_name.cache_info().currsize == 0


class TestResolvePolicy:
    def test_perlayer_names_resolve_anywhere(self):
        applier = resolve_policy("perlayer-8x8-4x4")
        network = applier(rnn_workload())
        assert network.is_heterogeneous

    def test_policy_spec_resolves_directly(self):
        spec = PolicySpec(layers=((4, 4), (4, 4)))
        assert resolve_policy(spec) is spec

    def test_unknown_perlayer_shape_raises_key_error(self):
        with pytest.raises(KeyError):
            resolve_policy("perlayer-bogus")


class TestSweepPointPolicyAxis:
    def test_all_spellings_share_one_config_hash(self):
        kwargs = dict(workload="RNN", platform=BPVEC, memory=DDR4)
        spec = PolicySpec(layers=((8, 8), (4, 4)))
        points = [
            SweepPoint(policy=spec, **kwargs),
            SweepPoint(policy="perlayer-8x8-4x4", **kwargs),
            SweepPoint(policy=[[8, 8], [4, 4]], **kwargs),
            SweepPoint(policy={"layers": [[8, 8], [4, 4]]}, **kwargs),
        ]
        hashes = {point.config_hash() for point in points}
        assert len(hashes) == 1
        assert all(point.policy == spec.name for point in points)

    def test_named_policy_hashes_unchanged(self):
        # Pinned: extending the policy axis must not move existing
        # config hashes (EVAL_VERSION stays 1, stores stay warm).
        point = SweepPoint(workload="LSTM", platform=BPVEC, memory=DDR4)
        assert point.policy == "homogeneous-8bit"
        assert (
            point.config_hash()
            == "01b12a9a9158820582ed62f821545bdd7bc5d561ccc664b16813060b42c8798c"
        )

    def test_grid_accepts_policy_specs(self):
        spec = SweepSpec.grid(
            workloads=("RNN",),
            platforms=("bpvec",),
            memories=("ddr4",),
            policies=(PolicySpec(layers=((8, 8), (4, 4))), "homogeneous-8bit"),
        )
        assert [point.policy for point in spec] == [
            "perlayer-8x8-4x4",
            "homogeneous-8bit",
        ]

    def test_from_dict_accepts_policy_dicts(self):
        spec = SweepSpec.from_dict(
            {
                "grid": {
                    "workloads": ["RNN"],
                    "platforms": ["bpvec"],
                    "memories": ["ddr4"],
                    "policies": [
                        "uniform-4x4",
                        {"layers": [[8, 8], [2, 2]]},
                        [[4, 2], [2, 4]],
                    ],
                }
            }
        )
        assert [point.policy for point in spec] == [
            "uniform-4x4",
            "perlayer-8x8-2x2",
            "perlayer-4x2-2x4",
        ]

    def test_layer_count_mismatch_fails_at_construction(self):
        # A multi-workload grid crossed with one workload's policy axis
        # must error upfront, not abort mid-sweep after partial records.
        with pytest.raises(ValueError, match="weighted layers"):
            SweepPoint(
                workload="LSTM",  # 1 weighted layer
                policy="perlayer-8x8-4x4",
                platform=BPVEC,
                memory=DDR4,
            )

    def test_point_from_dict_with_per_layer_policy(self):
        spec = SweepSpec.from_dict(
            {
                "points": [
                    {
                        "workload": "RNN",
                        "platform": "bpvec",
                        "memory": "ddr4",
                        "policy": {"layers": [[8, 8], [4, 4]]},
                    }
                ]
            }
        )
        assert spec.points[0].policy == "perlayer-8x8-4x4"


class TestVectorizedPolicyEvaluation:
    def test_arbitrary_policy_scalar_vs_vectorized_bit_identical(self):
        points = [
            SweepPoint(
                workload="RNN",
                policy="perlayer-3x5-6x2",
                platform=platform,
                memory=memory,
                batch=1,
            )
            for platform in (TPU_LIKE, BPVEC)
            for memory in (DDR4, HBM2)
        ]
        scalar = [evaluate_point(point) for point in points]
        assert evaluate_points(points) == scalar

    def test_mixed_policy_chunk_groups_correctly(self):
        points = [
            SweepPoint(
                workload="RNN", policy=policy, platform=BPVEC, memory=DDR4, batch=1
            )
            for policy in (
                "homogeneous-8bit",
                "perlayer-8x8-4x4",
                "perlayer-4x4-8x8",
            )
        ]
        records = evaluate_points(points)
        assert [r["policy"] for r in records] == [p.policy for p in points]
        assert records == [evaluate_point(p) for p in points]


class TestCachedNetworkPolicyForms:
    def test_cached_network_accepts_policy_specs(self):
        from repro.dse import cached_network

        spec = PolicySpec(layers=((8, 8), (4, 4)))
        by_spec = cached_network("RNN", 1, spec)
        by_name = cached_network("RNN", 1, spec.name)
        assert by_spec is by_name  # one cache line, not a repr-keyed miss
        assert by_spec.is_heterogeneous


class TestAccuracyPerfQueries:
    def _records(self):
        spec = SweepSpec.grid(
            workloads=("RNN",),
            platforms=("tpu", "bpvec"),
            memories=("ddr4",),
            policies=("perlayer-8x8-8x8", "perlayer-4x4-4x4"),
        )
        return run_sweep(spec).records

    def test_attach_policy_metric_copies_records(self):
        records = self._records()
        accuracy = {"perlayer-8x8-8x8": 0.9, "perlayer-4x4-4x4": 0.8}
        augmented = attach_policy_metric(records, accuracy)
        for original, joined in zip(records, augmented):
            assert "accuracy" not in original["metrics"]  # memo untouched
            assert joined["metrics"]["accuracy"] == accuracy[joined["policy"]]

    def test_attach_unknown_policy_raises(self):
        with pytest.raises(KeyError, match="no accuracy known"):
            attach_policy_metric(self._records(), {"perlayer-8x8-8x8": 0.9})

    def test_frontier_is_dominated_free(self):
        records = self._records()
        accuracy = {"perlayer-8x8-8x8": 0.9, "perlayer-4x4-4x4": 0.8}
        frontier = accuracy_perf_frontier(records, accuracy)
        assert frontier
        for a in frontier:
            for b in frontier:
                dominates = (
                    b["metrics"]["total_seconds"] <= a["metrics"]["total_seconds"]
                    and b["metrics"]["accuracy"] >= a["metrics"]["accuracy"]
                    and (
                        b["metrics"]["total_seconds"]
                        < a["metrics"]["total_seconds"]
                        or b["metrics"]["accuracy"] > a["metrics"]["accuracy"]
                    )
                )
                assert not dominates


class TestSensitivityPolicies:
    def test_budget_ladder_produces_annotated_policies(self):
        policies = sensitivity_policies(2, max_drops=(0.0, 0.1), epochs=150)
        assert len(policies) == 3  # baseline + one per budget
        baseline = policies[0]
        assert baseline.policy == "perlayer-8x8-8x8"
        assert baseline.search_steps == 0
        for entry in policies:
            assert entry.spec.num_layers == 2
            assert 0.0 <= entry.accuracy <= 1.0
        # A looser budget can only narrow further (monotone search).
        assert policies[2].spec.average_bits <= policies[1].spec.average_bits

    def test_deep_workloads_search_a_capped_proxy(self):
        # A 54-layer proxy MLP would not train (and its composed 8-bit
        # baseline would sit below every accuracy floor, degenerating
        # the search to all-wide); deep workloads search a capped-depth
        # proxy and stretch the assignment nearest-neighbor.
        policies = sensitivity_policies(54, max_drops=(0.1,), epochs=150)
        for entry in policies:
            assert entry.spec.num_layers == 54
        baseline, searched = policies[0], policies[-1]
        # The proxy trained: its 8-bit baseline is far above chance.
        assert baseline.accuracy > 0.6
        # And the generous budget actually narrowed something.
        assert searched.search_steps >= 1
        assert any(b < 8 for b in searched.bits_per_layer)

    def test_validation(self):
        with pytest.raises(ValueError):
            sensitivity_policies(0)
        with pytest.raises(ValueError):
            sensitivity_policies(2, max_drops=())


class TestCoExplore:
    def test_end_to_end_frontier(self, tmp_path):
        store = tmp_path / "coexplore.jsonl"
        result = co_explore(
            "RNN",
            platforms=("tpu", "bpvec"),
            memories=("ddr4",),
            max_drops=(0.0, 0.05),
            store=store,
        )
        axis = {p.policy for p in result.policies}
        assert len(result.records) == 2 * len(axis)
        assert result.frontier
        frontier_hashes = {r["hash"] for r in result.frontier}
        assert frontier_hashes <= {r["hash"] for r in result.records}
        # Records and frontier share one shape: accuracy joined in both.
        assert all("accuracy" in r["metrics"] for r in result.records)
        assert all("accuracy" in r["metrics"] for r in result.frontier)
        assert store.exists()
        assert "frontier" in result.summary()

    def test_deterministic_under_seed(self):
        first = co_explore(
            "RNN", platforms=("bpvec",), memories=("ddr4",), max_drops=(0.02,)
        )
        second = co_explore(
            "RNN", platforms=("bpvec",), memories=("ddr4",), max_drops=(0.02,)
        )
        assert [p.policy for p in first.policies] == [p.policy for p in second.policies]
        assert first.records == second.records
