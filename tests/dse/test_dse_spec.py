"""Tests for sweep specs, registries, and config hashing."""

import dataclasses
import math
import re

import pytest

from repro.dse import (
    SweepPoint,
    SweepSpec,
    build_network,
    expand_grid,
    resolve_memory,
    resolve_platform,
    resolve_policy,
    resolve_workload,
    shard_index,
)
from repro.hw import BPVEC, DDR4, HBM2, TPU_LIKE


class TestRegistries:
    def test_workload_case_insensitive(self):
        assert resolve_workload("lstm") == "LSTM"
        assert resolve_workload("ALEXNET") == "AlexNet"

    def test_unknown_workload(self):
        with pytest.raises(KeyError):
            resolve_workload("VGG-99")

    def test_platform_by_name_and_spec(self):
        assert resolve_platform("bpvec") is BPVEC
        assert resolve_platform("tpu") is TPU_LIKE
        assert resolve_platform(BPVEC) is BPVEC

    def test_platform_from_dict_roundtrip(self):
        from dataclasses import asdict

        rebuilt = resolve_platform(asdict(BPVEC))
        assert rebuilt == BPVEC

    def test_memory_resolution(self):
        assert resolve_memory("hbm2") is HBM2
        with pytest.raises(KeyError):
            resolve_memory("gddr7")

    def test_named_policies(self):
        net = build_network("LSTM")
        resolve_policy("homogeneous-8bit")(net)
        assert net.bitwidth("lstm1").activations == 8

    def test_uniform_policy_parsing(self):
        net = build_network("RNN")
        resolve_policy("uniform-3x5")(net)
        bw = net.bitwidth("rnn1")
        assert (bw.activations, bw.weights) == (3, 5)

    def test_uniform_policy_out_of_range(self):
        with pytest.raises(KeyError):
            resolve_policy("uniform-9x2")

    def test_unknown_policy(self):
        with pytest.raises(KeyError):
            resolve_policy("int3-magic")

    def test_build_network_batch(self):
        assert build_network("AlexNet", batch=4).batch == 4
        assert build_network("RNN").batch == 16  # builder default


class TestExpandGrid:
    def test_order_last_axis_fastest(self):
        cells = expand_grid({"a": (1, 2), "b": ("x", "y")})
        assert cells == [
            {"a": 1, "b": "x"},
            {"a": 1, "b": "y"},
            {"a": 2, "b": "x"},
            {"a": 2, "b": "y"},
        ]

    def test_counts(self):
        assert len(expand_grid({"a": range(3), "b": range(4), "c": range(5)})) == 60


class TestSweepPoint:
    def test_asic_point_requires_platform_and_memory(self):
        with pytest.raises(ValueError):
            SweepPoint(workload="LSTM", platform=BPVEC)

    def test_gpu_and_asic_mutually_exclusive(self):
        from repro.baselines.gpu import RTX_2080_TI

        with pytest.raises(ValueError):
            SweepPoint(
                workload="LSTM", gpu=RTX_2080_TI, platform=BPVEC, memory=DDR4
            )

    def test_gpu_precision_validated(self):
        from repro.baselines.gpu import RTX_2080_TI

        with pytest.raises(ValueError):
            SweepPoint(workload="LSTM", gpu=RTX_2080_TI, gpu_precision=6)

    def test_workload_canonicalized(self):
        point = SweepPoint(workload="lstm", platform=BPVEC, memory=DDR4)
        assert point.workload == "LSTM"

    def test_hash_stable_and_name_insensitive(self):
        a = SweepPoint(workload="lstm", platform=BPVEC, memory=DDR4)
        b = SweepPoint(workload="LSTM", platform=resolve_platform("bpvec"), memory=DDR4)
        assert a.config_hash() == b.config_hash()

    def test_hash_differs_across_configs(self):
        base = SweepPoint(workload="LSTM", platform=BPVEC, memory=DDR4)
        variants = [
            SweepPoint(workload="RNN", platform=BPVEC, memory=DDR4),
            SweepPoint(workload="LSTM", platform=TPU_LIKE, memory=DDR4),
            SweepPoint(workload="LSTM", platform=BPVEC, memory=HBM2),
            SweepPoint(workload="LSTM", platform=BPVEC, memory=DDR4, batch=4),
            SweepPoint(
                workload="LSTM",
                platform=BPVEC,
                memory=DDR4,
                policy="paper-heterogeneous",
            ),
        ]
        hashes = {p.config_hash() for p in (base, *variants)}
        assert len(hashes) == len(variants) + 1

    def test_invalid_batch(self):
        with pytest.raises(ValueError):
            SweepPoint(workload="LSTM", platform=BPVEC, memory=DDR4, batch=0)

    @pytest.mark.parametrize("batch", [2.5, 2.0, True, False, "2", 0, -3])
    def test_batch_must_be_a_positive_int(self, batch):
        # 2.0 or True would evaluate the network of 2 or 1 under another
        # config hash: one design point, two records.
        match = re.escape(repr(batch))
        with pytest.raises(ValueError, match=match):
            SweepPoint(workload="LSTM", platform=BPVEC, memory=DDR4, batch=batch)
        point = {"workload": "LSTM", "platform": "tpu", "memory": "ddr4"}
        with pytest.raises(ValueError, match=match):
            SweepSpec.from_dict({"points": [{**point, "batch": batch}]})
        with pytest.raises(ValueError, match=match):
            SweepSpec.from_dict({"grid": {"workloads": ["LSTM"], "batches": [batch]}})

    def test_int_batches_still_accepted(self):
        points = [
            SweepPoint(workload="LSTM", platform=BPVEC, memory=DDR4, batch=batch)
            for batch in (None, 1, 2, 256)
        ]
        assert [point.batch for point in points] == [None, 1, 2, 256]


class TestSweepSpec:
    def test_grid_count_and_order(self):
        spec = SweepSpec.grid(
            workloads=("LSTM", "RNN"),
            platforms=("tpu", "bpvec"),
            memories=("ddr4",),
            batches=(1, 2),
        )
        assert len(spec) == 2 * 2 * 1 * 2
        first = spec.points[0]
        assert (first.workload, first.batch, first.platform.name) == (
            "LSTM",
            1,
            "TPU-like baseline",
        )

    def test_empty_spec_representable(self):
        # An empty shard of a fine partition is a legal (if unrunnable)
        # spec; the engine's batch API still rejects running it.
        from repro.dse import run_sweep

        spec = SweepSpec(points=())
        assert len(spec) == 0
        with pytest.raises(ValueError):
            run_sweep(spec)

    def test_from_dict_grid(self):
        spec = SweepSpec.from_dict(
            {
                "grid": {
                    "workloads": ["LSTM"],
                    "platforms": ["bpvec"],
                    "memories": ["ddr4", "hbm2"],
                    "policies": ["uniform-4x4"],
                    "batches": [1, 8],
                }
            }
        )
        assert len(spec) == 4
        assert all(p.policy == "uniform-4x4" for p in spec)

    def test_from_dict_points(self):
        spec = SweepSpec.from_dict(
            {
                "points": [
                    {"workload": "LSTM", "platform": "bpvec", "memory": "ddr4"},
                    {"workload": "RNN", "gpu": "rtx-2080-ti", "precision": 4},
                ]
            }
        )
        assert spec.points[0].kind == "asic"
        assert spec.points[1].kind == "gpu"
        assert spec.points[1].gpu_precision == 4

    @pytest.mark.parametrize(
        "field, a, b",
        [
            ("bandwidth_gb_s", 1, 1.0),
            ("energy_pj_per_bit", 0.0, -0.0),
            ("bandwidth_gb_s", True, 1),
            ("energy_pj_per_bit", False, 0),
            ("energy_pj_per_bit", math.nan, 0.0),
            ("bandwidth_gb_s", math.nan, math.inf),
        ],
    )
    def test_from_dict_keeps_equal_but_distinct_spellings_apart(
        self, field, a, b
    ):
        # 1 == 1.0 == True and 0.0 == -0.0, but JSON spells them
        # differently, so their config hashes differ -- sharing one
        # resolved spec between such points would silently merge two
        # configs.  NaN equals nothing, itself included.
        base = dataclasses.asdict(DDR4)
        memories = [{**base, field: a}, {**base, field: b}]
        points = [
            {"workload": "LSTM", "platform": "bpvec", "memory": memory}
            for memory in memories * 2
        ]
        for grid in (False, True):
            if grid:
                spec = SweepSpec.grid(
                    workloads=["LSTM"], platforms=["bpvec"], memories=memories * 2
                )
            else:
                spec = SweepSpec.from_dict({"points": points})
            hashes = [point.config_hash() for point in spec]
            assert hashes[0] != hashes[1]
            assert hashes[:2] == hashes[2:]
            assert [repr(getattr(p.memory, field)) for p in spec] == [
                repr(a), repr(b)
            ] * 2
            assert hashes == [
                SweepPoint(
                    workload="LSTM",
                    platform=BPVEC,
                    memory=resolve_memory(memory),
                ).config_hash()
                for memory in memories * 2
            ]

    def test_from_dict_points_share_resolved_specs(self):
        memory = dataclasses.asdict(HBM2)
        spec = SweepSpec.from_dict(
            {
                "points": [
                    {"workload": w, "platform": "bpvec", "memory": dict(memory)}
                    for w in ("LSTM", "RNN")
                ]
            }
        )
        assert spec.points[0].memory is spec.points[1].memory
        assert spec.points[0].memory == HBM2

    def test_from_dict_requires_grid_or_points(self):
        with pytest.raises(ValueError):
            SweepSpec.from_dict({"sweep": []})

    def test_grid_requires_workloads(self):
        with pytest.raises(ValueError):
            SweepSpec.from_dict({"grid": {"platforms": ["bpvec"]}})


class TestShard:
    def _spec(self):
        return SweepSpec.grid(
            workloads=("LSTM", "RNN", "AlexNet"),
            platforms=("tpu", "bpvec"),
            memories=("ddr4", "hbm2"),
            batches=(1, 2),
        )

    def test_shards_partition_the_spec(self):
        spec = self._spec()
        for count in (1, 2, 3, 5):
            shards = [spec.shard(i, count) for i in range(count)]
            assert sum(len(s) for s in shards) == len(spec)
            owned = [
                {p.config_hash() for p in shard.points} for shard in shards
            ]
            for i in range(count):
                for j in range(i + 1, count):
                    assert not owned[i] & owned[j]
            assert set.union(*owned) == {p.config_hash() for p in spec}

    def test_shard_preserves_relative_order(self):
        spec = self._spec()
        positions = {p.config_hash(): i for i, p in enumerate(spec.points)}
        shard = spec.shard(0, 2)
        indices = [positions[p.config_hash()] for p in shard.points]
        assert indices == sorted(indices)

    def test_shard_assignment_is_stable(self):
        # The partition depends only on the hash, not on the spec: the
        # same point lands in the same shard from any sweep.
        spec = self._spec()
        for point in spec.shard(1, 3).points:
            assert shard_index(point.config_hash(), 3) == 1
            assert point in SweepSpec(points=(point,)).shard(1, 3).points

    def test_single_shard_is_identity(self):
        spec = self._spec()
        assert spec.shard(0, 1).points == spec.points

    def test_shard_validation(self):
        spec = self._spec()
        with pytest.raises(ValueError):
            spec.shard(0, 0)
        with pytest.raises(ValueError):
            spec.shard(2, 2)
        with pytest.raises(ValueError):
            spec.shard(-1, 2)
        with pytest.raises(ValueError):
            shard_index("ff" * 32, 0)

    def test_shard_index_range(self):
        for count in (1, 2, 7, 64):
            assert shard_index("00" * 32, count) == 0
            assert shard_index("ff" * 32, count) == count - 1


class TestChunks:
    def _spec(self):
        return SweepSpec.grid(
            workloads=("LSTM", "RNN", "AlexNet"),
            platforms=("tpu", "bpvec"),
            memories=("ddr4", "hbm2"),
            batches=(1, 2),
        )

    def test_chunks_partition_the_spec(self):
        spec = self._spec()
        for count in (1, 2, 3, 8):
            chunks = spec.chunks(count)
            assert sum(len(c) for _, c in chunks) == len(spec)
            owned = [{p.config_hash() for p in c.points} for _, c in chunks]
            for i in range(len(owned)):
                for j in range(i + 1, len(owned)):
                    assert not owned[i] & owned[j]
            assert set.union(*owned) == {p.config_hash() for p in spec}

    def test_chunks_match_shard_partition(self):
        # chunks(n) and [shard(i, n) for i in range(n)] are the same
        # hash-range partition: a fleet chunk and a ``dse --shard i/n`` shard with
        # the same index own exactly the same points.
        spec = self._spec()
        for count in (2, 5):
            for index, chunk in spec.chunks(count):
                assert chunk.points == spec.shard(index, count).points

    def test_empty_chunks_are_dropped(self):
        single = SweepSpec(points=self._spec().points[:1])
        chunks = single.chunks(64)
        assert len(chunks) == 1
        assert len(chunks[0][1]) == 1

    def test_chunk_indices_are_sorted(self):
        indices = [index for index, _ in self._spec().chunks(8)]
        assert indices == sorted(indices)

    def test_chunks_validation(self):
        with pytest.raises(ValueError):
            self._spec().chunks(0)
