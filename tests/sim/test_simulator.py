"""Tests for end-to-end network simulation and comparison utilities."""

import math

import pytest

from repro.hw import BPVEC, DDR4, HBM2, TPU_LIKE
from repro.nn import homogeneous_8bit, lstm_workload, resnet18
from repro.sim import (
    LayerResult,
    NetworkResult,
    compare,
    format_table,
    geomean,
    sequential_sum,
    simulate_network,
)


@pytest.fixture(scope="module")
def resnet_base():
    return simulate_network(homogeneous_8bit(resnet18(batch=2)), TPU_LIKE, DDR4)


@pytest.fixture(scope="module")
def resnet_bpvec():
    return simulate_network(homogeneous_8bit(resnet18(batch=2)), BPVEC, DDR4)


class TestSequentialSum:
    """One pinned float summation order, whatever the interpreter."""

    def test_adds_left_to_right(self):
        # Neumaier summation (builtin sum() on Python 3.12+) gives 1.0.
        assert sequential_sum([1e16, 1.0, -1e16]) == 0.0

    def test_starts_from_positive_zero(self):
        assert math.copysign(1.0, sequential_sum([-0.0])) == 1.0

    def test_network_energy_aggregates_use_it(self):
        layers = tuple(
            LayerResult(
                layer_name=f"l{i}",
                bw_act=8,
                bw_w=8,
                macs=1,
                compute_cycles=1,
                memory_cycles=1,
                traffic_bytes=1,
                compute_energy_pj=energy,
                sram_energy_pj=0.0,
                dram_energy_pj=0.0,
                uncore_energy_pj=0.0,
                schedule="weight-stationary",
            )
            for i, energy in enumerate([1e16, 1.0, -1e16])
        )
        result = NetworkResult("net", "platform", "memory", 1e9, layers)
        assert result.compute_energy_pj == 0.0
        assert result.total_energy_pj == 0.0


class TestNetworkResult:
    def test_totals_are_sums(self, resnet_base):
        assert resnet_base.total_cycles == sum(l.cycles for l in resnet_base.layers)
        assert resnet_base.total_macs == sum(l.macs for l in resnet_base.layers)
        assert resnet_base.total_energy_pj == pytest.approx(
            resnet_base.compute_energy_pj
            + resnet_base.sram_energy_pj
            + resnet_base.dram_energy_pj
            + resnet_base.uncore_energy_pj
        )

    def test_weighted_layer_count(self, resnet_base):
        # ResNet-18: 17 convs + 3 downsamples + 1 fc = 21 weighted layers.
        assert len(resnet_base.layers) == 21

    def test_macs_match_network(self, resnet_base):
        assert resnet_base.total_macs == resnet18(batch=2).total_macs()

    def test_derived_metrics_consistent(self, resnet_base):
        assert resnet_base.total_seconds == pytest.approx(
            resnet_base.total_cycles / 500e6
        )
        assert resnet_base.ops_per_second == pytest.approx(
            2 * resnet_base.total_macs / resnet_base.total_seconds
        )
        assert resnet_base.perf_per_watt == pytest.approx(
            resnet_base.ops_per_second / resnet_base.average_power_w
        )

    def test_power_within_physical_envelope(self, resnet_base):
        # Core 250 mW + uncore 250 mW + DRAM; should land well under 10 W.
        assert 0.1 < resnet_base.average_power_w < 10.0

    def test_layer_lookup(self, resnet_base):
        assert resnet_base.layer("conv1").layer_name == "conv1"
        with pytest.raises(KeyError):
            resnet_base.layer("nope")

    def test_summary_mentions_names(self, resnet_base):
        s = resnet_base.summary()
        assert "ResNet-18" in s and "TPU-like" in s

    def test_memory_bound_fraction_in_range(self, resnet_base):
        assert 0.0 <= resnet_base.memory_bound_fraction <= 1.0


class TestHeadlineBehaviour:
    def test_bpvec_faster_than_baseline(self, resnet_base, resnet_bpvec):
        assert resnet_bpvec.total_cycles < resnet_base.total_cycles

    def test_lstm_memory_bound_on_ddr4(self):
        res = simulate_network(homogeneous_8bit(lstm_workload()), TPU_LIKE, DDR4)
        assert res.memory_bound_fraction > 0.9

    def test_lstm_compute_bound_on_hbm2(self):
        res = simulate_network(homogeneous_8bit(lstm_workload()), BPVEC, HBM2)
        assert res.memory_bound_fraction < 0.1

    def test_empty_network_rejected(self):
        from repro.nn import Network, Pool2D

        net = Network("empty", [Pool2D("p", 4, kernel=2, in_size=4)])
        with pytest.raises(ValueError):
            simulate_network(net, TPU_LIKE, DDR4)


class TestCompare:
    def test_speedup_definition(self, resnet_base, resnet_bpvec):
        c = compare(resnet_base, resnet_bpvec)
        assert c.speedup == pytest.approx(
            resnet_base.total_seconds / resnet_bpvec.total_seconds
        )
        assert c.energy_reduction == pytest.approx(
            resnet_base.total_energy_pj / resnet_bpvec.total_energy_pj
        )

    def test_self_comparison_is_unity(self, resnet_base):
        c = compare(resnet_base, resnet_base)
        assert c.speedup == 1.0 and c.energy_reduction == 1.0

    def test_workload_mismatch_rejected(self, resnet_base):
        other = simulate_network(homogeneous_8bit(lstm_workload()), TPU_LIKE, DDR4)
        with pytest.raises(ValueError):
            compare(resnet_base, other)

    def test_str_contains_factors(self, resnet_base, resnet_bpvec):
        text = str(compare(resnet_base, resnet_bpvec))
        assert "speedup" in text and "x" in text


class TestGeomeanAndTable:
    def test_geomean_basic(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)
        assert geomean([3.0]) == pytest.approx(3.0)

    def test_geomean_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError):
            geomean([])
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])

    def test_geomean_log_identity(self):
        vals = [1.3, 2.7, 0.9, 4.2]
        expected = math.exp(sum(math.log(v) for v in vals) / len(vals))
        assert geomean(vals) == pytest.approx(expected)

    def test_format_table_alignment(self):
        out = format_table(["A", "Bee"], [["x", 1.234], ["yy", 10.0]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert "1.23" in out and "10.00" in out
        assert all(len(l) == len(lines[0]) for l in lines[1:2])
