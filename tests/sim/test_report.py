"""Dedicated unit tests for repro.sim.report: geomean, compare, tables."""

import math

import pytest

from repro.hw import BPVEC, DDR4, TPU_LIKE
from repro.nn import homogeneous_8bit, lstm_workload, rnn_workload
from repro.sim import simulate_network
from repro.sim.report import Comparison, compare, format_table, geomean


class TestGeomean:
    def test_matches_closed_form(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)
        assert geomean([3.0]) == pytest.approx(3.0)
        assert geomean([1.0, 1.0, 1.0]) == pytest.approx(1.0)

    def test_log_space_accumulation(self):
        # Logs add strictly left to right: Python 3.12+'s compensated
        # sum() would recover the 1e-12 that the first addition rounds
        # off and return a different last bit.
        values = [1e300, 1.0 + 1e-12, 1e-300]
        a, b, c = (math.log(v) for v in values)
        assert geomean(values) == math.exp(((a + b) + c) / 3)

    def test_consumes_generators(self):
        assert geomean(v for v in (2.0, 2.0)) == pytest.approx(2.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            geomean([])

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_nonpositive_rejected(self, bad):
        with pytest.raises(ValueError, match="positive"):
            geomean([1.0, bad])


class TestCompare:
    @pytest.fixture(scope="class")
    def results(self):
        reference = simulate_network(homogeneous_8bit(lstm_workload()), TPU_LIKE, DDR4)
        candidate = simulate_network(homogeneous_8bit(lstm_workload()), BPVEC, DDR4)
        return reference, candidate

    def test_speedup_and_energy_ratios(self, results):
        reference, candidate = results
        comparison = compare(reference, candidate)
        assert comparison.workload == "LSTM"
        assert comparison.speedup == pytest.approx(
            reference.total_seconds / candidate.total_seconds
        )
        assert comparison.energy_reduction == pytest.approx(
            reference.total_energy_pj / candidate.total_energy_pj
        )

    def test_self_comparison_is_unity(self, results):
        reference, _ = results
        comparison = compare(reference, reference)
        assert comparison.speedup == pytest.approx(1.0)
        assert comparison.energy_reduction == pytest.approx(1.0)

    def test_names_identify_platform_and_memory(self, results):
        reference, candidate = results
        comparison = compare(reference, candidate)
        assert comparison.reference == "TPU-like baseline+DDR4"
        assert comparison.candidate == "BPVeC+DDR4"

    def test_str_renders_ratios(self, results):
        reference, candidate = results
        text = str(compare(reference, candidate))
        assert "speedup" in text and "energy" in text and "LSTM" in text

    def test_mismatched_workloads_rejected(self, results):
        reference, _ = results
        other = simulate_network(homogeneous_8bit(rnn_workload()), BPVEC, DDR4)
        with pytest.raises(ValueError, match="different workloads"):
            compare(reference, other)

    def test_comparison_is_frozen(self, results):
        reference, candidate = results
        comparison = compare(reference, candidate)
        with pytest.raises(AttributeError):
            comparison.speedup = 2.0
        assert isinstance(comparison, Comparison)


class TestFormatTable:
    def test_columns_align_under_headers(self):
        text = format_table(["Name", "Value"], [("a", 1.0), ("long-name", 2.5)])
        lines = text.splitlines()
        assert len(lines) == 4  # header, rule, two rows
        assert lines[0].startswith("Name")
        assert lines[1].replace("-", "").strip() == ""
        # Every row is padded to one shared width per column.
        assert lines[2].index("1.00") == lines[3].index("2.50")

    def test_float_precision(self):
        text = format_table(["x"], [(1.23456,)], precision=3)
        assert "1.235" in text
        assert format_table(["x"], [(1.23456,)]).count("1.23") == 1

    def test_non_float_cells_stringified(self):
        text = format_table(["a", "b"], [(12, None)])
        assert "12" in text and "None" in text

    def test_empty_rows_render_headers_only(self):
        text = format_table(["Col-A", "B"], [])
        lines = text.splitlines()
        assert lines[0].split() == ["Col-A", "B"]
        assert len(lines) == 2
        assert len(lines[1]) == len(lines[0])

    def test_wide_cell_stretches_column(self):
        text = format_table(["x"], [("wider-than-header",)])
        header, rule, row = text.splitlines()
        assert len(rule) == len("wider-than-header")
