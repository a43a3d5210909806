"""Tests for Pareto / top-k / geomean queries over DSE records."""

import math

import pytest

from repro.dse import (
    SweepSpec,
    clear_memo,
    filter_records,
    geomean_speedup,
    metric,
    pareto_frontier,
    render_records,
    run_query,
    run_sweep,
    top_k,
)


def _rec(key, seconds, energy, workload="W", platform="P", memory="M"):
    return {
        "hash": key,
        "workload": workload,
        "platform": platform,
        "memory": memory,
        "policy": "homogeneous-8bit",
        "batch": 1,
        "metrics": {
            "total_seconds": seconds,
            "total_energy_j": energy,
            "perf_per_watt": 1.0 / (seconds * energy),
        },
    }


class TestMetric:
    def test_reads_value(self):
        assert metric(_rec("a", 2.0, 3.0), "total_seconds") == 2.0

    def test_unknown_metric_lists_available(self):
        with pytest.raises(KeyError, match="total_seconds"):
            metric(_rec("a", 2.0, 3.0), "latency_ns")


class TestParetoFrontier:
    def test_dominated_points_removed(self):
        records = [
            _rec("a", 1.0, 4.0),
            _rec("b", 2.0, 2.0),
            _rec("c", 4.0, 1.0),
            _rec("d", 3.0, 3.0),  # dominated by b
            _rec("e", 2.0, 2.5),  # dominated by b
        ]
        frontier = pareto_frontier(records)
        assert [r["hash"] for r in frontier] == ["a", "b", "c"]

    def test_ties_all_kept(self):
        records = [_rec("a", 1.0, 1.0), _rec("b", 1.0, 1.0)]
        assert len(pareto_frontier(records)) == 2

    def test_max_sense(self):
        records = [_rec("a", 1.0, 2.0), _rec("b", 2.0, 2.0), _rec("c", 3.0, 3.0)]
        frontier = pareto_frontier(
            records, objectives=("perf_per_watt",), senses=("max",)
        )
        assert [r["hash"] for r in frontier] == ["a"]

    def test_sense_validation(self):
        with pytest.raises(ValueError):
            pareto_frontier([_rec("a", 1, 1)], senses=("min",))
        with pytest.raises(ValueError):
            pareto_frontier(
                [_rec("a", 1, 1)],
                objectives=("total_seconds",),
                senses=("down",),
            )


class TestTopK:
    def test_min_sense(self):
        records = [_rec("a", 3.0, 1.0), _rec("b", 1.0, 1.0), _rec("c", 2.0, 1.0)]
        best = top_k(records, "total_seconds", k=2)
        assert [r["hash"] for r in best] == ["b", "c"]

    def test_max_sense(self):
        records = [_rec("a", 3.0, 1.0), _rec("b", 1.0, 1.0)]
        best = top_k(records, "perf_per_watt", k=1, sense="max")
        assert [r["hash"] for r in best] == ["b"]

    def test_max_sense_ties_keep_input_order(self):
        records = [
            _rec("a", 1.0, 1.0),
            _rec("b", 3.0, 1.0),
            _rec("c", 1.0, 1.0),
            _rec("d", 3.0, 1.0),
            _rec("e", 2.0, 1.0),
        ]
        best = top_k(records, "total_seconds", k=4, sense="max")
        assert [r["hash"] for r in best] == ["b", "d", "e", "a"]

    def test_k_larger_than_set(self):
        records = [_rec("a", 1.0, 1.0)]
        assert len(top_k(records, "total_seconds", k=10)) == 1

    @pytest.mark.parametrize("k", [2.5, True, "3", -3, None])
    def test_bad_k_rejected(self, k):
        records = [_rec("a", 1.0, 1.0), _rec("b", 2.0, 1.0), _rec("c", 3.0, 1.0)]
        with pytest.raises(ValueError, match="k must be an integer >= 0"):
            top_k(records, "total_seconds", k=k)
        with pytest.raises(ValueError, match="k must be an integer >= 0"):
            run_query(records, "top-k", {"k": k})


class TestGeomeanSpeedup:
    def _records(self):
        out = []
        for workload, base_s, cand_s in (("A", 4.0, 2.0), ("B", 9.0, 1.0)):
            out.append(_rec(f"b{workload}", base_s, 1.0, workload, "Base", "M"))
            out.append(_rec(f"c{workload}", cand_s, 1.0, workload, "Cand", "M"))
        return out

    def test_pairs_by_workload(self):
        speedup = geomean_speedup(
            self._records(), {"platform": "Base"}, {"platform": "Cand"}
        )
        assert speedup == pytest.approx(math.sqrt(2.0 * 9.0))

    def test_no_overlap_raises(self):
        with pytest.raises(ValueError):
            geomean_speedup(
                self._records(), {"platform": "Base"}, {"platform": "Nope"}
            )

    def test_ambiguous_filter_raises(self):
        records = self._records() + [_rec("dup", 5.0, 1.0, "A", "Base", "M2")]
        with pytest.raises(ValueError):
            geomean_speedup(records, {"platform": "Base"}, {"platform": "Cand"})

    def test_on_real_sweep(self):
        clear_memo()
        spec = SweepSpec.grid(
            workloads=("LSTM", "RNN"),
            platforms=("tpu", "bpvec"),
            memories=("ddr4",),
            batches=(1,),
        )
        records = run_sweep(spec).records
        speedup = geomean_speedup(
            records,
            baseline={"platform": "TPU-like baseline"},
            candidate={"platform": "BPVeC"},
        )
        assert speedup > 0.5  # well-defined, positive


class TestRunQuery:
    """The served dispatcher over the same query functions."""

    def _records(self):
        return [
            _rec("a", 1.0, 3.0, workload="RNN"),
            _rec("b", 2.0, 2.0, workload="LSTM"),
            _rec("c", 3.0, 1.0, workload="RNN"),
            _rec("d", 3.0, 3.0, workload="RNN"),  # dominated
        ]

    def test_pareto_dispatch_matches_direct_call(self):
        records = self._records()
        assert run_query(records, "pareto") == pareto_frontier(records)

    def test_top_k_dispatch(self):
        best = run_query(
            self._records(),
            "top-k",
            {"objective": "total_seconds", "k": 2, "sense": "min"},
        )
        assert [r["hash"] for r in best] == ["a", "b"]

    def test_where_filter_applies_first(self):
        only = run_query(
            self._records(), "pareto", {"where": {"workload": "LSTM"}}
        )
        assert [r["hash"] for r in only] == ["b"]

    def test_accuracy_frontier_dispatch(self):
        result = run_query(
            self._records(),
            "accuracy-frontier",
            {"accuracy_by_policy": {"homogeneous-8bit": 0.9}},
        )
        assert result
        assert all(r["metrics"]["accuracy"] == 0.9 for r in result)

    def test_unknown_query_and_leftover_params_raise(self):
        with pytest.raises(KeyError, match="unknown query"):
            run_query([], "bogus")
        with pytest.raises(ValueError, match="parameters"):
            run_query([], "pareto", {"bogus": 1})
        with pytest.raises(ValueError, match="accuracy_by_policy"):
            run_query([], "accuracy-frontier")

    def test_records_are_read_once(self):
        for query, params in (
            ("pareto", {"where": {"workload": "RNN"}}),
            ("top-k", {"k": 2}),
            ("accuracy-frontier", {"accuracy_by_policy": {"homogeneous-8bit": 0.9}}),
        ):
            expected = run_query(self._records(), query, params)
            once = iter(self._records())
            assert run_query(once, query, params) == expected
            assert next(once, None) is None

    def test_string_objectives_rejected_not_exploded(self):
        # tuple("total_seconds") would silently become 13 one-letter
        # objectives; the dispatcher must reject bare strings upfront.
        with pytest.raises(ValueError, match="lists, not bare strings"):
            run_query(self._records(), "pareto", {"objectives": "total_seconds"})
        with pytest.raises(ValueError, match="lists, not bare strings"):
            run_query(self._records(), "pareto", {"senses": "min"})

    def test_non_mapping_where_rejected(self):
        # Falsy non-mappings ([] / "" / 0) are caller bugs, not "no
        # filter" -- only None and {} mean unfiltered.
        for bad in ("LSTM", [], "", 0, False):
            with pytest.raises(ValueError, match="where"):
                filter_records(self._records(), bad)
        assert filter_records(self._records(), None) == self._records()
        assert filter_records(self._records(), {}) == self._records()


class TestRenderRecords:
    def test_table_shape(self):
        text = render_records([_rec("a", 0.001, 0.002)])
        lines = text.splitlines()
        assert lines[0].startswith("Workload")
        assert len(lines) == 3  # header, rule, one row

    def test_gpu_record_renders_dash_memory(self):
        record = _rec("a", 0.001, 0.002)
        record["memory"] = None
        record["batch"] = None
        assert "-" in render_records([record])
