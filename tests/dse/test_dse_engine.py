"""Tests for the sweep engine: caching tiers, dedup, chunked passes,
and the streaming ``iter_sweep`` API the batch API is built on."""

import os
import sys
import threading

import pytest

from repro.dse import (
    DEFAULT_RECORD_CACHE,
    EVAL_VERSION,
    RecordEntry,
    ResultStore,
    SweepPoint,
    SweepSpec,
    clear_caches,
    clear_memo,
    evaluate_point,
    iter_sweep,
    run_sweep,
)
from repro.dse.evaluate import _MEMO
from repro.hw import BPVEC, DDR4, HBM2, scaled_memory

MEMORIES = (DDR4, HBM2, scaled_memory(DDR4, 64), scaled_memory(HBM2, 512))


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_memo()
    yield
    clear_memo()


def _points(*workloads, platform=BPVEC, memory=DDR4, batch=1):
    return [
        SweepPoint(workload=w, platform=platform, memory=memory, batch=batch)
        for w in workloads
    ]


def _spy_passes(monkeypatch):
    """Record the points of every ``evaluate_points`` pass the engine runs."""
    import repro.dse.engine as engine_module

    passes = []
    real = engine_module.evaluate_points

    def spy(points):
        passes.append(list(points))
        return real(points)

    monkeypatch.setattr(engine_module, "evaluate_points", spy)
    return passes


class TestRunSweep:
    def test_records_in_point_order(self):
        points = _points("LSTM", "RNN") + _points("LSTM", memory=HBM2)
        result = run_sweep(points)
        assert [r["workload"] for r in result.records] == ["LSTM", "RNN", "LSTM"]
        assert [r["memory"] for r in result.records] == ["DDR4", "DDR4", "HBM2"]

    def test_accepts_spec_and_iterable(self):
        spec = SweepSpec.grid(
            workloads=("LSTM",), platforms=("bpvec",), memories=("ddr4",)
        )
        assert run_sweep(spec).records == run_sweep(list(spec.points)).records

    def test_duplicates_evaluated_once(self):
        points = _points("LSTM", "LSTM", "LSTM")
        result = run_sweep(points)
        assert result.evaluated == 1
        assert len(result.records) == 3
        assert result.records[0] is result.records[1] is result.records[2]

    def test_memo_hit_on_second_run(self):
        points = _points("LSTM")
        first = run_sweep(points)
        second = run_sweep(points)
        assert first.evaluated == 1
        assert (second.evaluated, second.from_memo) == (0, 1)
        assert second.records == first.records

    def test_store_warm_skip(self, tmp_path):
        store = tmp_path / "s.jsonl"
        points = _points("LSTM", "RNN")
        cold = run_sweep(points, store=store)
        clear_memo()
        warm = run_sweep(points, store=store)
        assert cold.evaluated == 2
        assert (warm.evaluated, warm.from_store) == (0, 2)
        assert warm.records == cold.records  # bit-identical through JSON

    def test_memo_hits_still_persisted_to_store(self, tmp_path):
        """A sweep warmed by the memo must still fill a fresh store."""
        points = _points("LSTM")
        run_sweep(points)  # memo only, no store
        store = ResultStore(tmp_path / "s.jsonl")
        result = run_sweep(points, store=store)
        assert result.from_memo == 1
        assert len(store) == 1
        clear_memo()
        warm = run_sweep(points, store=store)
        assert (warm.evaluated, warm.from_store) == (0, 1)

    def test_store_extends_incrementally(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        run_sweep(_points("LSTM"), store=store)
        clear_memo()
        result = run_sweep(_points("LSTM", "RNN"), store=store)
        assert result.evaluated == 1
        assert result.from_store == 1
        assert len(store) == 2

    def test_stale_version_reevaluated(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        (point,) = _points("LSTM")
        record = dict(evaluate_point(point), version=EVAL_VERSION - 1)
        store.append([record])
        result = run_sweep([point], store=store)
        assert result.evaluated == 1
        assert store.load()[point.config_hash()]["version"] == EVAL_VERSION

    def test_store_path_round_trips_a_spec(self, tmp_path):
        spec = SweepSpec.grid(
            workloads=("LSTM",), platforms=("bpvec",), memories=("ddr4",)
        )
        cold = run_sweep(spec, store=str(tmp_path / "s.jsonl"))
        clear_memo()
        warm = run_sweep(spec, store=str(tmp_path / "s.jsonl"))
        assert cold.evaluated == 1
        assert warm.from_store == 1
        assert warm.records == cold.records

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError):
            run_sweep([])

    def test_invalid_workers(self):
        # One process per sweep: there is no pool to size.
        with pytest.raises(TypeError):
            run_sweep(_points("LSTM"), workers=2)

    def test_summary_mentions_tiers(self):
        result = run_sweep(_points("LSTM"))
        text = result.summary()
        assert "evaluated" in text and "store" in text and "memo" in text
        assert result.unique_points == 1


class TestRecords:
    def test_asic_record_shape(self):
        (record,) = run_sweep(_points("LSTM")).records
        assert record["kind"] == "asic"
        assert record["platform"] == "BPVeC"
        assert record["memory"] == "DDR4"
        assert record["version"] == EVAL_VERSION
        for key in (
            "total_cycles",
            "total_seconds",
            "total_energy_pj",
            "total_energy_j",
            "perf_per_watt",
            "memory_bound_fraction",
        ):
            assert key in record["metrics"]

    def test_gpu_record_shape(self):
        from repro.baselines.gpu import RTX_2080_TI

        point = SweepPoint(
            workload="LSTM", gpu=RTX_2080_TI, gpu_precision=4, batch=1
        )
        (record,) = run_sweep([point]).records
        assert record["kind"] == "gpu"
        assert record["platform"] == "RTX 2080 TI"
        assert record["memory"] is None
        for key in ("total_seconds", "total_energy_j", "perf_per_watt"):
            assert key in record["metrics"]

    def test_record_matches_direct_simulation(self):
        from repro.dse import build_network, resolve_policy
        from repro.sim import simulate_network

        (record,) = run_sweep(_points("RNN", batch=4)).records
        net = build_network("RNN", batch=4)
        resolve_policy("homogeneous-8bit")(net)
        direct = simulate_network(net, BPVEC, DDR4)
        assert record["metrics"]["total_seconds"] == direct.total_seconds
        assert record["metrics"]["total_energy_pj"] == direct.total_energy_pj
        assert record["metrics"]["perf_per_watt"] == direct.perf_per_watt


class TestIterSweep:
    def test_yields_every_unique_record_of_run_sweep(self):
        points = _points("LSTM", "RNN", "LSTM") + _points("LSTM", memory=HBM2)
        batch = run_sweep(points)
        by_hash = {r["hash"]: r for r in batch.records}
        clear_memo()
        streamed = list(iter_sweep(points))
        assert len(streamed) == 3  # unique configs only
        assert {sr.hash for sr in streamed} == set(by_hash)
        assert all(sr.record == by_hash[sr.hash] for sr in streamed)

    def test_cache_hits_stream_before_cold_evaluations(self):
        warm_points = _points("LSTM")
        run_sweep(warm_points)  # prime the memo
        sources = [
            sr.source for sr in iter_sweep(warm_points + _points("RNN"))
        ]
        assert sources == ["memo", "evaluated"]

    def test_store_hits_stream_first(self, tmp_path):
        store = tmp_path / "s.jsonl"
        run_sweep(_points("LSTM"), store=store)
        clear_memo()
        sources = [
            sr.source
            for sr in iter_sweep(_points("RNN", "LSTM"), store=store)
        ]
        assert sources == ["store", "evaluated"]

    def test_indices_point_at_first_occurrence(self):
        points = _points("LSTM", "LSTM", "RNN")
        indices = {sr.record["workload"]: sr.index for sr in iter_sweep(points)}
        assert indices == {"LSTM": 0, "RNN": 2}

    def test_records_appended_to_store_as_they_complete(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        stream = iter_sweep(_points("LSTM", "RNN"), store=store)
        next(stream)
        assert len(store) == 1  # first record persisted before the second runs
        stream.close()  # abandoning the stream keeps what finished
        assert len(store) == 1
        clear_memo()
        warm = run_sweep(_points("LSTM", "RNN"), store=store)
        assert (warm.evaluated, warm.from_store) == (1, 1)

    def test_empty_sweep_streams_nothing(self):
        assert list(iter_sweep([])) == []
        assert list(iter_sweep(SweepSpec(points=()))) == []

    def test_invalid_workers(self):
        with pytest.raises(TypeError):
            list(iter_sweep(_points("LSTM"), workers=2))

    def test_store_path_streams_cold_then_warm(self, tmp_path):
        store = tmp_path / "s.jsonl"
        streamed = list(iter_sweep(_points("LSTM", "RNN"), store=store))
        assert [sr.source for sr in streamed] == ["evaluated", "evaluated"]
        clear_memo()
        warm = list(iter_sweep(_points("LSTM", "RNN"), store=store))
        assert [sr.source for sr in warm] == ["store", "store"]
        assert [sr.record for sr in warm] == [sr.record for sr in streamed]


class TestShardedRuns:
    def test_two_shard_run_merges_to_unsharded_result(self, tmp_path):
        spec = SweepSpec.grid(
            workloads=("LSTM", "RNN"),
            platforms=("tpu", "bpvec"),
            memories=("ddr4", "hbm2"),
            batches=(1, 2),
        )
        single = ResultStore(tmp_path / "single.jsonl")
        full = run_sweep(spec, store=single)

        shard_paths = []
        for index in range(2):
            clear_memo()  # each shard behaves like its own machine
            shard = spec.shard(index, 2)
            path = tmp_path / f"shard{index}.jsonl"
            result = run_sweep(shard, store=path)
            assert result.evaluated == len(shard)
            shard_paths.append(path)

        merged = ResultStore(tmp_path / "merged.jsonl")
        merged.merge(shard_paths)
        assert merged.load() == single.load()

        from repro.dse import pareto_frontier

        merged_front = pareto_frontier(list(merged.load().values()))
        single_front = pareto_frontier(list(single.load().values()))
        assert {r["hash"] for r in merged_front} == {
            r["hash"] for r in single_front
        }

        clear_memo()
        warm = run_sweep(spec, store=merged)
        assert (warm.evaluated, warm.from_store) == (0, len(spec))
        assert warm.records == full.records


class TestVectorizedEvaluation:
    """The vectorized default and the --no-vectorize escape hatch agree."""

    def _grid(self):
        return SweepSpec.grid(
            workloads=("AlexNet", "RNN", "LSTM"),
            platforms=("tpu", "bpvec"),
            memories=("ddr4", "hbm2"),
            policies=("homogeneous-8bit", "paper-heterogeneous"),
            batches=(1, 4),
        )

    def test_scalar_escape_hatch_bit_identical(self):
        spec = self._grid()
        vectorized = run_sweep(spec, vectorize=True)
        clear_memo()
        scalar = run_sweep(spec, vectorize=False)
        assert vectorized.records == scalar.records
        assert vectorized.evaluated == scalar.evaluated == len(spec)

    def test_chunks_respect_chunk_size(self, monkeypatch):
        import repro.dse.engine as engine_module

        spec = self._grid()
        default = run_sweep(spec)
        clear_memo()
        monkeypatch.setattr(engine_module, "DEFAULT_CHUNK_SIZE", 1)
        chunks = _spy_passes(monkeypatch)
        result = run_sweep(spec)
        assert len(chunks) == len(spec)
        assert result.records == default.records

    @staticmethod
    def _group(point):
        return (point.kind, point.workload, point.batch, point.policy.lower())

    @pytest.mark.parametrize("chunk_size", [1, 5, 8, 13, 24, 512])
    def test_chunks_pack_whole_groups(self, monkeypatch, chunk_size):
        import repro.dse.engine as engine_module

        # Twelve groups of 8 (AlexNet/RNN/LSTM x batch x policy over 2
        # platforms and 4 memories), one of which grows to 12 (a third
        # platform on LSTM, batch 1), and a one-point GPU group.
        from repro.dse import resolve_gpu

        points = list(
            SweepSpec.grid(
                workloads=("AlexNet", "RNN", "LSTM"),
                platforms=("tpu", "bpvec"),
                memories=MEMORIES,
                policies=("homogeneous-8bit", "uniform-4x4"),
                batches=(1, 4),
            ).points
        )
        points += list(
            SweepSpec.grid(
                workloads=("LSTM",),
                platforms=("bitfusion",),
                memories=MEMORIES,
                batches=(1,),
            ).points
        )
        points.insert(3, SweepPoint(workload="RNN", gpu=resolve_gpu("rtx-2080-ti")))
        monkeypatch.setattr(engine_module, "DEFAULT_CHUNK_SIZE", chunk_size)
        chunks = _spy_passes(monkeypatch)
        result = run_sweep(points)

        assert all(0 < len(chunk) <= chunk_size for chunk in chunks)
        hashes = sorted(p.config_hash() for c in chunks for p in c)
        assert hashes == sorted({p.config_hash() for p in points})
        sizes: dict[tuple, int] = {}
        spans: dict[tuple, set[int]] = {}
        for number, chunk in enumerate(chunks):
            for point in chunk:
                key = self._group(point)
                sizes[key] = sizes.get(key, 0) + 1
                spans.setdefault(key, set()).add(number)
        for key, size in sizes.items():
            if size <= chunk_size:
                assert len(spans[key]) == 1, key  # a group that fits never splits
            else:
                assert len(spans[key]) == -(-size // chunk_size), key
        if chunk_size >= len(points):
            assert len(chunks) == 1
        for point, record in zip(points, result.records):
            assert record == evaluate_point(point)

    def test_default_chunk_is_one_pass_over_many_groups(self, monkeypatch):
        from repro.dse.engine import DEFAULT_CHUNK_SIZE

        assert DEFAULT_CHUNK_SIZE == 512
        chunks = _spy_passes(monkeypatch)
        spec = self._grid()  # 48 points in 12 lowered groups
        run_sweep(spec)
        assert len(chunks) == 1
        assert len({self._group(p) for p in chunks[0]}) == 12

    def test_mixed_gpu_and_asic_chunk(self):
        from repro.dse import resolve_gpu

        points = _points("LSTM", "RNN")
        points.insert(1, SweepPoint(workload="LSTM", gpu=resolve_gpu("rtx-2080-ti")))
        result = run_sweep(points)
        assert [r["kind"] for r in result.records] == ["asic", "gpu", "asic"]
        for point, record in zip(points, result.records):
            assert record == evaluate_point(point)

    def test_engine_vectorize_flag(self, tmp_path):
        points = _points("LSTM", "RNN")
        scalar = run_sweep(points, store=tmp_path / "s.jsonl", vectorize=False)
        clear_memo()
        assert run_sweep(points, vectorize=True).records == scalar.records


class TestShouldCancel:
    """Cooperative cancellation: the hook behind POST /jobs/{id}/cancel."""

    def test_cancelled_before_start_yields_nothing(self):
        run_sweep(_points("LSTM"))  # even a warm memo must not leak out
        stream = iter_sweep(_points("LSTM"), should_cancel=lambda: True)
        assert list(stream) == []

    def test_cancel_after_first_record_keeps_only_it(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        yielded = []
        stream = iter_sweep(
            _points("LSTM", "RNN"),
            store=store,
            should_cancel=lambda: len(yielded) >= 1,
        )
        for sweep_record in stream:
            yielded.append(sweep_record)
        assert len(yielded) == 1
        # The one yielded record is fully persisted; nothing half-done
        # follows it -- cancel lands exactly on a record boundary.
        assert set(store.load()) == {yielded[0].hash}

    def test_scalar_path_honours_cancel(self):
        yielded = []
        stream = iter_sweep(
            _points("LSTM", "RNN"),
            vectorize=False,
            should_cancel=lambda: len(yielded) >= 1,
        )
        for sweep_record in stream:
            yielded.append(sweep_record)
        assert len(yielded) == 1

    def test_cancel_skips_the_remaining_passes(self, monkeypatch):
        import repro.dse.engine as engine_module

        monkeypatch.setattr(engine_module, "DEFAULT_CHUNK_SIZE", 1)
        passes = _spy_passes(monkeypatch)
        yielded = []
        stream = iter_sweep(
            _points("LSTM", "RNN", "AlexNet"),
            should_cancel=lambda: len(yielded) >= 1,
        )
        for sweep_record in stream:
            yielded.append(sweep_record)
        # Three one-point passes were due; the cancel lands after the
        # first record, so the other two never run.
        assert len(yielded) == 1
        assert len(passes) == 1

    def test_uncancelled_hook_changes_nothing(self):
        points = _points("LSTM", "RNN")
        plain = [sr.record for sr in iter_sweep(points)]
        clear_memo()
        hooked = [
            sr.record
            for sr in iter_sweep(points, should_cancel=lambda: False)
        ]
        assert hooked == plain


class TestBoundedMemo:
    def test_evicts_least_recently_used_first(self):
        _MEMO.resize(2)
        run_sweep(_points("LSTM", "RNN"))
        assert run_sweep(_points("LSTM")).from_memo == 1  # refreshes LSTM
        run_sweep(_points("AlexNet"))  # evicts RNN, the least recent
        assert (len(_MEMO), _MEMO.evictions) == (2, 1)
        again = run_sweep(_points("LSTM", "AlexNet", "RNN"))
        assert (again.from_memo, again.evaluated) == (2, 1)

    def test_hit_moves_the_entry_to_the_end(self):
        _MEMO.resize(2)
        entries = {key: RecordEntry.of({"hash": key}) for key in "abc"}
        _MEMO.put("a", entries["a"])
        _MEMO.put("b", entries["b"])
        assert _MEMO.get("a") is entries["a"]
        _MEMO.put("c", entries["c"])
        assert _MEMO.get("b") is None
        assert [entry.hash for entry in _MEMO.values()] == ["a", "c"]

    def test_zero_capacity_keeps_nothing(self):
        _MEMO.resize(0)
        first = run_sweep(_points("LSTM", "RNN"))
        second = run_sweep(_points("LSTM", "RNN"))
        assert len(_MEMO) == 0 and second.evaluated == 2
        assert second.records == first.records

    def test_shrinking_evicts_at_once(self):
        run_sweep(_points("LSTM", "RNN", "AlexNet"))
        _MEMO.resize(1)
        assert [e.record["workload"] for e in _MEMO.values()] == ["AlexNet"]
        with pytest.raises(ValueError):
            _MEMO.resize(-1)

    def test_clear_caches_restores_the_default_capacity(self):
        _MEMO.resize(1)
        run_sweep(_points("LSTM", "RNN"))
        assert _MEMO.evictions == 1
        clear_caches()
        assert _MEMO.capacity == DEFAULT_RECORD_CACHE
        assert (len(_MEMO), _MEMO.evictions) == (0, 0)

    def test_concurrent_sweeps_past_capacity(self):
        # Each thread's 3 points fit the memo, all threads' 6 do not:
        # one thread's lookups hit while another's inserts evict.
        _MEMO.resize(4)
        halves = [
            _points("LSTM", "RNN", "AlexNet"),
            _points("LSTM", "RNN", "AlexNet", memory=HBM2),
        ]
        expected = [run_sweep(half).records for half in halves]
        errors, results = [], []
        workers = (os.cpu_count() or 1) + 1

        def sweep(half):
            try:
                for _ in range(30):
                    results.append(run_sweep(halves[half]).records == expected[half])
            except Exception as error:  # reported by the assert below
                errors.append(error)

        threads = [
            threading.Thread(target=sweep, args=(i % 2,)) for i in range(workers)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often: widen races
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert len(results) == 30 * workers and all(results)
        assert len(_MEMO) <= 4 and _MEMO.evictions > 0
