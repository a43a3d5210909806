"""Result-store tests, parametrized over both backends.

Every semantic the engine relies on -- load resolution, version-aware
duplicate handling, merge, compaction, streaming appends, append
change-counting, engine round-trips that keep the memo warm -- runs
against the JSONL and SQLite backends through one shared suite.
Backend-specific behaviour (gzip, torn-line tolerance, indexed point
lookups) gets its own classes below.
"""

import gzip
import json
import os

import pytest

from repro.dse import (
    EVAL_VERSION,
    ResultStore,
    SQLiteStore,
    StoreWarning,
    clear_memo,
    open_store,
    run_sweep,
)

BACKENDS = ("jsonl", "sqlite")
_SUFFIX = {"jsonl": ".jsonl", "sqlite": ".sqlite"}


def _record(key, value=1.0, version=1):
    return {"hash": key, "version": version, "metrics": {"total_seconds": value}}


@pytest.fixture(params=BACKENDS)
def backend(request):
    return request.param


@pytest.fixture
def make_store(backend, tmp_path):
    """A factory for fresh stores of the parametrized backend."""

    def _make(name="s"):
        return open_store(tmp_path / f"{name}{_SUFFIX[backend]}", backend=backend)

    _make.backend = backend
    return _make


class TestStoreSemantics:
    """The shared contract: either backend is a drop-in for the other."""

    def test_backend_name_matches_fixture(self, make_store):
        assert make_store().backend == make_store.backend

    def test_missing_file_loads_empty(self, make_store):
        store = make_store("absent")
        assert store.load() == {}
        assert not store.exists()
        assert len(store) == 0
        assert store.records_for(["a"]) == {}

    def test_append_and_load(self, make_store):
        store = make_store()
        written = store.append([_record("a"), _record("b")])
        assert written == 2
        loaded = store.load()
        assert set(loaded) == {"a", "b"}
        assert "a" in store
        assert "zzz" not in store

    def test_append_creates_parent_dirs(self, backend, tmp_path):
        store = open_store(
            tmp_path / "deep" / "nested" / f"s{_SUFFIX[backend]}", backend=backend
        )
        store.append([_record("a")])
        assert store.exists()

    def test_last_record_wins(self, make_store):
        store = make_store()
        store.append([_record("a", 1.0)])
        store.append([_record("a", 2.0)])
        assert store.load()["a"]["metrics"]["total_seconds"] == 2.0

    def test_stale_version_never_shadows_current(self, make_store):
        store = make_store()
        store.append([_record("a", 1.0, version=2)])
        store.append([_record("a", 9.0, version=1)])
        survivor = store.load()["a"]
        assert survivor["version"] == 2
        assert survivor["metrics"]["total_seconds"] == 1.0

    def test_newer_version_supersedes_regardless_of_order(self, make_store):
        store = make_store()
        store.append([_record("a", 9.0, version=1), _record("a", 1.0, version=2)])
        assert store.load()["a"]["version"] == 2

    def test_versionless_record_treated_as_oldest(self, make_store):
        store = make_store()
        store.append([_record("a", 1.0, version=1)])
        record = _record("a", 9.0)
        del record["version"]
        store.append([record])
        assert store.load()["a"]["version"] == 1

    def test_float_roundtrip_is_exact(self, make_store):
        store = make_store()
        value = 0.1234567890123456789 / 3.0
        store.append([_record("a", value)])
        assert store.load()["a"]["metrics"]["total_seconds"] == value

    def test_records_for_filters_hashes_and_version(self, make_store):
        store = make_store()
        store.append(
            [_record("a", version=1), _record("b", version=2), _record("c")]
        )
        assert set(store.records_for(["a", "b", "nope"])) == {"a", "b"}
        assert set(store.records_for(["a", "b"], version=2)) == {"b"}
        assert store.records_for([]) == {}

    def test_versionless_records_filter_as_version_zero(self, make_store):
        # Both backends must agree: a missing version counts as 0
        # (matching _supersedes and the SQLite column default).
        store = make_store()
        record = _record("a")
        del record["version"]
        store.append([record])
        assert set(store.records_for(["a"], version=0)) == {"a"}
        assert store.records_for(["a"], version=1) == {}

    def test_stats_shape(self, make_store):
        store = make_store()
        store.append([_record("a")])
        stats = store.stats()
        assert stats["backend"] == make_store.backend
        assert stats["records"] == 1
        assert stats["exists"] is True
        assert stats["size_bytes"] > 0

    def test_appender_streams_incrementally(self, make_store):
        store = make_store()
        with store.appender() as persist:
            persist([_record("a"), _record("b")])
            # Flushed mid-stream: a concurrent reader already sees the
            # whole pass.
            assert set(open_store(store.path).load()) == {"a", "b"}
            persist([_record("c")])
        assert set(store.load()) == {"a", "b", "c"}

    def test_appender_takes_a_pass_not_a_record(self, make_store):
        store = make_store()
        with store.appender() as persist:
            with pytest.raises(TypeError, match="batch"):
                persist(_record("a"))
            persist([])  # an empty pass writes nothing
        assert not store.exists()

    def test_appender_without_writes_creates_no_file(self, make_store):
        store = make_store()
        with store.appender():
            pass
        assert not store.exists()

    def test_append_reports_actual_changes(self, make_store):
        # The ingest-reply contract: append() counts records that
        # landed, not records offered.  A stale upload must report the
        # same count on every backend.
        store = make_store()
        assert store.append([_record("a", version=2)]) == 1
        assert store.append([_record("a", 9.0, version=1)]) == 0  # stale
        assert store.append([_record("a", 9.0, version=1), _record("b")]) == 1
        assert store.append([_record("a", 5.0, version=2)]) == 1  # tie rewrites
        assert store.append([_record("x", 1.0), _record("x", 2.0)]) == 2
        assert store.append([_record("y", 1.0, version=2), _record("y", 9.0, version=1)]) == 1
        assert store.load()["a"]["metrics"]["total_seconds"] == 5.0

    def test_keyless_append_skips_and_warns(self, make_store):
        store = make_store()
        with pytest.warns(StoreWarning, match="keyless"):
            assert store.append([{"no_hash": True}, _record("a")]) == 1
        assert set(store.load()) == {"a"}
        assert sum(1 for _ in store.iter_lines()) == 1  # no dead lines

    def test_keyless_appender_skips_and_warns(self, make_store):
        store = make_store()
        with store.appender() as persist:
            with pytest.warns(StoreWarning, match="keyless"):
                persist([_record("a"), {"no_hash": True}])
        assert set(store.load()) == {"a"}
        assert sum(1 for _ in store.iter_lines()) == 1


class TestMerge:
    def test_union_of_disjoint_shards(self, make_store):
        s0, s1 = make_store("shard0"), make_store("shard1")
        s0.append([_record("a"), _record("b")])
        s1.append([_record("c")])
        dest = make_store("merged")
        assert dest.merge([s0, s1.path]) == 3  # stores or raw paths
        assert set(dest.load()) == {"a", "b", "c"}

    def test_missing_sources_skipped(self, make_store, tmp_path):
        dest = make_store("merged")
        src = make_store()
        src.append([_record("a")])
        assert dest.merge([src, tmp_path / "absent.jsonl"]) == 1

    def test_existing_dest_records_participate(self, make_store):
        dest = make_store("merged")
        dest.append([_record("a", 1.0, version=2), _record("b")])
        src = make_store()
        src.append([_record("a", 9.0, version=1), _record("c")])
        assert dest.merge([src]) == 3
        merged = dest.load()
        assert merged["a"]["version"] == 2  # stale source loses
        assert set(merged) == {"a", "b", "c"}

    def test_duplicate_hash_newer_version_wins(self, make_store):
        s0, s1 = make_store("shard0"), make_store("shard1")
        s0.append([_record("a", 9.0, version=1)])
        s1.append([_record("a", 1.0, version=2)])
        dest = make_store("merged")
        dest.merge([s1, s0])  # stale store listed last must still lose
        assert dest.load()["a"]["version"] == 2

    def test_same_version_tie_later_source_wins(self, make_store):
        s0, s1 = make_store("shard0"), make_store("shard1")
        s0.append([_record("a", 1.0)])
        s1.append([_record("a", 2.0)])
        dest = make_store("merged")
        dest.merge([s0, s1])
        assert dest.load()["a"]["metrics"]["total_seconds"] == 2.0

    def test_merged_store_is_compact(self, make_store):
        src = make_store()
        src.append([_record("a", 1.0), _record("a", 2.0), _record("b")])
        dest = make_store("merged")
        dest.merge([src])
        assert sum(1 for _ in dest.iter_lines()) == 2

    def test_merge_from_loaded_mapping(self, make_store):
        # Callers that already hold a loaded store merge the dict
        # without re-parsing.
        dest = make_store("merged")
        dest.append([_record("a", 1.0, version=2)])
        loaded = {
            "a": _record("a", 9.0, version=1),  # stale: must lose
            "b": _record("b"),
        }
        assert dest.merge([loaded]) == 2
        merged = dest.load()
        assert merged["a"]["version"] == 2
        assert set(merged) == {"a", "b"}

    def test_cross_backend_merge(self, backend, tmp_path):
        """A dest of either backend unions sources of the other one."""
        other = {"jsonl": "sqlite", "sqlite": "jsonl"}[backend]
        src = open_store(tmp_path / f"src{_SUFFIX[other]}", backend=other)
        src.append([_record("a"), _record("b")])
        dest = open_store(tmp_path / f"dest{_SUFFIX[backend]}", backend=backend)
        dest.append([_record("c")])
        assert dest.merge([src.path]) == 3
        assert set(dest.load()) == {"a", "b", "c"}


class TestCompact:
    def test_drops_stale_versions_by_default(self, make_store):
        store = make_store()
        store.append(
            [
                _record("a", version=EVAL_VERSION),
                _record("b", version=EVAL_VERSION - 1),
            ]
        )
        kept, dropped = store.compact()
        assert (kept, dropped) == (1, 1)
        assert set(store.load()) == {"a"}

    def test_keep_stale_option(self, make_store):
        store = make_store()
        store.append(
            [
                _record("a", version=EVAL_VERSION),
                _record("b", version=EVAL_VERSION - 1),
            ]
        )
        kept, dropped = store.compact(drop_stale=False)
        assert (kept, dropped) == (2, 0)

    def test_missing_store_is_noop(self, make_store):
        assert make_store("absent").compact() == (0, 0)

    def test_compact_preserves_survivors(self, make_store):
        store = make_store()
        store.append(
            [
                _record("a", 1.0, version=EVAL_VERSION),
                _record("b", 2.0, version=EVAL_VERSION),
            ]
        )
        store.append([_record("a", 3.0, version=EVAL_VERSION)])
        before = store.load()
        store.compact()
        assert store.load() == before


class TestEngineRoundTrip:
    """The satellite contract: both backends behave identically under
    the engine -- cold fill, stale supersede, and a store reload that
    keeps the memo warm."""

    def _points(self):
        from repro.dse import SweepPoint
        from repro.hw import BPVEC, DDR4, HBM2

        return [
            SweepPoint(workload="RNN", platform=BPVEC, memory=DDR4, batch=1),
            SweepPoint(workload="RNN", platform=BPVEC, memory=HBM2, batch=1),
        ]

    def test_cold_then_warm_is_bit_identical(self, make_store):
        store = make_store()
        clear_memo()
        cold = run_sweep(self._points(), store=store)
        assert (cold.evaluated, cold.from_store) == (2, 0)
        clear_memo()
        warm = run_sweep(self._points(), store=store)
        assert (warm.evaluated, warm.from_store) == (0, 2)
        assert warm.records == cold.records  # bit-identical through JSON

    def test_store_reload_keeps_memo_warm(self, make_store):
        store = make_store()
        clear_memo()
        run_sweep(self._points(), store=store)
        clear_memo()
        reloaded = run_sweep(self._points(), store=store)
        assert reloaded.from_store == 2
        # The reload warmed the memo: the next run never touches disk.
        again = run_sweep(self._points(), store=store)
        assert (again.from_memo, again.from_store, again.evaluated) == (2, 0, 0)
        assert again.records == reloaded.records

    def test_stale_version_reevaluated_and_superseded(self, make_store):
        from repro.dse import evaluate_point

        store = make_store()
        (point, _) = self._points()
        stale = dict(evaluate_point(point), version=EVAL_VERSION - 1)
        store.append([stale])
        clear_memo()
        result = run_sweep([point], store=store)
        assert result.evaluated == 1
        assert store.load()[point.config_hash()]["version"] == EVAL_VERSION
        # And the stale line can never shadow the fresh record again.
        store.append([stale])
        assert store.load()[point.config_hash()]["version"] == EVAL_VERSION

    def test_sharded_merge_matches_unsharded(self, make_store):
        from repro.dse import SweepSpec

        spec = SweepSpec.grid(
            workloads=("RNN", "LSTM"),
            platforms=("bpvec", "tpu"),
            memories=("ddr4",),
            batches=(1,),
        )
        clear_memo()
        single = make_store("single")
        run_sweep(spec, store=single)
        shards = []
        for index in range(2):
            clear_memo()
            shard_store = make_store(f"shard{index}")
            run_sweep(spec.shard(index, 2), store=shard_store)
            shards.append(shard_store)
        merged = make_store("merged")
        merged.merge(shards)
        assert merged.load() == single.load()


class TestJsonlSpecific:
    """Torn-line tolerance, gzip transparency, appender member counts."""

    def test_torn_trailing_line_ignored_with_warning(self, tmp_path):
        path = tmp_path / "s.jsonl"
        store = ResultStore(path)
        store.append([_record("a"), _record("b")])
        with path.open("a") as handle:
            handle.write('{"hash": "c", "metr')  # crashed mid-write
        with pytest.warns(StoreWarning, match="torn write"):
            assert set(store.load()) == {"a", "b"}

    def test_torn_multibyte_tail_ignored_with_warning(self, tmp_path):
        # A crash can tear a multi-byte character in half; the loader
        # must warn and skip instead of raising UnicodeDecodeError.
        path = tmp_path / "s.jsonl"
        store = ResultStore(path)
        store.append([_record("a")])
        line = json.dumps({"hash": "b", "note": "café"}) + "\n"
        with path.open("ab") as handle:
            handle.write(line.encode()[:-3])  # cut inside the é
        with pytest.warns(StoreWarning):
            assert set(store.load()) == {"a"}

    def test_blank_lines_and_keyless_records_skipped_silently(self, tmp_path):
        import warnings

        path = tmp_path / "s.jsonl"
        path.write_text(
            "\n"
            + json.dumps({"no_hash": True})
            + "\n"
            + json.dumps(_record("a"))
            + "\n"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # valid JSON never warns
            assert set(ResultStore(path).load()) == {"a"}

    def test_compact_drops_superseded_lines(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        store.append(
            [
                _record("a", 1.0, version=EVAL_VERSION),
                _record("b", 2.0, version=EVAL_VERSION),
            ]
        )
        store.append([_record("a", 3.0, version=EVAL_VERSION)])
        before = store.load()
        before_size = store.path.stat().st_size
        kept, dropped = store.compact()
        assert (kept, dropped) == (2, 1)
        assert store.load() == before
        assert store.path.stat().st_size < before_size

    def test_gzip_roundtrip_and_append(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        store.append([_record(f"k{i}", version=EVAL_VERSION) for i in range(50)])
        plain = store.load()
        plain_size = store.path.stat().st_size
        store.compact(gzip=True)
        assert store.is_gzipped()
        assert store.path.stat().st_size < plain_size
        assert store.load() == plain
        # Appending to a gzipped store adds a member the reader handles.
        store.append([_record("extra", version=EVAL_VERSION)])
        assert set(store.load()) == set(plain) | {"extra"}
        # And compaction keeps compression unless told otherwise.
        store.compact()
        assert store.is_gzipped()
        store.compact(gzip=False)
        assert not store.is_gzipped()
        assert set(store.load()) == set(plain) | {"extra"}

    def test_appender_on_gzipped_store_adds_one_member(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        store.append([_record("a", version=EVAL_VERSION)])
        store.compact(gzip=True)
        base_members = store.path.read_bytes().count(b"\x1f\x8b\x08")
        with store.appender() as persist:
            for i in range(20):
                persist([_record(f"k{i}", version=EVAL_VERSION)])
        members = store.path.read_bytes().count(b"\x1f\x8b\x08")
        assert members == base_members + 1  # one member for the whole run
        assert len(store.load()) == 21

    def test_torn_gzip_tail_ignored_with_warning(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        store.append([_record("a"), _record("b")])
        store.compact(gzip=True, drop_stale=False)
        blob = store.path.read_bytes()
        store.path.write_bytes(blob + gzip.compress(b'{"hash": "c"')[:-7])
        with pytest.warns(StoreWarning, match="gzip"):
            assert set(store.load()) == {"a", "b"}

    def test_interleaved_gzip_appenders_keep_parsed_records(self, tmp_path):
        # Two held-open appenders on one gzipped store interleave their
        # members into bytes zlib rejects; the reader must keep what
        # parsed before the damage instead of raising.
        store = ResultStore(tmp_path / "s.jsonl")
        store.append([_record("a")])
        store.compact(gzip=True, drop_stale=False)
        with store.appender() as first, store.appender() as second:
            for i in range(20):
                first([_record(f"f{i}")])
                second([_record(f"s{i}")])
        with pytest.warns(StoreWarning, match="gzip"):
            loaded = store.load()
        assert "a" in loaded

    @pytest.mark.parametrize("streamed", [False, True])
    def test_append_after_torn_tail_starts_a_fresh_line(
        self, tmp_path, streamed
    ):
        path = tmp_path / "s.jsonl"
        store = ResultStore(path)
        store.append([_record("a"), _record("b")])
        path.write_bytes(path.read_bytes()[:-10])  # crashed mid-write
        if streamed:
            with store.appender() as persist:
                persist([_record("c")])
        else:
            with pytest.warns(StoreWarning):  # its stale check reads
                assert store.append([_record("c")]) == 1
        with pytest.warns(StoreWarning, match="torn write"):
            assert set(store.load()) == {"a", "c"}

    def test_compact_fsyncs_the_file_then_its_directory(
        self, tmp_path, monkeypatch
    ):
        import stat

        store = ResultStore(tmp_path / "s.jsonl")
        store.append([_record("a", version=EVAL_VERSION)] * 2)
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
            events.append(f"fsync {kind}")
            real_fsync(fd)

        def replace(src, dst):
            events.append("replace")
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        assert store.compact() == (1, 1)
        assert events == ["fsync file", "replace", "fsync dir"]
        assert set(store.load()) == {"a"}


def _sorted_line(record) -> str:
    return json.dumps(record, sort_keys=True)


#: Lines a JSONL store may hold, each with the hash ``load()`` resolves
#: it to (``None``: the line is dropped).  The lookup may skip a line
#: undecoded only when its bytes name its hash beyond doubt.
_LOOKUP_LINES = [
    (_sorted_line(_record("a", 1.0, version=2)), "a"),
    (_sorted_line(_record("a", 2.0, version=1)), "a"),  # stale re-append
    (_sorted_line(_record("b", 1.0)), "b"),
    (_sorted_line(_record("b", 3.0)), "b"),  # same version: last wins
    (_sorted_line({"no_hash": True, "version": 1}), None),
    (_sorted_line({"hash": "", "version": 1}), None),
    (_sorted_line({"hash": None, "version": 1}), None),
    # A nested "hash" key inside another field, with and without one
    # at the top level.
    (_sorted_line({"hash": "c", "meta": {"hash": "a"}, "version": 1}), "c"),
    (_sorted_line({"meta": {"hash": "a"}, "version": 3}), None),
    (_sorted_line({"meta": {"hash": "zz"}, "version": 3}), None),
    # Hand-written compact lines, one hiding its top-level hash behind
    # a nested key spelled the way writers spell it.
    ('{"hash":"d","version":1}', "d"),
    ('{"hash":"e","meta": {"hash": "zz"},"version":1}', "e"),
    ('{"version": 1, "hash": "f"}', "f"),
    # Escaped and non-ASCII hash keys.
    (_sorted_line(_record("é-key")), "é-key"),
    ('{"hash": "ü-raw", "version": 1}', "ü-raw"),
    (_sorted_line(_record('q"uote')), 'q"uote'),
    ('{"h\\u0061sh": "g", "meta": {"hash": "zz"}, "version": 1}', "g"),
    ('{"hash": "\\u0068", "version": 1}', "h"),
    # "hash" as a plain string value.
    (_sorted_line({"hash": "i", "note": "hash", "version": 1}), "i"),
]
_LOOKUP_KEYS = sorted({key for _, key in _LOOKUP_LINES if key}) + ["zz", "absent"]


class TestJsonlLookup:
    """``records_for`` skips undecoded lines yet matches ``load()``."""

    @staticmethod
    def _write(path, text, gzipped):
        if gzipped:
            path.write_bytes(gzip.compress(text.encode()))
        else:
            path.write_text(text, encoding="utf-8")
        return ResultStore(path)

    @staticmethod
    def _expected(store, wanted, version):
        return {
            key: record
            for key, record in store.load().items()
            if key in wanted
            and (version is None or record.get("version", 0) == version)
        }

    @pytest.mark.parametrize("gzipped", [False, True])
    def test_records_for_matches_load_then_filter(self, tmp_path, gzipped):
        text = "".join(line + "\n" for line, _ in _LOOKUP_LINES)
        store = self._write(tmp_path / "s.jsonl", text, gzipped)
        loaded = store.load()
        assert set(loaded) == {key for _, key in _LOOKUP_LINES if key}
        assert loaded["a"]["version"] == 2
        assert loaded["b"]["metrics"]["total_seconds"] == 3.0
        subsets = [[key] for key in _LOOKUP_KEYS] + [
            _LOOKUP_KEYS,
            _LOOKUP_KEYS[::2],
            [],
        ]
        for wanted in subsets:
            for version in (None, 1, 2):
                got = store.records_for(wanted, version=version)
                assert got == self._expected(store, wanted, version)

    @pytest.mark.parametrize("gzipped", [False, True])
    @pytest.mark.parametrize("wanted", [["a"], ["torn"], ["zz"]])
    def test_torn_tail_still_warns(self, tmp_path, gzipped, wanted):
        text = "".join(line + "\n" for line, _ in _LOOKUP_LINES)
        text += '{"hash": "torn", "metr'  # crashed mid-write
        store = self._write(tmp_path / "s.jsonl", text, gzipped)
        with pytest.warns(StoreWarning, match="torn write"):
            got = store.records_for(wanted)
        with pytest.warns(StoreWarning, match="torn write"):
            assert got == self._expected(store, wanted, None)

    def test_appended_records_skip_without_decoding(self, tmp_path, monkeypatch):
        # Lines written by the store itself are the fast path: a lookup
        # decodes only the lines of the hashes it asked for.
        store = ResultStore(tmp_path / "s.jsonl")
        store.append([_record(f"k{i}") for i in range(20)])
        store.append([_record("k3", 2.0)])
        decoded = []
        real_loads = json.loads

        def counting_loads(raw, *args, **kwargs):
            decoded.append(raw)
            return real_loads(raw, *args, **kwargs)

        monkeypatch.setattr(json, "loads", counting_loads)
        hits = store.records_for(["k3", "k7", "missing"])
        assert hits == {
            "k3": _record("k3", 2.0),
            "k7": _record("k7"),
        }
        assert len(decoded) == 3

    def test_escaped_lines_hold_only_wanted_records(self, tmp_path, monkeypatch):
        # Every line of this store escapes a non-ASCII name, so none can
        # be skipped undecoded -- yet a lookup must resolve only the
        # records it asked for, not the whole store.
        from repro.dse import store as store_module

        store = ResultStore(tmp_path / "s.jsonl")
        records = [dict(_record(f"k{i:02d}"), name="é") for i in range(12)]
        store.append(records)
        assert "\\u00e9" in store.path.read_text(encoding="utf-8")
        resolved = []
        real_resolve = store_module._resolve

        def spy(lines):
            lines = list(lines)
            resolved.append([record["hash"] for record in lines])
            return real_resolve(lines)

        monkeypatch.setattr(store_module, "_resolve", spy)
        assert store.records_for(["k03", "k07", "missing"]) == {
            "k03": records[3],
            "k07": records[7],
        }
        assert resolved == [["k03", "k07"]]


class TestSqliteSpecific:
    def test_gzip_is_rejected(self, tmp_path):
        store = SQLiteStore(tmp_path / "s.sqlite")
        store.append([_record("a")])
        with pytest.raises(ValueError, match="gzip"):
            store.compact(gzip=True)
        with pytest.raises(ValueError, match="gzip"):
            store.merge([], gzip=True)
        assert not store.is_gzipped()

    def test_duplicates_never_reach_the_table(self, tmp_path):
        store = SQLiteStore(tmp_path / "s.sqlite")
        store.append([_record("a", 1.0), _record("a", 2.0)])
        store.append([_record("a", 3.0)])
        assert sum(1 for _ in store.iter_lines()) == 1
        assert store.load()["a"]["metrics"]["total_seconds"] == 3.0

    def test_hash_sorted_bulk_append_stores_what_arrival_order_does(
        self, tmp_path, monkeypatch
    ):
        # Unsorted hashes with in-call duplicates at stale, equal and
        # newer versions, across batch boundaries: the hash-sorted bulk
        # append must store exactly what upserting the same records one
        # by one, in arrival order, stores -- and count the same changes.
        import random
        import sqlite3
        from contextlib import closing

        from repro.dse import sqlite_store
        from repro.dse.store import _resolve

        monkeypatch.setattr(sqlite_store, "APPEND_BATCH_ROWS", 7)
        rng = random.Random(7)
        records = [
            _record(f"{rng.randrange(16):02x}", float(i), version=rng.randrange(3))
            for i in range(60)
        ]
        bulk = SQLiteStore(tmp_path / "bulk.sqlite")
        one_by_one = SQLiteStore(tmp_path / "one.sqlite")
        changed = bulk.append(records)
        assert changed == sum(one_by_one.append([r]) for r in records)

        def rows(store):
            with closing(sqlite3.connect(store.path)) as db:
                return db.execute("SELECT * FROM records ORDER BY hash").fetchall()

        assert rows(bulk) == rows(one_by_one)
        assert bulk.load() == _resolve(records)

    def test_keyless_records_are_skipped(self, tmp_path):
        store = SQLiteStore(tmp_path / "s.sqlite")
        with pytest.warns(StoreWarning, match="keyless"):
            assert store.append([{"no_hash": True}, _record("a")]) == 1
        assert set(store.load()) == {"a"}

    def test_forcing_sqlite_onto_a_jsonl_file_is_a_clean_error(self, tmp_path):
        path = tmp_path / "s.jsonl"
        ResultStore(path).append([_record("a")])
        with pytest.raises(ValueError, match="not a SQLite store"):
            SQLiteStore(path).load()

    def test_forcing_jsonl_onto_a_sqlite_file_is_a_clean_error(self, tmp_path):
        # Reading SQLite pages as torn JSONL lines would report an
        # empty store, and appended lines would be invisible to every
        # later (magic-sniffed) open -- silent data loss.  Hard error.
        path = tmp_path / "s.sqlite"
        SQLiteStore(path).append([_record("a")])
        forced = open_store(path, backend="jsonl")
        with pytest.raises(ValueError, match="is a SQLite store"):
            forced.load()
        with pytest.raises(ValueError, match="is a SQLite store"):
            forced.append([_record("b")])

    def test_sqlite_errors_surface_as_oserror(self, tmp_path, monkeypatch):
        import sqlite3

        store = SQLiteStore(tmp_path / "s.sqlite")
        store.append([_record("a")])

        def locked(*args, **kwargs):
            raise sqlite3.OperationalError("database is locked")

        monkeypatch.setattr("repro.dse.sqlite_store.sqlite3.connect", locked)
        with pytest.raises(OSError, match="database is locked"):
            store.load()
        with pytest.raises(OSError, match="database is locked"):
            store.append([_record("b")])

    def test_compact_reclaims_space(self, tmp_path):
        store = SQLiteStore(tmp_path / "s.sqlite")
        store.append(
            [_record(f"k{i}", "x" * 200, version=EVAL_VERSION - 1) for i in range(500)]
        )
        before = store.path.stat().st_size
        kept, dropped = store.compact()
        assert (kept, dropped) == (0, 500)
        assert store.path.stat().st_size < before


class TestOpenStore:
    def test_suffix_selects_backend(self, tmp_path):
        assert isinstance(open_store(tmp_path / "s.jsonl"), ResultStore)
        for suffix in (".sqlite", ".sqlite3", ".db", ".DB"):
            assert isinstance(open_store(tmp_path / f"s{suffix}"), SQLiteStore)

    def test_magic_bytes_beat_suffix(self, tmp_path):
        # A mis-suffixed existing store opens by what it *is*.
        jsonl_path = tmp_path / "actually-jsonl.db"
        ResultStore(jsonl_path).append([_record("a")])
        assert isinstance(open_store(jsonl_path), ResultStore)

        sqlite_path = tmp_path / "actually-sqlite.jsonl"
        SQLiteStore(sqlite_path).append([_record("a")])
        assert isinstance(open_store(sqlite_path), SQLiteStore)
        assert set(open_store(sqlite_path).load()) == {"a"}

    def test_explicit_backend_wins(self, tmp_path):
        assert isinstance(
            open_store(tmp_path / "s.jsonl", backend="sqlite"), SQLiteStore
        )
        assert isinstance(
            open_store(tmp_path / "s.sqlite", backend="jsonl"), ResultStore
        )

    def test_store_objects_pass_through(self, tmp_path):
        store = SQLiteStore(tmp_path / "s.sqlite")
        assert open_store(store) is store

    def test_unknown_backend_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="backend"):
            open_store(tmp_path / "s.jsonl", backend="lmdb")

    def test_gzipped_jsonl_still_sniffs_as_jsonl(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        store.append([_record("a")])
        store.compact(gzip=True, drop_stale=False)
        reopened = open_store(store.path)
        assert isinstance(reopened, ResultStore)
        assert reopened.is_gzipped()


class TestPolicyConfigRoundTrip:
    """Per-layer policy configs survive the JSON store round-trip.

    JSON has no tuples: a policy spelled with per-layer tuples comes
    back from any JSON surface (sweep-spec files, ``--policy-axis``
    files, store-adjacent metadata) as nested lists.  PolicySpec
    canonicalizes both spellings to one hashable spec and one canonical
    name, so reload + re-hash is stable and a warm store keeps hitting.
    """

    def _point(self, policy):
        from repro.dse import SweepPoint
        from repro.hw import BPVEC, DDR4

        return SweepPoint(
            workload="RNN", policy=policy, platform=BPVEC, memory=DDR4, batch=1
        )

    def test_reload_and_rehash_is_stable(self, make_store):
        from repro.dse import PolicySpec, clear_memo, run_sweep

        spec = PolicySpec(layers=((8, 8), (4, 2)))
        store = make_store()
        clear_memo()
        cold = run_sweep([self._point(spec)], store=store)
        assert cold.evaluated == 1

        # A JSON round-trip of the policy (tuples -> lists) re-hashes to
        # the same config, so the store serves the warm record.
        reloaded_policy = json.loads(json.dumps(spec.to_dict()))
        assert isinstance(reloaded_policy["layers"][0], list)
        clear_memo()
        warm = run_sweep([self._point(reloaded_policy)], store=store)
        assert warm.from_store == 1 and warm.evaluated == 0
        assert warm.records == cold.records

    def test_tuple_and_list_layers_hash_identically(self):
        from repro.dse import PolicySpec

        by_tuple = PolicySpec(layers=((8, 8), (4, 2)))
        by_list = PolicySpec(layers=[[8, 8], [4, 2]])
        assert by_tuple == by_list
        assert hash(by_tuple) == hash(by_list)
        assert (
            self._point(by_tuple).config_hash()
            == self._point(by_list).config_hash()
        )

    def test_stored_policy_name_resolves_back_to_the_assignment(self, make_store):
        from repro.dse import PolicySpec, clear_memo, resolve_policy, run_sweep

        spec = PolicySpec(layers=((8, 4), (2, 6)))
        store = make_store()
        clear_memo()
        run_sweep([self._point(spec)], store=store)
        (record,) = store.load().values()
        # The record's policy field alone rebuilds the exact assignment.
        assert resolve_policy(record["policy"]) == spec
