"""Each record is encoded once on its way from the evaluator or store
to a client, and a cold pass is encoded and persisted once.

A record's canonical text, ``json.dumps(record, sort_keys=True)``, is
made when the record is evaluated (the engine encodes each cold pass
with one :func:`~repro.dse.entry.canonical_texts` call before the store
writes it) or read (SQLite hands back its stored column); the memo, the
store appender and the job stream then share it.  These tests count
the ``json.dumps`` and ``json.loads`` calls that touch a *record* --
other JSON work (specs, terminal lines) is not counted -- count the
encoder calls, appender writes, flushes and commits of a cold sweep per
pass, and pin the streamed bytes to the canonical text on every tier of
every backend.
"""

import contextlib
import json
import sqlite3

import pytest

import repro.dse.engine as engine_module
import repro.dse.entry as entry_module
from repro.dse import clear_memo, run_sweep
from repro.dse.spec import SweepSpec
from repro.dse.sqlite_store import SQLiteStore
from repro.dse.store import ResultStore
from repro.serve import SweepService

GRID = {
    "grid": {
        "workloads": ["RNN", "LSTM"],
        "platforms": ["bpvec", "tpu"],
        "memories": ["ddr4", "hbm2"],
    }
}
HASHES = sorted(point.config_hash() for point in SweepSpec.from_dict(GRID))
POINTS = len(HASHES)


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_memo()
    yield
    clear_memo()


@pytest.fixture
def record_json(monkeypatch):
    """Hashes of the records ``json.dumps`` encoded and ``json.loads``
    decoded while the test ran."""
    calls = {"dumps": [], "loads": []}
    dumps, loads = json.dumps, json.loads

    def spy_dumps(obj, *args, **kwargs):
        if isinstance(obj, dict) and "metrics" in obj and "hash" in obj:
            calls["dumps"].append(obj["hash"])
        return dumps(obj, *args, **kwargs)

    def spy_loads(text, *args, **kwargs):
        obj = loads(text, *args, **kwargs)
        if isinstance(obj, dict) and "metrics" in obj and "hash" in obj:
            calls["loads"].append(obj["hash"])
        return obj

    monkeypatch.setattr(json, "dumps", spy_dumps)
    monkeypatch.setattr(json, "loads", spy_loads)
    return calls


@pytest.fixture
def pass_io(monkeypatch):
    """Per-sweep counts: evaluation passes, ``canonical_texts`` calls
    (the hashes each covered), appender writes, and the JSONL flushes
    and SQLite commits they made."""
    counts = {"passes": 0, "encoded": [], "persists": 0, "flushes": 0, "commits": 0}

    real_points = engine_module.evaluate_points

    def evaluate_points(points):
        counts["passes"] += 1
        return real_points(points)

    real_texts = entry_module.canonical_texts

    def canonical_texts(records):
        records = list(records)
        counts["encoded"].append([record["hash"] for record in records])
        return real_texts(records)

    def counted_appender(real):
        @contextlib.contextmanager
        def appender(self):
            with real(self) as write:

                def persist(records):
                    counts["persists"] += 1
                    return write(records)

                yield persist

        return appender

    class FlushCounter:
        def __init__(self, handle):
            self._handle = handle

        def write(self, text):
            return self._handle.write(text)

        def flush(self):
            counts["flushes"] += 1
            self._handle.flush()

        def close(self):
            self._handle.close()

    real_open_append = ResultStore._open_append
    real_connect = SQLiteStore._connect

    def connect(self):
        db = real_connect(self)

        def trace(statement):
            if statement.strip().upper() == "COMMIT":
                counts["commits"] += 1

        db.set_trace_callback(trace)
        return db

    monkeypatch.setattr(engine_module, "evaluate_points", evaluate_points)
    monkeypatch.setattr(engine_module, "canonical_texts", canonical_texts)
    monkeypatch.setattr(entry_module, "canonical_texts", canonical_texts)
    for cls in (ResultStore, SQLiteStore):
        monkeypatch.setattr(cls, "appender", counted_appender(cls.appender))
    monkeypatch.setattr(
        ResultStore, "_open_append", lambda self: FlushCounter(real_open_append(self))
    )
    monkeypatch.setattr(SQLiteStore, "_connect", connect)
    return counts


def _run(service: SweepService) -> tuple[dict, bytes]:
    """Submit GRID, wait for it, and return its tier counts and stream."""
    job = service.submit({"spec": GRID})
    assert job.wait(30) and job.state == "done", job.error
    stream = b"".join(
        block for block in service.job_record_stream(job) if isinstance(block, bytes)
    )
    return dict(job.counts), stream


def _sorted_lines(stream: bytes) -> list[bytes]:
    return sorted(stream.splitlines())


class TestJsonCallsPerRecord:
    def test_cold_sqlite_sweep_encodes_each_record_once(
        self, tmp_path, record_json, pass_io
    ):
        service = SweepService(store=tmp_path / "s.sqlite")
        try:
            counts, stream = _run(service)
        finally:
            service.close()
        assert counts["evaluated"] == POINTS
        assert len(stream.splitlines()) == POINTS
        # The pass encoder covered each record once; no record went
        # through json.dumps, and the stream reused the pass's text.
        assert sorted(sum(pass_io["encoded"], [])) == HASHES
        assert record_json == {"dumps": [], "loads": []}

    @pytest.mark.parametrize("tier", ["memo", "store"])
    def test_warm_sqlite_sweep_encodes_and_decodes_nothing(
        self, tmp_path, record_json, tier
    ):
        service = SweepService(store=tmp_path / "s.sqlite")
        try:
            _, cold = _run(service)
            if tier == "store":
                clear_memo()
            record_json["dumps"].clear()
            record_json["loads"].clear()
            counts, warm = _run(service)
        finally:
            service.close()
        assert counts[tier] == POINTS
        assert record_json == {"dumps": [], "loads": []}
        assert _sorted_lines(warm) == _sorted_lines(cold)

    def test_storeless_page_encodes_nothing(self, record_json):
        service = SweepService()
        try:
            _, stream = _run(service)
            record_json["dumps"].clear()
            record_json["loads"].clear()
            page = list(service.record_page_stream())
        finally:
            service.close()
        blocks, terminal = page[:-1], page[-1]
        assert terminal["count"] == POINTS
        assert record_json == {"dumps": [], "loads": []}
        by_hash = sorted(stream.splitlines(True), key=lambda b: json.loads(b)["hash"])
        assert b"".join(blocks) == b"".join(by_hash)


@pytest.mark.parametrize("store", [None, "s.sqlite"])
def test_stream_lines_are_the_canonical_text_on_every_tier(tmp_path, store):
    expected = sorted(
        json.dumps(record, sort_keys=True).encode()
        for record in run_sweep(SweepSpec.from_dict(GRID)).records
    )
    clear_memo()
    service = SweepService(store=None if store is None else tmp_path / store)
    try:
        tiers = ["evaluated", "memo"] + ([] if store is None else ["store"])
        for tier in tiers:
            if tier == "store":
                clear_memo()
            counts, stream = _run(service)
            assert counts[tier] == POINTS
            assert _sorted_lines(stream) == expected, tier
    finally:
        service.close()


class TestOncePerPass:
    """A cold sweep of N passes makes N encoder calls, N appender
    writes, and N JSONL flushes or N SQLite commits."""

    @pytest.mark.parametrize("name", ["s.jsonl", "s.sqlite"])
    def test_cold_sweep_encodes_and_persists_once_per_pass(
        self, tmp_path, monkeypatch, record_json, pass_io, name
    ):
        monkeypatch.setattr(engine_module, "DEFAULT_CHUNK_SIZE", 3)
        result = run_sweep(SweepSpec.from_dict(GRID), store=tmp_path / name)
        passes = pass_io["passes"]
        assert result.evaluated == POINTS and passes >= 3
        assert len(pass_io["encoded"]) == passes
        assert sorted(sum(pass_io["encoded"], [])) == HASHES
        assert record_json["dumps"] == []
        assert pass_io["persists"] == passes
        if name.endswith(".jsonl"):
            assert (pass_io["flushes"], pass_io["commits"]) == (passes, 0)
        else:
            assert (pass_io["flushes"], pass_io["commits"]) == (0, passes)

    @pytest.mark.parametrize("name", ["s.jsonl", "s.sqlite"])
    def test_memo_hits_the_store_lacks_persist_in_one_write(
        self, tmp_path, record_json, pass_io, name
    ):
        run_sweep(SweepSpec.from_dict(GRID))  # memo only, no store
        pass_io.update(passes=0, encoded=[], persists=0)
        warm = run_sweep(SweepSpec.from_dict(GRID), store=tmp_path / name)
        assert warm.from_memo == POINTS and pass_io["passes"] == 0
        assert pass_io["persists"] == 1
        assert sorted(sum(pass_io["encoded"], [])) == HASHES
        assert record_json["dumps"] == []
        assert pass_io["flushes"] + pass_io["commits"] == 1

    def test_storeless_cold_sweep_encodes_nothing(self, record_json, pass_io):
        result = run_sweep(SweepSpec.from_dict(GRID))
        assert result.evaluated == POINTS
        assert pass_io["encoded"] == [] and record_json["dumps"] == []
