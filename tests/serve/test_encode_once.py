"""Each record is encoded once on its way from the evaluator or store
to a client.

A record's canonical text, ``json.dumps(record, sort_keys=True)``, is
made when the record is evaluated (the store append encodes it) or read
(SQLite hands back its stored column); the memo, the store appender and
the job stream then share it.  These tests count the ``json.dumps`` and
``json.loads`` calls that touch a *record* -- other JSON work (specs,
terminal lines) is not counted -- and pin the streamed bytes to the
canonical text on every tier of every backend.
"""

import json

import pytest

from repro.dse import clear_memo, run_sweep
from repro.dse.spec import SweepSpec
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
    def test_cold_sqlite_sweep_encodes_each_record_once(self, tmp_path, record_json):
        service = SweepService(store=tmp_path / "s.sqlite")
        try:
            counts, stream = _run(service)
        finally:
            service.close()
        assert counts["evaluated"] == POINTS
        assert len(stream.splitlines()) == POINTS
        # The append encoded each record; the stream reused that text.
        assert sorted(record_json["dumps"]) == HASHES
        assert record_json["loads"] == []

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


@pytest.mark.parametrize("store", [None, "s.jsonl", "s.sqlite"])
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
