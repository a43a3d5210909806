"""Server-side pagination of ``GET /records``, and reads with no cache.

Store-level keyset-pagination semantics (cursor exactness, concurrent
upserts, version filtering) live in ``tests/dse/test_store_pagination``;
this file covers the HTTP protocol on top -- the page terminal, client
page-following, the stored-bytes pass-through of pages and job streams
-- and that pages and queries read the store afresh on every call.
"""

import json
import threading
import urllib.request

import pytest

from repro.dse import DEFAULT_RECORD_CACHE, EVAL_VERSION, RecordEntry, clear_memo
from repro.serve import ServeClient, ServeError, SweepServer, SweepService
from repro.serve.server import BLOCK_RECORDS

GRID = {
    "grid": {
        "workloads": ["RNN", "LSTM"],
        "platforms": ["bpvec"],
        "memories": ["ddr4"],
    }
}

#: A record whose wire form exercises the encoder's edge cases.
ODD_RECORD = {
    "hash": "f" * 64,
    "version": EVAL_VERSION,
    "label": "naïve – 電卓   \"quoted\"",
    "metrics": {"neg_zero": -0.0, "tiny": 1e-300, "huge": 1.5e300},
    "count": 2**70,
}


def _records(n, version=EVAL_VERSION):
    return [
        {"hash": f"{i:064x}", "version": version, "metrics": {"i": i}}
        for i in range(n)
    ]


def _line(item) -> bytes:
    return (json.dumps(item, sort_keys=True) + "\n").encode()


def _decode(stream):
    """A ``record_page_stream``'s records and terminal, decoded."""
    items = list(stream)
    terminal = items.pop()
    assert all(isinstance(block, bytes) for block in items)
    records = [
        json.loads(line) for block in items for line in block.splitlines()
    ]
    return records, terminal


def _get_raw(url: str) -> bytes:
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.read()


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_memo()
    yield
    clear_memo()


def _start(service):
    server = SweepServer(service)
    thread = threading.Thread(
        target=lambda: server.serve_forever(poll_interval=0.02), daemon=True
    )
    thread.start()
    return server, thread


def _stop(server, thread):
    server.shutdown()
    server.server_close()
    server.service.close()
    thread.join(timeout=5)
    assert not thread.is_alive()


@pytest.fixture
def live_server(tmp_path):
    server, thread = _start(SweepService(store=tmp_path / "served.sqlite"))
    yield server
    _stop(server, thread)


@pytest.fixture
def client(live_server):
    return ServeClient(live_server.url)


@pytest.fixture(params=[".sqlite"])
def any_server(request, tmp_path):
    """A live server over the served store backend."""
    server, thread = _start(
        SweepService(store=tmp_path / f"served{request.param}")
    )
    yield server
    _stop(server, thread)


class TestPageProtocol:
    def test_full_page_terminal_carries_next_cursor(self, client):
        client.post_records(_records(25))
        raw = list(client._ndjson("/records?limit=10"))
        assert len(raw) == 11
        assert raw[-1] == {"count": 10, "next": raw[-2]["hash"]}

    def test_short_page_terminal_has_null_next(self, client):
        client.post_records(_records(3))
        raw = list(client._ndjson("/records?limit=10"))
        assert raw[-1] == {"count": 3, "next": None}

    def test_empty_page_past_the_end(self, client):
        records = _records(4)
        client.post_records(records)
        last = records[-1]["hash"]
        raw = list(client._ndjson(f"/records?limit=10&after={last}"))
        assert raw == [{"count": 0, "next": None}]

    def test_after_without_limit_uses_default_page_size(self, client):
        client.post_records(_records(2))
        first = _records(2)[0]["hash"]
        raw = list(client._ndjson(f"/records?after={first}&limit=5"))
        assert [r["hash"] for r in raw[:-1]] == [_records(2)[1]["hash"]]
        raw = list(client._ndjson(f"/records?after={first}"))
        assert "next" in raw[-1]

    def test_bare_records_serves_the_first_default_page(self, client):
        client.post_records(_records(2))
        raw = list(client._ndjson("/records"))
        assert raw[-1] == {"count": 2, "next": None}
        assert raw[:-1] == _records(2)

    def test_bad_limit_is_a_400(self, client):
        for query in ("limit=0", "limit=-3", "limit=nope"):
            with pytest.raises(ServeError, match="400"):
                list(client._ndjson(f"/records?{query}"))

    def test_pages_stream_in_hash_order(self, client):
        client.post_records(list(reversed(_records(30))))
        hashes = [r["hash"] for r in client.records(page_size=7)]
        assert hashes == sorted(hashes)
        assert len(hashes) == 30


class TestStoredBytesPassThrough:
    """Pages and job streams are the stored JSON text, byte for byte."""

    def test_page_bytes_are_the_stored_lines(self, any_server):
        client = ServeClient(any_server.url)
        records = _records(BLOCK_RECORDS + 40) + [ODD_RECORD]
        client.post_records(records)
        # A page spanning a block boundary, then the short last page.
        limit = BLOCK_RECORDS + 10
        raw = _get_raw(f"{any_server.url}/records?limit={limit}")
        page = records[:limit]
        assert raw == b"".join(map(_line, page)) + _line(
            {"count": limit, "next": page[-1]["hash"]}
        )
        after = page[-1]["hash"]
        raw = _get_raw(f"{any_server.url}/records?limit={limit}&after={after}")
        rest = records[limit:]
        assert raw == b"".join(map(_line, rest)) + _line(
            {"count": len(rest), "next": None}
        )
        assert client.records() == [json.loads(_line(r)) for r in records]

    def test_job_stream_bytes_are_the_record_lines(self, any_server):
        client = ServeClient(any_server.url)
        job_id = client.submit_job(GRID)["job"]
        records = list(client.stream_job(job_id))
        summary = client.last_summary
        raw = _get_raw(f"{any_server.url}/jobs/{job_id}/records")
        job = any_server.service.job(job_id)
        stored = job.snapshot_records()
        assert raw == b"".join(map(_line, stored)) + _line({"summary": summary})
        assert records == stored
        raw = _get_raw(f"{any_server.url}/jobs/{job_id}/records?after=1")
        assert raw == _line(stored[1]) + _line({"summary": summary})

    def test_job_stream_splits_big_batches_into_blocks(self, tmp_path):
        from repro.serve import Job

        service = SweepService(store=tmp_path / "s.sqlite")
        job = Job(spec=None)
        for record in _records(2 * BLOCK_RECORDS + 1):
            job.append(RecordEntry.of(record), "store")
        job.finish("done")
        items = list(service.job_record_stream(job))
        blocks, terminal = items[:-1], items[-1]
        assert [block.count(b"\n") for block in blocks] == [
            BLOCK_RECORDS,
            BLOCK_RECORDS,
            1,
        ]
        assert b"".join(blocks) == b"".join(map(_line, job.snapshot_records()))
        assert "summary" in terminal


class TestClientPaging:
    def test_paged_walk_matches_the_store(self, client, live_server):
        client.post_records(_records(25))
        paged = client.records(page_size=7)
        stored = live_server.service.store.load()
        assert paged == [stored[key] for key in sorted(stored)]
        assert len(paged) == 25

    def test_page_size_bounds_each_request(self, client, monkeypatch):
        client.post_records(_records(10))
        paths = []
        original = ServeClient._ndjson

        def spy(self, path, payload=None):
            paths.append(path)
            return original(self, path, payload)

        monkeypatch.setattr(ServeClient, "_ndjson", spy)
        assert len(client.records(page_size=4)) == 10
        # 4 + 4 + 2: the short last page proves completion in 3 requests.
        assert paths == [
            "/records?limit=4",
            f"/records?limit=4&after={_records(10)[3]['hash']}",
            f"/records?limit=4&after={_records(10)[7]['hash']}",
        ]

    def test_batched_ingest_chunks_uploads(self, client, live_server):
        reply = client.post_records(_records(10), batch_size=4)
        assert reply["appended"] == 10
        assert len(reply["jobs"]) == 3  # 4 + 4 + 2
        assert reply["job"] == reply["jobs"][-1]
        assert len(live_server.service.store) == 10
        # Each chunk is its own tracked ingest job.
        job = client.job_status(reply["jobs"][0])
        assert job["kind"] == "ingest"
        assert job["progress"] == {"offered": 4, "appended": 4}

    def test_small_ingest_reply_is_unchanged(self, client):
        reply = client.post_records(_records(3), batch_size=10)
        assert reply["appended"] == 3
        assert "jobs" not in reply


class TestStorelessPagination:
    def test_memo_pages_like_a_store(self):
        service = SweepService()  # no store: memo-backed
        job = service.submit({"spec": GRID})
        assert job.wait(timeout=60) and job.state == "done", job.error
        full = service.query("top-k", {"k": 10})
        assert len(full) == 2
        walk, after = [], None
        while True:
            page, terminal = _decode(
                service.record_page_stream(after=after, limit=1)
            )
            walk.extend(page)
            if terminal["next"] is None:
                break
            after = terminal["next"]
        assert sorted(walk, key=lambda r: r["hash"]) == sorted(
            full, key=lambda r: r["hash"]
        )


class TestRecordCacheUnit:
    def test_oversized_page_is_not_cached(self, tmp_path):
        # No page is cached, whatever its size: a page past the memo's
        # capacity still streams whole, and pages never fill the memo.
        service = SweepService(store=tmp_path / "s.sqlite", record_cache=2)
        service.ingest(_records(5))
        records, terminal = _decode(service.record_page_stream(limit=5))
        assert len(records) == 5 and terminal["next"] == records[-1]["hash"]
        assert service.stats()["memo_records"] == 0


class TestServiceCacheIntegration:
    def test_stats_exposes_the_record_cache(self, client):
        assert client.stats()["record_cache"] == {
            "capacity": DEFAULT_RECORD_CACHE,
            "evictions": 0,
        }

    def test_pages_always_read_the_store(self, tmp_path):
        service = SweepService(store=tmp_path / "s.sqlite", record_cache=2)
        service.ingest(_records(10))
        assert len(service.query("top-k", {"objective": "i", "k": 10})) == 10
        calls = []
        original = service.store.iter_page_json

        def spy(**kwargs):
            calls.append(kwargs)
            return original(**kwargs)

        service.store.iter_page_json = spy
        first = _decode(service.record_page_stream(limit=2))
        again = _decode(service.record_page_stream(limit=2))
        assert again == first
        assert len(calls) == 2  # every page reads the store

    def test_local_write_invalidates_pages(self, tmp_path):
        service = SweepService(store=tmp_path / "s.sqlite", record_cache=3)
        service.ingest(_records(4))
        before, _ = _decode(service.record_page_stream(limit=2))
        assert before[0]["version"] == EVAL_VERSION
        newer = {"hash": "00" * 32, "version": EVAL_VERSION + 1, "metrics": {}}
        service.ingest([newer])
        # The page right after the write reflects it: nothing cached
        # the old one (the upgraded record leaves the current version).
        after, _ = _decode(service.record_page_stream(limit=2))
        assert after == _records(4)[1:3]

    def test_disabled_cache_still_pages(self, tmp_path):
        service = SweepService(store=tmp_path / "s.sqlite", record_cache=0)
        service.ingest(_records(5))
        page, terminal = _decode(service.record_page_stream(limit=3))
        assert terminal["next"] == page[-1]["hash"]
        assert len(service.query("top-k", {"objective": "i", "k": 10})) == 5
        assert service.stats()["record_cache"]["capacity"] == 0
