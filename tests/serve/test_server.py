"""Tests for the sweep service: endpoints, streaming, queries, errors.

The server runs in-process on an ephemeral port; the stdlib
:class:`~repro.serve.client.ServeClient` drives it exactly like a
remote client would.
"""

import json
import threading
import urllib.request

import pytest

from repro.dse import EVAL_VERSION, ResultStore, clear_memo
from repro.serve import ServeClient, ServeError, SweepServer, SweepService, serve

GRID = {
    "grid": {
        "workloads": ["RNN", "LSTM"],
        "platforms": ["bpvec"],
        "memories": ["ddr4"],
    }
}


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_memo()
    yield
    clear_memo()


@pytest.fixture
def live_server(tmp_path):
    """A served SQLite-backed service on an ephemeral port."""
    server = SweepServer(SweepService(store=tmp_path / "served.sqlite"))
    # Tight poll interval: shutdown in teardown returns immediately.
    thread = threading.Thread(
        target=lambda: server.serve_forever(poll_interval=0.02), daemon=True
    )
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


@pytest.fixture
def client(live_server):
    return ServeClient(live_server.url)


class TestHealthAndStats:
    def test_healthz(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["eval_version"] == EVAL_VERSION

    def test_stats_counts_store_and_memo(self, client):
        assert client.stats()["store"]["records"] == 0
        client.sweep(GRID)
        stats = client.stats()
        assert stats["store"]["backend"] == "sqlite"
        assert stats["store"]["records"] == 2
        assert stats["memo_records"] == 2
        assert stats["sweeps_served"] == 1

    def test_index_lists_endpoints(self, client):
        index = client._json("/")
        assert "POST /sweep" in index["endpoints"]

    def test_unknown_routes_are_404(self, client):
        for path in ("/nope", "/query"):  # GET and POST misses
            with pytest.raises(ServeError, match="404"):
                client._json(path)
        with pytest.raises(ServeError, match="404"):
            client._json("/nope", {"x": 1})


class TestSweepEndpoint:
    def test_submit_streams_records_then_summary(self, client):
        records = list(client.submit(GRID))
        assert {r["workload"] for r in records} == {"RNN", "LSTM"}
        assert all(r["version"] == EVAL_VERSION for r in records)
        assert client.last_summary["evaluated"] == 2
        assert client.last_summary["points"] == 2

    def test_second_submit_is_served_from_cache(self, client):
        client.sweep(GRID)
        records, summary = client.sweep(GRID)
        assert summary["evaluated"] == 0
        assert summary["memo_hits"] + summary["store_hits"] == 2
        assert len(records) == 2

    def test_explicit_points_spec(self, client):
        from repro.dse import SweepSpec

        spec = SweepSpec.grid(
            workloads=("RNN",), platforms=("tpu",), memories=("hbm2",)
        )
        records, _ = client.sweep(spec.to_dict())
        assert [r["hash"] for r in records] == [
            p.config_hash() for p in spec.points
        ]

    def test_fresh_records_land_in_the_store(self, client, live_server):
        client.sweep(GRID)
        store = live_server.service.store
        assert len(store) == 2

    def test_bad_spec_is_a_client_error(self, client):
        with pytest.raises(ServeError, match="400"):
            client.sweep({"grid": {"workloads": ["VGG-99"]}})
        with pytest.raises(ServeError, match="400"):
            client.sweep({"not-a-spec": 1})

    def test_list_body_is_a_client_error(self, client):
        # /records takes a bare list; /sweep must reject one with a 400
        # instead of dropping the connection on an AttributeError.
        with pytest.raises(ServeError, match="400"):
            client._json("/sweep", [1, 2])

    def test_zero_workers_is_a_client_error(self, client):
        # A sweep evaluates in one process, so a body that sizes a pool
        # answers 400 naming the field rather than being ignored.
        for workers in (0, 1, 4):
            with pytest.raises(ServeError, match='400.*"workers"'):
                client._json("/sweep", {"spec": GRID, "workers": workers})

    def test_mid_stream_evaluation_error_arrives_in_band(self, client):
        # The spec itself is well-formed, so the stream starts with 200;
        # the evaluation failure must arrive as an in-band error object
        # that the client raises as ServeError.
        from dataclasses import fields

        from repro.hw import BPVEC

        platform = {f.name: getattr(BPVEC, f.name) for f in fields(BPVEC)}
        platform["max_bitwidth"] = 4  # the default 8-bit policy can't compose
        spec = {
            "points": [
                {"workload": "RNN", "platform": platform, "memory": "ddr4"}
            ]
        }
        with pytest.raises(ServeError, match="outside supported range"):
            list(client.submit(spec))

    def test_vectorize_passes_through(self, client):
        records, summary = client.sweep(GRID, vectorize=False)
        assert summary["evaluated"] == 2
        clear_memo()
        vectorized, _ = client.sweep(GRID, vectorize=True)
        # Scalar and vectorized server paths agree bit-for-bit.
        by_hash = {r["hash"]: r for r in records}
        assert all(by_hash[r["hash"]] == r for r in vectorized)


class TestRecordsEndpoints:
    def test_get_records_streams_current_version(self, client):
        client.sweep(GRID)
        records = client.records()
        assert len(records) == 2
        assert all(r["version"] == EVAL_VERSION for r in records)

    def test_ingest_appends_to_the_store(self, client, live_server):
        response = client.post_records(
            [{"hash": "x" * 64, "version": EVAL_VERSION, "metrics": {}}]
        )
        assert response["appended"] == 1
        assert len(live_server.service.store) == 1
        # Uploads are tracked as ingest jobs, visible in the job table.
        job = client.job_status(response["job"])
        assert job["kind"] == "ingest"
        assert job["state"] == "done"
        assert job["progress"] == {"offered": 1, "appended": 1}

    def test_ingest_rejects_keyless_records(self, client):
        with pytest.raises(ServeError, match="400"):
            client.post_records([{"metrics": {}}])
        with pytest.raises(ServeError, match="400"):
            client._json("/records", {"records": "not-a-list"})

    def test_ingest_accepts_bare_list_body(self, client):
        payload = [{"hash": "y" * 64, "version": EVAL_VERSION, "metrics": {}}]
        assert client._json("/records", payload)["appended"] == 1

    def test_store_io_failure_maps_to_503(self, client, live_server, monkeypatch):
        def locked(*args, **kwargs):
            raise OSError("sqlite store locked")

        for primitive in ("load", "iter_records", "iter_page", "iter_page_json"):
            monkeypatch.setattr(live_server.service.store, primitive, locked)
        with pytest.raises(ServeError, match="503"):
            client.records()
        with pytest.raises(ServeError, match="503"):
            client.pareto()


class TestQueryEndpoints:
    @pytest.fixture(autouse=True)
    def _warm(self, client):
        client.sweep(
            {
                "grid": {
                    "workloads": ["RNN", "LSTM"],
                    "platforms": ["bpvec", "tpu"],
                    "memories": ["ddr4"],
                }
            }
        )

    def test_pareto_matches_local_query(self, client):
        from repro.dse import pareto_frontier

        served = client.pareto()
        local = pareto_frontier(client.records())
        assert {r["hash"] for r in served} == {r["hash"] for r in local}

    def test_pareto_with_where_filter(self, client):
        served = client.pareto(where={"workload": "RNN"})
        assert served and all(r["workload"] == "RNN" for r in served)

    def test_top_k(self, client):
        best = client.top_k(objective="perf_per_watt", k=2, sense="max")
        assert len(best) == 2
        assert (
            best[0]["metrics"]["perf_per_watt"]
            >= best[1]["metrics"]["perf_per_watt"]
        )

    def test_accuracy_frontier(self, client):
        accuracy = {"homogeneous-8bit": 0.9}
        frontier = client.accuracy_frontier(accuracy)
        assert frontier
        assert all(r["metrics"]["accuracy"] == 0.9 for r in frontier)

    def test_unknown_query_and_params_rejected(self, client):
        with pytest.raises(ServeError, match="unknown query"):
            client.query("bogus")
        with pytest.raises(ServeError, match="parameters"):
            client.query("pareto", bogus_param=1)
        with pytest.raises(ServeError, match="accuracy_by_policy"):
            client.query("accuracy-frontier")

    def test_non_mapping_where_is_a_client_error(self, client):
        # {"where": "LSTM"} is a natural typo for {"where": {...}}; it
        # must come back as a 400, not a dropped connection.
        with pytest.raises(ServeError, match="where"):
            client.pareto(where="LSTM")


class TestTruncationDetection:
    """Close-delimited streams must be distinguishable from crashes."""

    def test_get_records_ends_with_a_count_line(self, client):
        client.sweep(GRID)
        raw = list(client._ndjson("/records"))
        assert raw[-1] == {"count": 2, "next": None}
        assert client.records() == raw[:-1]

    def test_truncated_sweep_stream_raises(self, monkeypatch):
        client = ServeClient("http://unused")
        monkeypatch.setattr(
            client, "submit_job", lambda spec, **kw: {"job": "abc123"}
        )
        monkeypatch.setattr(
            client,
            "_ndjson",
            lambda path, payload=None: iter([{"hash": "x", "metrics": {}}]),
        )
        with pytest.raises(ServeError, match="without a summary"):
            list(client.submit({"points": []}))

    def test_truncated_records_stream_raises(self, monkeypatch):
        client = ServeClient("http://unused")
        monkeypatch.setattr(
            client,
            "_ndjson",
            lambda path, payload=None: iter([{"hash": "x", "metrics": {}}]),
        )
        with pytest.raises(ServeError, match="truncated"):
            client.records()


def _query_input(service):
    """What a store-backed query reads: current-version records, hash order."""
    return list(service.store.iter_page(version=EVAL_VERSION))


def _run_job(service, payload):
    """Drive a sweep job through the service directly (no HTTP)."""
    job = service.submit(payload)
    assert job.wait(timeout=60), f"job stuck in state {job.state}"
    assert job.state == "done", job.error
    return job


class TestRecordsCache:
    def test_query_sees_an_ingest_at_once(self, tmp_path):
        service = SweepService(store=tmp_path / "s.jsonl")
        _run_job(service, {"spec": GRID})
        assert len(_query_input(service)) == 2
        # Queries stream the store on every call, so any append -- an
        # ingest, an external writer -- shows in the very next read.
        service.ingest([{"hash": "z" * 64, "version": EVAL_VERSION, "metrics": {}}])
        assert len(_query_input(service)) == 3
        ResultStore(service.store.path).append(
            [{"hash": "y" * 64, "version": EVAL_VERSION, "metrics": {}}]
        )
        assert len(_query_input(service)) == 4

    @pytest.mark.parametrize("suffix", [".jsonl", ".sqlite"])
    def test_job_that_evaluates_invalidates(self, tmp_path, suffix):
        service = SweepService(store=tmp_path / f"s{suffix}")
        _run_job(service, {"spec": GRID})
        assert len(service.query("top-k", {"k": 10})) == 2
        cold = {
            "grid": {
                "workloads": ["AlexNet"],
                "platforms": ["bpvec"],
                "memories": ["ddr4"],
            }
        }
        _run_job(service, {"spec": cold})
        # The next query sees the job's write.
        assert len(service.query("top-k", {"k": 10})) == 3

    def test_store_stats_cached_until_the_store_changes(self, tmp_path):
        service = SweepService(store=tmp_path / "s.jsonl")
        _run_job(service, {"spec": GRID})
        calls = []
        original_stats = service.store.stats
        service.store.stats = lambda: calls.append(1) or original_stats()
        first = service.stats()
        assert first["store"]["records"] == 2
        assert service.stats()["store"] is first["store"]
        assert len(calls) == 1
        service.ingest([{"hash": "y" * 64, "version": EVAL_VERSION, "metrics": {}}])
        calls.clear()
        assert service.stats()["store"]["records"] == 3
        assert len(calls) == 1


class TestExternalWriterInvalidation:
    """The regression ``(mtime, size)`` cache keys could not catch: an
    external writer's same-size upsert must be visible to the next
    query, without the service ever being told about the write."""

    def test_jsonl_same_size_upsert_is_seen_by_the_next_query(self, tmp_path):
        import os

        service = SweepService(store=tmp_path / "s.jsonl")
        service.store.append(
            [
                {
                    "hash": "a" * 64,
                    "version": EVAL_VERSION,
                    "metrics": {"total_seconds": 1.0, "total_energy_j": 1.0},
                }
            ]
        )
        assert service.query("top-k", {"k": 1})[0]["metrics"]["total_seconds"] == 1.0
        # Rewrite the record in place -- same byte count -- and pin the
        # mtime back to the original tick, like a fast external upsert.
        raw = service.store.path.read_bytes()
        stat = service.store.path.stat()
        service.store.path.write_bytes(
            raw.replace(b'"total_seconds": 1.0', b'"total_seconds": 2.0')
        )
        os.utime(
            service.store.path, ns=(stat.st_atime_ns, stat.st_mtime_ns)
        )
        (frontier_record,) = service.query("pareto")
        assert frontier_record["metrics"]["total_seconds"] == 2.0

    def test_sqlite_external_upsert_is_seen_by_the_next_query(self, tmp_path):
        from repro.dse import SQLiteStore

        path = tmp_path / "s.sqlite"
        service = SweepService(store=SQLiteStore(path))
        record = {
            "hash": "a" * 64,
            "version": EVAL_VERSION,
            "metrics": {"total_seconds": 1.0, "total_energy_j": 1.0},
        }
        service.store.append([record])
        assert service.query("top-k", {"k": 1})[0]["metrics"]["total_seconds"] == 1.0
        # Another connection -- an external process, as far as SQLite
        # is concerned -- upserts the same row: same size, same count.
        record["metrics"]["total_seconds"] = 2.0
        SQLiteStore(path).append([record])
        (frontier_record,) = service.query("pareto")
        assert frontier_record["metrics"]["total_seconds"] == 2.0


class TestStorelessServer:
    def test_memo_backs_queries_and_ingest_fails(self):
        server = SweepServer(SweepService(store=None))
        thread = threading.Thread(
            target=lambda: server.serve_forever(poll_interval=0.02), daemon=True
        )
        thread.start()
        try:
            client = ServeClient(server.url)
            assert client.stats()["store"] is None
            records, summary = client.sweep(GRID)
            assert summary["evaluated"] == 2
            assert len(client.records()) == 2  # served from the memo
            assert client.pareto()  # queries too
            with pytest.raises(ServeError, match="no store"):
                client.post_records([{"hash": "x", "version": 1}])
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)


#: 6 points: every platform x every memory.
LSTM_GRID = {"grid": {"workloads": ["LSTM"]}}


def _stream_bytes(service, job) -> bytes:
    return b"".join(
        block for block in service.job_record_stream(job) if isinstance(block, bytes)
    )


class TestMemoBound:
    def test_storeless_service_holds_at_most_its_capacity(self):
        service = SweepService(record_cache=4)
        try:
            job = _run_job(service, {"spec": LSTM_GRID})
            assert service.job_summary(job)["evaluated"] == 6
            stats = service.stats()
            assert stats["memo_records"] == 4
            assert stats["record_cache"] == {"capacity": 4, "evictions": 2}
            assert len(service.query("top-k", {"k": 10})) == 4  # the memo
        finally:
            service.close()

    @pytest.mark.parametrize("suffix", [".jsonl", ".sqlite"])
    def test_store_serves_what_the_memo_evicted(self, tmp_path, suffix):
        service = SweepService(store=tmp_path / f"s{suffix}", record_cache=2)
        try:
            cold = _run_job(service, {"spec": LSTM_GRID})
            warm = _run_job(service, {"spec": LSTM_GRID})
            summary = service.job_summary(warm)
            # The memo kept the cold pass's last two records; the store
            # serves the four it evicted.
            assert (
                summary["store_hits"], summary["memo_hits"], summary["evaluated"]
            ) == (4, 2, 0)
            assert _stream_bytes(service, warm) == _stream_bytes(service, cold)
            assert service.stats()["memo_records"] == 2
        finally:
            service.close()

    def test_concurrent_jobs_stay_within_capacity(self, tmp_path):
        service = SweepService(
            store=tmp_path / "s.sqlite", job_workers=2, record_cache=3
        )
        try:
            specs = [
                {"grid": {"workloads": [workload]}}
                for workload in ("LSTM", "RNN", "AlexNet", "LSTM", "RNN")
            ]
            jobs = [service.submit({"spec": spec}) for spec in specs]
            for job in jobs:
                assert job.wait(timeout=120) and job.state == "done", job.error
            assert len(service.query("top-k", {"k": 100})) == 18
            stats = service.stats()
            assert stats["memo_records"] <= 3
            assert stats["record_cache"]["evictions"] >= 15
        finally:
            service.close()


class TestServeLifecycle:
    def test_serve_announces_and_shuts_down_cleanly(self, tmp_path):
        messages = []
        boxed = {}
        done = threading.Event()

        def run():
            code = serve(
                store=tmp_path / "s.jsonl",
                port=0,
                announce=messages.append,
                ready=lambda server: boxed.setdefault("server", server),
            )
            boxed["code"] = code
            done.set()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        for _ in range(100):
            if "server" in boxed:
                break
            done.wait(0.05)
        client = ServeClient(boxed["server"].url)
        assert client.health()["status"] == "ok"
        assert client.shutdown() == {"status": "shutting down"}
        assert done.wait(10)
        assert boxed["code"] == 0
        assert "serving DSE sweeps on" in messages[0]
        assert messages[-1] == "server shut down cleanly"

    def test_gzipped_jsonl_store_is_refused(self, tmp_path):
        # Concurrent jobs' appenders would interleave gzip members, so
        # the service refuses the store before any journal exists.
        from repro.cli import main
        from repro.dse import ResultStore

        path = tmp_path / "s.jsonl"
        store = ResultStore(path)
        store.append([{"hash": "a" * 64, "version": EVAL_VERSION, "metrics": {}}])
        store.compact(gzip=True)
        with pytest.raises(ValueError, match="gzipped.*repro dse-merge"):
            SweepService(store=path, journal=tmp_path / "s.journal")
        with pytest.raises(SystemExit) as refused:
            main(["serve", "--store", str(path), "--port", "0"])
        assert "gzip" in str(refused.value.code)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.jsonl"]

    def test_get_route_store_errors_map_to_400(self, tmp_path):
        # A store backend forced onto the wrong file must fail as a
        # JSON client error on GET routes, not a dropped connection.
        from repro.dse import ResultStore, SQLiteStore

        path = tmp_path / "s.jsonl"
        ResultStore(path).append([{"hash": "a", "version": 1, "metrics": {}}])
        server = SweepServer(SweepService(store=SQLiteStore(path)))
        thread = threading.Thread(
            target=lambda: server.serve_forever(poll_interval=0.02), daemon=True
        )
        thread.start()
        try:
            client = ServeClient(server.url)
            with pytest.raises(ServeError, match="400.*not a SQLite store"):
                client.stats()
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_dropped_connection_raises_serve_error(self):
        # A socket that closes before sending a status line must map to
        # ServeError, not leak http.client.RemoteDisconnected.
        import socket

        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]

        def accept_and_close():
            connection, _ = listener.accept()
            connection.close()

        thread = threading.Thread(target=accept_and_close, daemon=True)
        thread.start()
        try:
            # retries=0: the one-shot socket above serves exactly one
            # connection, so the client's transient-failure retry (which
            # would reconnect into the unaccepted listen backlog and
            # wait out its whole timeout) must stay off here.
            with pytest.raises(ServeError, match="dropped the connection"):
                ServeClient(f"http://127.0.0.1:{port}", retries=0).health()
        finally:
            listener.close()
            thread.join(timeout=5)

    def test_raw_http_get_works_without_the_client(self, live_server):
        # The protocol is plain enough for any HTTP client.
        with urllib.request.urlopen(live_server.url + "/healthz") as response:
            assert json.load(response)["status"] == "ok"
