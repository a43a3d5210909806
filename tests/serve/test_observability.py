"""End-to-end observability: /metrics, /readyz, traces, worker metrics.

The unit behavior of the registry/tracer lives in ``tests/obs``; these
tests drive a live in-process server and assert the instrumentation is
actually threaded through the serving stack -- a scrape mid-run covers
HTTP, jobs, fleet, cache, journal, and evaluator series, terminal jobs
carry a complete phase set, and worker heartbeats surface per-worker
throughput in ``GET /workers``.
"""

import threading
import time

import pytest

from repro.dse import clear_memo
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.watch import parse_prometheus_text
from repro.serve import (
    FleetWorker,
    ServeClient,
    SweepServer,
    SweepService,
)

GRID = {
    "grid": {
        "workloads": ["RNN", "LSTM"],
        "platforms": ["bpvec"],
        "memories": ["ddr4"],
    }
}


def _silent(_message: str) -> None:
    pass


@pytest.fixture(autouse=True)
def _fresh_state():
    clear_memo()
    get_registry().reset()
    yield
    clear_memo()
    get_registry().reset()


@pytest.fixture
def live_server(tmp_path):
    server = SweepServer(
        SweepService(
            store=tmp_path / "served.sqlite",
            journal=tmp_path / "served.journal",
        )
    )
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


def _wait_job(client, job_id, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status = client.job_status(job_id)
        if status["state"] not in ("queued", "running"):
            return status
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} never finished")


class TestMetricsEndpoint:
    def test_scrape_covers_every_instrumented_layer(self, client):
        job = client.submit_job(GRID)["job"]
        _wait_job(client, job)
        client.pareto()
        text = client.metrics()
        assert text.startswith("# HELP")
        samples = parse_prometheus_text(text)

        # HTTP layer: the scrape itself and the job poll both counted.
        requests = samples["repro_http_requests_total"]
        endpoints = {s["labels"]["endpoint"] for s in requests}
        assert "/jobs/{id}" in endpoints  # templated, not per-id
        assert all(s["labels"]["status"] for s in requests)

        # Jobs: submitted + finished counters and phase histograms.
        assert any(
            s["labels"] == {"kind": "sweep"}
            for s in samples["repro_jobs_submitted_total"]
        )
        assert any(
            s["labels"]["state"] == "done"
            for s in samples["repro_jobs_finished_total"]
        )
        phases = {
            s["labels"]["phase"]
            for s in samples["repro_job_phase_seconds_count"]
        }
        assert {"validate", "queue-wait", "evaluate"} <= phases

        # Engine + evaluator: tier counters and the lowered-IR cache.
        tiers = {
            s["labels"]["tier"]: s["value"]
            for s in samples["repro_eval_points_total"]
        }
        assert tiers.get("evaluated", 0) >= 2
        # The two cold points are one evaluation pass: each phase is
        # observed once per pass, never per record.
        passes = {
            s["labels"]["phase"]: s["value"]
            for s in samples["repro_eval_phase_seconds_count"]
        }
        assert passes == {"lower": 1, "kernel": 1, "records": 1}
        assert "repro_lowered_cache" in samples
        assert samples["repro_memo_records"][0]["value"] >= 2

        # Journal, memo eviction, and collector gauges.  The eviction
        # counter is declared at import and exports once it moves.
        assert "repro_journal_writes_total" in samples
        assert "repro_journal_write_seconds_count" in samples
        assert "# TYPE repro_memo_evictions_total counter" in text
        assert "repro_jobs" in samples
        assert "repro_fleet_workers" in samples
        assert samples["repro_draining"][0]["value"] == 0

    def test_scrape_is_consistent_with_stats(self, client):
        job = client.submit_job(GRID)["job"]
        _wait_job(client, job)
        samples = parse_prometheus_text(client.metrics())
        stats = client.stats()
        jobs_gauge = {
            s["labels"]["state"]: s["value"] for s in samples["repro_jobs"]
        }
        assert jobs_gauge.get("done", 0) == stats["jobs"]["done"]
        assert samples["repro_memo_records"][0]["value"] == (
            stats["memo_records"]
        )

    def test_stats_phase_summary_mirrors_histograms(self, client):
        job = client.submit_job(GRID)["job"]
        _wait_job(client, job)
        phases = client.stats()["phases"]
        assert "sweep" in phases
        assert phases["sweep"]["evaluate"]["count"] >= 1
        assert phases["sweep"]["evaluate"]["seconds"] >= 0


class TestReadiness:
    def test_ready_when_serving(self, client):
        assert client.ready() is True

    def test_healthz_stays_alive_while_draining(self, client, live_server):
        live_server.service._draining = True
        try:
            assert client.health()["status"] == "ok"  # liveness: still up
            assert client.ready() is False  # readiness: stop routing
        finally:
            live_server.service._draining = False
        assert client.ready() is True

    def test_readyz_is_503_while_draining(self, client, live_server):
        live_server.service._draining = True
        try:
            from repro.serve import ServeError

            with pytest.raises(ServeError, match="503"):
                client._json("/readyz")
        finally:
            live_server.service._draining = False

    def test_readiness_reasons(self, tmp_path):
        service = SweepService(store=tmp_path / "r.sqlite")
        assert service.readiness() == {"ready": True}
        service._draining = True
        assert service.readiness() == {"ready": False, "reason": "draining"}
        service._draining = False
        service.close()
        assert service.readiness() == {"ready": False, "reason": "closed"}


class TestJobTraces:
    @pytest.mark.parametrize("suffix", [".sqlite"])
    def test_terminal_job_has_complete_contiguous_phases(
        self, tmp_path, suffix
    ):
        server = SweepServer(SweepService(store=tmp_path / f"served{suffix}"))
        thread = threading.Thread(
            target=lambda: server.serve_forever(poll_interval=0.02),
            daemon=True,
        )
        thread.start()
        try:
            client = ServeClient(server.url)
            job = client.submit_job(GRID)["job"]
            status = _wait_job(client, job)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        assert status["state"] == "done"
        timings = status["timings"]
        assert timings["complete"] is True
        assert status["trace"] == timings["trace_id"]
        names = [p["phase"] for p in timings["phases"]]
        # One contiguous pass through the canonical sweep phases, no
        # repeats and nothing left open, on every store backend.
        assert names == ["validate", "queue-wait", "evaluate"]
        assert all(not p["open"] for p in timings["phases"])
        assert all(p["seconds"] >= 0 for p in timings["phases"])
        assert sum(p["seconds"] for p in timings["phases"]) == pytest.approx(
            timings["total_seconds"]
        )
        assert status["duration"] == pytest.approx(timings["total_seconds"])
        # Records went straight into the store: no side files.
        assert not list(tmp_path.glob("*.staging"))

    def test_ingest_job_phases(self, client):
        sweep = client.submit_job(GRID)["job"]
        assert _wait_job(client, sweep)["state"] == "done"
        ingest_id = client.post_records(client.records())["job"]
        ingest = _wait_job(client, ingest_id)
        assert ingest["state"] == "done"
        names = [p["phase"] for p in ingest["timings"]["phases"]]
        assert names == ["validate", "queue-wait", "ingest"]


class TestWatchOnce:
    def test_once_json_snapshot_against_live_server(self, client, live_server):
        import io
        import json

        from repro.obs.watch import watch

        job = client.submit_job(GRID)["job"]
        _wait_job(client, job)
        out = io.StringIO()
        assert watch(live_server.url, once=True, fmt="json", out=out) == 0
        snapshot = json.loads(out.getvalue())
        assert snapshot["ready"] is True
        assert snapshot["stats"]["store"]["records"] == 2
        assert any(j["job"] == job for j in snapshot["jobs"])
        assert snapshot["metrics"]["eval_points"]["evaluated"] >= 2


class TestWorkerMetrics:
    def test_heartbeat_carries_metrics_into_workers_view(self, client):
        """A worker-shaped registry snapshot shipped over HTTP lands as
        a compact summary in ``GET /workers``."""
        worker_id = client.register_worker(name="obs-w")["worker"]
        local = MetricsRegistry()
        local.counter("repro_worker_points_total", "P.").inc(42)
        local.counter(
            "repro_worker_chunks_total", "C.", labelnames=("result",)
        ).inc(3, result="ok")
        local.histogram("repro_worker_eval_seconds", "E.").observe(1.5)
        local.histogram("repro_worker_upload_seconds", "U.").observe(0.25)
        client.worker_heartbeat(worker_id, metrics=local.snapshot())
        (row,) = [r for r in client.workers() if r["name"] == "obs-w"]
        assert row["heartbeat_age"] >= 0
        assert row["metrics"] == {
            "points_total": 42.0,
            "chunks_total": 3.0,
            "eval_seconds_sum": 1.5,
            "upload_seconds_sum": 0.25,
        }

    def test_real_worker_reports_metrics_on_exit(self, client, live_server):
        """An end-to-end FleetWorker run accumulates throughput in its
        private registry -- the snapshot its heartbeats ship."""
        client.submit_job(GRID, fleet={"chunks": 2})
        worker = FleetWorker(
            live_server.url,
            name="obs-e2e",
            poll=0.01,
            exit_when_drained=True,
            log=_silent,
        )
        assert worker.run() == 0
        assert worker.metrics.snapshot()["counters"][
            "repro_worker_points_total"
        ][0]["value"] >= 2
        (row,) = [r for r in client.workers() if r["name"] == "obs-e2e"]
        assert row["chunks_done"] >= 1
        # The farewell heartbeat shipped the snapshot even though the
        # worker drained inside one heartbeat period.
        assert row["metrics"] is not None
        assert row["metrics"]["points_total"] >= 2
        assert row["metrics"]["chunks_total"] >= 1

    def test_chunk_phase_histogram_fills_end_to_end(self, client, live_server):
        client.submit_job(GRID, fleet={"chunks": 2})
        worker = FleetWorker(
            live_server.url,
            poll=0.01,
            exit_when_drained=True,
            log=_silent,
        )
        assert worker.run() == 0
        samples = parse_prometheus_text(client.metrics())
        phases = {
            s["labels"]["phase"]: s["value"]
            for s in samples["repro_fleet_chunk_phase_seconds_count"]
        }
        # Coordinator-side phases plus the worker-reported ones shipped
        # in ack timings.
        assert {
            "lease-wait",
            "worker-eval",
            "upload",
            "ack-turnaround",
        } <= set(phases)
        assert all(count >= 1 for count in phases.values())
        acks = {
            s["labels"]["result"]: s["value"]
            for s in samples["repro_fleet_acks_total"]
        }
        assert acks.get("ok", 0) >= 1
