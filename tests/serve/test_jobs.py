"""Tests for the job-queue service: scheduling, cancellation, streams.

The concurrency contract the refactor exists for: a slow sweep must not
head-of-line block health checks, stats, or other jobs; cancellation
leaves only fully-appended records behind; a dropped stream resumes
exactly where it left off via ``?after=N``; a stalled client frees its
handler thread after ``--client-timeout``.
"""

import socket
import threading
import time
import urllib.request
import warnings

import pytest

import repro.dse.engine as engine_module
import repro.serve.server as server_module
from repro.cli import main
from repro.dse import clear_memo
from repro.dse.engine import run_sweep
from repro.dse.spec import SweepSpec
from repro.dse.store import StoreWarning
from repro.serve import (
    Job,
    JobManager,
    ServeClient,
    ServeError,
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

#: One-point specs the concurrency tests tell apart by workload.
SLOW_SPEC = {
    "grid": {"workloads": ["RNN"], "platforms": ["bpvec"], "memories": ["ddr4"]}
}
FAST_SPEC = {
    "grid": {"workloads": ["LSTM"], "platforms": ["bpvec"], "memories": ["ddr4"]}
}


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_memo()
    yield
    clear_memo()


@pytest.fixture
def live_server(tmp_path):
    server = SweepServer(SweepService(store=tmp_path / "served.sqlite"))
    thread = threading.Thread(
        target=lambda: server.serve_forever(poll_interval=0.02), daemon=True
    )
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    server.service.close()
    thread.join(timeout=5)


@pytest.fixture
def client(live_server):
    return ServeClient(live_server.url, timeout=10)


def _hanging_iter_sweep(started: threading.Event, release: threading.Event):
    """A fake ``iter_sweep`` that runs until released (or cancelled)."""

    def hang(spec, **kwargs):
        started.set()
        should_cancel = kwargs.get("should_cancel")
        while not release.is_set():
            if should_cancel is not None and should_cancel():
                return
            time.sleep(0.01)
        return
        yield  # pragma: no cover - makes this a generator function

    return hang


class TestJobManagerScheduling:
    """Unit tests on the queue itself -- no HTTP, no engine."""

    def test_priority_orders_jobs_fifo_within_a_level(self):
        order: list[str] = []
        blocker_started, gate = threading.Event(), threading.Event()

        def runner(job):
            if job.id == "blocker":
                blocker_started.set()
                gate.wait(10)
            else:
                order.append(job.id)
            job.finish("done")

        manager = JobManager(runner, pool_size=1)
        manager.submit(Job(spec=None, job_id="blocker"))
        assert blocker_started.wait(5)
        # Queued while the one worker is busy: scheduling order is now
        # observable.  Lower priority number wins; ties run FIFO.
        b = manager.submit(Job(spec=None, priority=10, job_id="b"))
        c = manager.submit(Job(spec=None, priority=10, job_id="c"))
        a = manager.submit(Job(spec=None, priority=1, job_id="a"))
        gate.set()
        for job in (a, b, c):
            assert job.wait(10)
        assert order == ["a", "b", "c"]
        manager.close()

    def test_cancelling_a_queued_job_skips_execution(self):
        ran: list[str] = []
        blocker_started, gate = threading.Event(), threading.Event()

        def runner(job):
            if job.id == "blocker":
                blocker_started.set()
                gate.wait(10)
            ran.append(job.id)
            job.finish("done")

        manager = JobManager(runner, pool_size=1)
        manager.submit(Job(spec=None, job_id="blocker"))
        assert blocker_started.wait(5)
        victim = manager.submit(Job(spec=None, job_id="victim"))
        assert victim.cancel() == "cancelled"
        assert victim.done and victim.finished_at is not None
        gate.set()
        # A later job proves the worker drained past the cancelled one.
        after = manager.submit(Job(spec=None, job_id="after"))
        assert after.wait(10)
        assert ran == ["blocker", "after"]
        assert victim.state == "cancelled"
        manager.close()

    def test_runner_exception_fails_the_job(self):
        manager = JobManager(lambda job: 1 / 0, pool_size=1)
        job = manager.submit(Job(spec=None))
        assert job.wait(5)
        assert job.state == "failed"
        assert "division" in job.error
        manager.close()

    def test_runner_returning_without_finishing_fails_loudly(self):
        manager = JobManager(lambda job: None, pool_size=1)
        job = manager.submit(Job(spec=None))
        assert job.wait(5)
        assert job.state == "failed"
        assert job.error == "job runner never finished"
        manager.close()

    def test_terminal_states_are_final(self):
        job = Job(spec=None)
        assert job.mark_running()
        assert not job.mark_running()  # already running
        job.finish("done")
        job.finish("failed", error="too late")  # first terminal sticks
        assert job.state == "done" and job.error is None
        assert job.cancel() == "done"  # cancel on terminal: untouched
        with pytest.raises(ValueError):
            job.finish("running")

    def test_submit_after_close_is_rejected(self):
        manager = JobManager(lambda job: job.finish("done"), pool_size=1)
        manager.close()
        with pytest.raises(RuntimeError, match="shut down"):
            manager.submit(Job(spec=None))

    def test_pool_size_must_be_positive(self):
        with pytest.raises(ValueError):
            JobManager(lambda job: None, pool_size=0)


class TestConcurrencyContract:
    """A slow job must not delay anyone else -- the refactor's point."""

    def test_slow_job_does_not_block_reads_or_a_second_job(
        self, live_server, client, monkeypatch
    ):
        started, release = threading.Event(), threading.Event()
        real_iter_sweep = server_module.iter_sweep

        def gated(spec, **kwargs):
            if spec.points[0].workload == "RNN":
                yield from _hanging_iter_sweep(started, release)(
                    spec, **kwargs
                )
            else:
                yield from real_iter_sweep(spec, **kwargs)

        monkeypatch.setattr(server_module, "iter_sweep", gated)
        slow = client.submit_job(SLOW_SPEC)
        assert slow["state"] in ("queued", "running")
        assert started.wait(10)
        try:
            # Reads answer promptly while the slow job occupies a worker
            # (the 10s client timeout is the regression tripwire: the old
            # lock-serialized service parked these behind the sweep).
            assert client.health()["status"] == "ok"
            stats = client.stats()
            assert stats["jobs"]["running"] >= 1
            # A second small job runs to completion on the other worker.
            records, summary = client.sweep(FAST_SPEC)
            assert len(records) == 1 and summary["evaluated"] == 1
            assert client.job_status(slow["job"])["state"] == "running"
        finally:
            release.set()
        job = live_server.service.job(slow["job"])
        assert job.wait(10)

    def test_cancel_keeps_only_fully_appended_records(
        self, tmp_path, monkeypatch
    ):
        # Real engine, gated evaluation: the first chunk blocks until
        # the test has requested cancellation, so the cancel is seen at
        # the pass boundary after that chunk.
        real = engine_module.evaluate_points
        first_chunk, release = threading.Event(), threading.Event()

        def gated(chunk):
            records = real(chunk)
            if not first_chunk.is_set():
                first_chunk.set()
                release.wait(timeout=30)
            return records

        monkeypatch.setattr(engine_module, "evaluate_points", gated)
        service = SweepService(store=tmp_path / "s.sqlite")
        try:
            job = service.submit({"spec": GRID})  # one chunk of two points
            assert first_chunk.wait(10)
            response = service.cancel(job)
            assert response["cancel_requested"]
            release.set()
            assert job.wait(10)
            assert job.state == "cancelled"
            # The pass in flight when the cancel arrived was persisted
            # whole, so all of it is yielded: the job's records are
            # exactly what the store gained, with no half-written record.
            assert job.completed() == 2
            stored = service.store.load()
            assert stored == {r["hash"]: r for r in job.snapshot_records()}
            # Written straight into the store: no side files.
            assert [path.name for path in tmp_path.iterdir()] == ["s.sqlite"]
        finally:
            service.close()

    def test_overlapping_jobs_and_ingest_share_a_store(
        self, tmp_path, monkeypatch
    ):
        # Both jobs hold their first chunk at a barrier with the test
        # thread, so their appenders and the ingest write the one store
        # at the same time; every record must still land whole.
        real = engine_module.evaluate_points
        barrier = threading.Barrier(3, timeout=30)
        held: set[int] = set()

        def gated(chunk):
            records = real(chunk)
            if threading.get_ident() not in held:
                held.add(threading.get_ident())
                barrier.wait()
            return records

        def grid(workload):
            return {
                "grid": {
                    "workloads": [workload],
                    "platforms": ["tpu", "bitfusion", "bpvec"],
                    "memories": ["ddr4", "hbm2"],
                    "batches": [1, 2, 4, 8, 16, 32, 64],
                }
            }

        ingested = run_sweep(SweepSpec.from_dict(grid("AlexNet"))).records
        clear_memo()
        monkeypatch.setattr(engine_module, "evaluate_points", gated)
        service = SweepService(store=tmp_path / "s.sqlite", job_workers=2)
        try:
            jobs = [
                service.submit({"spec": grid(workload)})
                for workload in ("RNN", "LSTM")
            ]
            barrier.wait()
            assert service.ingest(ingested)["appended"] == len(ingested)
            for job in jobs:
                assert job.wait(30) and job.state == "done", job.error
            with warnings.catch_warnings():
                warnings.simplefilter("error", StoreWarning)
                stored = service.store.load()
        finally:
            service.close()
        expected = {record["hash"]: record for record in ingested}
        for job in jobs:
            expected.update((r["hash"], r) for r in job.snapshot_records())
        assert len(expected) == 3 * 42
        assert stored == expected

    def test_http_cancel_surfaces_in_stream_and_status(
        self, live_server, client, monkeypatch
    ):
        started, release = threading.Event(), threading.Event()
        monkeypatch.setattr(
            server_module,
            "iter_sweep",
            _hanging_iter_sweep(started, release),
        )
        job = client.submit_job(GRID)
        assert started.wait(10)
        response = client.cancel_job(job["job"])
        assert response["cancel_requested"]
        with pytest.raises(ServeError, match="cancelled"):
            list(client.stream_job(job["job"]))
        status = client.job_status(job["job"])
        assert status["state"] == "cancelled"
        assert client.stats()["jobs"]["cancelled"] == 1

    def test_idle_stream_emits_keepalive_blank_lines(
        self, live_server, client, monkeypatch
    ):
        from repro.serve import jobs as jobs_module

        monkeypatch.setattr(jobs_module, "STREAM_KEEPALIVE_SECONDS", 0.05)
        started, release = threading.Event(), threading.Event()
        monkeypatch.setattr(
            server_module,
            "iter_sweep",
            _hanging_iter_sweep(started, release),
        )
        job = client.submit_job(GRID)
        assert started.wait(10)
        url = f"{live_server.url}/jobs/{job['job']}/records"
        try:
            with urllib.request.urlopen(url, timeout=10) as response:
                # The job is idle, so the first line is a keepalive
                # blank -- the write that detects vanished clients.
                assert response.readline() == b"\n"
        finally:
            release.set()
        assert live_server.service.job(job["job"]).wait(10)


class TestResumableStreams:
    def test_after_returns_exactly_the_tail(self, client):
        job = client.submit_job(GRID)
        records = list(client.stream_job(job["job"]))
        assert len(records) == 2
        full_summary = client.last_summary
        # Resume past the first record: exactly the tail, same summary.
        tail = list(client.stream_job(job["job"], after=1))
        assert tail == records[1:]
        assert client.last_summary == full_summary
        # Resuming past the end yields nothing but still terminates.
        assert list(client.stream_job(job["job"], after=5)) == []
        assert client.last_summary == full_summary

    def test_negative_after_is_a_client_error(self, client):
        job = client.submit_job(GRID)
        list(client.stream_job(job["job"]))  # let it finish
        with pytest.raises(ServeError, match="400"):
            list(client.stream_job(job["job"], after=-1))

    def test_unknown_job_is_a_404_everywhere(self, client):
        with pytest.raises(ServeError, match="404"):
            client.job_status("feedbeefcafe")
        with pytest.raises(ServeError, match="404"):
            list(client.stream_job("feedbeefcafe"))
        with pytest.raises(ServeError, match="404"):
            client.cancel_job("feedbeefcafe")

    def test_job_status_carries_progress_and_frontier(self, client):
        job = client.submit_job(GRID)
        records = list(client.stream_job(job["job"]))
        status = client.job_status(job["job"])
        assert status["state"] == "done"
        assert status["progress"]["points"] == 2
        assert status["progress"]["completed"] == 2
        frontier_hashes = {r["hash"] for r in status["frontier"]}
        assert frontier_hashes <= {r["hash"] for r in records}
        listed = client.jobs()
        assert [j["job"] for j in listed] == [job["job"]]


class TestClientTimeout:
    def test_stalled_client_is_disconnected_after_the_timeout(self, tmp_path):
        # A connection that never sends its request line must be cut
        # loose after --client-timeout, not pin a handler thread
        # forever.
        server = SweepServer(
            SweepService(store=tmp_path / "s.sqlite"), client_timeout=0.3
        )
        thread = threading.Thread(
            target=lambda: server.serve_forever(poll_interval=0.02),
            daemon=True,
        )
        thread.start()
        try:
            host, port = server.server_address[:2]
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.settimeout(10)
                start = time.monotonic()
                assert sock.recv(1) == b""  # server hung up on us
                assert time.monotonic() - start < 5
            # The server still answers well-behaved clients.
            assert ServeClient(server.url).health()["status"] == "ok"
        finally:
            server.shutdown()
            server.server_close()
            server.service.close()
            thread.join(timeout=5)


class TestDetachCli:
    def test_detach_prints_the_job_id(self, capsys, live_server):
        code = main(
            [
                "dse",
                "--workload",
                "RNN",
                "--platform",
                "bpvec",
                "--memory",
                "ddr4",
                "--server",
                live_server.url,
                "--detach",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        job_id = captured.out.strip()  # just the id: scriptable
        assert job_id and "\n" not in job_id
        assert f"submitted job {job_id}" in captured.err
        client = ServeClient(live_server.url, timeout=10)
        assert client.job_status(job_id)["kind"] == "sweep"
        assert len(list(client.stream_job(job_id))) == 1

    def test_detach_requires_server(self):
        with pytest.raises(SystemExit, match="requires --server"):
            main(["dse", "--workload", "RNN", "--detach"])

    def test_detach_and_stream_are_mutually_exclusive(self, live_server):
        with pytest.raises(SystemExit, match="mutually exclusive"):
            main(
                [
                    "dse",
                    "--workload",
                    "RNN",
                    "--server",
                    live_server.url,
                    "--detach",
                    "--stream",
                ]
            )
