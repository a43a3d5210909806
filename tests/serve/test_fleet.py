"""Tests for the elastic worker fleet: leases, chaos, and parity.

Three layers, mirroring the module split:

* the lease table and coordinator (:class:`FleetJob`, :class:`Fleet`)
  driven directly -- expiry, requeue, idempotent acks, capacity;
* the HTTP surface (``/workers/*`` endpoints, fleet ``POST /sweep``)
  through a live in-process server;
* end-to-end pulls: real :class:`FleetWorker` loops draining a fleet
  sweep into the server store, including a ghost worker whose lease
  must expire and requeue, bit-identical against a local run.

Plus the client-side fault-tolerance contract: transient transport
failures retry only on idempotent requests, and resumable job streams
pick up from their cursor.
"""

import contextlib
import io
import json
import threading
import time
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dse import ResultStore, SweepSpec, clear_memo, run_sweep
from repro.serve import (
    Fleet,
    FleetJob,
    FleetWorker,
    ServeClient,
    ServeError,
    SweepServer,
    SweepService,
)
from repro.serve.fleet import COMPLETED, LEASED, PENDING

GRID = {
    "grid": {
        "workloads": ["RNN", "LSTM"],
        "platforms": ["bpvec"],
        "memories": ["ddr4"],
    }
}

WIDE_GRID = {
    "grid": {
        "workloads": ["RNN", "LSTM"],
        "platforms": ["bpvec"],
        "memories": ["ddr4", "hbm2"],
        "batches": [1, 2, 4],
    }
}


def _spec(payload=GRID) -> SweepSpec:
    return SweepSpec.from_dict(payload)


def _silent(_message: str) -> None:
    pass


def _canonical(records) -> list[str]:
    return sorted(json.dumps(r, sort_keys=True) for r in records)


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_memo()
    yield
    clear_memo()


@contextlib.contextmanager
def served(service: SweepService):
    """An ephemeral-port server around ``service``, torn down cleanly."""
    server = SweepServer(service)
    thread = threading.Thread(
        target=lambda: server.serve_forever(poll_interval=0.02), daemon=True
    )
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


@pytest.fixture
def live_server(tmp_path):
    with served(SweepService(store=tmp_path / "served.sqlite")) as server:
        yield server


@pytest.fixture
def client(live_server):
    return ServeClient(live_server.url)


# ----------------------------------------------------------------------
# The lease table: FleetJob driven directly
# ----------------------------------------------------------------------
class TestFleetJob:
    def _job(self, chunks=4, payload=WIDE_GRID) -> FleetJob:
        job = FleetJob(spec=_spec(payload), chunks=chunks)
        job.mark_running()
        return job

    def test_empty_sweep_is_rejected(self):
        with pytest.raises(ValueError, match="empty sweep"):
            FleetJob(spec=SweepSpec(points=()), chunks=4)

    def test_chunks_cover_the_spec(self):
        job = self._job()
        counts = job.chunk_counts()
        assert counts[PENDING] == counts["total"] >= 2
        assert sum(len(c) for c in job._chunks) == len(job.spec)

    def test_lease_marks_chunk_and_counts_attempts(self):
        job = self._job()
        chunk = job.lease_next("w1", now=100.0, ttl=30.0)
        assert chunk.state == LEASED
        assert chunk.worker == "w1"
        assert chunk.deadline == 130.0
        assert chunk.attempts == 1
        assert job.leases_held_by("w1") == 1

    def test_lease_drains_to_none(self):
        job = self._job()
        total = job.chunk_counts()["total"]
        for _ in range(total):
            assert job.lease_next("w1", now=0.0, ttl=30.0) is not None
        assert job.lease_next("w1", now=0.0, ttl=30.0) is None

    def test_deadline_expiry_requeues(self):
        job = self._job()
        chunk = job.lease_next("w1", now=0.0, ttl=1.0)
        assert job.expire_leases(2.0, lambda w: True) == 1
        assert chunk.state == PENDING
        assert chunk.worker is None
        assert job.requeues == 1
        # The requeued chunk is leasable again, attempt 2.
        again = job.lease_next("w2", now=2.0, ttl=1.0)
        assert again is chunk
        assert again.attempts == 2

    def test_dead_worker_requeues_before_deadline(self):
        job = self._job()
        job.lease_next("ghost", now=0.0, ttl=1000.0)
        assert job.expire_leases(1.0, lambda w: w != "ghost") == 1

    def test_live_lease_is_left_alone(self):
        job = self._job()
        job.lease_next("w1", now=0.0, ttl=1000.0)
        assert job.expire_leases(1.0, lambda w: True) == 0
        assert job.leases_held_by("w1") == 1

    def test_acking_every_chunk_finishes_the_job(self):
        job = self._job()
        while (chunk := job.lease_next("w1", now=0.0, ttl=30.0)) is not None:
            outcome = job.ack_chunk(chunk.index, "w1")
            assert outcome["duplicate"] is False
        assert job.state == "done"
        progress = job.progress()
        assert progress["completed"] == progress["points"] == len(job.spec)
        assert progress["chunks"][COMPLETED] == progress["chunks"]["total"]

    def test_duplicate_ack_is_idempotent(self):
        job = self._job()
        chunk = job.lease_next("w1", now=0.0, ttl=30.0)
        first = job.ack_chunk(chunk.index, "w1")
        second = job.ack_chunk(chunk.index, "w2")
        assert first["duplicate"] is False
        assert second["duplicate"] is True
        assert chunk.completed_by == "w1"

    def test_straggler_ack_after_requeue_still_completes(self):
        # The ghost's lease expired and the chunk requeued -- but its
        # records went through the upsert, so its late ack counts.
        job = self._job()
        chunk = job.lease_next("ghost", now=0.0, ttl=1.0)
        job.expire_leases(2.0, lambda w: True)
        outcome = job.ack_chunk(chunk.index, "ghost")
        assert outcome["duplicate"] is False
        assert chunk.state == COMPLETED

    def test_unknown_chunk_ack_raises(self):
        job = self._job()
        with pytest.raises(KeyError):
            job.ack_chunk(10_000, "w1")

    def test_error_ack_fails_the_whole_job(self):
        job = self._job()
        chunk = job.lease_next("w1", now=0.0, ttl=30.0)
        job.ack_chunk(chunk.index, "w1", error="division by zero")
        assert job.state == "failed"
        assert f"chunk {chunk.index}" in job.error
        assert "division by zero" in job.error

    def test_cancel_is_immediate_and_stops_leasing(self):
        job = self._job()
        job.lease_next("w1", now=0.0, ttl=30.0)
        assert job.cancel() == "cancelled"
        assert job.lease_next("w2", now=0.0, ttl=30.0) is None
        assert job.expire_leases(1e9, lambda w: False) == 0


# ----------------------------------------------------------------------
# The coordinator: Fleet driven directly
# ----------------------------------------------------------------------
class TestFleet:
    def test_ttl_validation(self):
        with pytest.raises(ValueError):
            Fleet(lease_ttl=0.0)
        with pytest.raises(ValueError):
            Fleet(heartbeat_ttl=-1.0)

    def test_register_hands_out_heartbeat_cadence(self):
        fleet = Fleet(lease_ttl=30.0, heartbeat_ttl=9.0)
        info = fleet.register(name="box-a", capacity=2)
        assert info["lease_ttl"] == 30.0
        assert info["heartbeat_seconds"] == pytest.approx(3.0)
        assert fleet.heartbeat(info["worker"])["status"] == "ok"

    def test_bad_capacity_is_rejected(self):
        with pytest.raises(ValueError):
            Fleet().register(capacity=0)

    def test_unknown_worker_raises_key_error(self):
        fleet = Fleet()
        for call in (fleet.heartbeat, fleet.lease):
            with pytest.raises(KeyError, match="register again"):
                call("deadbeef")
        with pytest.raises(KeyError, match="register again"):
            fleet.ack("deadbeef", "j1", 0)

    def test_lease_with_no_jobs_reports_idle(self):
        fleet = Fleet()
        worker = fleet.register()["worker"]
        assert fleet.lease(worker) == {"idle": True, "active_jobs": 0}

    def test_capacity_bounds_concurrent_leases(self):
        fleet = Fleet()
        worker = fleet.register(capacity=1)["worker"]
        job = FleetJob(spec=_spec(WIDE_GRID), chunks=6)
        job.mark_running()
        fleet.add_job(job)
        first = fleet.lease(worker)
        assert "lease" in first
        second = fleet.lease(worker)
        assert second.get("idle") and second["active_jobs"] == 1
        # Acking frees the slot.
        fleet.ack(worker, job.id, first["lease"]["chunk"])
        assert "lease" in fleet.lease(worker)

    def test_lease_body_carries_a_runnable_spec(self):
        fleet = Fleet()
        worker = fleet.register()["worker"]
        job = fleet.add_job(FleetJob(spec=_spec(), chunks=1))
        job.mark_running()
        lease = fleet.lease(worker)["lease"]
        assert lease["job"] == job.id
        assert lease["attempt"] == 1
        sub = SweepSpec.from_dict(lease["spec"])
        assert len(sub) == lease["points"] == len(job.spec)

    def test_heartbeat_lapse_requeues_to_another_worker(self):
        fleet = Fleet(lease_ttl=1000.0, heartbeat_ttl=0.05)
        ghost = fleet.register(name="ghost")["worker"]
        job = fleet.add_job(FleetJob(spec=_spec(), chunks=1))
        job.mark_running()
        taken = fleet.lease(ghost)["lease"]
        time.sleep(0.1)  # the ghost stops beating
        survivor = fleet.register(name="survivor")["worker"]
        stolen = fleet.lease(survivor)["lease"]
        assert stolen["chunk"] == taken["chunk"]
        assert stolen["attempt"] == 2
        assert fleet.requeued == 1

    def test_duplicate_ack_counted_not_credited(self):
        fleet = Fleet()
        w1 = fleet.register()["worker"]
        w2 = fleet.register()["worker"]
        job = fleet.add_job(FleetJob(spec=_spec(), chunks=1))
        job.mark_running()
        lease = fleet.lease(w1)["lease"]
        fleet.ack(w1, job.id, lease["chunk"])
        fleet.ack(w2, job.id, lease["chunk"])
        stats = fleet.stats()
        assert stats["acks"] == 2
        assert stats["duplicate_acks"] == 1
        by_id = {w["worker"]: w for w in fleet.workers()}
        assert by_id[w1]["chunks_done"] == 1
        assert by_id[w2]["chunks_done"] == 0

    def test_ack_for_unknown_job_raises(self):
        fleet = Fleet()
        worker = fleet.register()["worker"]
        with pytest.raises(KeyError, match="no such fleet job"):
            fleet.ack(worker, "nope", 0)

    def test_stats_shape(self):
        fleet = Fleet()
        fleet.register()
        job = fleet.add_job(FleetJob(spec=_spec(WIDE_GRID), chunks=4))
        job.mark_running()
        stats = fleet.stats()
        assert stats["workers"] == {"registered": 1, "alive": 1}
        assert stats["jobs"] == {"active": 1, "total": 1}
        assert stats["chunks"]["total"] == stats["chunks"][PENDING] > 0


def _park(lease, *args, **kwargs):
    """Run ``lease(*args, **kwargs)`` on a thread; read the reply later.

    Returns ``(thread, reply)``: ``reply`` fills in with the lease's
    response and the monotonic instant it returned.
    """
    reply = {}

    def call():
        reply["response"] = lease(*args, **kwargs)
        reply["at"] = time.monotonic()

    thread = threading.Thread(target=call, daemon=True)
    thread.start()
    time.sleep(0.2)
    assert thread.is_alive(), "the lease did not park"
    return thread, reply


class TestParkedLease:
    def _fleet_with_held_chunk(self, **ttls):
        """A fleet whose only chunk is leased, and an idle second worker."""
        fleet = Fleet(**ttls)
        holder = fleet.register(name="holder")["worker"]
        idle = fleet.register(name="idle")["worker"]
        job = fleet.add_job(FleetJob(spec=_spec(), chunks=1))
        job.mark_running()
        taken = fleet.lease(holder)["lease"]
        return fleet, job, holder, idle, taken

    def test_last_ack_wakes_a_parked_lease(self):
        fleet, job, holder, idle, taken = self._fleet_with_held_chunk()
        thread, reply = _park(fleet.lease, idle, wait=5)
        acked_at = time.monotonic()
        fleet.ack(holder, job.id, taken["chunk"])
        thread.join(timeout=5)
        assert reply["response"] == {"idle": True, "active_jobs": 0}
        assert reply["at"] - acked_at < 1.0

    def test_requeued_chunk_goes_to_the_parked_lease(self):
        fleet, job, holder, idle, taken = self._fleet_with_held_chunk(
            lease_ttl=0.5
        )
        started = time.monotonic()
        thread, reply = _park(fleet.lease, idle, wait=5)
        thread.join(timeout=5)
        lease = reply["response"]["lease"]
        assert lease["chunk"] == taken["chunk"]
        assert lease["attempt"] == 2
        assert reply["at"] - started < 2.0
        assert fleet.requeued == 1

    def test_new_job_wakes_a_parked_lease(self):
        fleet, job, holder, idle, taken = self._fleet_with_held_chunk()
        thread, reply = _park(fleet.lease, idle, wait=5)
        added_at = time.monotonic()
        second = FleetJob(spec=_spec(), chunks=1)
        second.mark_running()
        fleet.add_job(second)
        thread.join(timeout=5)
        assert reply["response"]["lease"]["job"] == second.id
        assert reply["at"] - added_at < 1.0

    def test_wait_is_capped_at_a_third_of_the_heartbeat_ttl(self):
        fleet, job, holder, idle, taken = self._fleet_with_held_chunk(
            heartbeat_ttl=1.5
        )
        started = time.monotonic()
        # The holder keeps beating, so nothing lapses before the cap.
        assert fleet.lease(idle, wait=60) == {"idle": True, "active_jobs": 1}
        assert 0.4 < time.monotonic() - started < 1.5
        assert fleet.lease(idle, wait=-1) == {"idle": True, "active_jobs": 1}

    def test_no_active_job_never_parks(self):
        fleet = Fleet()
        worker = fleet.register()["worker"]
        started = time.monotonic()
        assert fleet.lease(worker, wait=5) == {"idle": True, "active_jobs": 0}
        assert time.monotonic() - started < 1.0

    def test_cancel_over_http_wakes_a_parked_lease(self, client):
        job = client.submit_job(GRID, fleet={"chunks": 1})
        holder = client.register_worker()["worker"]
        idle = client.register_worker()["worker"]
        assert "lease" in client.lease_chunk(holder)
        thread, reply = _park(client.lease_chunk, idle, wait=5)
        cancelled_at = time.monotonic()
        assert client.cancel_job(job["job"])["state"] == "cancelled"
        thread.join(timeout=5)
        assert reply["response"] == {"idle": True, "active_jobs": 0}
        assert reply["at"] - cancelled_at < 1.0

    def test_service_close_wakes_a_parked_lease(self, tmp_path):
        service = SweepService(store=tmp_path / "s.sqlite")
        service.submit({"spec": GRID, "fleet": {"chunks": 1}})
        holder = service.fleet.register()["worker"]
        idle = service.fleet.register()["worker"]
        assert "lease" in service.worker_lease(holder, {})
        thread, reply = _park(service.worker_lease, idle, {"wait": 5})
        closed_at = time.monotonic()
        service.close()
        thread.join(timeout=5)
        assert reply["response"] == {"idle": True, "active_jobs": 0}
        assert reply["at"] - closed_at < 1.0

    def test_lease_route_reads_the_wait_field(self, client, live_server):
        client.submit_job(GRID, fleet={"chunks": 1})
        holder = client.register_worker()["worker"]
        idle = client.register_worker()["worker"]
        assert "lease" in client.lease_chunk(holder)
        path = f"/workers/{idle}/lease"
        for bad in ("soon", [1], True):
            with pytest.raises(ServeError, match="400"):
                client._json(path, {"wait": bad})
        with pytest.raises(ServeError, match="400"):
            client._json(path, [])
        # No body, an empty object, a null or a negative wait: no parking.
        started = time.monotonic()
        bare = urllib.request.Request(live_server.url + path, data=b"")
        with urllib.request.urlopen(bare, timeout=10) as response:
            assert json.load(response) == {"idle": True, "active_jobs": 1}
        for body in ({}, {"wait": None}, {"wait": -3}):
            assert client._json(path, body) == {"idle": True, "active_jobs": 1}
        assert time.monotonic() - started < 1.0


# ----------------------------------------------------------------------
# The HTTP surface
# ----------------------------------------------------------------------
class TestFleetEndpoints:
    def test_register_then_listed_alive(self, client):
        info = client.register_worker(name="box-a", capacity=2)
        assert info["heartbeat_seconds"] > 0
        workers = client.workers()
        assert [w["worker"] for w in workers] == [info["worker"]]
        assert workers[0]["name"] == "box-a"
        assert workers[0]["capacity"] == 2
        assert workers[0]["alive"] is True
        assert client.worker_heartbeat(info["worker"])["status"] == "ok"

    def test_unknown_worker_is_404(self, client):
        for call in (
            lambda: client.worker_heartbeat("deadbeef"),
            lambda: client.lease_chunk("deadbeef"),
            lambda: client.ack_chunk("deadbeef", "j1", 0),
        ):
            with pytest.raises(ServeError, match="404") as failure:
                call()
            assert failure.value.code == 404

    def test_fleet_submit_needs_a_store(self):
        with served(SweepService(store=None)) as server:
            client = ServeClient(server.url)
            with pytest.raises(ServeError, match="400"):
                client.submit_job(GRID, fleet=True)

    def test_fleet_submit_validation(self, client):
        with pytest.raises(ServeError, match="400"):
            client.submit_job(GRID, fleet={"chunks": 0})
        with pytest.raises(ServeError, match="400"):
            client._json("/sweep", {"spec": GRID, "fleet": "yes"})

    def test_malformed_ack_is_400(self, client):
        worker = client.register_worker()["worker"]
        with pytest.raises(ServeError, match="400"):
            client._json(f"/workers/{worker}/ack", {"job": "j1"})

    def test_fleet_job_lifecycle_over_http(self, client, live_server):
        job = client.submit_job(GRID, fleet={"chunks": 2})
        assert job["kind"] == "fleet"
        assert job["state"] == "running"
        chunks = job["progress"]["chunks"]
        assert chunks[PENDING] == chunks["total"] >= 1

        worker = client.register_worker()["worker"]
        done = 0
        while True:
            response = client.lease_chunk(worker)
            lease = response.get("lease")
            if lease is None:
                break
            spec = SweepSpec.from_dict(lease["spec"])
            result = run_sweep(spec)
            client.post_records(result.records)
            ack = client.ack_chunk(worker, lease["job"], lease["chunk"])
            assert ack["duplicate"] is False
            done += 1
        assert done == chunks["total"]

        status = client.job_status(job["job"])
        assert status["state"] == "done"
        assert status["progress"]["completed"] == len(_spec())
        assert len(live_server.service.store) == len(_spec())
        stats = client.stats()["fleet"]
        assert stats["acks"] == done
        assert stats["leases_granted"] >= done

    def test_fleet_job_is_cancellable(self, client):
        job = client.submit_job(GRID, fleet=True)
        assert client.cancel_job(job["job"])["state"] == "cancelled"
        worker = client.register_worker()["worker"]
        assert client.lease_chunk(worker).get("idle")


# ----------------------------------------------------------------------
# End to end: real workers pulling over HTTP
# ----------------------------------------------------------------------
class TestFleetEndToEnd:
    def test_two_workers_drain_bit_identical(self, client, live_server):
        local = run_sweep(_spec(WIDE_GRID))
        clear_memo()  # the fleet workers must recompute, not share memo

        job = client.submit_job(WIDE_GRID, fleet={"chunks": 5})
        workers = [
            FleetWorker(
                live_server.url,
                name=f"w{i}",
                poll=0.02,
                exit_when_drained=True,
                log=_silent,
            )
            for i in range(2)
        ]
        threads = [threading.Thread(target=w.run) for w in workers]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)

        status = client.job_status(job["job"])
        assert status["state"] == "done"
        assert _canonical(client.records()) == _canonical(local.records)
        # Both workers registered; every chunk is accounted for exactly
        # once across them.
        fleet_stats = client.stats()["fleet"]
        assert fleet_stats["acks"] == status["progress"]["chunks"]["total"]
        assert sum(w.chunks_done for w in workers) == fleet_stats["acks"]

    def test_killed_worker_lease_expires_and_requeues(self, tmp_path):
        # Chaos, in-process: a ghost leases a chunk and vanishes
        # (no heartbeat, no ack).  With a short lease TTL the chunk
        # requeues and a surviving worker finishes the sweep anyway.
        service = SweepService(
            store=tmp_path / "chaos.sqlite",
            lease_ttl=0.4,
            heartbeat_ttl=0.2,
        )
        with served(service) as server:
            client = ServeClient(server.url)
            local = run_sweep(_spec(WIDE_GRID))
            clear_memo()

            job = client.submit_job(WIDE_GRID, fleet={"chunks": 4})
            ghost = client.register_worker(name="ghost")["worker"]
            taken = client.lease_chunk(ghost)["lease"]

            survivor = FleetWorker(
                server.url,
                name="survivor",
                poll=0.05,
                exit_when_drained=True,
                log=_silent,
            )
            thread = threading.Thread(target=survivor.run)
            thread.start()
            thread.join(timeout=30)
            assert not thread.is_alive()

            status = client.job_status(job["job"])
            assert status["state"] == "done"
            stats = client.stats()["fleet"]
            assert stats["requeued"] >= 1
            assert _canonical(client.records()) == _canonical(local.records)
            # The ghost's chunk went to the survivor on a second attempt.
            assert taken["attempt"] == 1

    def test_worker_reregisters_when_server_forgets(self, live_server):
        worker = FleetWorker(live_server.url, poll=0.01, log=_silent)
        first = worker.register()
        # Simulate a server restart: the registration table is empty.
        live_server.service.fleet._workers.clear()
        response = worker._lease()
        assert worker.worker_id != first
        assert response.get("idle")

    def test_poisoned_chunk_fails_the_job(self, client, live_server, monkeypatch):
        import repro.serve.fleet as fleet_module

        def boom(spec, vectorize=True):
            raise RuntimeError("poisoned evaluation")

        monkeypatch.setattr(fleet_module, "run_sweep", boom)
        job = client.submit_job(GRID, fleet=True)
        worker = FleetWorker(
            live_server.url, poll=0.01, exit_when_drained=True, log=_silent
        )
        assert worker.run() == 0
        status = client.job_status(job["job"])
        assert status["state"] == "failed"
        assert "poisoned evaluation" in status["error"]

    def test_max_chunks_bounds_a_worker(self, client, live_server):
        client.submit_job(WIDE_GRID, fleet={"chunks": 4})
        worker = FleetWorker(
            live_server.url, poll=0.01, max_chunks=1, log=_silent
        )
        assert worker.run() == 0
        assert worker.chunks_done == 1

    def test_worker_exits_1_when_it_cannot_register(self, tmp_path):
        with served(SweepService(store=tmp_path / "s.sqlite")) as server:
            url = server.url
        # The server is gone; registration cannot succeed.
        client = ServeClient(url, retries=0, backoff=0.0)
        worker = FleetWorker(url, poll=0.01, client=client, log=_silent)
        assert worker.run() == 1

    def test_worker_gives_up_on_persistent_server_errors(self, live_server):
        worker = FleetWorker(live_server.url, poll=0.01, log=_silent)

        def explode(worker_id, wait=0.0):
            raise ServeError("/lease: HTTP 500", code=500)

        worker.client.lease_chunk = explode
        assert worker.run() == 1


class TestCliFleet:
    def _dse(self, capsys, *argv):
        from repro.cli import main

        assert main(["dse", *argv]) in (0, None)
        return capsys.readouterr().out

    AXES = (
        "--workload", "RNN", "--workload", "LSTM",
        "--platform", "bpvec", "--memory", "ddr4",
    )  # fmt: skip

    def test_cli_fleet_sweep_is_bit_identical(self, capsys, live_server):
        local = self._dse(capsys, *self.AXES, "--format", "jsonl")
        clear_memo()
        worker = FleetWorker(live_server.url, poll=0.02, log=_silent)
        thread = threading.Thread(target=worker.run)
        thread.start()
        try:
            fleet = self._dse(
                capsys,
                *self.AXES,
                "--server",
                live_server.url,
                "--fleet",
                "--chunks",
                "2",
                "--format",
                "jsonl",
            )
            assert fleet == local
            # The JSON summary names the fleet job and its chunk tally.
            out = self._dse(
                capsys,
                *self.AXES,
                "--server",
                live_server.url,
                "--fleet",
                "--format",
                "json",
            )
            summary = json.loads(out)["summary"]["fleet"]
            assert summary["chunks"]["completed"] == summary["chunks"]["total"]
            # And the table tail reports the fleet shape in prose.
            out = self._dse(
                capsys, *self.AXES, "--server", live_server.url, "--fleet"
            )
            assert "fleet chunks" in out
        finally:
            worker.stop()
            thread.join(timeout=15)
        assert not thread.is_alive()

    def test_cli_fleet_detach_prints_the_job_id(
        self, capsys, client, live_server
    ):
        from repro.cli import main

        main(
            [
                "dse",
                *self.AXES,
                "--server",
                live_server.url,
                "--fleet",
                "--detach",
            ]
        )
        job_id = capsys.readouterr().out.strip().splitlines()[-1]
        assert client.job_status(job_id)["kind"] == "fleet"

    def test_cli_serve_rejects_bad_ttls(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="TTL must be positive"):
            main(
                [
                    "serve",
                    "--store",
                    str(tmp_path / "s.sqlite"),
                    "--port",
                    "0",
                    "--lease-ttl",
                    "-1",
                ]
            )


# ----------------------------------------------------------------------
# Client fault tolerance: transient retries and stream resume
# ----------------------------------------------------------------------
class TestTransientRetry:
    def _flaky(self, client, failures, error=None):
        """Patch ``_open_once`` to fail ``failures`` times, then answer."""
        error = error or ServeError("connection reset", transient=True)
        attempts = []

        def open_once(path, payload=None):
            attempts.append(path)
            if len(attempts) <= failures:
                raise error
            return io.BytesIO(b'{"ok": true}')

        client._open_once = open_once
        return attempts

    def test_idempotent_get_retries_transient_failures(self):
        client = ServeClient("http://unused", retries=3, backoff=0.0)
        attempts = self._flaky(client, failures=2)
        assert client._json("/healthz") == {"ok": True}
        assert len(attempts) == 3

    def test_retry_budget_is_bounded(self):
        client = ServeClient("http://unused", retries=2, backoff=0.0)
        attempts = self._flaky(client, failures=100)
        with pytest.raises(ServeError, match="connection reset"):
            client._json("/healthz")
        assert len(attempts) == 3  # first try + two retries

    def test_mutating_post_is_never_retried(self):
        client = ServeClient("http://unused", retries=5, backoff=0.0)
        attempts = self._flaky(client, failures=100)
        with pytest.raises(ServeError):
            client._json("/sweep", {"spec": GRID})
        assert len(attempts) == 1

    def test_http_rejections_are_never_retried(self):
        client = ServeClient("http://unused", retries=5, backoff=0.0)
        attempts = self._flaky(
            client,
            failures=100,
            error=ServeError("/x: HTTP 503", code=503),
        )
        with pytest.raises(ServeError, match="503"):
            client._json("/healthz")
        assert len(attempts) == 1

    def test_worker_acks_are_idempotent_posts(self):
        client = ServeClient("http://unused", retries=3, backoff=0.0)
        attempts = self._flaky(client, failures=1)
        assert client.ack_chunk("w1", "j1", 0) == {"ok": True}
        assert len(attempts) == 2

    def test_transient_classification(self):
        from repro.serve.client import _is_transient

        assert _is_transient(ConnectionResetError())
        assert _is_transient(TimeoutError())
        assert not _is_transient(ValueError("not a transport problem"))


class TestStreamResume:
    def test_stream_resumes_from_cursor_after_transient_drop(self):
        client = ServeClient("http://unused", retries=2, backoff=0.0)
        calls = []

        def ndjson(path, payload=None):
            calls.append(path)
            if len(calls) == 1:
                yield {"hash": "a"}
                yield {"hash": "b"}
                raise ServeError("reset mid-stream", transient=True)
            yield {"hash": "c"}
            yield {"summary": {"points": 3}}

        client._ndjson = ndjson
        records = list(client.stream_job("j1"))
        assert [r["hash"] for r in records] == ["a", "b", "c"]
        assert client.last_summary == {"points": 3}
        assert calls == ["/jobs/j1/records", "/jobs/j1/records?after=2"]

    def test_non_transient_stream_error_is_fatal(self):
        client = ServeClient("http://unused", retries=5, backoff=0.0)
        calls = []

        def ndjson(path, payload=None):
            calls.append(path)
            yield {"hash": "a"}
            raise ServeError("job j1: boom", code=500)

        client._ndjson = ndjson
        with pytest.raises(ServeError, match="boom"):
            list(client.stream_job("j1"))
        assert len(calls) == 1

    def test_resume_budget_is_bounded_without_progress(self):
        client = ServeClient("http://unused", retries=2, backoff=0.0)
        calls = []

        def ndjson(path, payload=None):
            calls.append(path)
            raise ServeError("reset", transient=True)
            yield  # pragma: no cover - makes this a generator

        client._ndjson = ndjson
        with pytest.raises(ServeError, match="reset"):
            list(client.stream_job("j1"))
        assert len(calls) == 3  # first try + two back-to-back resumes


# ----------------------------------------------------------------------
# Property: partition x order x duplication never changes the store
# ----------------------------------------------------------------------
_PROPERTY_SPEC = SweepSpec.grid(
    workloads=("RNN", "LSTM"),
    platforms=("bpvec",),
    memories=("ddr4",),
    batches=(1, 2),
)


@settings(deadline=None, max_examples=20)
@given(data=st.data())
def test_any_partition_any_order_any_duplication_is_byte_identical(
    data, tmp_path_factory
):
    """The fleet's correctness core, as an invariant.

    However a sweep is chunked, whatever order chunks complete in, and
    however many times a straggler re-executes one, ingesting the
    per-chunk records leaves the store byte-identical to the unsharded
    sweep -- the version-aware upsert absorbs every duplicate.
    """
    count = data.draw(st.integers(min_value=1, max_value=8), label="chunks")
    chunks = _PROPERTY_SPEC.chunks(count)
    order = data.draw(
        st.permutations(range(len(chunks))), label="completion order"
    )
    duplicates = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=len(chunks) - 1), max_size=4
        ),
        label="re-executions",
    )

    tmp = tmp_path_factory.mktemp("fleet-prop")
    reference = ResultStore(tmp / "reference.jsonl")
    reference.append(run_sweep(_PROPERTY_SPEC).records)

    store = ResultStore(tmp / "fleet.jsonl")
    for position in list(order) + duplicates:
        _, sub = chunks[position]
        store.append(run_sweep(sub).records)

    assert json.dumps(store.load(), sort_keys=True) == json.dumps(
        reference.load(), sort_keys=True
    )


# ----------------------------------------------------------------------
# CLI flag validation for the fleet paths
# ----------------------------------------------------------------------
class TestCliValidation:
    def test_fleet_requires_server(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="--fleet requires --server"):
            main(["dse", "--workload", "RNN", "--fleet"])

    def test_chunks_requires_fleet(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="--chunks requires --fleet"):
            main(["dse", "--workload", "RNN", "--chunks", "4"])

    def test_fleet_excludes_stream_and_shard(self):
        from repro.cli import main

        base = ["dse", "--workload", "RNN", "--server", "http://x", "--fleet"]
        with pytest.raises(SystemExit, match="cannot --stream"):
            main([*base, "--stream"])
        with pytest.raises(SystemExit, match="mutually exclusive"):
            main([*base, "--shard", "0/2"])

    def test_launch_chunks_requires_fleet(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="--chunks"):
            main(
                [
                    "dse-launch",
                    "--workload",
                    "RNN",
                    "--store",
                    str(tmp_path / "s.jsonl"),
                    "--chunks",
                    "4",
                ]
            )
