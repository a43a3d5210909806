"""Crash-recovery tests that actually kill the server.

Each test SIGKILLs a real ``repro serve`` subprocess mid-flight and
restarts it against the same store + journal, asserting the restarted
server completes every accepted job and the final store is
byte-identical to an uninterrupted local run.  Evaluation here is fast
relative to HTTP polling, so the kill may land while a job is queued,
running, or already done -- the assertions are valid wherever it lands
(that is the crash-safety contract).

The hypothesis property at the bottom drives the same invariant
deterministically: replaying a journal whose job has *any* prefix of
its records already in the store never re-evaluates a config hash.
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.dse import clear_memo
from repro.dse.engine import run_sweep
from repro.dse.spec import SweepSpec
from repro.dse.sqlite_store import SQLiteStore
from repro.serve import ServeClient, ServeError, SweepService
from repro.serve.fleet import FleetWorker
from repro.serve.journal import JobJournal
from repro.serve.jobs import Job

SRC = str(Path(repro.__file__).resolve().parents[1])

BIG = {
    "grid": {
        "workloads": ["RNN", "LSTM"],
        "platforms": ["tpu", "bitfusion", "bpvec"],
        "memories": ["ddr4", "hbm2"],
        "batches": [1, 2, 4, 8, 16, 32, 64],
    }
}  # 84 points

SMALL = {
    "grid": {
        "workloads": ["RNN"],
        "platforms": ["bpvec"],
        "memories": ["ddr4"],
    }
}

WIDE = {
    "grid": {
        "workloads": ["RNN", "LSTM"],
        "platforms": ["tpu", "bpvec"],
        "memories": ["ddr4", "hbm2"],
        "batches": [1, 4, 16],
    }
}  # 24 points


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_memo()
    yield
    clear_memo()


def _canonical(records) -> list[str]:
    return sorted(json.dumps(r, sort_keys=True) for r in records)


def _silent(_message: str) -> None:
    pass


class _Server:
    """One ``repro serve`` subprocess; killable and restartable."""

    def __init__(self, store: Path, port: int = 0, extra=()):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--store",
                str(store),
                "--port",
                str(port),
                *extra,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        line = self.proc.stdout.readline()
        assert "serving DSE sweeps on http://" in line, line
        self.url = line.split(" on ", 1)[1].split(" ", 1)[0].strip()
        self.port = int(self.url.rsplit(":", 1)[1])
        # The announce precedes serve_forever(); wait for the loop.
        client = ServeClient(self.url, timeout=5.0, retries=0)
        deadline = time.time() + 10
        while True:
            try:
                client.health()
                return
            except ServeError:
                if time.time() > deadline:
                    raise
                time.sleep(0.02)

    def sigkill(self) -> None:
        self.proc.send_signal(signal.SIGKILL)
        self.proc.wait(timeout=10)

    def shutdown(self, drain: bool = True) -> int:
        try:
            ServeClient(self.url, retries=0).shutdown(drain=drain)
        except ServeError:
            pass  # the process may exit before the response flushes
        return self.proc.wait(timeout=30)

    def reap(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=10)


def _restart_same_port(store: Path, server: _Server, extra=()) -> _Server:
    """Restart on the dead server's port so live clients keep working."""
    deadline = time.time() + 10
    while True:
        try:
            return _Server(store, port=server.port, extra=extra)
        except AssertionError:
            # The dying process can hold the port for a beat.
            if time.time() > deadline:
                raise
            time.sleep(0.1)


def _wait_jobs_done(client: ServeClient, job_ids, timeout=60.0) -> dict:
    deadline = time.time() + timeout
    states = {}
    while time.time() < deadline:
        states = {jid: client.job_status(jid)["state"] for jid in job_ids}
        if all(s in ("done", "failed", "cancelled") for s in states.values()):
            return states
        time.sleep(0.05)
    raise AssertionError(f"jobs never finished: {states}")


def _local_union(*specs) -> list[dict]:
    clear_memo()
    merged: dict[str, dict] = {}
    for payload in specs:
        for record in run_sweep(
            SweepSpec.from_dict(payload), vectorize=False
        ).records:
            merged[record["hash"]] = record
    clear_memo()
    return list(merged.values())


class TestServerSigkill:
    def test_scalar_jobs_survive_sigkill(self, tmp_path):
        store = tmp_path / "crash.sqlite"
        server = _Server(store, extra=("--job-workers", "1"))
        try:
            client = ServeClient(server.url, retries=0)
            running = client.submit_job(BIG, vectorize=False)["job"]
            queued = client.submit_job(SMALL, vectorize=False)["job"]
            # Kill as soon as the first job leaves the queue (or is
            # already done -- the assertions hold wherever this lands).
            deadline = time.time() + 10
            while time.time() < deadline:
                if client.job_status(running)["state"] != "queued":
                    break
            server.sigkill()

            server = _restart_same_port(
                store, server, extra=("--job-workers", "1")
            )
            client = ServeClient(server.url, retries=0)
            recovery = client.stats()["journal"]["recovery"]
            assert recovery["prior_shutdown"] == "crash"
            states = _wait_jobs_done(client, [running, queued])
            assert set(states.values()) == {"done"}

            assert _canonical(SQLiteStore(store).load().values()) == (
                _canonical(_local_union(BIG, SMALL))
            )
            assert not list(tmp_path.glob("*.staging"))
            assert server.shutdown(drain=True) == 0
        finally:
            server.reap()

    def test_vectorized_jobs_survive_immediate_sigkill(self, tmp_path):
        store = tmp_path / "crash.sqlite"
        server = _Server(store)
        try:
            client = ServeClient(server.url, retries=0)
            job_ids = [
                client.submit_job(payload)["job"]
                for payload in (BIG, WIDE, SMALL)
            ]
            server.sigkill()  # queue likely still full

            server = _restart_same_port(store, server)
            client = ServeClient(server.url, retries=0)
            states = _wait_jobs_done(client, job_ids)
            assert set(states.values()) == {"done"}

            clear_memo()
            local = {
                record["hash"]: record
                for payload in (BIG, WIDE, SMALL)
                for record in run_sweep(SweepSpec.from_dict(payload)).records
            }
            served = client.records()
            assert _canonical(served) == _canonical(local.values())
            assert not list(tmp_path.glob("*.staging"))
            assert server.shutdown(drain=True) == 0
        finally:
            server.reap()

    def test_fleet_job_survives_sigkill_mid_sweep(self, tmp_path):
        store = tmp_path / "fleet.sqlite"
        local = _local_union(WIDE)

        server = _Server(store)
        worker = None
        thread = None
        try:
            client = ServeClient(server.url, retries=0)
            job_id = client.submit_job(WIDE, fleet={"chunks": 6})["job"]
            # Throttled worker: each chunk holds its lease a while, so
            # the kill lands while chunks are leased/unacked.
            worker = FleetWorker(
                server.url,
                name="chaos",
                poll=0.05,
                throttle=0.3,
                vectorize=False,
                reconnect_grace=30.0,
                exit_when_drained=True,
                log=_silent,
            )
            thread = threading.Thread(target=worker.run, daemon=True)
            thread.start()
            time.sleep(0.45)
            server.sigkill()

            server = _restart_same_port(store, server)
            client = ServeClient(server.url, retries=0)
            states = _wait_jobs_done(client, [job_id])
            assert states == {job_id: "done"}
            thread.join(timeout=30)
            assert not thread.is_alive()

            assert _canonical(SQLiteStore(store).load().values()) == (
                _canonical(local)
            )
            assert not list(tmp_path.glob("*.staging"))
            assert server.shutdown(drain=True) == 0
        finally:
            if worker is not None:
                worker.stop()
            if thread is not None:
                thread.join(timeout=10)
            server.reap()


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(stored=st.integers(min_value=0, max_value=24))
def test_replaying_any_journal_prefix_never_reevaluates(stored):
    """Recovery property: whatever record prefix a dead server managed
    to append, the resumed job serves exactly that prefix from the
    store and evaluates exactly the rest -- no config hash runs twice,
    and the final store matches an uninterrupted run byte for byte."""
    spec = SweepSpec.from_dict(WIDE)
    clear_memo()
    local = run_sweep(spec, vectorize=False).records
    prefix = local[:stored]

    with tempfile.TemporaryDirectory() as tmp:
        store = Path(tmp) / "store.sqlite"
        jpath = Path(tmp) / "store.sqlite.journal"
        journal = JobJournal(jpath)
        job = Job(spec=spec, vectorize=False)
        job.journal = journal
        journal.record_submit(job)
        job.mark_running()
        # The dead job streamed this prefix into the shared store.
        SQLiteStore(store).append(prefix)
        journal.close()

        clear_memo()
        service = SweepService(store=store, journal=jpath)
        try:
            recovered = service.jobs.get(job.id)
            assert recovered.wait(30)
            assert recovered.state == "done"
            assert recovered.counts["store"] == stored
            assert recovered.counts["evaluated"] == len(spec) - stored
            assert recovered.counts["memo"] == 0
            assert _canonical(SQLiteStore(store).load().values()) == (
                _canonical(local)
            )
        finally:
            service.close()
    clear_memo()
