"""Tests for the crash-safe service layer: journal, recovery, drain,
admission control, and retention.

Crash states are fabricated directly (journal rows + store records on
disk, then a fresh :class:`SweepService` over them) so every recovery
variant is deterministic; the subprocess SIGKILL suite lives in
``test_crash_recovery.py``.
"""

import json
import sqlite3
import threading
import time

import pytest

from repro.dse import clear_memo
from repro.dse.engine import run_sweep
from repro.dse.spec import SweepSpec
from repro.dse.sqlite_store import SQLiteStore
from repro.serve import (
    DrainingError,
    JobJournal,
    JournalWarning,
    QueueFullError,
    ServeClient,
    ServeError,
    SweepServer,
    SweepService,
    default_journal_path,
    serve,
)
from repro.serve.jobs import DONE, QUEUED, RUNNING, Job
from repro.serve.journal import JobJournal as _JournalDirect

GRID = {
    "grid": {
        "workloads": ["RNN", "LSTM"],
        "platforms": ["bpvec"],
        "memories": ["ddr4"],
    }
}

SMALL = {
    "grid": {
        "workloads": ["RNN"],
        "platforms": ["bpvec"],
        "memories": ["ddr4"],
    }
}

# 8 points; hash-range chunking at width 4 yields several non-empty
# chunks, which the fleet-recovery tests need.
WIDE = {
    "grid": {
        "workloads": ["RNN", "LSTM"],
        "platforms": ["tpu", "bpvec"],
        "memories": ["ddr4", "hbm2"],
    }
}


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_memo()
    yield
    clear_memo()


@pytest.fixture
def paths(tmp_path):
    return tmp_path / "store.sqlite", tmp_path / "store.sqlite.journal"


def _wait_done(job, timeout=15.0):
    assert job.wait(timeout), f"job {job.id} stuck in {job.state}"
    # Terminal journal writes land just after waiters wake; settle.
    time.sleep(0.05)
    return job


def _blocked_service(store, jpath, **kwargs):
    """A service whose pool runner blocks until released (or cancelled).

    Returns ``(service, release, started)``; the runner stays
    responsive to job cancellation so fast shutdowns never stall the
    pool-join timeout.
    """
    kwargs.setdefault("job_workers", 1)
    service = SweepService(store=store, journal=jpath, **kwargs)
    release = threading.Event()
    started = threading.Event()

    def blocking_runner(job):
        started.set()
        while not release.is_set() and not job.cancel_requested():
            time.sleep(0.01)
        job.finish("cancelled" if job.cancel_requested() else DONE)

    service.jobs.runner = blocking_runner
    return service, release, started


class TestJournalSemantics:
    def test_default_journal_path_colocates(self, tmp_path):
        assert default_journal_path(tmp_path / "s.sqlite") == (
            tmp_path / "s.sqlite.journal"
        )

    def test_submit_rows_replay_in_priority_fifo_order(self, paths):
        _, jpath = paths
        journal = JobJournal(jpath)
        spec = SweepSpec.from_dict(GRID)
        submitted = []
        for priority in (10, 5, 10, 1, 5):
            job = Job(spec=spec, priority=priority)
            journal.record_submit(job)
            submitted.append((priority, job.id))
        order = [(r["priority"], r["id"]) for r in journal.jobs()]
        expected = [
            submitted[k]
            for k in sorted(
                range(len(submitted)), key=lambda k: (submitted[k][0], k)
            )
        ]
        assert order == expected
        journal.close()

    def test_resubmit_preserves_seq(self, paths):
        _, jpath = paths
        journal = JobJournal(jpath)
        spec = SweepSpec.from_dict(GRID)
        first = Job(spec=spec)
        second = Job(spec=spec)
        journal.record_submit(first)
        journal.record_submit(second)
        journal.record_submit(first)  # recovery re-journals in place
        rows = {r["id"]: r["seq"] for r in journal.jobs()}
        assert rows[first.id] < rows[second.id]
        journal.close()

    def test_transitions_journal_through_the_job(self, paths):
        _, jpath = paths
        journal = JobJournal(jpath)
        job = Job(spec=SweepSpec.from_dict(GRID))
        job.journal = journal
        journal.record_submit(job)
        job.mark_running()
        assert journal.jobs()[0]["state"] == RUNNING
        job.finish(DONE)
        row = journal.jobs()[0]
        assert row["state"] == DONE
        assert row["finished_at"] is not None
        journal.close()

    def test_cancel_flag_is_journaled_without_a_state_change(self, paths):
        _, jpath = paths
        journal = JobJournal(jpath)
        job = Job(spec=SweepSpec.from_dict(GRID))
        job.journal = journal
        journal.record_submit(job)
        job.mark_running()
        job.cancel()  # running: only the flag moves
        row = journal.jobs()[0]
        assert row["state"] == RUNNING
        assert row["cancel_requested"] == 1
        journal.close()

    def test_suspend_freezes_the_journal(self, paths):
        _, jpath = paths
        journal = JobJournal(jpath)
        job = Job(spec=SweepSpec.from_dict(GRID))
        job.journal = journal
        journal.record_submit(job)
        journal.suspend()
        job.mark_running()
        job.finish(DONE)
        assert journal.jobs()[0]["state"] == QUEUED  # pre-suspension state
        journal.close()

    def test_clean_shutdown_marker_is_consumed_once(self, paths):
        _, jpath = paths
        journal = JobJournal(jpath)
        journal.mark_clean_shutdown("drain")
        assert journal.consume_clean_shutdown()["mode"] == "drain"
        assert journal.consume_clean_shutdown() is None
        journal.close()

    def test_evict_drops_jobs_leases_and_counts(self, paths):
        _, jpath = paths
        journal = JobJournal(jpath)
        job = Job(spec=SweepSpec.from_dict(GRID))
        journal.record_submit(job)
        journal.record_lease(job.id, 0, "completed", 1)
        journal.evict([job.id])
        assert journal.jobs() == []
        assert journal.leases(job.id) == {}
        assert journal.summary()["evicted_total"] == 1
        journal.close()

    def test_transition_write_failure_warns_not_raises(self, paths):
        _, jpath = paths
        journal = JobJournal(jpath)
        job = Job(spec=SweepSpec.from_dict(GRID))
        job.journal = journal
        journal.record_submit(job)
        journal._db.close()  # simulate a dying disk/database
        with pytest.warns(JournalWarning):
            job.mark_running()
        assert job.state == RUNNING  # the job itself is unaffected

    def test_submit_write_failure_is_critical(self, paths):
        _, jpath = paths
        journal = JobJournal(jpath)
        journal._db.close()
        with pytest.raises(OSError):
            journal.record_submit(Job(spec=SweepSpec.from_dict(GRID)))

    def test_summary_counts_jobs_and_chunks(self, paths):
        _, jpath = paths
        journal = JobJournal(jpath)
        job = Job(spec=SweepSpec.from_dict(GRID))
        journal.record_submit(job)
        journal.record_lease("abc", 0, "pending", 2)
        summary = journal.summary()
        assert summary["jobs"] == {"queued": 1, "total": 1}
        assert summary["chunks"] == {"pending": 1, "total": 1}
        assert summary["clean_shutdown"] is None
        journal.close()


class TestRecovery:
    def test_fresh_journal_recovers_nothing(self, paths):
        store, jpath = paths
        service = SweepService(store=store, journal=jpath)
        info = service.recovery_info
        assert info["prior_shutdown"] is None
        assert info["recovered_queued"] == 0
        service.close()

    def test_queued_jobs_reenqueue_in_priority_fifo_order(self, paths):
        store, jpath = paths
        journal = JobJournal(jpath)
        spec = SweepSpec.from_dict(SMALL)
        ids = []
        for priority in (10, 1, 5):
            job = Job(spec=spec, priority=priority)
            journal.record_submit(job)
            ids.append((priority, job.id))
        journal.close()

        service = SweepService(store=store, journal=jpath, job_workers=1)
        assert service.recovery_info["recovered_queued"] == 3
        assert service.recovery_info["prior_shutdown"] == "crash"
        jobs = {job_id: service.jobs.get(job_id) for _, job_id in ids}
        for job in jobs.values():
            _wait_done(job)
        by_finish = sorted(ids, key=lambda t: jobs[t[1]].finished_at)
        assert [priority for priority, _ in by_finish] == [1, 5, 10]
        service.close()

    def test_running_job_resumes_without_recomputing(self, paths):
        store, jpath = paths
        spec = SweepSpec.from_dict(GRID)
        local = run_sweep(spec, vectorize=False)
        prefix = local.records[:1]

        journal = JobJournal(jpath)
        job = Job(spec=spec, vectorize=False)
        job.journal = journal
        journal.record_submit(job)
        job.mark_running()
        # The dead job streamed its first record into the shared store.
        SQLiteStore(store).append(prefix)
        journal.close()

        clear_memo()
        service = SweepService(store=store, journal=jpath)
        assert service.recovery_info["recovered_running"] == 1
        recovered = service.jobs.get(job.id)
        _wait_done(recovered)
        assert recovered.state == DONE
        # The stored prefix resolved through the store warm path; only
        # the remainder was evaluated.  Nothing ran twice.
        assert recovered.counts["store"] == 1
        assert recovered.counts["evaluated"] == len(spec) - 1
        assert SQLiteStore(store).load() == {
            r["hash"]: r for r in local.records
        }
        service.close()

    def test_old_and_submitted_spec_forms_recover_the_same_points(self, paths):
        """Rows journaled with ``to_dict()``'s explicit points (the old
        form) and rows holding the spec as the client sent it -- points
        or a grid -- replay to the same point hashes, and recovery
        re-journals each row's spec text unchanged."""
        store, jpath = paths
        spec = SweepSpec.from_dict(GRID)
        hashes = [point.config_hash() for point in spec.points]
        forms = {
            "old to_dict": {"points": [p.to_dict() for p in spec.points]},
            "submitted points": {
                "points": [
                    {"workload": w, "platform": "bpvec", "memory": "ddr4"}
                    for w in GRID["grid"]["workloads"]
                ]
            },
            "submitted grid": GRID,
        }
        journal = JobJournal(jpath)
        texts = {}
        for name, form in forms.items():
            job = Job(spec=SweepSpec.from_dict(form), job_id=f"{len(texts):x}")
            texts[job.id] = json.dumps(form, sort_keys=True)
            journal.record_submit(job, spec=form)
        journal.close()

        service = SweepService(store=store, journal=jpath)
        try:
            assert service.recovery_info["recovered_queued"] == len(forms)
            for job_id in texts:
                recovered = _wait_done(service.jobs.get(job_id))
                assert [p.config_hash() for p in recovered.spec.points] == hashes
            rows = {row["id"]: row["spec"] for row in service.journal.jobs()}
            assert rows == texts
        finally:
            service.close()

    def test_submit_journals_the_spec_as_sent(self, paths):
        store, jpath = paths
        service = SweepService(store=store, journal=jpath)
        try:
            job = _wait_done(service.submit({"spec": GRID}))
            (row,) = service.journal.jobs()
            assert row["spec"] == json.dumps(GRID, sort_keys=True)
            assert row["id"] == job.id
        finally:
            service.close()

    def test_journal_with_merged_records_column_replays(self, paths):
        """A journal written before the ``merged_records`` and
        ``workers`` columns went away still opens, journals, and
        replays its jobs; a legacy row's ``workers`` value is ignored."""
        store, jpath = paths
        legacy = sqlite3.connect(jpath)
        with legacy:
            legacy.execute(
                "CREATE TABLE jobs (id TEXT PRIMARY KEY, seq INTEGER NOT NULL,"
                " kind TEXT NOT NULL, spec TEXT, workers INTEGER,"
                " vectorize INTEGER, priority INTEGER NOT NULL DEFAULT 10,"
                " chunks INTEGER, state TEXT NOT NULL, error TEXT,"
                " cancel_requested INTEGER NOT NULL DEFAULT 0,"
                " submitted_at REAL, started_at REAL, finished_at REAL,"
                " merged_records INTEGER NOT NULL DEFAULT 0)"
            )
            legacy.execute(
                "INSERT INTO jobs (id, seq, kind, spec, workers, state,"
                " submitted_at) VALUES ('legacy', 0, 'sweep', ?, 4,"
                " 'queued', ?)",
                (json.dumps(GRID), time.time()),
            )
        legacy.close()
        journal = JobJournal(jpath)
        spec = SweepSpec.from_dict(SMALL)
        job = Job(spec=spec, vectorize=False)
        job.journal = journal
        journal.record_submit(job)
        job.mark_running()
        journal.close()

        service = SweepService(store=store, journal=jpath)
        assert service.recovery_info["recovered_running"] == 1
        assert service.recovery_info["recovered_queued"] == 1
        recovered = _wait_done(service.jobs.get(job.id))
        assert recovered.state == DONE
        assert _wait_done(service.jobs.get("legacy")).state == DONE
        assert len(SQLiteStore(store).load()) == len(SweepSpec.from_dict(GRID))
        service.close()

    def test_cancel_requested_job_recovers_cancelled(self, paths):
        store, jpath = paths
        journal = JobJournal(jpath)
        job = Job(spec=SweepSpec.from_dict(GRID))
        job.journal = journal
        journal.record_submit(job)
        job.mark_running()
        job.cancel()
        journal.close()

        service = SweepService(store=store, journal=jpath)
        assert service.recovery_info["cancelled_on_recovery"] == 1
        assert service.jobs.get(job.id).state == "cancelled"
        service.close()

    def test_terminal_jobs_recover_for_visibility(self, paths):
        store, jpath = paths
        journal = JobJournal(jpath)
        job = Job(spec=SweepSpec.from_dict(GRID))
        job.journal = journal
        journal.record_submit(job)
        job.mark_running()
        job.finish(DONE)
        journal.close()

        service = SweepService(store=store, journal=jpath)
        assert service.recovery_info["recovered_terminal"] == 1
        recovered = service.jobs.get(job.id)
        assert recovered.state == DONE
        assert recovered.status()["finished_at"] is not None
        service.close()

    def test_clean_shutdown_mode_is_reported(self, paths):
        store, jpath = paths
        service = SweepService(store=store, journal=jpath)
        job = service.submit({"spec": SMALL})
        _wait_done(job)
        service.close()  # fast path

        second = SweepService(store=store, journal=jpath)
        assert second.recovery_info["prior_shutdown"] == "fast"
        second.close()


class TestFleetRecovery:
    def _fabricate(self, store, jpath, chunks=4):
        """A fleet job journaled mid-flight: 1 chunk done, 1 leased."""
        from repro.serve.fleet import FleetJob

        spec = SweepSpec.from_dict(WIDE)
        journal = JobJournal(jpath)
        job = FleetJob(spec=spec, chunks=chunks)
        job.journal = journal
        journal.record_submit(job)
        job.mark_running()
        assert job.chunk_count >= 2
        done_chunk = job.chunk_states()[0][0]
        leased_chunk = job.chunk_states()[1][0]
        # Evaluate + ingest the first chunk's records like a worker
        # would, then journal its completion and a still-held lease on
        # the second.
        chunk_specs = dict(spec.chunks(job.chunk_partition))
        SQLiteStore(store).append(
            run_sweep(chunk_specs[done_chunk], vectorize=False).records
        )
        journal.record_lease(job.id, done_chunk, "completed", 1)
        journal.record_lease(job.id, leased_chunk, "leased", 1)
        journal.close()
        return job, spec

    def test_lease_table_rebuilds_with_leased_requeued(self, paths):
        store, jpath = paths
        job, _ = self._fabricate(store, jpath)

        service = SweepService(store=store, journal=jpath)
        info = service.recovery_info
        assert info["recovered_fleet"] == 1
        assert info["requeued_chunks"] == 1
        recovered = service.jobs.get(job.id)
        assert recovered.state == RUNNING
        counts = recovered.chunk_counts()
        assert counts["completed"] == 1
        assert counts["leased"] == 0
        assert counts["pending"] == counts["total"] - 1
        service.close()

    def test_recovered_fleet_job_drains_to_local_result(self, paths):
        store, jpath = paths
        job, spec = self._fabricate(store, jpath)
        clear_memo()
        local = {
            r["hash"]: r for r in run_sweep(spec, vectorize=False).records
        }

        clear_memo()
        service = SweepService(store=store, journal=jpath)
        recovered = service.jobs.get(job.id)
        worker_id = service.fleet.register(name="t")["worker"]
        while True:
            response = service.fleet.lease(worker_id)
            lease = response.get("lease")
            if lease is None:
                break
            chunk_spec = SweepSpec.from_dict(lease["spec"])
            service.ingest(run_sweep(chunk_spec, vectorize=False).records)
            service.fleet.ack(worker_id, lease["job"], lease["chunk"])
        _wait_done(recovered)
        assert recovered.state == DONE
        assert SQLiteStore(store).load() == local
        service.close()

    def test_fully_acked_fleet_job_recovers_done(self, paths):
        store, jpath = paths
        from repro.serve.fleet import FleetJob

        spec = SweepSpec.from_dict(SMALL)
        journal = JobJournal(jpath)
        job = FleetJob(spec=spec, chunks=2)
        journal.record_submit(job)
        for index, _, _ in job.chunk_states():
            journal.record_lease(job.id, index, "completed", 1)
        journal.close()

        service = SweepService(store=store, journal=jpath)
        assert service.jobs.get(job.id).state == DONE
        service.close()


class TestAdmissionControl:
    def test_queue_full_rejects_with_retry_after(self, paths):
        store, jpath = paths
        service, release, started = _blocked_service(
            store, jpath, max_queue_depth=1
        )
        service.submit({"spec": SMALL})  # runs (blocked)
        assert started.wait(5)
        service.submit({"spec": SMALL})  # queued: at the bound
        with pytest.raises(QueueFullError) as excinfo:
            service.submit({"spec": SMALL})
        assert excinfo.value.retry_after > 0
        assert service.rejected_jobs == 1
        assert service.stats()["admission"]["rejected"] == 1
        release.set()
        service.close()

    def test_http_429_carries_retry_after_and_client_retries(self, paths):
        store, jpath = paths
        service, release, started = _blocked_service(
            store, jpath, max_queue_depth=1
        )
        server = SweepServer(service)
        thread = threading.Thread(
            target=lambda: server.serve_forever(poll_interval=0.02),
            daemon=True,
        )
        thread.start()
        try:
            client = ServeClient(server.url, retries=0, backoff=0.05)
            client.submit_job(SMALL)
            assert started.wait(5)
            client.submit_job(SMALL)
            with pytest.raises(ServeError) as excinfo:
                client.submit_job(SMALL)
            assert excinfo.value.code == 429
            assert excinfo.value.retry_after > 0
            # With retries, the client waits out the 429: release the
            # pool shortly before its retry lands.
            retrier = ServeClient(server.url, retries=4, backoff=0.05)
            threading.Timer(0.3, release.set).start()
            status = retrier.submit_job(SMALL)
            assert status["state"] in ("queued", "running")
        finally:
            release.set()
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
            service.close()

    def test_fleet_jobs_are_exempt_from_queue_depth(self, paths):
        store, jpath = paths
        service, release, started = _blocked_service(
            store, jpath, max_queue_depth=1
        )
        service.submit({"spec": SMALL})
        assert started.wait(5)
        service.submit({"spec": SMALL})  # at the bound
        job = service.submit({"spec": GRID, "fleet": True})  # still admitted
        assert job.kind == "fleet"
        release.set()
        service.close()


class TestDrainAndShutdown:
    def test_drain_waits_for_running_jobs(self, paths):
        store, jpath = paths
        service, release, started = _blocked_service(store, jpath)
        job = service.submit({"spec": GRID})
        assert started.wait(5)
        threading.Timer(0.3, release.set).start()
        outcome = service.drain(timeout=15.0)
        assert job.state == DONE
        assert outcome["drained"] == 1
        assert outcome["cancelled"] == 0
        with pytest.raises(DrainingError):
            service.submit({"spec": SMALL})

        second = SweepService(store=store, journal=jpath)
        assert second.recovery_info["prior_shutdown"] == "drain"
        second.close()

    def test_fast_close_keeps_resumable_states(self, paths):
        store, jpath = paths
        service, release, started = _blocked_service(store, jpath)
        running = service.submit({"spec": SMALL})
        assert started.wait(5)
        queued = service.submit({"spec": GRID})
        service.close()  # fast: cancels live jobs, suspends the journal
        release.set()

        journal = JobJournal(jpath)
        states = {r["id"]: r["state"] for r in journal.jobs()}
        journal.close()
        assert states[running.id] == RUNNING  # pre-shutdown states kept
        assert states[queued.id] == QUEUED

        second = SweepService(store=store, journal=jpath)
        info = second.recovery_info
        assert info["prior_shutdown"] == "fast"
        assert info["recovered_running"] == 1
        assert info["recovered_queued"] == 1
        for job_id in (running.id, queued.id):
            _wait_done(second.jobs.get(job_id))
        second.close()

    def test_http_drain_shutdown_stops_admission_and_exits(self, paths):
        store, jpath = paths
        exited = threading.Event()
        codes = []
        servers = []

        def run():
            codes.append(
                serve(
                    store=store,
                    journal=jpath,
                    drain_timeout=10.0,
                    announce=lambda _msg: None,
                    ready=servers.append,
                )
            )
            exited.set()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        deadline = time.time() + 5
        while not servers and time.time() < deadline:
            time.sleep(0.01)
        client = ServeClient(servers[0].url)
        client.submit_job(GRID)
        assert client.shutdown(drain=True)["status"] == "draining"
        assert exited.wait(15)
        assert codes == [0]
        thread.join(timeout=5)

        journal = JobJournal(jpath)
        summary = journal.summary()
        journal.close()
        assert summary["clean_shutdown"]["mode"] == "drain"
        assert summary["jobs"].get("done", 0) >= 1


class TestRetention:
    def test_retention_count_evicts_oldest_terminal(self, paths):
        store, jpath = paths
        service = SweepService(store=store, journal=jpath, job_retention=2)
        jobs = [service.submit({"spec": SMALL}) for _ in range(3)]
        for job in jobs:
            _wait_done(job)
        service.submit({"spec": SMALL})  # the submit tick evicts
        counts = service.jobs.counts()
        assert counts["total"] <= 4
        assert service.evicted_jobs >= 1
        journal = JobJournal(jpath)
        assert journal.summary()["evicted_total"] >= 1
        journal.close()
        service.close()

    def test_job_ttl_evicts_old_terminal_jobs(self, paths):
        store, jpath = paths
        service = SweepService(store=store, journal=jpath, job_ttl=3600.0)
        job = service.submit({"spec": SMALL})
        _wait_done(job)
        service.stats()
        assert service.jobs.get(job.id) is not None  # fresh: kept
        with job._changed:
            job.finished_at = time.time() - 7200.0
        service.stats()
        assert service.jobs.get(job.id) is None
        assert service.evicted_jobs == 1
        service.close()

    def test_live_jobs_are_never_evicted(self, paths):
        store, jpath = paths
        service, release, started = _blocked_service(
            store, jpath, job_retention=1, job_ttl=0.001
        )
        job = service.submit({"spec": SMALL})
        assert started.wait(5)
        service.stats()
        assert service.jobs.get(job.id) is not None
        release.set()
        service.close()


class TestInspectJournal:
    def test_cli_inspect_journal_prints_summary(self, paths, capsys):
        from repro.cli import main

        store, jpath = paths
        service = SweepService(store=store, journal=jpath)
        _wait_done(service.submit({"spec": SMALL}))
        service.close()

        assert (
            main(
                ["serve", "--store", str(store), "--inspect-journal"]
            )
            or 0
        ) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["jobs"]["done"] == 1
        assert summary["clean_shutdown"]["mode"] == "fast"
        assert summary["path"] == str(jpath)

    def test_inspect_journal_requires_a_journal(self, paths):
        from repro.cli import main

        with pytest.raises(SystemExit, match="inspect-journal"):
            main(["serve", "--inspect-journal"])

    def test_journal_and_no_journal_conflict(self, paths):
        from repro.cli import main

        store, jpath = paths
        with pytest.raises(SystemExit, match="exclusive"):
            main(
                [
                    "serve",
                    "--store",
                    str(store),
                    "--journal",
                    str(jpath),
                    "--no-journal",
                    "--inspect-journal",
                ]
            )


def test_journal_reexport_is_the_journal_module():
    assert JobJournal is _JournalDirect
