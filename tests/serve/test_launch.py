"""Tests for dse-launch: the local worker fleet (including warm resume
from the destination store) and the --print-cmds shard workflow."""

import json
import multiprocessing
import shlex
import threading
import time

import pytest

from repro.cli import main
from repro.dse import SweepSpec, clear_memo, open_store, run_sweep
from repro.serve import (
    SweepService,
    render_commands,
    shard_commands,
    shard_store_path,
)


@pytest.fixture
def launch_module():
    import repro.serve.launch

    return repro.serve.launch


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_memo()
    yield
    clear_memo()


def _spec() -> SweepSpec:
    return SweepSpec.grid(
        workloads=("RNN",), platforms=("bpvec", "tpu"), memories=("ddr4", "hbm2")
    )


class TestShardCommands:
    def test_commands_cover_every_shard(self, tmp_path):
        commands = shard_commands("spec.json", 3, tmp_path / "dest.jsonl")
        assert len(commands) == 3
        for index, command in enumerate(commands):
            assert command[0] == "repro"
            assert f"{index}/3" in command
            assert str(shard_store_path(tmp_path / "dest.jsonl", index)) in command

    def test_no_vectorize_propagates(self, tmp_path):
        (command,) = shard_commands(
            "spec.json", 1, tmp_path / "d.jsonl", vectorize=False
        )
        assert "--no-vectorize" in command

    def test_render_commands_is_shell_quoted(self, tmp_path):
        rendered = render_commands(
            shard_commands("my spec.json", 2, tmp_path / "dest.jsonl")
        )
        lines = rendered.splitlines()
        assert len(lines) == 2
        assert "'my spec.json'" in lines[0]


class TestLaunchFleet:
    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_fleet_launch_matches_local_run(
        self, tmp_path, monkeypatch, launch_module, method
    ):
        from repro.serve import launch_fleet

        monkeypatch.setattr(
            launch_module, "_pool_context", lambda: multiprocessing.get_context(method)
        )
        # Slow the submit: a worker handed the URL before the job was
        # queued would find nothing to lease and exit as drained.
        submit = SweepService.submit

        def slow_submit(self, *args, **kwargs):
            time.sleep(0.3)
            return submit(self, *args, **kwargs)

        monkeypatch.setattr(SweepService, "submit", slow_submit)
        spec = _spec()
        local = run_sweep(spec)
        clear_memo()  # forked workers must recompute, not inherit the memo

        dest = tmp_path / "fleet.sqlite"
        result = launch_fleet(spec, workers=2, store=dest, timeout=120)
        assert result.points == len(spec)
        assert result.chunks["completed"] == result.chunks["total"]
        assert result.store_path == dest
        assert "pulled by 2 workers" in result.summary()

        merged = open_store(dest)
        by_hash = {r["hash"]: r for r in merged.load().values()}
        assert [by_hash[p.config_hash()] for p in spec.points] == local.records

    def test_threaded_caller_spawns_its_workers(
        self, tmp_path, monkeypatch, launch_module
    ):
        from repro.serve import launch_fleet

        chosen = []
        pick = launch_module._pool_context

        def spy():
            context = pick()
            chosen.append(context.get_start_method())
            return context

        monkeypatch.setattr(launch_module, "_pool_context", spy)
        spec = _spec()
        release = threading.Event()
        bystander = threading.Thread(target=release.wait, daemon=True)
        bystander.start()
        try:
            result = launch_fleet(spec, workers=1, store=tmp_path / "f.sqlite")
        finally:
            release.set()
            bystander.join(timeout=5)
        assert chosen == ["spawn"]
        assert result.points == len(open_store(tmp_path / "f.sqlite")) == len(spec)

    def test_fleet_launch_validation(self, tmp_path):
        from repro.serve import launch_fleet

        spec = _spec()
        with pytest.raises(ValueError, match="worker count"):
            launch_fleet(spec, workers=0, store=tmp_path / "f.sqlite")
        with pytest.raises(ValueError, match="no points"):
            launch_fleet(
                SweepSpec(points=()), workers=1, store=tmp_path / "f.sqlite"
            )

    def test_zero_chunks_rejected_before_any_process_starts(
        self, tmp_path, monkeypatch, launch_module
    ):
        from repro.serve import launch_fleet

        def no_processes():
            raise AssertionError("a worker context was built")

        monkeypatch.setattr(launch_module, "_pool_context", no_processes)
        spec = _spec()
        with pytest.raises(ValueError, match="chunk count"):
            launch_fleet(spec, workers=1, store=tmp_path / "f.sqlite", chunks=0)
        assert not (tmp_path / "f.sqlite").exists()

    def test_relaunch_resumes_warm_from_the_store(
        self, tmp_path, monkeypatch, launch_module
    ):
        from repro.serve import launch_fleet

        monkeypatch.setattr(
            launch_module, "_pool_context", lambda: multiprocessing.get_context("fork")
        )
        spec = _spec()
        local = run_sweep(spec).records
        dest = tmp_path / "fleet.sqlite"
        # A launch that died part-way left half the points behind.
        prefilled = spec.shard(0, 2)
        assert 0 < len(prefilled) < len(spec)
        run_sweep(prefilled, store=dest)
        clear_memo()  # forked workers must recompute, not inherit the memo

        submitted = []
        submit = SweepService.submit

        def spy(self, payload):
            submitted.append(SweepSpec.from_dict(payload["spec"]))
            return submit(self, payload)

        monkeypatch.setattr(SweepService, "submit", spy)
        result = launch_fleet(spec, workers=2, store=dest, timeout=120)
        missing = spec.shard(1, 2)
        (job_spec,) = submitted
        assert job_spec.to_dict() == missing.to_dict()
        assert result.points == len(missing)
        assert result.stored == len(prefilled)
        by_hash = {r["hash"]: r for r in open_store(dest).load().values()}
        assert [by_hash[p.config_hash()] for p in spec.points] == local

        # Fully warm: no job, no server, and the summary says why.
        warm = launch_fleet(spec, workers=2, store=dest, timeout=120)
        assert len(submitted) == 1
        assert warm.job is None and warm.points == 0
        assert warm.stored == len(spec)
        assert f"0 evaluated, {len(spec)} store hits" in warm.summary()
        by_hash = {r["hash"]: r for r in open_store(dest).load().values()}
        assert [by_hash[p.config_hash()] for p in spec.points] == local

    def test_fleet_launch_timeout_raises(self, tmp_path, monkeypatch):
        from repro.serve import launch_fleet
        from repro.serve.fleet import FleetWorker

        # Forked workers inherit this patch and hold their first lease
        # forever; spawned ones take longer than the timeout to start.
        monkeypatch.setattr(FleetWorker, "_execute", lambda self, lease: time.sleep(60))
        spec = _spec()
        with pytest.raises(RuntimeError, match="timed out"):
            launch_fleet(
                spec, workers=1, store=tmp_path / "f.sqlite", timeout=0.01
            )

    def test_idle_workers_never_sleep_out_their_poll(
        self, tmp_path, monkeypatch, launch_module
    ):
        from repro.serve import launch_fleet
        from repro.serve.fleet import FleetWorker

        # Forked, so the children inherit the slowed chunk: one worker
        # holds the only chunk for a second while the other finds
        # nothing to lease.  That one parks on the server and wakes when
        # the job ends; a poll-timer sleep would cost it ~30 s.
        monkeypatch.setattr(
            launch_module, "_pool_context", lambda: multiprocessing.get_context("fork")
        )
        execute = FleetWorker._execute

        def slow_execute(self, lease):
            time.sleep(1.0)
            return execute(self, lease)

        monkeypatch.setattr(FleetWorker, "_execute", slow_execute)
        started = time.monotonic()
        result = launch_fleet(
            _spec(), workers=2, store=tmp_path / "f.sqlite", chunks=1, poll=30,
            timeout=120,
        )
        assert result.points == len(_spec())
        assert time.monotonic() - started < 10

    def test_server_bind_failure_closes_the_service(self, tmp_path, monkeypatch):
        import repro.serve.server as server_module
        from repro.serve import launch_fleet

        def refuse(service, port=0):
            raise OSError("address in use")

        closed = []
        close = SweepService.close

        def spy(self, *args, **kwargs):
            closed.append(self)
            return close(self, *args, **kwargs)

        monkeypatch.setattr(server_module, "SweepServer", refuse)
        monkeypatch.setattr(SweepService, "close", spy)
        with pytest.raises(OSError, match="address in use"):
            launch_fleet(_spec(), workers=1, store=tmp_path / "f.sqlite")
        assert len(closed) == 1

    def test_dead_fleet_reports_exit_codes(self, tmp_path, monkeypatch, launch_module):
        from repro.serve import launch_fleet
        from repro.serve.fleet import FleetWorker

        # Forked, so the children inherit the patched worker loop.
        monkeypatch.setattr(
            launch_module, "_pool_context", lambda: multiprocessing.get_context("fork")
        )
        monkeypatch.setattr(FleetWorker, "run", lambda self: 3)
        spec = _spec()
        with pytest.raises(RuntimeError, match=r"unfinished \(exit codes 3, 3\)"):
            launch_fleet(spec, workers=2, store=tmp_path / "f.sqlite", timeout=60)


class TestCliLaunch:
    def _run(self, capsys, *argv):
        assert main(list(argv)) == 0
        return capsys.readouterr().out

    def test_print_cmds_emits_runnable_lines_and_merge_hint(
        self, capsys, tmp_path
    ):
        dest = tmp_path / "merged.jsonl"
        out = self._run(
            capsys,
            "dse-launch",
            "--workload",
            "RNN",
            "--shards",
            "3",
            "--store",
            str(dest),
            "--print-cmds",
        )
        lines = out.strip().splitlines()
        commands = [line for line in lines if not line.startswith("#")]
        assert len(commands) == 3
        assert all(line.startswith("repro dse --spec") for line in commands)
        assert lines[-1].startswith("# then: repro dse-merge")
        assert "--backend" not in lines[-1]
        # The printed spec file exists and parses back to the sweep.
        spec_file = dest.with_name(dest.name + ".spec.json")
        rebuilt = SweepSpec.from_dict(json.loads(spec_file.read_text()))
        assert len(rebuilt) == 6

    def test_print_cmds_round_trip_is_bit_identical(self, capsys, tmp_path):
        # A path with a space and a suffix the SQLite backend is not
        # sniffed from: the printed lines must quote it and carry
        # --backend through to the merge.
        spec = SweepSpec.grid(workloads=("RNN",), memories=("ddr4",))
        local = run_sweep(spec).records
        clear_memo()
        dest = tmp_path / "my out.db2"
        out = self._run(
            capsys,
            "dse-launch",
            "--workload",
            "RNN",
            "--memory",
            "ddr4",
            "--shards",
            "2",
            "--store",
            str(dest),
            "--backend",
            "sqlite",
            "--print-cmds",
        )
        *commands, hint = out.strip().splitlines()
        assert len(commands) == 2
        for line in commands:
            program, *argv = shlex.split(line)
            assert program == "repro"
            self._run(capsys, *argv)
        program, *argv = shlex.split(hint.removeprefix("# then: "))
        assert program == "repro" and argv[0] == "dse-merge"
        self._run(capsys, *argv)
        assert dest.read_bytes().startswith(b"SQLite format 3")
        by_hash = {r["hash"]: r for r in open_store(dest).load().values()}
        assert [by_hash[p.config_hash()] for p in spec.points] == local

    def test_cli_launch_end_to_end_warms_a_store(self, capsys, tmp_path):
        dest = tmp_path / "merged.sqlite"
        out = self._run(
            capsys,
            "dse-launch",
            "--workload",
            "RNN",
            "--platform",
            "bpvec",
            "--fleet",
            "2",
            "--store",
            str(dest),
        )
        assert "2 evaluated, 0 store hits;" in out
        # Only --print-cmds leaves a spec file next to the store.
        assert not dest.with_name(dest.name + ".spec.json").exists()
        clear_memo()
        warm = self._run(
            capsys,
            "dse",
            "--workload",
            "RNN",
            "--platform",
            "bpvec",
            "--store",
            str(dest),
        )
        assert "0 evaluated" in warm and "2 store hits" in warm

    def test_cli_fleet_launch_warms_a_store(self, capsys, tmp_path):
        dest = tmp_path / "fleet.sqlite"
        argv = [
            "dse-launch",
            "--workload",
            "RNN",
            "--platform",
            "bpvec",
            "--fleet",
            "1",
            "--chunks",
            "2",
            "--store",
            str(dest),
        ]
        out = self._run(capsys, *argv)
        assert "2 evaluated, 0 store hits;" in out
        assert "pulled by 1 workers" in out
        assert len(open_store(dest)) == 2
        clear_memo()
        warm = self._run(
            capsys,
            "dse",
            "--workload",
            "RNN",
            "--platform",
            "bpvec",
            "--store",
            str(dest),
        )
        assert "0 evaluated" in warm and "2 store hits" in warm
        relaunch = self._run(capsys, *argv)
        assert "0 evaluated, 2 store hits ->" in relaunch

    def test_cli_fleet_bad_spec_names_the_workload(self, tmp_path):
        bad_spec = tmp_path / "bad.json"
        bad_spec.write_text(json.dumps({"grid": {"workloads": ["VGG-99"]}}))
        with pytest.raises(SystemExit, match="VGG-99") as exc:
            main(
                [
                    "dse-launch",
                    "--spec",
                    str(bad_spec),
                    "--fleet",
                    "1",
                    "--store",
                    str(tmp_path / "f.sqlite"),
                ]
            )
        assert exc.value.code != 0

    def test_launch_without_a_mode_names_both(self, tmp_path):
        with pytest.raises(SystemExit, match="--fleet N.*--print-cmds"):
            main(
                [
                    "dse-launch",
                    "--workload",
                    "RNN",
                    "--store",
                    str(tmp_path / "f.jsonl"),
                ]
            )

    def test_cli_fleet_rejects_print_cmds(self, tmp_path):
        with pytest.raises(SystemExit, match="incompatible"):
            main(
                [
                    "dse-launch",
                    "--workload",
                    "RNN",
                    "--fleet",
                    "1",
                    "--store",
                    str(tmp_path / "f.sqlite"),
                    "--print-cmds",
                ]
            )

    def test_print_cmds_rejects_zero_shards(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "dse-launch",
                    "--workload",
                    "RNN",
                    "--shards",
                    "0",
                    "--store",
                    str(tmp_path / "m.jsonl"),
                    "--print-cmds",
                ]
            )
        assert exc.value.code != 0

    def test_empty_sweep_exits_nonzero(self, tmp_path):
        spec = tmp_path / "empty.json"
        spec.write_text(json.dumps({"points": []}))
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "dse-launch",
                    "--spec",
                    str(spec),
                    "--store",
                    str(tmp_path / "d.jsonl"),
                ]
            )
        assert exc.value.code != 0
