"""Tests for dse-launch: the local worker fleet (including warm resume
from the destination store) and the --print-cmds shard workflow."""

import json
import multiprocessing
import os
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


def _fork(monkeypatch, launch_module):
    # Forked shard processes inherit the test's monkeypatches.
    monkeypatch.setattr(
        launch_module, "_pool_context", lambda: multiprocessing.get_context("fork")
    )


def _logged_evaluate(monkeypatch, log, before=None):
    """Patch the engine's evaluator to log each evaluated hash to ``log``
    (one line per point, from whichever process evaluates it), after
    calling ``before(pass_number)`` with this process's pass count."""
    import repro.dse.engine as engine_module

    evaluate = engine_module.evaluate_points
    passes = 0

    def logged(chunk):
        nonlocal passes
        passes += 1
        if before is not None:
            before(passes)
        with open(log, "a") as handle:
            handle.write("".join(f"{point.config_hash()}\n" for point in chunk))
        return evaluate(chunk)

    monkeypatch.setattr(engine_module, "evaluate_points", logged)


def _stored(path, spec):
    by_hash = {r["hash"]: r for r in open_store(path).load().values()}
    return [by_hash.get(p.config_hash()) for p in spec.points]


class TestLaunchFleet:
    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_fleet_launch_matches_local_run(
        self, tmp_path, monkeypatch, launch_module, method
    ):
        from repro.serve import launch_fleet

        monkeypatch.setattr(
            launch_module, "_pool_context", lambda: multiprocessing.get_context(method)
        )
        spec = _spec()
        local = run_sweep(spec)
        clear_memo()  # forked shards must recompute, not inherit the memo

        dest = tmp_path / "fleet.sqlite"
        result = launch_fleet(spec, workers=2, store=dest, timeout=120)
        assert result.points == len(spec) and result.stored == 0
        assert result.workers == len(spec.chunks(2))
        assert result.requeued == 0
        assert result.store_path == dest
        assert f"; {result.workers} shard processes" in result.summary()
        assert _stored(dest, spec) == local.records

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

    def test_relaunch_resumes_warm_from_the_store(
        self, tmp_path, monkeypatch, launch_module
    ):
        from multiprocessing.process import BaseProcess

        from repro.serve import launch_fleet

        _fork(monkeypatch, launch_module)
        spec = _spec()
        local = run_sweep(spec).records
        dest = tmp_path / "fleet.sqlite"
        # A launch that died part-way left half the points behind.
        prefilled = spec.shard(0, 2)
        assert 0 < len(prefilled) < len(spec)
        run_sweep(prefilled, store=dest)
        clear_memo()  # forked shards must recompute, not inherit the memo

        log = tmp_path / "evaluated.txt"
        _logged_evaluate(monkeypatch, log)
        result = launch_fleet(spec, workers=2, store=dest, timeout=120)
        missing = spec.shard(1, 2)
        assert sorted(log.read_text().split()) == sorted(
            point.config_hash() for point in missing
        )
        assert result.points == len(missing)
        assert result.stored == len(prefilled)
        assert _stored(dest, spec) == local

        # Fully warm: no process starts, and the summary says why.
        def refuse(self):
            raise AssertionError("a shard process was started")

        monkeypatch.setattr(BaseProcess, "start", refuse)
        warm = launch_fleet(spec, workers=2, store=dest, timeout=120)
        assert (warm.workers, warm.points, warm.stored) == (0, 0, len(spec))
        assert f"0 evaluated, {len(spec)} store hits ->" in warm.summary()
        assert _stored(dest, spec) == local

    def test_fleet_launch_timeout_raises(self, tmp_path, monkeypatch):
        import repro.dse.engine as engine_module
        from repro.serve import launch_fleet

        # Forked shards inherit this patch and hang in their first pass;
        # spawned ones take longer than the timeout to start.
        monkeypatch.setattr(
            engine_module, "evaluate_points", lambda chunk: time.sleep(60)
        )
        with pytest.raises(RuntimeError, match="timed out"):
            launch_fleet(
                _spec(), workers=1, store=tmp_path / "f.sqlite", timeout=0.01
            )

    def test_dead_shard_is_rerun_warm(self, tmp_path, monkeypatch, launch_module):
        import repro.dse.engine as engine_module
        from repro.serve import launch_fleet

        _fork(monkeypatch, launch_module)
        monkeypatch.setattr(engine_module, "DEFAULT_CHUNK_SIZE", 1)
        spec = _spec()
        local = run_sweep(spec).records
        clear_memo()  # forked shards must recompute, not inherit the memo

        # The first shard process to start a second pass dies there, its
        # first pass committed; the marker file makes the hook inert in
        # every later process, the re-run included.
        marker = tmp_path / "killed"

        def kill_once(pass_number):
            if pass_number == 2:
                try:
                    os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
                except FileExistsError:
                    return
                os._exit(7)

        log = tmp_path / "evaluated.txt"
        _logged_evaluate(monkeypatch, log, before=kill_once)
        result = launch_fleet(spec, workers=2, store=tmp_path / "f.sqlite", timeout=120)
        assert marker.exists()
        assert result.requeued == 1
        assert _stored(tmp_path / "f.sqlite", spec) == local
        # The killed process's committed pass is a store hit for the
        # re-run, and no point is evaluated twice.
        assert (result.stored, result.points) == (1, len(spec) - 1)
        assert "(1 shards re-run)" in result.summary()
        evaluated = log.read_text().split()
        assert sorted(evaluated) == sorted(p.config_hash() for p in spec.points)

    def test_dead_fleet_reports_exit_codes(self, tmp_path, monkeypatch, launch_module):
        import repro.dse.engine as engine_module
        from repro.serve import launch_fleet

        _fork(monkeypatch, launch_module)
        monkeypatch.setattr(engine_module, "evaluate_points", lambda chunk: os._exit(3))
        with pytest.raises(RuntimeError, match=r"failed twice \(exit codes 3, 3\)"):
            launch_fleet(_spec(), workers=2, store=tmp_path / "f.sqlite", timeout=60)

    def test_no_server_client_or_lease_is_involved(
        self, tmp_path, monkeypatch, capsys, launch_module
    ):
        from repro.serve import ServeClient, SweepServer, launch_fleet

        _fork(monkeypatch, launch_module)

        def refuse(self, *args, **kwargs):
            raise AssertionError(f"{type(self).__name__} was built")

        for cls in (SweepServer, SweepService, ServeClient):
            monkeypatch.setattr(cls, "__init__", refuse)
        spec = _spec()
        result = launch_fleet(spec, 2, tmp_path / "lib.sqlite", timeout=120)
        assert result.points == len(open_store(tmp_path / "lib.sqlite")) == len(spec)
        argv = ["dse-launch", "--workload", "RNN", "--fleet", "2"]
        assert main([*argv, "--store", str(tmp_path / "cli.sqlite")]) == 0
        assert "6 evaluated, 0 store hits;" in capsys.readouterr().out

    def test_lookup_connection_is_closed_before_any_fork(
        self, tmp_path, monkeypatch, launch_module
    ):
        import sqlite3
        from multiprocessing.process import BaseProcess

        from repro.dse import SQLiteStore
        from repro.serve import launch_fleet

        _fork(monkeypatch, launch_module)
        connections = []
        open_connection = SQLiteStore._open

        def spy_open(self):
            connections.append(open_connection(self))
            return connections[-1]

        def is_open(connection):
            try:
                connection.total_changes
            except sqlite3.ProgrammingError:
                return False
            return True

        open_at_start = []
        start = BaseProcess.start

        def spy_start(self):
            open_at_start.append([is_open(c) for c in connections])
            return start(self)

        monkeypatch.setattr(SQLiteStore, "_open", spy_open)
        monkeypatch.setattr(BaseProcess, "start", spy_start)
        spec = _spec()
        dest = tmp_path / "f.sqlite"
        run_sweep(spec.shard(0, 2), store=dest)  # the lookup finds a file
        clear_memo()
        connections.clear()
        launch_fleet(spec, workers=2, store=dest, timeout=120)
        assert open_at_start and connections
        assert all(not any(opened) for opened in open_at_start)
        assert len(open_at_start[0]) >= 1  # the lookup ran before the fork


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
            "--store",
            str(dest),
        ]
        out = self._run(capsys, *argv)
        assert "2 evaluated, 0 store hits; 1 shard processes ->" in out
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
