"""Tests for dse-launch shard orchestration: command generation, local
spawning + auto-merge, failure reporting, and posting to a server."""

import importlib
import json
import multiprocessing
import threading
import time

import pytest

from repro.cli import main
from repro.dse import SweepSpec, clear_memo, open_store, run_sweep
from repro.serve import (
    LaunchResult,
    ServeClient,
    SweepServer,
    SweepService,
    launch,
    render_commands,
    shard_commands,
    shard_store_path,
)


@pytest.fixture
def launch_module():
    # The package re-exports launch() under the module's own name, so
    # reach the module itself through importlib.
    return importlib.import_module("repro.serve.launch")


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_memo()
    yield
    clear_memo()


def _write_spec(tmp_path) -> tuple:
    spec = SweepSpec.grid(
        workloads=("RNN",), platforms=("bpvec", "tpu"), memories=("ddr4", "hbm2")
    )
    path = tmp_path / "sweep.spec.json"
    path.write_text(json.dumps(spec.to_dict()))
    return spec, path


class TestShardCommands:
    def test_commands_cover_every_shard(self, tmp_path):
        commands = shard_commands("spec.json", 3, tmp_path / "dest.jsonl")
        assert len(commands) == 3
        for index, command in enumerate(commands):
            assert command[0] == "repro"
            assert f"{index}/3" in command
            assert str(shard_store_path(tmp_path / "dest.jsonl", index)) in command

    def test_no_vectorize_and_workers_propagate(self, tmp_path):
        (command,) = shard_commands(
            "spec.json", 1, tmp_path / "d.jsonl", workers=4, vectorize=False
        )
        assert "--no-vectorize" in command
        assert command[command.index("--workers") + 1] == "4"

    def test_render_commands_is_shell_quoted(self, tmp_path):
        rendered = render_commands(
            shard_commands("my spec.json", 2, tmp_path / "dest.jsonl")
        )
        lines = rendered.splitlines()
        assert len(lines) == 2
        assert "'my spec.json'" in lines[0]


class TestLaunch:
    def test_launch_merges_shards_bit_identically(self, tmp_path):
        spec, spec_path = _write_spec(tmp_path)
        local = run_sweep(spec)

        dest = tmp_path / "merged.sqlite"
        result = launch(spec_path, 2, dest, workers=1)
        assert isinstance(result, LaunchResult)
        assert result.shards == 2
        assert result.merged_records == len(spec)
        assert result.posted is None

        merged = open_store(dest)
        by_hash = {r["hash"]: r for r in merged.load().values()}
        assert [by_hash[p.config_hash()] for p in spec.points] == local.records
        # Shard stores are cleaned up after a successful merge.
        assert not any(path.exists() for path in result.shard_paths)

    def test_keep_shards_preserves_the_per_shard_stores(self, tmp_path):
        spec, spec_path = _write_spec(tmp_path)
        result = launch(spec_path, 2, tmp_path / "merged.jsonl", keep_shards=True)
        existing = [path for path in result.shard_paths if path.exists()]
        assert existing  # at least one shard owned points and kept its store
        assert sum(len(open_store(p)) for p in existing) == len(spec)

    def test_failed_shard_raises_with_detail(self, tmp_path):
        bad_spec = tmp_path / "bad.json"
        bad_spec.write_text(json.dumps({"grid": {"workloads": ["VGG-99"]}}))
        with pytest.raises(RuntimeError, match="shard .* exited"):
            launch(bad_spec, 2, tmp_path / "merged.jsonl")

    def test_invalid_shard_count_rejected(self, tmp_path):
        _, spec_path = _write_spec(tmp_path)
        with pytest.raises(ValueError):
            launch(spec_path, 0, tmp_path / "merged.jsonl")

    def test_post_uploads_merged_records_to_a_server(
        self, tmp_path, monkeypatch, launch_module
    ):
        # A tiny chunk size forces the multi-request upload path a
        # giant merged store would take against the server's body cap.
        monkeypatch.setattr(launch_module, "POST_CHUNK_RECORDS", 3)
        server = SweepServer(SweepService(store=tmp_path / "served.sqlite"))
        thread = threading.Thread(
            target=lambda: server.serve_forever(poll_interval=0.02), daemon=True
        )
        thread.start()
        try:
            spec, spec_path = _write_spec(tmp_path)
            # Pre-existing destination records are NOT re-posted; only
            # this launch's shard delta goes up.
            dest = open_store(tmp_path / "merged.jsonl")
            dest.append([{"hash": "old" * 16, "version": 1, "metrics": {}}])
            result = launch(spec_path, 2, dest, post=server.url)
            assert result.merged_records == len(spec) + 1
            assert result.posted == len(spec)  # 4 records -> 2 requests
            assert len(server.service.store) == len(spec)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)


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
        submit = ServeClient.submit_job

        def slow_submit(self, *args, **kwargs):
            time.sleep(0.3)
            return submit(self, *args, **kwargs)

        monkeypatch.setattr(ServeClient, "submit_job", slow_submit)
        spec, _ = _write_spec(tmp_path)
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
        spec, _ = _write_spec(tmp_path)
        release = threading.Event()
        bystander = threading.Thread(target=release.wait, daemon=True)
        bystander.start()
        try:
            result = launch_fleet(spec, workers=1, store=tmp_path / "f.jsonl")
        finally:
            release.set()
            bystander.join(timeout=5)
        assert chosen == ["spawn"]
        assert result.points == len(open_store(tmp_path / "f.jsonl")) == len(spec)

    def test_fleet_launch_validation(self, tmp_path):
        from repro.serve import launch_fleet

        spec, _ = _write_spec(tmp_path)
        with pytest.raises(ValueError, match="worker count"):
            launch_fleet(spec, workers=0, store=tmp_path / "f.jsonl")
        with pytest.raises(ValueError, match="no points"):
            launch_fleet(
                SweepSpec(points=()), workers=1, store=tmp_path / "f.jsonl"
            )

    def test_fleet_launch_timeout_raises(self, tmp_path, monkeypatch):
        from repro.serve import launch_fleet
        from repro.serve.fleet import FleetWorker

        # Forked workers inherit this patch and hold their first lease
        # forever; spawned ones take longer than the timeout to start.
        monkeypatch.setattr(FleetWorker, "_execute", lambda self, lease: time.sleep(60))
        spec, _ = _write_spec(tmp_path)
        with pytest.raises(RuntimeError, match="timed out"):
            launch_fleet(
                spec, workers=1, store=tmp_path / "f.jsonl", timeout=0.01
            )

    def test_dead_fleet_reports_exit_codes(self, tmp_path, monkeypatch, launch_module):
        from repro.serve import launch_fleet
        from repro.serve.fleet import FleetWorker

        # Forked, so the children inherit the patched worker loop.
        monkeypatch.setattr(
            launch_module, "_pool_context", lambda: multiprocessing.get_context("fork")
        )
        monkeypatch.setattr(FleetWorker, "run", lambda self: 3)
        spec, _ = _write_spec(tmp_path)
        with pytest.raises(RuntimeError, match=r"unfinished \(exit codes 3, 3\)"):
            launch_fleet(spec, workers=2, store=tmp_path / "f.jsonl", timeout=60)


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
        # The printed spec file exists and parses back to the sweep.
        spec_file = dest.with_name(dest.name + ".spec.json")
        rebuilt = SweepSpec.from_dict(json.loads(spec_file.read_text()))
        assert len(rebuilt) == 6

    def test_cli_launch_end_to_end_warms_a_store(self, capsys, tmp_path):
        dest = tmp_path / "merged.jsonl"
        out = self._run(
            capsys,
            "dse-launch",
            "--workload",
            "RNN",
            "--platform",
            "bpvec",
            "--shards",
            "2",
            "--store",
            str(dest),
        )
        assert "merged 2 records" in out
        # The temp spec file is cleaned up after spawning.
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
        out = self._run(
            capsys,
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
        )
        assert "pulled by 1 workers" in out
        assert len(open_store(dest)) == 2

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
                    str(tmp_path / "f.jsonl"),
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

    def test_failed_launch_cleans_up_the_temp_spec_file(self, tmp_path):
        dest = tmp_path / "merged.jsonl"
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "dse-launch",
                    "--workload",
                    "RNN",
                    "--platform",
                    "bpvec",
                    "--memory",
                    "ddr4",
                    "--shards",
                    "1",
                    "--store",
                    str(dest),
                    "--post",
                    "http://127.0.0.1:1",  # nothing listens on port 1
                ]
            )
        assert exc.value.code != 0
        assert not dest.with_name(dest.name + ".spec.json").exists()

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


class TestFailFast:
    """A poisoned shard must surface in seconds, not after the
    surviving siblings burn to completion."""

    def _fake_commands(self, monkeypatch, launch_module, commands):
        monkeypatch.setattr(
            launch_module,
            "shard_commands",
            lambda *args, **kwargs: [list(c) for c in commands],
        )

    def test_poisoned_shard_terminates_siblings_promptly(
        self, tmp_path, monkeypatch, launch_module
    ):
        import sys

        crash = [
            sys.executable,
            "-c",
            "import sys; sys.stderr.write('poisoned shard\\n'); sys.exit(3)",
        ]
        sleeper = [sys.executable, "-c", "import time; time.sleep(60)"]
        self._fake_commands(
            monkeypatch, launch_module, [crash, sleeper, sleeper]
        )
        _, spec_path = _write_spec(tmp_path)
        dest = tmp_path / "merged.jsonl"
        # A partial store a crashed-over launch left behind must survive
        # the failure (a re-launch resumes warm from it).
        partial = shard_store_path(dest, 1)
        partial.write_text("")
        start = time.monotonic()
        with pytest.raises(RuntimeError) as failure:
            launch(spec_path, 3, dest)
        elapsed = time.monotonic() - start
        # Far less than the sleepers' 60s: they were terminated, and
        # being terminated by us they are not reported as failures.
        assert elapsed < 30
        assert "shard 0/3 exited 3: poisoned shard" in str(failure.value)
        assert "shard 1/3" not in str(failure.value)
        assert "shard 2/3" not in str(failure.value)
        assert partial.exists()

    def test_no_fail_fast_reports_every_crash(
        self, tmp_path, monkeypatch, launch_module
    ):
        import sys

        early = [
            sys.executable,
            "-c",
            "import sys; sys.stderr.write('early\\n'); sys.exit(2)",
        ]
        late = [
            sys.executable,
            "-c",
            "import sys, time; time.sleep(0.3); "
            "sys.stderr.write('late\\n'); sys.exit(5)",
        ]
        self._fake_commands(monkeypatch, launch_module, [early, late])
        _, spec_path = _write_spec(tmp_path)
        with pytest.raises(RuntimeError) as failure:
            launch(spec_path, 2, tmp_path / "merged.jsonl", fail_fast=False)
        # Every child ran to its own exit; both crashes are reported.
        assert "shard 0/2 exited 2: early" in str(failure.value)
        assert "shard 1/2 exited 5: late" in str(failure.value)
