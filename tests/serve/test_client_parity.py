"""End-to-end parity: ``repro dse --server`` == local ``run_sweep``.

The acceptance criterion for the served system: a sweep submitted
through the HTTP client yields records bit-identical (same config
hashes, cycles, energy) to a local run -- through the Python API and
through the CLI, for plain grids and policy axes alike.
"""

import json
import threading

import pytest

from repro.cli import main
from repro.dse import SweepSpec, clear_memo, run_sweep
from repro.serve import ServeClient, SweepServer, SweepService


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
    thread.join(timeout=5)


def _spec() -> SweepSpec:
    return SweepSpec.grid(
        workloads=("RNN", "LSTM"),
        platforms=("bpvec", "tpu"),
        memories=("ddr4", "hbm2"),
        policies=("homogeneous-8bit", "uniform-4x4"),
        batches=(1, 4),
    )


class TestWireFormat:
    def test_spec_round_trips_with_identical_hashes(self):
        spec = _spec()
        rebuilt = SweepSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert [p.config_hash() for p in rebuilt.points] == [
            p.config_hash() for p in spec.points
        ]
        assert rebuilt.points == spec.points

    def test_grid_ships_its_axes_and_derived_specs_ship_points(self):
        spec = _spec()
        assert set(spec.to_dict()) == {"grid"}
        grid = json.dumps(spec.to_dict())
        points = json.dumps({"points": [p.to_dict() for p in spec.points]})
        assert len(grid) < 2048 < len(points)
        shard = spec.shard(0, 2)
        assert set(shard.to_dict()) == {"points"}
        rebuilt = SweepSpec.from_dict(shard.to_dict())
        assert rebuilt.points == shard.points

    def test_grid_a_json_round_trip_would_change_ships_points(self):
        import dataclasses

        from repro.hw import DDR4

        odd = dataclasses.replace(DDR4, bandwidth_gb_s=float("nan"))
        spec = SweepSpec.grid(workloads=["RNN"], platforms=["bpvec"], memories=[odd])
        assert set(spec.to_dict()) == {"points"}
        rebuilt = SweepSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert [p.config_hash() for p in rebuilt.points] == [
            p.config_hash() for p in spec.points
        ]

    def test_gpu_points_round_trip(self):
        from repro.dse import resolve_gpu, SweepPoint

        point = SweepPoint(
            workload="LSTM", gpu=resolve_gpu("rtx-2080-ti"), gpu_precision=4
        )
        rebuilt = SweepSpec.from_dict({"points": [point.to_dict()]})
        assert rebuilt.points[0].config_hash() == point.config_hash()


class TestApiParity:
    def test_served_records_bit_identical_to_local(self, live_server):
        spec = _spec()
        local = run_sweep(spec)

        clear_memo()  # the server evaluates from cold in this process
        client = ServeClient(live_server.url)
        served, summary = client.sweep(spec.to_dict())
        assert summary["evaluated"] == len(spec)

        by_hash = {record["hash"]: record for record in served}
        reordered = [by_hash[p.config_hash()] for p in spec.points]
        assert reordered == local.records  # bit-identical, all fields

    def test_completion_order_streaming_covers_the_sweep(self, live_server):
        spec = _spec()
        client = ServeClient(live_server.url)
        seen = [record["hash"] for record in client.submit(spec.to_dict())]
        assert set(seen) == {p.config_hash() for p in spec.points}
        assert len(seen) == len(set(seen))  # one record per unique config


class TestCliParity:
    def _run(self, capsys, *argv):
        assert main(list(argv)) == 0
        return capsys.readouterr().out

    def test_cli_server_mode_output_is_byte_identical(self, capsys, live_server):
        argv = (
            "dse",
            "--workload",
            "RNN",
            "--workload",
            "LSTM",
            "--policy",
            "paper-heterogeneous",
            "--format",
            "jsonl",
        )
        local = self._run(capsys, *argv)
        clear_memo()
        served = self._run(capsys, *argv, "--server", live_server.url)
        assert served == local

    def test_cli_grid_submission_body_is_small(
        self, capsys, live_server, monkeypatch
    ):
        import urllib.request

        bodies = []
        urlopen = urllib.request.urlopen

        def spy(request, *args, **kwargs):
            if request.full_url.endswith("/sweep"):
                bodies.append(request.data)
            return urlopen(request, *args, **kwargs)

        monkeypatch.setattr(urllib.request, "urlopen", spy)
        argv = ["dse", "--format", "jsonl", "--server", live_server.url]
        argv += ["--policy", "homogeneous-8bit", "--policy", "uniform-4x4"]
        for batch in ("1", "2", "4", "8"):
            argv += ["--batch", batch]
        out = self._run(capsys, *argv)
        # 6 workloads x 3 platforms x 2 memories x 2 policies x 4 batches.
        assert len(out.splitlines()) == 288
        (body,) = bodies
        assert len(body) < 2048
        assert set(json.loads(body)["spec"]) == {"grid"}

    def test_cli_server_mode_table_reports_server_tiers(
        self, capsys, live_server
    ):
        argv = ("dse", "--workload", "RNN", "--server", live_server.url)
        cold = self._run(capsys, *argv)
        assert "6 evaluated" in cold
        warm = self._run(capsys, *argv)
        # Tier counts come from the server's caches, not the client's.
        assert "0 evaluated" in warm
        assert "6 memo hits" in warm or "6 store hits" in warm

    def test_cli_server_stream_mode(self, capsys, live_server):
        out = self._run(
            capsys,
            "dse",
            "--workload",
            "RNN",
            "--server",
            live_server.url,
            "--stream",
        )
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert len(records) == 6
        assert all("metrics" in r for r in records)

    def test_cli_server_json_format_carries_summary(self, capsys, live_server):
        out = self._run(
            capsys,
            "dse",
            "--workload",
            "RNN",
            "--platform",
            "bpvec",
            "--memory",
            "ddr4",
            "--server",
            live_server.url,
            "--format",
            "json",
        )
        payload = json.loads(out)
        assert payload["count"] == 1
        assert payload["summary"]["evaluated"] == 1

    def test_server_and_store_are_mutually_exclusive(self, live_server):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "dse",
                    "--workload",
                    "RNN",
                    "--server",
                    live_server.url,
                    "--store",
                    "x.jsonl",
                ]
            )
        assert exc.value.code != 0

    def test_unset_engine_flags_defer_to_the_server(self):
        # Flags the user did not pass are omitted from the request, so
        # a server started with --no-vectorize keeps its own
        # defaults instead of being overridden by client defaults.
        from repro.cli import _server_options, build_parser

        args = build_parser().parse_args(["dse", "--server", "http://x"])
        assert _server_options(args) == {}
        args = build_parser().parse_args(
            ["dse", "--server", "http://x", "--no-vectorize"]
        )
        assert _server_options(args) == {"vectorize": False}

    def test_empty_spec_errors_like_local_mode(self, tmp_path, live_server):
        spec = tmp_path / "empty.json"
        spec.write_text(json.dumps({"points": []}))
        with pytest.raises(SystemExit) as local:
            main(["dse", "--spec", str(spec)])
        with pytest.raises(SystemExit) as served:
            main(["dse", "--spec", str(spec), "--server", live_server.url])
        assert local.value.code != 0 and served.value.code != 0

    def test_unreachable_server_exits_nonzero(self):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "dse",
                    "--workload",
                    "RNN",
                    "--server",
                    "http://127.0.0.1:1",  # nothing listens on port 1
                ]
            )
        assert exc.value.code != 0
