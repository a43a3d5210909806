"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.dse import clear_memo


def run(capsys, *argv):
    code = main(list(argv))
    assert code == 0
    return capsys.readouterr().out


class TestPaperCommands:
    def test_table1(self, capsys):
        out = run(capsys, "table1")
        assert "AlexNet" in out and "LSTM" in out

    def test_table2(self, capsys):
        out = run(capsys, "table2")
        assert "BPVeC" in out and "RTX 2080 TI" in out

    def test_fig4(self, capsys):
        out = run(capsys, "fig4")
        assert "2-bit" in out and "1-bit" in out

    def test_fig5(self, capsys):
        out = run(capsys, "fig5")
        assert "GEOMEAN" in out

    def test_fig9(self, capsys):
        out = run(capsys, "fig9")
        assert "homogeneous" in out and "heterogeneous" in out

    def test_chips(self, capsys):
        out = run(capsys, "chips")
        assert "mm^2" in out


class TestSimulateCommand:
    def test_simulate_basic(self, capsys):
        out = run(capsys, "simulate", "--model", "LSTM")
        assert "LSTM on BPVeC" in out
        assert "lstm1" in out

    def test_simulate_platform_memory_flags(self, capsys):
        out = run(
            capsys,
            "simulate",
            "--model",
            "resnet-18",  # case-insensitive
            "--platform",
            "tpu",
            "--memory",
            "hbm2",
            "--batch",
            "1",
        )
        assert "TPU-like" in out and "HBM2" in out

    def test_simulate_heterogeneous(self, capsys):
        out = run(
            capsys, "simulate", "--model", "AlexNet", "--batch", "1", "--heterogeneous"
        )
        assert "4x4" in out and "8x8" in out

    def test_unknown_model(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--model", "VGG-99"])


class TestRooflineCommand:
    def test_roofline_output(self, capsys):
        out = run(capsys, "roofline", "--model", "LSTM", "--memory", "ddr4")
        assert "ridge point" in out
        assert "MACs/byte" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_platform(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["simulate", "--model", "LSTM", "--platform", "gpu"]
            )


class TestDseCommand:
    def test_default_table_output(self, capsys):
        out = run(capsys, "dse", "--workload", "LSTM", "--workload", "RNN")
        lines = out.strip().splitlines()
        assert lines[0].split() == [
            "Workload", "Platform", "Memory", "Policy", "Batch",
            "Time", "(ms)", "Energy", "(mJ)", "GOPS/W",
        ]
        # 2 workloads x 3 platforms x 2 memories, plus header/rule/summary.
        assert sum("LSTM" in line or "RNN" in line for line in lines) == 12
        assert "12 points" in lines[-1]

    def test_jsonl_output_parses(self, capsys):
        out = run(
            capsys, "dse", "--workload", "LSTM", "--platform", "bpvec",
            "--memory", "ddr4", "--format", "jsonl",
        )
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert len(records) == 1
        assert records[0]["workload"] == "LSTM"
        assert "total_seconds" in records[0]["metrics"]

    def test_no_vectorize_bit_identical(self, capsys):
        argv = (
            "dse", "--workload", "LSTM", "--workload", "AlexNet",
            "--policy", "paper-heterogeneous", "--format", "jsonl",
        )
        clear_memo()
        vectorized = run(capsys, *argv)
        clear_memo()
        scalar = run(capsys, *argv, "--no-vectorize")
        assert scalar == vectorized

    def test_store_warm_rerun(self, capsys, tmp_path):
        store = tmp_path / "results.jsonl"
        argv = (
            "dse",
            "--workload",
            "RNN",
            "--platform",
            "tpu",
            "--memory",
            "hbm2",
            "--store",
            str(store),
        )
        clear_memo()
        cold = run(capsys, *argv)
        assert "1 evaluated" in cold
        clear_memo()
        warm = run(capsys, *argv)
        assert "0 evaluated" in warm and "1 store hits" in warm
        assert store.exists()

    def test_spec_file(self, capsys, tmp_path):
        spec = tmp_path / "sweep.json"
        spec.write_text(
            json.dumps(
                {
                    "grid": {
                        "workloads": ["LSTM"],
                        "platforms": ["bpvec"],
                        "memories": ["ddr4", "hbm2"],
                        "policies": ["uniform-4x4"],
                    }
                }
            )
        )
        out = run(capsys, "dse", "--spec", str(spec), "--format", "jsonl")
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert {r["memory"] for r in records} == {"DDR4", "HBM2"}
        assert all(r["policy"] == "uniform-4x4" for r in records)

    def test_pareto_filter(self, capsys):
        out = run(capsys, "dse", "--workload", "LSTM", "--pareto", "--format", "jsonl")
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert 1 <= len(records) <= 6

    def test_top_k(self, capsys):
        out = run(
            capsys,
            "dse",
            "--workload",
            "LSTM",
            "--top-k",
            "2",
            "--objective",
            "perf_per_watt",
            "--sense",
            "max",
            "--format",
            "jsonl",
        )
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert len(records) == 2
        assert (
            records[0]["metrics"]["perf_per_watt"]
            >= records[1]["metrics"]["perf_per_watt"]
        )

    def test_unknown_workload_exits_nonzero(self):
        with pytest.raises(SystemExit) as exc:
            main(["dse", "--workload", "VGG-99"])
        assert exc.value.code != 0

    def test_missing_spec_file_exits_nonzero(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["dse", "--spec", str(tmp_path / "absent.json")])
        assert exc.value.code != 0

    @pytest.mark.parametrize(
        "content",
        [
            "not json",
            '"grid"',
            json.dumps(
                {
                    "points": [
                        {
                            "workload": "LSTM",
                            "platform": {"bogus": 1},
                            "memory": "ddr4",
                        }
                    ]
                }
            ),
        ],
        ids=["malformed", "non-object", "bad-platform-fields"],
    )
    def test_bad_spec_contents_exit_cleanly(self, tmp_path, content):
        spec = tmp_path / "bad.json"
        spec.write_text(content)
        with pytest.raises(SystemExit) as exc:
            main(["dse", "--spec", str(spec)])
        assert exc.value.code != 0

    def test_rejects_unknown_platform_choice(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dse", "--platform", "gpu"])


class TestPolicyAxisFlag:
    def _axis_file(self, tmp_path):
        axis = tmp_path / "policies.json"
        axis.write_text(
            json.dumps(
                [
                    "homogeneous-8bit",
                    {"layers": [[8, 8], [4, 4]], "label": "searched"},
                    [[2, 2], [2, 2]],
                ]
            )
        )
        return axis

    def test_policy_axis_file_expands_policy_axis(self, capsys, tmp_path):
        out = run(
            capsys,
            "dse",
            "--workload",
            "RNN",
            "--platform",
            "bpvec",
            "--memory",
            "ddr4",
            "--policy-axis",
            str(self._axis_file(tmp_path)),
            "--format",
            "jsonl",
        )
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert [r["policy"] for r in records] == [
            "homogeneous-8bit",
            "perlayer-8x8-4x4",
            "perlayer-2x2-2x2",
        ]

    def test_policy_spelling_variants_deduplicate(self, capsys, tmp_path):
        # "Homogeneous-8BIT" via --policy and "homogeneous-8bit" via the
        # axis file are one axis value, not two duplicate sweep points.
        axis = tmp_path / "axis.json"
        axis.write_text(json.dumps(["homogeneous-8bit"]))
        out = run(
            capsys,
            "dse",
            "--workload",
            "RNN",
            "--platform",
            "bpvec",
            "--memory",
            "ddr4",
            "--policy",
            "Homogeneous-8BIT",
            "--policy-axis",
            str(axis),
            "--format",
            "jsonl",
        )
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert len(records) == 1

    def test_mismatched_per_layer_policy_exits_upfront(self, tmp_path):
        axis = tmp_path / "axis.json"
        axis.write_text(json.dumps([[[8, 8], [4, 4]]]))  # 2-layer policy
        with pytest.raises(SystemExit) as exc:
            main(["dse", "--workload", "LSTM", "--policy-axis", str(axis)])
        assert exc.value.code != 0

    def test_policy_axis_rejected_with_spec(self, tmp_path):
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps({"grid": {"workloads": ["RNN"]}}))
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "dse",
                    "--spec",
                    str(spec),
                    "--policy-axis",
                    str(self._axis_file(tmp_path)),
                ]
            )
        assert exc.value.code != 0

    @pytest.mark.parametrize("content", ["[]", '"name"', "{}"])
    def test_bad_axis_file_exits_nonzero(self, tmp_path, content):
        axis = tmp_path / "bad.json"
        axis.write_text(content)
        with pytest.raises(SystemExit) as exc:
            main(["dse", "--workload", "RNN", "--policy-axis", str(axis)])
        assert exc.value.code != 0


class TestQuantDseCommand:
    _ARGS = (
        "quant-dse",
        "--workload",
        "RNN",
        "--platform",
        "tpu",
        "--platform",
        "bpvec",
        "--memory",
        "ddr4",
        "--max-drop",
        "0.0",
        "--max-drop",
        "0.05",
    )

    def test_end_to_end_frontier_is_dominated_free(self, capsys):
        """Sensitivity search -> policy axis -> sweep -> Pareto query."""
        out = run(capsys, *self._ARGS, "--format", "jsonl")
        records = [json.loads(line) for line in out.strip().splitlines()]
        # Generated policies went through the sweep as a first-class axis.
        assert all(r["policy"].startswith("perlayer-") for r in records)
        assert all("accuracy" in r["metrics"] for r in records)

        capsys.readouterr()
        frontier_out = run(capsys, *self._ARGS, "--format", "jsonl", "--frontier-only")
        frontier = [json.loads(line) for line in frontier_out.strip().splitlines()]
        assert frontier
        hashes = {r["hash"] for r in records}
        assert {r["hash"] for r in frontier} <= hashes

        def vec(record):
            return (
                record["metrics"]["total_seconds"],
                -record["metrics"]["accuracy"],
            )

        for a in frontier:  # no frontier member dominated by any record
            assert not any(
                all(x <= y for x, y in zip(vec(b), vec(a)))
                and any(x < y for x, y in zip(vec(b), vec(a)))
                for b in records
            )

    def test_vectorized_matches_scalar_byte_identical(self, capsys):
        clear_memo()
        vectorized = run(capsys, *self._ARGS, "--format", "jsonl")
        clear_memo()
        scalar = run(capsys, *self._ARGS, "--format", "jsonl", "--no-vectorize")
        assert scalar == vectorized

    def test_table_output_marks_frontier(self, capsys):
        out = run(capsys, *self._ARGS)
        assert "Searched bitwidth policies" in out
        assert "Pareto frontier" in out
        assert "*" in out
        assert "frontier keeps" in out

    def test_store_reuse_across_runs(self, capsys, tmp_path):
        store = tmp_path / "quant.jsonl"
        clear_memo()
        cold = run(capsys, *self._ARGS, "--store", str(store))
        assert "0 store hits" in cold
        clear_memo()
        warm = run(capsys, *self._ARGS, "--store", str(store))
        assert "0 evaluated" in warm

    def test_unknown_workload_exits_nonzero(self):
        with pytest.raises(SystemExit) as exc:
            main(["quant-dse", "--workload", "VGG-99"])
        assert exc.value.code != 0

    def test_bad_ladder_exits_nonzero(self):
        for ladder in ("a,b", "4,8", "8"):
            with pytest.raises(SystemExit) as exc:
                main(["quant-dse", "--workload", "RNN", "--ladder", ladder])
            assert exc.value.code != 0


class TestDseShardingCommands:
    def _shard_stores(self, capsys, tmp_path):
        paths = []
        for index in range(2):
            clear_memo()  # each shard behaves like a separate machine
            path = tmp_path / f"shard{index}.jsonl"
            run(
                capsys,
                "dse",
                "--workload",
                "LSTM",
                "--workload",
                "RNN",
                "--shard",
                f"{index}/2",
                "--store",
                str(path),
            )
            paths.append(path)
        return paths

    def test_shard_runs_cover_the_sweep(self, capsys, tmp_path):
        from repro.dse import ResultStore

        paths = self._shard_stores(capsys, tmp_path)
        counts = [len(ResultStore(p)) for p in paths]
        assert all(count > 0 for count in counts)
        assert sum(counts) == 12  # 2 workloads x 3 platforms x 2 memories

    def test_merge_then_query_matches_unsharded(self, capsys, tmp_path):
        paths = self._shard_stores(capsys, tmp_path)
        merged = tmp_path / "merged.jsonl"
        out = run(capsys, "dse-merge", str(merged), *map(str, paths))
        assert "12 records" in out
        clear_memo()
        warm = run(
            capsys,
            "dse",
            "--workload",
            "LSTM",
            "--workload",
            "RNN",
            "--store",
            str(merged),
        )
        assert "0 evaluated" in warm and "12 store hits" in warm

    def test_empty_shard_exits_cleanly(self, capsys, tmp_path):
        # A fine partition of a 1-point sweep leaves most shards empty.
        store = tmp_path / "s.jsonl"
        argv = [
            "dse",
            "--workload",
            "LSTM",
            "--platform",
            "bpvec",
            "--memory",
            "ddr4",
            "--store",
            str(store),
        ]
        empties = 0
        for index in range(64):
            assert main(argv + ["--shard", f"{index}/64"]) == 0
            if "owns no points" in capsys.readouterr().err:
                empties += 1
        assert empties == 63

    def test_bad_shard_spec_exits_nonzero(self):
        for shard in ("2", "a/b", "2/2", "0/0"):
            with pytest.raises(SystemExit) as exc:
                main(["dse", "--workload", "LSTM", "--shard", shard])
            assert exc.value.code != 0

    def test_stream_emits_jsonl_records(self, capsys):
        out = run(capsys, "dse", "--workload", "LSTM", "--stream")
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert len(records) == 6  # 3 platforms x 2 memories
        assert all("metrics" in r for r in records)

    def test_stream_rejects_batch_queries(self):
        with pytest.raises(SystemExit):
            main(["dse", "--workload", "LSTM", "--stream", "--pareto"])

    def test_stream_rejects_json_format(self):
        # --stream emits JSONL by nature; a single-document --format
        # json request must error, not silently emit the wrong shape.
        with pytest.raises(SystemExit):
            main(["dse", "--workload", "LSTM", "--stream", "--format", "json"])

    def test_compact_shrinks_duplicated_store(self, capsys, tmp_path):
        store = tmp_path / "s.jsonl"
        argv = (
            "dse",
            "--workload",
            "LSTM",
            "--platform",
            "bpvec",
            "--memory",
            "ddr4",
            "--store",
            str(store),
        )
        clear_memo()
        run(capsys, *argv)
        clear_memo()  # force a store hit... then duplicate the line
        store.write_text(store.read_text() * 3)
        out = run(capsys, "dse-compact", str(store))
        assert "kept 1 records, dropped 2 superseded lines" in out

    def test_compact_gzip_roundtrips_through_engine(self, capsys, tmp_path):
        from repro.dse import ResultStore

        store = tmp_path / "s.jsonl"
        argv = (
            "dse",
            "--workload",
            "LSTM",
            "--platform",
            "bpvec",
            "--memory",
            "ddr4",
            "--store",
            str(store),
        )
        clear_memo()
        run(capsys, *argv)
        run(capsys, "dse-compact", str(store), "--gzip")
        assert ResultStore(store).is_gzipped()
        clear_memo()
        warm = run(capsys, *argv)
        assert "1 store hits" in warm

    def test_compact_missing_store_exits_nonzero(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["dse-compact", str(tmp_path / "absent.jsonl")])
        assert exc.value.code != 0


class TestStoreBackendFlags:
    """--backend / suffix-sniffed SQLite stores through every subcommand."""

    _ARGS = ("dse", "--workload", "RNN", "--platform", "bpvec", "--memory", "ddr4")

    def test_sqlite_suffix_store_warm_rerun(self, capsys, tmp_path):
        store = tmp_path / "results.sqlite"
        clear_memo()
        cold = run(capsys, *self._ARGS, "--store", str(store))
        assert "1 evaluated" in cold
        clear_memo()
        warm = run(capsys, *self._ARGS, "--store", str(store))
        assert "0 evaluated" in warm and "1 store hits" in warm

    def test_backend_flag_forces_sqlite_on_any_suffix(self, capsys, tmp_path):
        from repro.dse import SQLiteStore, open_store

        store = tmp_path / "results.dat"
        clear_memo()
        run(capsys, *self._ARGS, "--store", str(store), "--backend", "sqlite")
        # Magic-byte sniffing reopens the mis-suffixed store correctly.
        assert isinstance(open_store(store), SQLiteStore)
        clear_memo()
        warm = run(capsys, *self._ARGS, "--store", str(store))
        assert "1 store hits" in warm

    def test_merge_jsonl_shards_into_sqlite_dest(self, capsys, tmp_path):
        shard = tmp_path / "shard.jsonl"
        clear_memo()
        run(capsys, *self._ARGS, "--store", str(shard))
        dest = tmp_path / "merged.sqlite"
        out = run(capsys, "dse-merge", str(dest), str(shard))
        assert "1 records" in out
        clear_memo()
        warm = run(capsys, *self._ARGS, "--store", str(dest))
        assert "1 store hits" in warm

    def test_compact_sqlite_store(self, capsys, tmp_path):
        store = tmp_path / "s.sqlite"
        clear_memo()
        run(capsys, *self._ARGS, "--store", str(store))
        out = run(capsys, "dse-compact", str(store))
        assert "kept 1 records" in out

    def test_compact_sqlite_rejects_gzip(self, capsys, tmp_path):
        store = tmp_path / "s.sqlite"
        clear_memo()
        run(capsys, *self._ARGS, "--store", str(store))
        with pytest.raises(SystemExit) as exc:
            main(["dse-compact", str(store), "--gzip"])
        assert exc.value.code != 0

    def test_quant_dse_sqlite_store_reuse(self, capsys, tmp_path):
        store = tmp_path / "quant.sqlite"
        argv = (
            "quant-dse", "--workload", "RNN", "--platform", "bpvec",
            "--memory", "ddr4", "--max-drop", "0.05", "--store", str(store),
        )
        clear_memo()
        run(capsys, *argv)
        clear_memo()
        warm = run(capsys, *argv)
        assert "0 evaluated" in warm


class TestPartitionedMigration:
    """Retired partitioned stores are refused with the command that converts them."""

    _ARGS = TestStoreBackendFlags._ARGS

    @staticmethod
    def _one_line_error(argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        message = str(exc.value.code)
        assert "\n" not in message
        assert "repro dse-merge OUT.sqlite" in message
        return message

    def test_compact_parts_path_is_one_line_error(self, tmp_path):
        store = tmp_path / "X.parts"
        message = self._one_line_error(["dse-compact", str(store)])
        assert message.startswith("dse-compact: ")
        assert f"{store}/part-*.jsonl" in message

    def test_dse_store_parts_path_is_one_line_error(self, tmp_path):
        store = tmp_path / "X.parts"
        message = self._one_line_error([*self._ARGS, "--store", str(store)])
        assert message.startswith("dse: ")
        assert not store.exists()

    def test_partitioned_backend_is_no_choice(self, tmp_path, capsys):
        for argv in (
            [*self._ARGS, "--store", str(tmp_path / "s"), "--backend", "partitioned"],
            ["dse-merge", str(tmp_path / "d"), "s", "--backend", "partitioned"],
            ["dse-compact", str(tmp_path / "s"), "--stale-threshold", "0.3"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        capsys.readouterr()

    def test_open_store_refuses_every_partitioned_input(self, tmp_path):
        from repro.dse import open_store

        directory = tmp_path / "no-telling-suffix"
        directory.mkdir()
        for path, backend in (
            (directory, None),
            (directory, "jsonl"),
            (tmp_path / "fresh.parts", None),
            (tmp_path / "s.jsonl", "partitioned"),
        ):
            with pytest.raises(ValueError) as exc:
                open_store(path, backend=backend)
            assert str(exc.value).endswith(
                f"repro dse-merge OUT.sqlite {path}/part-*.jsonl"
            )
        assert list(tmp_path.iterdir()) == [directory]

    def test_printed_command_converts_part_files(self, capsys, tmp_path):
        import glob
        import shlex

        from repro.dse import ResultStore, SQLiteStore, open_store

        old = tmp_path / "old.parts"
        old.mkdir()
        (old / "manifest.json").write_text('{"format": 1, "parts": 2}')
        parts = [
            [{"hash": "0a", "version": 1, "metrics": {"total_seconds": 1.0}}],
            [
                {"hash": "fa", "version": 1, "metrics": {"total_seconds": 2.0}},
                {"hash": "fb", "version": 1, "metrics": {"total_seconds": 3.0}},
            ],
        ]
        expected = {}
        for index, records in enumerate(parts):
            ResultStore(old / f"part-{index:04d}.jsonl").append(records)
            expected.update((record["hash"], record) for record in records)
        with pytest.raises(ValueError) as exc:
            open_store(old)
        command = shlex.split(str(exc.value).split("with: ", 1)[1])
        assert command[:3] == ["repro", "dse-merge", "OUT.sqlite"]
        dest = tmp_path / "new.sqlite"
        sources = [path for pattern in command[3:] for path in glob.glob(pattern)]
        assert len(sources) == 2
        out = run(capsys, "dse-merge", str(dest), *sorted(sources))
        assert "3 records" in out
        assert SQLiteStore(dest).load() == expected


class TestJsonFormat:
    """--format json: the shared machine-readable payload shape."""

    def test_dse_json_payload(self, capsys):
        out = run(
            capsys, "dse", "--workload", "LSTM", "--platform", "bpvec",
            "--memory", "ddr4", "--format", "json",
        )
        payload = json.loads(out)
        assert payload["count"] == 1
        assert payload["records"][0]["workload"] == "LSTM"
        summary = payload["summary"]
        assert summary["points"] == summary["unique_points"] == 1
        assert {"evaluated", "store_hits", "memo_hits"} <= set(summary)

    def test_dse_json_matches_jsonl_records(self, capsys):
        argv = ("dse", "--workload", "RNN", "--platform", "tpu")
        from_json = json.loads(run(capsys, *argv, "--format", "json"))
        jsonl = [
            json.loads(line)
            for line in run(capsys, *argv, "--format", "jsonl").splitlines()
        ]
        assert from_json["records"] == jsonl

    def test_quant_dse_json_payload(self, capsys):
        out = run(
            capsys, "quant-dse", "--workload", "RNN", "--platform", "bpvec",
            "--memory", "ddr4", "--max-drop", "0.0", "--max-drop", "0.05",
            "--format", "json",
        )
        payload = json.loads(out)
        assert payload["workload"] == "RNN"
        assert payload["policies"]
        assert {"label", "policy", "accuracy", "bits_per_layer"} <= set(
            payload["policies"][0]
        )
        frontier_hashes = {r["hash"] for r in payload["frontier"]}
        assert frontier_hashes <= {r["hash"] for r in payload["records"]}

    def test_quant_dse_json_frontier_only_omits_records(self, capsys):
        out = run(
            capsys, "quant-dse", "--workload", "RNN", "--platform", "bpvec",
            "--memory", "ddr4", "--max-drop", "0.05",
            "--format", "json", "--frontier-only",
        )
        payload = json.loads(out)
        assert payload["records"] == [] and payload["count"] == 0
        assert payload["frontier"]
        assert payload["summary"]["points"] > 0


class TestExitCodes:
    """Every covered subcommand returns 0 on success."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("report",),
            ("simulate", "--model", "LSTM"),
            ("roofline", "--model", "LSTM"),
            ("dse", "--workload", "LSTM", "--platform", "bpvec", "--memory", "ddr4"),
        ],
        ids=["report", "simulate", "roofline", "dse"],
    )
    def test_returns_zero(self, capsys, argv):
        assert main(list(argv)) == 0
        assert capsys.readouterr().out


class TestReportCommand:
    def test_report_to_stdout(self, capsys):
        out = run(capsys, "report")
        assert "# BPVeC reproduction report" in out
        assert "Figure 9" in out and "GEOMEAN" in out

    def test_report_to_file(self, capsys, tmp_path):
        target = tmp_path / "report.md"
        out = run(capsys, "report", "--output", str(target))
        assert "wrote" in out
        text = target.read_text()
        assert text.count("## ") == 9
