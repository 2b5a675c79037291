"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_solve_defaults(self):
        arguments = build_parser().parse_args(["solve"])
        assert arguments.method == "all"
        assert arguments.alpha == 0.5
        assert arguments.dataset == "gowalla"

    def test_rejects_unknown_method(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "--method", "magic"])

    def test_rejects_unknown_figure(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])


class TestCommands:
    def test_trace(self, capsys):
        assert main(["trace"]) == 0
        output = capsys.readouterr().out
        assert "Table 1" in output
        assert "v4" in output

    def test_solve_small(self, capsys):
        code = main([
            "solve", "--users", "120", "--events", "4", "--seed", "1",
            "--method", "all",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "RMGP_all" in output
        assert "Nash equilibrium" in output
        assert "most popular classes" in output

    def test_solve_without_normalization(self, capsys):
        code = main([
            "solve", "--users", "100", "--events", "4", "--normalize", "none",
        ])
        assert code == 0
        assert "normalization" not in capsys.readouterr().out

    def test_dataset_writes_files(self, tmp_path, capsys):
        edges = str(tmp_path / "edges.txt")
        checkins = str(tmp_path / "checkins.txt")
        code = main([
            "dataset", "--users", "80", "--events", "4",
            "--edges-out", edges, "--checkins-out", checkins,
        ])
        assert code == 0
        from repro.graph import read_checkins, read_edge_list

        graph = read_edge_list(edges)
        assert graph.num_nodes > 0
        assert len(read_checkins(checkins)) == 80

    def test_figure_table1(self, capsys):
        assert main(["figure", "table1"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_stream(self, capsys):
        code = main([
            "stream", "--users", "120", "--events", "4",
            "--epochs", "2", "--checkins-per-epoch", "5",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "epoch" in output
        assert output.count("\n") >= 4  # header + dataset + 2 epochs

    @pytest.mark.parametrize("protocol", ["relayed", "peer"])
    def test_distributed(self, capsys, protocol):
        code = main([
            "distributed", "--users", "150", "--events", "4",
            "--protocol", protocol,
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert f"DG[{protocol}]" in output
        assert "FaE" in output

    def test_solve_json(self, capsys):
        import json

        code = main([
            "solve", "--users", "100", "--events", "4", "--method", "gt",
            "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["solver"] == "RMGP_gt"
        assert payload["converged"] is True
        assert len(payload["assignment_sha256"]) == 64
        assert payload["round_trace"][0]["round"] == 0

    def test_solve_deadline_checkpoint_resume(self, tmp_path, capsys):
        import json

        checkpoint = str(tmp_path / "solve.ckpt.json")
        base = [
            "solve", "--users", "150", "--events", "4", "--seed", "2",
            "--method", "gt",
        ]
        # An (effectively) zero deadline leaves a degraded result and a
        # checkpoint on disk, plus a resume hint.
        code = main(base + [
            "--deadline", "0.000001",
            "--checkpoint", checkpoint, "--checkpoint-every", "1",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "NOT converged (deadline)" in output
        assert f"resume with --resume {checkpoint}" in output

        code = main(base + ["--resume", checkpoint, "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["converged"] is True

        reference = main(base + ["--json"])
        assert reference == 0
        assert json.loads(capsys.readouterr().out)["converged"] is True

    def test_solve_generous_deadline_converges(self, capsys):
        code = main([
            "solve", "--users", "100", "--events", "4", "--method", "all",
            "--deadline", "3600",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "Nash equilibrium" in output
        assert "interrupted" not in output

    def test_solve_resume_flag_parsed(self):
        arguments = build_parser().parse_args(
            ["solve", "--deadline", "1.5", "--round-budget", "0.5",
             "--checkpoint", "c.json", "--checkpoint-every", "3",
             "--resume", "c.json"]
        )
        assert arguments.deadline == 1.5
        assert arguments.round_budget == 0.5
        assert arguments.checkpoint == "c.json"
        assert arguments.checkpoint_every == 3
        assert arguments.resume == "c.json"

    def test_profile_paper_example(self, tmp_path, capsys):
        from repro.obs.validate import validate_file

        jsonl = str(tmp_path / "trace.jsonl")
        metrics = str(tmp_path / "metrics.txt")
        code = main([
            "profile", "--dataset", "paper",
            "--jsonl", jsonl, "--metrics", metrics,
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "solve:" in output  # summary tree root span
        assert "round:" in output
        assert validate_file(jsonl) == []
        with open(metrics, encoding="utf-8") as handle:
            assert "repro_solver_rounds" in handle.read()

    def test_trace_jsonl(self, tmp_path, capsys):
        from repro.obs.validate import validate_file

        jsonl = str(tmp_path / "table1.jsonl")
        assert main(["trace", "--jsonl", jsonl]) == 0
        output = capsys.readouterr().out
        assert "Table 1" in output
        assert validate_file(jsonl) == []

    def test_figure_trace(self, tmp_path, capsys):
        from repro.obs.validate import validate_file

        jsonl = str(tmp_path / "fig.jsonl")
        assert main(["figure", "table1", "--trace", jsonl]) == 0
        assert "Table 1" in capsys.readouterr().out
        assert validate_file(jsonl) == []

    def test_profile_memory_and_chrome(self, tmp_path, capsys):
        from repro.obs.validate import validate_file

        chrome = str(tmp_path / "trace.json")
        code = main([
            "profile", "--dataset", "paper", "--memory",
            "--chrome", chrome,
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "top spans by peak allocation" in output
        assert "peak" in output
        assert validate_file(chrome) == []

    def test_trace_chrome(self, tmp_path, capsys):
        from repro.obs.validate import validate_file

        chrome = str(tmp_path / "table1.json")
        assert main(["trace", "--chrome", chrome]) == 0
        assert "Table 1" in capsys.readouterr().out
        assert validate_file(chrome) == []

    def test_distributed_trace_chrome_analyze(self, tmp_path, capsys):
        from repro.obs.validate import validate_file

        jsonl = str(tmp_path / "dg.jsonl")
        chrome = str(tmp_path / "dg.json")
        code = main([
            "distributed", "--users", "100", "--events", "4",
            "--slaves", "2", "--trace", jsonl, "--chrome", chrome,
            "--analyze",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "straggler" in output
        assert "critical path" in output
        assert validate_file(jsonl) == []
        assert validate_file(chrome) == []

    def test_analyze_reads_exported_trace(self, tmp_path, capsys):
        jsonl = str(tmp_path / "dg.jsonl")
        assert main([
            "distributed", "--users", "100", "--events", "4",
            "--slaves", "2", "--trace", jsonl,
        ]) == 0
        capsys.readouterr()
        assert main(["analyze", jsonl]) == 0
        output = capsys.readouterr().out
        assert "rounds:" in output
        assert "straggler" in output

    def test_analyze_rejects_invalid_trace(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "span"}\n')
        assert main(["analyze", str(bad)]) == 1
        assert "schema violation" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["analyze", "flight"])
    def test_trace_readers_fail_closed(self, command, tmp_path, capsys):
        # A missing file and an ill-typed record are violations (exit
        # 1), never a traceback.
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            '{"type": "meta", "schema": "repro-trace/v2"}\n'
            '{"type": ["span"]}\n'
        )
        assert main([command, str(bad)]) == 1
        assert "unknown type" in capsys.readouterr().out
        assert main([command, str(tmp_path / "missing.jsonl")]) == 1
        assert "unreadable" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["analyze", "flight"])
    @pytest.mark.parametrize(
        "span",
        [
            '"start": 0, "end": 1, "attrs": {"round": [1]}',
            '"start": 0, "end": 1' + "0" * 400 + ', "attrs": {"round": 0}',
            '"start": -1' + "0" * 400 + ', "end": 1, "attrs": {"round": 0}',
        ],
        ids=["round-list", "end-beyond-float", "start-beyond-float"],
    )
    def test_trace_readers_fail_closed_on_unreadable_spans(
        self, command, span, tmp_path, capsys
    ):
        # Schema-valid (attrs are free-form, times any JSON number), but
        # the analysis cannot read the span: exit 1, never a traceback.
        trace = tmp_path / "trace.jsonl"
        trace.write_text(
            '{"type": "meta", "schema": "repro-trace/v2"}\n'
            '{"type": "span", "id": 0, "parent": null, "name": "dg.round",'
            ' "depth": 0, ' + span + "}\n"
            '{"type": "span", "id": 1, "parent": 0, "name": "net.exchange",'
            ' "depth": 1, "start": 0, "end": 1, "attrs": {"messages": 2}}\n'
        )
        assert main(["validate", str(trace)]) == 0
        capsys.readouterr()
        assert main([command, str(trace)]) == 1
        assert "the analysis cannot read" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["analyze", "flight"])
    @pytest.mark.parametrize("attrs", ['{"messages": [2]}', '{"attempts": "x"}'])
    def test_trace_readers_fail_closed_on_unreadable_counts(
        self, command, attrs, tmp_path, capsys
    ):
        trace = tmp_path / "trace.jsonl"
        trace.write_text(
            '{"type": "meta", "schema": "repro-trace/v2"}\n'
            '{"type": "span", "id": 0, "parent": null, "name": "dg.round",'
            ' "depth": 0, "start": 0, "end": 1, "attrs": {"round": 0}}\n'
            '{"type": "span", "id": 1, "parent": 0, "name": "net.deliver",'
            ' "depth": 1, "start": 0, "end": 1, "attrs": ' + attrs + "}\n"
        )
        assert main(["validate", str(trace)]) == 0
        capsys.readouterr()
        assert main([command, str(trace)]) == 1
        assert "the analysis cannot read" in capsys.readouterr().out


class TestChurn:
    def test_parser_defaults(self):
        arguments = build_parser().parse_args(["churn"])
        assert arguments.users == 80
        assert arguments.batches == 5
        assert arguments.solver == "gt"
        assert arguments.movement_penalty is None
        assert arguments.differential is False

    def test_churn_runs_and_reports_movement(self, capsys):
        code = main([
            "churn", "--users", "40", "--events", "4",
            "--batches", "2", "--batch-size", "5",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "churn: 2x5 mutations" in output
        assert "mut/s incremental" in output
        assert "migration cost" in output

    def test_churn_differential_gate(self, capsys):
        code = main([
            "churn", "--users", "40", "--events", "4",
            "--batches", "2", "--batch-size", "5", "--differential",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "differential ok" in output

    def test_churn_with_movement_penalty(self, capsys):
        code = main([
            "churn", "--users", "40", "--events", "4",
            "--batches", "2", "--batch-size", "5",
            "--movement-penalty", "5.0",
        ])
        assert code == 0
        assert "mut/s" in capsys.readouterr().out
