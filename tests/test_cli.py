"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_algo_and_input(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--algo", "cc"])

    def test_defaults(self):
        args = build_parser().parse_args(
            ["run", "--algo", "cc", "--input", "internet"])
        assert args.device == "titanv"
        assert args.reps == 9


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "titanv" in out
        assert "mis" in out
        assert "amazon0601" in out
        assert "wikipedia" in out

    def test_run_racy_algorithm(self, capsys):
        rc = main(["run", "--algo", "mis", "--input", "internet",
                   "--reps", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "baseline" in out and "race-free" in out
        assert "speedup" in out

    def test_run_apsp_reports_no_races(self, capsys):
        rc = main(["run", "--algo", "apsp", "--input", "internet",
                   "--reps", "1"])
        assert rc == 0
        assert "no races" in capsys.readouterr().out

    def test_run_with_validation(self, capsys):
        rc = main(["run", "--algo", "cc", "--input", "internet",
                   "--reps", "1", "--validate"])
        assert rc == 0

    def test_races_racy_code(self, capsys):
        rc = main(["races", "--algo", "gc"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "gc baseline:" in out
        assert "no data races detected" in out  # the race-free line

    def test_races_apsp(self, capsys):
        rc = main(["races", "--algo", "apsp"])
        assert rc == 0
        assert "no data races" in capsys.readouterr().out

    def test_table_scc(self, capsys):
        rc = main(["table", "--device", "2070super", "--algo", "scc",
                   "--reps", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Table VIII" in out
        assert "Geomean Speedup" in out

    def test_litmus_subset(self, capsys):
        rc = main(["litmus", "--test", "MP", "--model", "sc,relaxed_gpu"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "message passing" in out
        assert "2 ok, 0 failed" in out

    def test_litmus_unknown_test_exits_2(self, capsys):
        rc = main(["litmus", "--test", "nosuch"])
        assert rc == 2
        assert "unknown litmus test" in capsys.readouterr().err

    def test_litmus_unknown_model_exits_2(self, capsys):
        rc = main(["litmus", "--model", "nosuch"])
        assert rc == 2
        assert "unknown memory model" in capsys.readouterr().err

    def test_run_with_memory_model(self, capsys):
        rc = main(["run", "--algo", "mis", "--input", "internet",
                   "--reps", "1", "--memory-model", "ptx:acq_rel"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "memory model: PTX scoped" in out
        assert "speedup" in out


class TestErrorHandling:
    def test_repro_error_exits_2_with_one_line(self, capsys):
        rc = main(["run", "--algo", "nosuch", "--input", "internet",
                   "--reps", "1"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    def test_bad_input_name_exits_2(self, capsys):
        rc = main(["run", "--algo", "cc", "--input", "nosuchgraph",
                   "--reps", "1"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_fault_spec_exits_2(self, capsys):
        rc = main(["sweep", "--inputs", "internet", "--reps", "1",
                   "--inject", "teleport=1"])
        assert rc == 2
        assert "unknown fault kind" in capsys.readouterr().err


class TestSweepCommand:
    def test_clean_sweep_full_coverage(self, capsys):
        rc = main(["sweep", "--inputs", "internet", "--reps", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "coverage: 4/4 cells completed" in out
        assert "Geomean Speedup" in out
        assert "cells executed this run: 8" in out

    def test_injected_sweep_records_failures(self, capsys):
        rc = main(["sweep", "--inputs", "internet", "--reps", "1",
                   "--inject", "stuck=1.0", "--fault-seed", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        # cc's plain polling loop livelocks; the sweep still finishes
        assert "FAIL(livelock)" in out
        assert "coverage: 3/4 cells completed" in out
        assert "inject: stuck=1" in out

    def test_checkpoint_then_resume_executes_nothing(self, tmp_path,
                                                     capsys):
        ck = str(tmp_path / "store")
        rc = main(["sweep", "--inputs", "internet", "--reps", "1",
                   "--checkpoint", ck])
        assert rc == 0
        assert "cells executed this run: 8" in capsys.readouterr().out

        # a rerun with the same checkpoint resumes by itself
        rc = main(["sweep", "--inputs", "internet", "--reps", "1",
                   "--checkpoint", ck])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cells executed this run: 0" in out
        assert "resumed 8 results" in out
        assert "coverage: 4/4 cells completed" in out


class TestTelemetryCommands:
    def test_sweep_telemetry_jsonl_export(self, tmp_path, capsys):
        from repro.telemetry.export import read_jsonl, validate_jsonl_lines
        from repro.telemetry.metrics import get_registry

        out = tmp_path / "tel.jsonl"
        rc = main(["sweep", "--inputs", "internet", "--reps", "1",
                   "--telemetry", str(out)])
        assert rc == 0
        assert f"telemetry (jsonl) written to {out}" in \
            capsys.readouterr().out
        # the session is scoped to the command: no global leak
        assert not get_registry().enabled
        validate_jsonl_lines(out.read_text().splitlines())
        metrics, spans = read_jsonl(out)
        names = {rec["name"] for rec in metrics}
        assert "repro_l1_hit_rate" in names
        assert "repro_cells_total" in names
        assert any(s["name"] == "study.sweep" for s in spans)

    def test_sweep_telemetry_prom_export(self, tmp_path, capsys):
        from repro.telemetry.export import validate_prometheus_text

        out = tmp_path / "tel.prom"
        rc = main(["sweep", "--inputs", "internet", "--reps", "1",
                   "--telemetry", str(out),
                   "--metrics-format", "prom"])
        assert rc == 0
        text = out.read_text()
        assert validate_prometheus_text(text) > 0
        assert "# TYPE repro_accesses_total counter" in text

    def test_metrics_summarize(self, tmp_path, capsys):
        out = tmp_path / "tel.jsonl"
        assert main(["sweep", "--inputs", "internet", "--reps", "1",
                     "--telemetry", str(out)]) == 0
        capsys.readouterr()
        assert main(["metrics", "summarize", str(out)]) == 0
        text = capsys.readouterr().out
        assert "repro_l1_hit_rate" in text
        assert "sweep.cell" in text

    def test_trace_prune(self, tmp_path, capsys):
        from repro.core.study import Study

        cache_dir = tmp_path / "tc"
        study = Study(reps=1, trace_cache=str(cache_dir))
        study.speedup("cc", "internet", "titanv")
        assert list(cache_dir.glob("trace-*.json"))
        rc = main(["trace", "prune", "--dir", str(cache_dir),
                   "--max-bytes", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "freed" in out and "0 entries" in out
        assert not list(cache_dir.glob("trace-*.json"))
