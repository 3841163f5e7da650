"""Tests for the command-line interface (using only fast experiments)."""

import pytest

import repro.experiments.cli as cli


class TestCli:
    def test_list(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig5" in out and "table4" in out

    def test_default_is_list(self, capsys):
        assert cli.main([]) == 0
        assert "fig5" in capsys.readouterr().out

    def test_run_single_experiment(self, capsys):
        assert cli.main(["table4"]) == 0
        out = capsys.readouterr().out
        assert "32.8" in out
        assert "[PASS]" in out

    def test_unknown_experiment(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["fig99"])
        assert excinfo.value.code == 2  # argparse usage error, not a traceback
        err = capsys.readouterr().err
        assert "unknown experiment 'fig99'" in err
        assert "fig18" in err

    @pytest.mark.parametrize("retries", ["0", "-1"])
    def test_bad_run_retries_is_a_usage_error(self, retries, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["list", "--run-retries", retries])
        assert excinfo.value.code == 2  # argparse usage error, not a traceback
        assert "--run-retries must be >= 1" in capsys.readouterr().err

    def test_markdown_output(self, tmp_path, capsys):
        target = tmp_path / "report.md"
        assert cli.main(["table1", "--markdown", str(target)]) == 0
        text = target.read_text()
        assert text.startswith("# Reproduced tables and figures")
        assert "| paradigm |" in text
        assert "leviathan-repro table1" in text

    def test_failed_expectations_exit_nonzero(self, monkeypatch, capsys):
        from repro.experiments.runner import Experiment

        def failing(pool):
            exp = Experiment(name="doomed", paper_reference="-")
            exp.expect("impossible", "greater", 0.0, 1.0)
            return exp

        monkeypatch.setitem(cli._EXPERIMENTS, "doomed-test", (failing, "always fails"))
        assert cli.main(["doomed-test"]) == 1
        assert cli.main(["doomed-test", "--no-check"]) == 0

    def test_speedup_chart_printed(self, capsys):
        assert cli.main(["ablation-compaction"]) == 0
        # compaction rows carry no speedup -> no chart, still fine
        out = capsys.readouterr().out
        assert "fragmentation_pct" in out


class TestTelemetryCli:
    def test_telemetry_out_captures_artifacts(self, tmp_path, capsys):
        from repro.sim.telemetry import load_and_validate
        from repro.sim.telemetry.session import TelemetrySession

        outdir = tmp_path / "telem"
        assert cli.main(["ablation-mc-cache", "--no-check",
                         "--telemetry-out", str(outdir)]) == 0
        assert "telemetry:" in capsys.readouterr().out
        # The session must not leak past the run.
        assert TelemetrySession.active() is None
        # One artifact directory per simulation run, machine dirs inside.
        runs = sorted((outdir / "runs").glob("*/machine-*"))
        assert runs
        for run in runs:
            assert (run / "metrics.json").exists()
            assert (run / "metrics.prom").exists()
            _trace, problems = load_and_validate(str(run / "trace.json"))
            assert problems == []

    def test_telemetry_report_command(self, tmp_path, capsys):
        outdir = tmp_path / "telem"
        assert cli.main(["ablation-mc-cache", "--no-check",
                         "--telemetry-out", str(outdir)]) == 0
        capsys.readouterr()
        assert cli.main(["telemetry", str(outdir)]) == 0
        out = capsys.readouterr().out
        assert "trace: VALID" in out
        assert "ui.perfetto.dev" in out

    def test_telemetry_command_requires_dir(self, capsys):
        assert cli.main(["telemetry"]) == 2

    def test_telemetry_report_empty_dir(self, tmp_path, capsys):
        assert cli.main(["telemetry", str(tmp_path)]) == 1
        assert "no telemetry runs" in capsys.readouterr().out


class TestFaultsCli:
    def test_faults_flag_arms_a_plan(self, tmp_path, capsys):
        import json

        from repro.sim.faults import FaultSession

        outdir = tmp_path / "chaos"
        assert (
            cli.main(
                [
                    "ablation-mc-cache",
                    "--no-check",
                    "--faults",
                    "noc-delay:0.05@20; seed:3",
                    "--telemetry-out",
                    str(outdir),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "faults:" in out
        # The session must not leak past the run.
        assert FaultSession.active() is None
        report_paths = sorted(outdir.glob("runs/*/fault_report.json"))
        assert report_paths
        for report_path in report_paths:
            report = json.loads(report_path.read_text())
            assert report["seed"] == 3
            assert report["machines"]

    def test_faults_without_telemetry_dir(self, capsys):
        assert (
            cli.main(
                ["ablation-mc-cache", "--no-check", "--faults", "noc-delay:0.01@10"]
            )
            == 0
        )
        assert "faults:" in capsys.readouterr().out

    def test_bad_fault_spec_rejected(self):
        from repro.sim.faults import FaultPlanError

        with pytest.raises(FaultPlanError):
            cli.main(["ablation-mc-cache", "--no-check", "--faults", "meteor:1"])

    def test_crashing_workload_exits_nonzero(self, tmp_path, monkeypatch, capsys):
        import json

        def crashing(pool):
            raise RuntimeError("chaos took the machine down")

        monkeypatch.setitem(
            cli._EXPERIMENTS, "crash-test", (crashing, "always crashes")
        )
        outdir = tmp_path / "crash"
        assert cli.main(["crash-test", "--telemetry-out", str(outdir)]) == 1
        err = capsys.readouterr().err
        assert "CRASHED: crash-test" in err
        assert "chaos took the machine down" in err
        error_path = outdir / "crash-test" / "error.json"
        assert error_path.exists()
        saved = json.loads(error_path.read_text())
        assert saved["error"] == "RuntimeError"
        assert "chaos took the machine down" in saved["message"]
        assert "Traceback" in saved["traceback"]

    def test_workload_key_error_is_a_crash(self, tmp_path, monkeypatch, capsys):
        import json

        def crashing(pool):
            return {}["missing"]

        monkeypatch.setitem(
            cli._EXPERIMENTS, "crash-test-key", (crashing, "raises KeyError")
        )
        outdir = tmp_path / "crash"
        assert cli.main(["crash-test-key", "--telemetry-out", str(outdir)]) == 1
        err = capsys.readouterr().err
        assert "ERROR: crash-test-key raised KeyError" in err
        assert "CRASHED: crash-test-key" in err
        saved = json.loads((outdir / "crash-test-key" / "error.json").read_text())
        assert saved["error"] == "KeyError"

    def test_crash_does_not_leak_sessions(self, monkeypatch, capsys):
        from repro.sim.faults import FaultSession
        from repro.sim.telemetry.session import TelemetrySession

        def crashing(pool):
            raise ValueError("boom")

        monkeypatch.setitem(
            cli._EXPERIMENTS, "crash-test-2", (crashing, "always crashes")
        )
        assert cli.main(["crash-test-2", "--faults", "seed:1"]) == 1
        assert FaultSession.active() is None
        assert TelemetrySession.active() is None
        capsys.readouterr()
