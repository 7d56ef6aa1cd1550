"""CLI tests for the serving subcommands (repro loadtest / repro serve)."""

import json

import pytest

from repro.cli import main


class TestLoadtestCommand:
    def _run(self, tmp_path, *extra):
        out = tmp_path / "BENCH_serve.json"
        rc = main(
            [
                "loadtest",
                "--sessions",
                "12",
                "--connections",
                "3",
                "--steps",
                "1",
                "--step-cycles",
                "16",
                "--spread",
                "0.0",
                "--out",
                str(out),
                *extra,
            ]
        )
        return rc, out

    def test_writes_report_and_exits_zero(self, tmp_path, capsys):
        rc, out = self._run(tmp_path)
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["kind"] == "serve-loadtest"
        assert report["completed"] == 12
        assert report["failed"] == 0
        assert report["peak_live_sessions"] == 12
        stdout = capsys.readouterr().out
        assert "12/12 sessions completed" in stdout
        assert "latency us" in stdout

    def test_check_against_own_baseline_passes(self, tmp_path, capsys):
        rc, out = self._run(tmp_path)
        assert rc == 0
        rc, _ = self._run(tmp_path, "--check", str(out), "--tolerance", "1e9")
        assert rc == 0
        assert "ok" in capsys.readouterr().out

    def test_check_regression_is_soft_gateable(self, tmp_path, capsys):
        rc, out = self._run(tmp_path)
        assert rc == 0
        baseline = json.loads(out.read_text())
        baseline["peak_live_sessions"] = 10_000  # unreachable floor
        gate = tmp_path / "impossible.json"
        gate.write_text(json.dumps(baseline))

        (tmp_path / "hard").mkdir()
        (tmp_path / "soft").mkdir()
        rc, _ = self._run(tmp_path / "hard", "--check", str(gate))
        captured = capsys.readouterr()
        assert rc == 2
        assert "::warning title=serve regression::" in captured.out
        assert "SERVE REGRESSION" in captured.err

        rc, _ = self._run(tmp_path / "soft", "--check", str(gate), "--soft")
        assert rc == 0


class TestServeCommand:
    def test_parser_wires_the_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--help"])
        assert excinfo.value.code == 0
        helptext = capsys.readouterr().out
        assert "--spool-dir" not in helptext
        assert "--max-sessions" in helptext
        assert "--backpressure" in helptext
