"""CLI tests for the serving subcommands (repro loadtest / repro serve)."""

import json

import pytest

from repro.cli import main


class TestLoadtestCommand:
    def _run(self, tmp_path):
        out = tmp_path / "serve.json"
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

    def test_port_without_host_is_a_one_line_error(self, capsys):
        rc = main(["loadtest", "--port", "9", "--sessions", "4",
                   "--connections", "1", "--steps", "1",
                   "--step-cycles", "8", "--spread", "0"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: --port names an external server; give --host too\n"
        )

    @staticmethod
    def _fake(monkeypatch, **overrides):
        """Make ``run_loadtest`` return a clean 12-session report, changed
        by ``overrides``."""
        report = {
            "sessions": 12, "completed": 12, "failed": 0,
            "peak_live_sessions": 12, "requests": 48, "duration_s": 1.0,
            "requests_per_s": 48.0,
            "client_latency_us": {"p50": 1, "p95": 2, "p99": 3},
            "server": {"latency_us": {"p50": 1, "p95": 2, "p99": 3}},
        }
        report.update(overrides)

        async def run_loadtest(spec, host=None, port=None):
            return report

        monkeypatch.setattr("repro.serve.run_loadtest", run_loadtest)

    def test_a_failed_session_exits_one(self, monkeypatch, capsys):
        self._fake(monkeypatch, completed=9, failed=3)
        assert main(["loadtest"]) == 1
        assert "3 sessions failed" in capsys.readouterr().err

    def test_lost_concurrency_exits_one_naming_the_floor(
        self, monkeypatch, capsys
    ):
        self._fake(monkeypatch, peak_live_sessions=10)
        assert main(["loadtest"]) == 1
        err = capsys.readouterr().err
        assert err == (
            "loadtest floor broken: peak_live_sessions 10 < sessions 12\n"
        )

    def test_both_broken_floors_share_one_line(self, monkeypatch, capsys):
        self._fake(monkeypatch, completed=10, failed=2, peak_live_sessions=10)
        assert main(["loadtest"]) == 1
        assert capsys.readouterr().err == (
            "loadtest floor broken: 2 sessions failed; "
            "peak_live_sessions 10 < sessions 12\n"
        )

    def test_every_session_live_at_once_meets_the_floor(
        self, monkeypatch, capsys
    ):
        self._fake(monkeypatch)
        assert main(["loadtest"]) == 0
        assert capsys.readouterr().err == ""


class TestServeCommand:
    def test_parser_wires_the_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--help"])
        assert excinfo.value.code == 0
        helptext = capsys.readouterr().out
        assert "--spool-dir" not in helptext
        assert "--max-sessions" in helptext
        assert "--backpressure" in helptext
