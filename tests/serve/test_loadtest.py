"""Tests for the loadtest harness."""

import asyncio

import pytest

from repro.serve.loadtest import (
    LOADTEST_SCHEMA_VERSION,
    LoadTestSpec,
    default_workload,
    run_loadtest,
)


class TestSpec:
    def test_defaults_target_hundreds_of_sessions(self):
        spec = LoadTestSpec()
        assert spec.sessions >= 500

    def test_validation(self):
        with pytest.raises(ValueError):
            LoadTestSpec(sessions=0)
        with pytest.raises(ValueError):
            LoadTestSpec(connections=0)
        with pytest.raises(ValueError):
            LoadTestSpec(step_cycles=0)
        with pytest.raises(ValueError):
            LoadTestSpec(arrival_spread_s=-0.1)

    def test_default_workload_varies_per_session(self):
        a = default_workload(0, seed=7)
        b = default_workload(1, seed=7)
        assert a["seed"] != b["seed"]
        assert a["kind"] == "batch"


class TestRun:
    def test_small_fleet_completes_with_measured_concurrency(self):
        spec = LoadTestSpec(
            sessions=40,
            connections=4,
            steps=2,
            step_cycles=32,
            arrival_spread_s=0.01,
            seed=3,
        )
        report = asyncio.run(run_loadtest(spec))
        assert report["kind"] == "serve-loadtest"
        assert report["schema"] == LOADTEST_SCHEMA_VERSION
        assert report["completed"] == 40
        assert report["failed"] == 0
        assert "first_error" not in report
        # The barrier holds every session resident while the coordinator
        # samples the server, so this is a measurement, not a hope.
        assert report["peak_live_sessions"] == 40
        assert report["in_process_server"] is True
        assert report["cycles_simulated"] > 0
        assert report["duration_s"] > 0
        # create + steps + stats + close per session.
        per_session = 1 + spec.steps + 2
        assert report["requests"] == 40 * per_session
        assert report["client_latency_us"]["count"] == report["requests"]
        assert report["server"]["created"] == 40
        assert report["server"]["closed"] == 40
        assert report["server"]["sessions"]["live"] == 0

    def test_one_connection_holds_the_whole_fleet_live(self):
        spec = LoadTestSpec(
            sessions=16, connections=1, steps=1, step_cycles=16,
            arrival_spread_s=0.0, seed=5,
        )
        report = asyncio.run(run_loadtest(spec))
        assert (report["completed"], report["failed"]) == (16, 0)
        assert report["peak_live_sessions"] == 16
        assert report["server"]["connections"] == 1

    def test_failed_creations_still_fill_the_barrier(self):
        """Every create is refused; the run ends (it would wait on the
        barrier forever if a failed session did not arrive) and reports
        the floor it broke."""
        spec = LoadTestSpec(
            sessions=6, connections=2, steps=1, step_cycles=16,
            arrival_spread_s=0.0, seed=5,
            workload={"kind": "batch", "shape": [0, 2, 2]},
        )
        report = asyncio.run(asyncio.wait_for(run_loadtest(spec), 60))
        assert (report["completed"], report["failed"]) == (0, 6)
        assert report["peak_live_sessions"] == 0
        assert report["first_error"].startswith("lt")
        assert "'shape' must be" in report["first_error"]

    def test_external_server_needs_a_port(self):
        spec = LoadTestSpec(sessions=1)
        with pytest.raises(ValueError, match="port"):
            asyncio.run(run_loadtest(spec, host="127.0.0.1"))

    def test_port_without_host_is_refused(self):
        spec = LoadTestSpec(sessions=1)
        with pytest.raises(ValueError, match="--port names an external"):
            asyncio.run(run_loadtest(spec, port=9))

