"""Tests for the command-line interface."""

import json
import re

import pytest

from repro.cli import main, parse_endpoint, parse_shape


class TestParsers:
    def test_parse_shape(self):
        assert parse_shape("8x2x2") == (8, 2, 2)
        assert parse_shape("4X4X4") == (4, 4, 4)
        # Two axes are valid for the 2D topologies (mesh, chiplet).
        assert parse_shape("8x2") == (8, 2)

    def test_parse_shape_invalid(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_shape("8")
        with pytest.raises(argparse.ArgumentTypeError):
            parse_shape("axbxc")

    def test_parse_endpoint(self):
        assert parse_endpoint("1,2,3:4") == ((1, 2, 3), 4)
        assert parse_endpoint("0,0,0") == ((0, 0, 0), 0)

    def test_parse_endpoint_invalid(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_endpoint("1,2")


class TestCommands:
    def test_info(self, capsys):
        assert main(["info", "--shape", "2x2x2", "--endpoints", "2"]) == 0
        out = capsys.readouterr().out
        assert "2x2x2" in out
        assert "nodecards" in out

    def test_route(self, capsys):
        code = main(
            [
                "route", "--shape", "2x2x2", "--endpoints", "2",
                "--src", "0,0,0:0", "--dst", "1,0,0:1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "TORUS" in out
        assert "inter-node hops" in out

    def test_search(self, capsys):
        assert main(["search"]) == 0
        out = capsys.readouterr().out
        assert "2.0 torus channels" in out
        assert "V-,U+,U-,V+" in out

    def test_deadlock_safe_scheme(self, capsys):
        assert main(["deadlock", "--shape", "2x2x2", "--scheme", "anton"]) == 0
        assert "deadlock_free=True" in capsys.readouterr().out

    def test_deadlock_unsafe_scheme(self, capsys):
        assert (
            main(["deadlock", "--shape", "4x1x1", "--scheme", "unsafe-single"]) == 0
        )
        out = capsys.readouterr().out
        assert "deadlock_free=False" in out
        assert "cycle:" in out

    def test_throughput(self, capsys):
        code = main(
            [
                "throughput", "--shape", "2x2x2", "--endpoints", "2",
                "--cores", "2", "--batch", "8", "--pattern", "tornado",
                "--arbitration", "rr",
            ]
        )
        assert code == 0
        assert "normalized throughput" in capsys.readouterr().out

    def test_latency(self, capsys):
        assert main(["latency", "--shape", "4x2x2", "--endpoints", "2"]) == 0
        out = capsys.readouterr().out
        assert "ns/hop" in out
        assert "minimum inter-node latency" in out

    def test_area(self, capsys):
        assert main(["area"]) == 0
        out = capsys.readouterr().out
        assert "Queues" in out
        assert "Router" in out

    def test_energy(self, capsys):
        assert main(["energy"]) == 0
        out = capsys.readouterr().out
        assert "random" in out
        assert "pJ/flit" in out


class TestTraceCommand:
    def test_list_goldens(self, capsys):
        from repro.sim.goldens import GOLDEN_NAMES

        assert main(["trace", "--list-goldens"]) == 0
        out = capsys.readouterr().out
        for name in GOLDEN_NAMES:
            assert name in out

    def test_golden_matches_committed_artifact(self, tmp_path):
        from repro.sim.goldens import committed_golden_path

        out_path = tmp_path / "golden.jsonl"
        code = main(
            ["trace", "--golden", "pingpong_2x2x2", "--out", str(out_path)]
        )
        assert code == 0
        assert (
            out_path.read_text()
            == committed_golden_path("pingpong_2x2x2").read_text()
        )

    def test_unknown_golden_rejected(self, tmp_path, capsys):
        code = main(["trace", "--golden", "nonesuch",
                     "--out", str(tmp_path / "x.jsonl")])
        assert code == 2
        assert "unknown golden trace" in capsys.readouterr().err
        assert not (tmp_path / "x.jsonl").exists()

    def test_generic_run_writes_parseable_trace(self, tmp_path, capsys):
        from repro.sim.trace import read_trace

        out_path = tmp_path / "run.jsonl"
        code = main(
            [
                "trace", "--shape", "2x2x2", "--endpoints", "2",
                "--cores", "2", "--pattern", "uniform", "--batch", "2",
                "--seed", "5", "--out", str(out_path),
            ]
        )
        assert code == 0
        records, events = read_trace(out_path.read_text().splitlines())
        assert records[0]["ev"] == "trace"
        assert records[-1]["ev"] == "end"
        kinds = {e.kind for e in events}
        assert "inject" in kinds and "deliver" in kinds
        # The human-readable summary goes to stderr, not into the trace.
        err = capsys.readouterr().err
        assert "p50" in err and "p99" in err

    def test_stdout_trace(self, capsys):
        code = main(
            [
                "trace", "--shape", "2x2x2", "--endpoints", "1",
                "--cores", "1", "--pattern", "1hop", "--batch", "1",
                "--out", "-",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        import json

        for line in out.splitlines():
            json.loads(line)


class TestProfileCommand:
    ARGS = [
        "profile", "--shape", "2x2x2", "--endpoints", "2",
        "--cores", "2", "--batch", "8", "--top", "12",
    ]

    def test_prints_hot_function_table(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "ncalls" in out
        # Preamble + header row + 12 table rows + summary line.
        assert len(out.strip().splitlines()) == 15

    def test_whole_table_lists_the_engine_step(self, capsys):
        # The table ranks by call count, and the engine's own functions
        # run about once a cycle: below the builtins at --top 12, listed
        # once --top covers every function.
        args = self.ARGS[:-1] + ["100000"]
        assert main(args) == 0
        assert "sim/engine.py:_step" in capsys.readouterr().out

    def test_stdout_is_deterministic(self):
        # Two fresh processes, which is what a user diffs: in-process the
        # first call alone pays interpreter-lifetime warm-ups (the ABC
        # subclass cache, the simulator's memo) that cProfile counts.
        import subprocess
        import sys

        first, second = (
            subprocess.run(
                [sys.executable, "-m", "repro", *self.ARGS],
                capture_output=True, text=True, timeout=300,
            )
            for _ in range(2)
        )
        assert first.returncode == 0, first.stderr
        assert "ncalls" in first.stdout and first.stdout == second.stdout


class TestVersionAndErrors:
    def test_version(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_operational_error_exits_one_not_traceback(self, capsys):
        # A missing fault file is an operational failure: one line on
        # stderr, exit code 1, no traceback.
        code = main(["faults", "validate", "/nonexistent/faults.json"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_hostile_checkpoint_counter_exits_one(self, tmp_path, capsys):
        # A string where the cycle counter belongs once restored
        # "successfully" and then died inside Engine.run.
        import json

        path = tmp_path / "ck.json"
        assert main(
            ["checkpoint", "save", "--shape", "2x2x2", "--cycles", "20",
             "--out", str(path)]
        ) == 0
        data = json.loads(path.read_text())
        data["cycle"] = "abc"
        path.write_text(json.dumps(data))
        capsys.readouterr()
        for command in ("restore", "info"):
            assert main(["checkpoint", command, str(path)]) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert err.splitlines() == [
                "error: checkpoint field 'cycle' must be a non-negative "
                "integer, got 'abc'"
            ]

    @pytest.mark.parametrize(
        "args,named",
        [
            (["route", "--shape", "2x2x2", "--src", "0,0,0:9", "--dst", "1,1,1:0"],
             "--src endpoint 9 is out of range: --endpoints 4 numbers them 0..3"),
            (["route", "--shape", "2x2x2", "--endpoints", "2",
              "--src", "0,0,0:0", "--dst", "1,1,1:-1"],
             "--dst endpoint -1 is out of range: --endpoints 2 numbers them 0..1"),
            (["route", "--shape", "2x2x2", "--src", "5,0,0:0", "--dst", "1,1,1:0"],
             "--src chip (5, 0, 0) is outside the shape (2, 2, 2)"),
            (["latency", "--shape", "1x1x1"],
             "a latency-vs-hops line needs two or more inter-node hop counts; "
             "this machine has none (one chip)"),
            (["latency", "--shape", "2x1x1", "--endpoints", "1"],
             "a latency-vs-hops line needs two or more inter-node hop counts; "
             "this machine has [1]"),
        ],
        ids=["route-endpoint", "route-negative-endpoint", "route-chip",
             "latency-one-chip", "latency-one-distance"],
    )
    def test_what_a_command_cannot_do_is_named(self, args, named, capsys):
        assert main(args) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {named}\n")

    def test_invalid_fault_json_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": 999, "faults": []}')
        code = main(["faults", "validate", str(bad)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "version" in err


class TestUnhonourableCounts:
    """A count the command cannot honour is refused by name -- one
    ``error:`` line, exit 1, nothing written -- where it used to be
    accepted and silently mean something else."""

    SMALL = ["--shape", "2x2x2", "--endpoints", "2", "--cores", "2",
             "--batch", "4"]

    @staticmethod
    def _refused(argv, capsys, message):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("every,shards", [("0", "1"), ("-3", "2")])
    def test_checkpoint_every_below_one_on_run(
        self, every, shards, tmp_path, capsys
    ):
        path = tmp_path / "ck.json"
        self._refused(
            ["run", *self.SMALL, "--shards", shards, "--checkpoint", str(path),
             "--checkpoint-every", every],
            capsys,
            f"--checkpoint-every must be at least 1 with --checkpoint, "
            f"got {every}",
        )
        assert not path.exists()

    def test_checkpoint_every_below_one_on_demand(self, tmp_path, capsys):
        path, trace = tmp_path / "ck.json", tmp_path / "t.jsonl"
        self._refused(
            ["demand", "--shape", "2x2x2", "--trace", str(trace),
             "--checkpoint", str(path), "--checkpoint-every", "-3"],
            capsys,
            "--checkpoint-every must be at least 1 with --checkpoint, got -3",
        )
        assert list(tmp_path.iterdir()) == []

    def test_checkpoint_every_below_one_on_faults_run(self, tmp_path, capsys):
        faults = tmp_path / "faults.json"
        assert main(
            ["faults", "sample", "--shape", "2x2x2", "--endpoints", "2",
             "-k", "1", "--seed", "3", "--out", str(faults)]
        ) == 0
        capsys.readouterr()
        path = tmp_path / "ck.json"
        self._refused(
            ["faults", "run", str(faults), "--checkpoint", str(path),
             "--checkpoint-every", "0"],
            capsys,
            "--checkpoint-every must be at least 1 with --checkpoint, got 0",
        )
        assert not path.exists()

    def test_checkpoint_every_needs_a_checkpoint_to_matter(self, capsys):
        # Without --checkpoint the cadence is unused, as it always was.
        assert main(["run", *self.SMALL, "--checkpoint-every", "0"]) == 0
        assert "delivered" in capsys.readouterr().out

    def test_checkpoint_save_refuses_negative_cycles(self, tmp_path, capsys):
        out = tmp_path / "ck.json"
        self._refused(
            ["checkpoint", "save", *self.SMALL, "--cycles", "-5",
             "--out", str(out)],
            capsys,
            "--cycles must not be negative, got -5",
        )
        assert not out.exists()

    def test_profile_refuses_a_negative_top(self, capsys):
        self._refused(
            ["profile", *self.SMALL, "--top", "-1"],
            capsys,
            "--top must not be negative, got -1",
        )


class TestFaultsCommand:
    def _sample(self, tmp_path, capsys, k="2", shape="2x2x2", seed="3",
                down=None):
        path = tmp_path / "faults.json"
        argv = [
            "faults", "sample", "--shape", shape, "--endpoints", "2",
            "-k", k, "--seed", seed, "--out", str(path),
        ]
        if down is not None:
            argv += ["--down", down]
        assert main(argv) == 0
        capsys.readouterr()  # discard the summary line
        return path

    def test_sample_writes_valid_json(self, tmp_path, capsys):
        import json

        path = self._sample(tmp_path, capsys)
        payload = json.loads(path.read_text())
        assert len(payload["faults"]) == 2
        assert payload["shape"] == [2, 2, 2]

    def test_sample_to_stdout(self, capsys):
        import json

        code = main(
            [
                "faults", "sample", "--shape", "2x2x2", "--endpoints", "2",
                "-k", "1", "--seed", "3", "--out", "-",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["faults"]) == 1

    def test_validate_sampled_set(self, tmp_path, capsys):
        path = self._sample(tmp_path, capsys)
        code = main(
            [
                "faults", "validate", str(path),
                "--check-routes", "--check-deadlock",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "valid" in out
        assert "route resolution:" in out
        assert "acyclic (deadlock-free)" in out

    def test_validate_a_hand_written_two_axis_file(self, tmp_path, capsys):
        # A mesh file may spell its shape as the mesh does, in two ints.
        path = tmp_path / "faults.json"
        path.write_text(
            '{"version": 1, "shape": [3, 3], "topology": "mesh", "faults": []}'
        )
        argv = ["faults", "validate", str(path), "--check-routes",
                "--check-deadlock"]
        assert main(argv) == 0, capsys.readouterr().err
        out = capsys.readouterr().out
        assert "0 fault spec(s), 0 distinct failed channel(s) on shape 3x3x1" in out
        assert "acyclic (deadlock-free)" in out

    def test_validate_shape_comes_from_file(self, tmp_path, capsys):
        # `sample` records the shape, so `validate` needs no --shape.
        path = self._sample(tmp_path, capsys, shape="3x3x3")
        assert main(["faults", "validate", str(path)]) == 0
        assert "3x3x3" in capsys.readouterr().out

    def test_run_round_trip_reproduces_identical_trace(self, tmp_path, capsys):
        """The acceptance property at the CLI level: a sampled fault set
        round-tripped through JSON reproduces the byte-identical
        degraded-run trace."""
        # Mid-run failures (cycle 20) so the trace carries fault events.
        fault_path = self._sample(tmp_path, capsys, down="20")
        traces = []
        for name in ("a.jsonl", "b.jsonl"):
            trace_path = tmp_path / name
            code = main(
                [
                    "faults", "run", str(fault_path),
                    "--pattern", "uniform", "--batch", "4", "--cores", "2",
                    "--seed", "5", "--trace", str(trace_path),
                ]
            )
            assert code == 0
            traces.append(trace_path.read_bytes())
        assert traces[0] == traces[1]
        assert b'"ev": "fault"' in traces[0] or b'"ev":"fault"' in traces[0]
        capsys.readouterr()

    def test_run_summary_reports_outcomes(self, tmp_path, capsys):
        fault_path = self._sample(tmp_path, capsys, down="20")
        code = main(
            [
                "faults", "run", str(fault_path),
                "--pattern", "uniform", "--batch", "4", "--cores", "2",
                "--seed", "5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "delivered" in out
        assert "(2 fault events)" in out


def _stamp_of(argv):
    """The run stamp of a ``repro run`` command line."""
    from repro.cli import _runspec, build_parser
    from repro.sim.checkpoint import run_stamp

    return run_stamp(_runspec(build_parser().parse_args(argv))[1])


class TestShardedCli:
    """The --shards surface: run, trace, checkpoint save, and profile
    all take the shard count as one more input and must agree with their
    serial counterparts."""

    def test_run_sharded_matches_serial_summary(self, capsys):
        args = [
            "run", "--shape", "2x2x2", "--endpoints", "2",
            "--batch", "4", "--cores", "2", "--seed", "7",
        ]
        assert main(args + ["--shards", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(args + ["--shards", "2"]) == 0
        sharded = capsys.readouterr().out
        # Same delivered/injected/cycle counts; only the wall-clock
        # parenthetical and the shards= label may differ.
        assert serial.split(":", 1)[1].split("(")[0] == \
            sharded.split(":", 1)[1].split("(")[0]
        assert "shards=2" in sharded

    def test_golden_regenerates_sharded(self, tmp_path):
        from repro.sim.goldens import committed_golden_path

        out_path = tmp_path / "golden.jsonl"
        code = main(
            ["trace", "--golden", "uniform_2x2x2", "--shards", "2",
             "--out", str(out_path)]
        )
        assert code == 0
        assert (
            out_path.read_text()
            == committed_golden_path("uniform_2x2x2").read_text()
        )

    def test_unshardable_golden_rejected(self, tmp_path, capsys):
        code = main(
            ["trace", "--golden", "pingpong_2x2x2", "--shards", "2",
             "--out", str(tmp_path / "x.jsonl")]
        )
        assert code == 2
        assert "cannot run sharded" in capsys.readouterr().err

    def test_trace_sharded_matches_serial_bytes(self, tmp_path, capsys):
        """A described run traced under --shards is the same run: the
        same file, the same summary line. (The command used to refuse:
        "--shards applies only to --golden regeneration".)"""
        args = ["trace", "--shape", "4x2x2", "--endpoints", "2", "--batch",
                "4", "--cores", "2", "--seed", "5", "--arbitration", "iw"]
        outputs = set()
        for shards in (1, 2, 4):
            out_path = tmp_path / f"t{shards}.jsonl"
            assert main(args + ["--shards", str(shards), "--out", str(out_path)]) == 0
            outputs.add((out_path.read_bytes(), capsys.readouterr().err))
        assert len(outputs) == 1

        # What cannot be sharded is refused by the runner, by name.
        code = main(
            ["trace", "--topology", "mesh", "--shape", "4x4", "--shards", "2",
             "--out", str(tmp_path / "x.jsonl")]
        )
        assert code == 1
        assert "only the torus topology" in capsys.readouterr().err

    def test_checkpoint_save_sharded_matches_golden(self, tmp_path, capsys):
        import pathlib

        out_path = tmp_path / "ck.json"
        code = main(
            [
                "checkpoint", "save", "--shape", "2x2x2", "--endpoints",
                "2", "--pattern", "uniform", "--batch", "8", "--cores",
                "2", "--arbitration", "rr", "--seed", "3", "--cycles",
                "40", "--shards", "2", "--out", str(out_path),
            ]
        )
        assert code == 0
        golden = pathlib.Path("tests/golden/checkpoint_uniform_2x2x2.json")
        assert out_path.read_bytes() == golden.read_bytes()
        assert "cycle 40" in capsys.readouterr().err

    def test_checkpoint_names_its_run_and_its_machine(
        self, tmp_path, capsys, monkeypatch
    ):
        """A killed sharded run leaves one file; another run is refused
        it by name (exit 1, file untouched) -- it used to print the first
        run's numbers under its own label -- and the run it belongs to
        finishes it serially, leaving nothing."""
        import glob

        ck = str(tmp_path / "ck.json")
        run_a = [
            "run", "--shape", "2x2x2", "--endpoints", "2", "--batch", "8",
            "--cores", "2", "--seed", "3", "--checkpoint", ck,
            "--checkpoint-every", "16",
        ]
        monkeypatch.setenv("REPRO_CRASH_AT_CYCLE", "40")
        with pytest.raises(KeyboardInterrupt):
            main(run_a + ["--shards", "2"])
        monkeypatch.delenv("REPRO_CRASH_AT_CYCLE")
        assert glob.glob(ck + "*") == [ck]
        before = open(ck, "rb").read()
        capsys.readouterr()

        run_b = list(run_a)
        run_b[run_b.index("--seed") + 1] = "9"
        for extra in ([], ["--shards", "2"], ["--pattern", "tornado"]):
            assert main(run_b + extra) == 1
            assert capsys.readouterr().err == (
                f"error: checkpoint {ck} was written by a different run "
                f"(its stamp is {json.loads(before)['run_stamp'][:12]}, this "
                f"run's {_stamp_of(run_b + extra)[:12]}); remove it or pass "
                f"the run that wrote it\n"
            )
        assert open(ck, "rb").read() == before

        assert main(run_a) == 0
        assert "128 of 128 delivered in 79 cycles" in capsys.readouterr().out
        assert glob.glob(ck + "*") == []

        # An unstamped file (``checkpoint save``) has its machine to go by.
        assert main(
            ["checkpoint", "save", "--shape", "2x2x2", "--endpoints", "2",
             "--batch", "8", "--cores", "2", "--seed", "3", "--cycles", "40",
             "--out", ck]
        ) == 0
        capsys.readouterr()
        wide = list(run_a)
        wide[wide.index("--shape") + 1] = "4x2x2"
        for extra in ([], ["--shards", "2"]):
            assert main(wide + extra) == 1
            assert capsys.readouterr().err == (
                "error: checkpoint belongs to a different machine: shape is "
                "(2, 2, 2) in the checkpoint, (4, 2, 2) in this run\n"
            )
        assert main(run_a + ["--shards", "2"]) == 0
        assert "128 of 128 delivered in 79 cycles" in capsys.readouterr().out

    def test_profile_sharded_prints_merged_table(self, capsys):
        args = [
            "profile", "--shape", "2x2x2", "--endpoints", "2",
            "--cores", "2", "--batch", "8", "--top", "12", "--shards", "2",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "shards=2" in out
        assert "ncalls" in out
        assert len(out.strip().splitlines()) == 15
        # Deterministic across invocations, like the serial table.
        assert main(args) == 0
        assert capsys.readouterr().out == out


class TestDemandOnTwoAxisTopologies:
    """`repro demand` hands generators the normalized shape, as serve does."""

    @pytest.mark.parametrize(
        "topology,shape", [("mesh", "4x4"), ("chiplet", "2x2")]
    )
    def test_runs(self, topology, shape, capsys):
        code = main(
            [
                "demand", "--topology", topology, "--shape", shape,
                "--duration", "32",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "injected" in out and "delivered" in out

    def test_cli_and_session_produce_the_same_stats(self, monkeypatch, capsys):
        import asyncio
        import json

        from repro.serve.session import Session
        from repro.sim import simulator

        captured = []
        run = simulator.run

        def recording(*args, **kwargs):
            captured.append(run(*args, **kwargs))
            return captured[-1]

        monkeypatch.setattr(simulator, "run", recording)
        code = main(
            [
                "demand", "--topology", "mesh", "--shape", "4x4",
                "--endpoints", "2", "--cores", "2", "--generator", "hotspot",
                "--rate", "0.3", "--hotspots", "2", "--matrix-seed", "4",
                "--epochs", "2", "--epoch-length", "16", "--duration", "32",
                "--arbitration", "iw", "--seed", "9",
            ]
        )
        assert code == 0
        capsys.readouterr()
        session = Session.create(
            "s",
            {
                "kind": "demand", "topology": "mesh", "shape": [4, 4],
                "endpoints": 2, "cores": 2, "arbitration": "iw", "seed": 9,
                "demand": {
                    "generator": "hotspot", "rate": 0.3, "hotspots": 2,
                    "matrix_seed": 4, "epochs": 2, "epoch_length": 16,
                    "duration": 32,
                },
            },
        )
        asyncio.run(session.advance())
        (cli_stats,) = captured
        assert json.dumps(cli_stats.asdict()) == json.dumps(
            session.stats_payload()["stats"]
        )


class TestReplayCommand:
    @pytest.mark.parametrize("name", ["mesh_4x4", "chiplet_2x2"])
    def test_non_torus_goldens_replay_bitwise(self, name, capsys):
        from repro.sim.goldens import committed_golden_path

        code = main(["replay", str(committed_golden_path(name)), "--verify"])
        assert code == 0
        assert "byte-identical" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "topology,shape,arbitration",
        [("mesh", "4x4", "rr"), ("chiplet", "2x2", "iw")],
    )
    def test_fresh_non_torus_trace_round_trips(
        self, topology, shape, arbitration, tmp_path, capsys
    ):
        # `repro trace` writes the normalized shape ([4, 4, 1]) and the
        # topology into the header; replay must rebuild that machine.
        trace = tmp_path / "run.jsonl"
        assert main(
            [
                "trace", "--topology", topology, "--shape", shape,
                "--endpoints", "2", "--cores", "2", "--batch", "2",
                "--arbitration", arbitration, "--out", str(trace),
            ]
        ) == 0
        assert main(["replay", str(trace), "--verify"]) == 0
        assert "byte-identical" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "topology,shape", [("torus", "2x2x2"), ("mesh", "4x4"), ("chiplet", "2x2")]
    )
    def test_demand_trace_round_trips_on_every_topology(
        self, topology, shape, tmp_path, capsys
    ):
        # Before PR 16 `repro demand` built its own header and left the
        # topology out: mesh traces replayed as a torus (DIVERGED), chiplet
        # ones died on the tpc check.
        import json

        trace = tmp_path / "demand.jsonl"
        assert main(
            [
                "demand", "--topology", topology, "--shape", shape,
                "--duration", "32", "--trace", str(trace),
            ]
        ) == 0
        header = json.loads(trace.read_text().splitlines()[0])
        assert header.get("topology") == (None if topology == "torus" else topology)
        assert main(["replay", str(trace), "--verify"]) == 0
        assert "byte-identical" in capsys.readouterr().out

    def test_replay_parses_each_line_and_builds_the_machine_once(
        self, monkeypatch, capsys
    ):
        # An iw trace: the header -> weight-pattern step is replay's own.
        import json

        from repro.sim.goldens import committed_golden_path
        from repro.traffic import replay

        path = committed_golden_path("tornado_4x1x1")
        lines = len(path.read_text().splitlines())
        counts = {"machines": 0, "decoded": 0}
        machine_cls, loads = replay.Machine, json.loads

        def counting_machine(config):
            counts["machines"] += 1
            return machine_cls(config)

        def counting_loads(text, *args, **kwargs):
            counts["decoded"] += 1
            return loads(text, *args, **kwargs)

        monkeypatch.setattr(replay, "Machine", counting_machine)
        monkeypatch.setattr(json, "loads", counting_loads)
        assert main(["replay", str(path), "--verify"]) == 0
        assert "(iw); round-trip byte-identical" in capsys.readouterr().out
        assert counts == {"machines": 1, "decoded": lines}


class TestFaultFileMachineRule:
    """Explicit flag > fault file > the command's default, on every
    command that takes a fault file (PR 16: `run` and `demand` used to
    ignore the file's machine because their flags defaulted to 4x4x4)."""

    COMMANDS = {
        "run": lambda path: ["run", "--fault-file", path],
        "demand": lambda path: ["demand", "--duration", "16", "--fault-file", path],
        "faults run": lambda path: ["faults", "run", path],
    }

    def _sample(self, tmp_path, capsys, *machine_args):
        path = tmp_path / "faults.json"
        assert main(
            ["faults", "sample", "-k", "1", "--out", str(path)] + list(machine_args)
        ) == 0
        capsys.readouterr()
        return str(path)

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_the_files_machine_wins_over_the_default(
        self, command, tmp_path, capsys
    ):
        path = self._sample(tmp_path, capsys, "--shape", "2x2x2")
        argv = self.COMMANDS[command](path)
        assert main(argv) == 0
        implied = capsys.readouterr().out
        assert main(argv + ["--shape", "2x2x2", "--topology", "torus"]) == 0
        explicit = capsys.readouterr().out
        strip = lambda text: text.split(" cycles")[0]  # drop run's wall time
        assert strip(implied) == strip(explicit)
        assert "delivered" in implied

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_an_explicit_shape_wins_and_the_mismatch_is_named(
        self, command, tmp_path, capsys
    ):
        path = self._sample(tmp_path, capsys, "--shape", "2x2x2")
        assert main(self.COMMANDS[command](path) + ["--shape", "4x2x2"]) == 1
        assert capsys.readouterr().err == (
            "error: fault set was drawn for shape (2, 2, 2), machine is "
            "(4, 2, 2)\n"
        )

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_a_two_axis_shape_takes_the_files_topology(
        self, command, tmp_path, capsys
    ):
        path = self._sample(tmp_path, capsys, "--topology", "mesh", "--shape", "3x3")
        assert main(self.COMMANDS[command](path) + ["--shape", "3x3"]) == 0
        assert "delivered" in capsys.readouterr().out

    def test_without_a_fault_file_the_defaults_are_the_old_ones(self, capsys):
        assert main(["run", "--batch", "1"]) == 0
        assert "128 of 128 delivered" in capsys.readouterr().out  # 4x4x4 x 2 cores

    def test_serial_run_takes_the_retry_policy(self, tmp_path, capsys):
        # `run --retries` was a flag nothing read: --policy had no `retry`.
        path = self._sample(
            tmp_path, capsys, "--shape", "4x2x2", "-k", "2", "--down", "10"
        )
        policy = ["--policy", "retry", "--retries", "3", "--batch", "4"]
        assert main(["faults", "run", path] + policy) == 0
        reference = capsys.readouterr().out
        assert main(["run", "--fault-file", path] + policy) == 0
        out = capsys.readouterr().out
        served = re.search(
            r"(\d+) delivered, (\d+) dropped, (\d+) rerouted, (\d+) retried",
            reference,
        ).groups()
        assert int(served[3]) > 0  # the policy was exercised
        assert re.search(
            r"(\d+) of \d+ delivered, (\d+) dropped, (\d+) rerouted", out
        ).groups() == served[:3]
        assert main(["run", "--fault-file", path, "--shards", "2"] + policy) == 1
        assert "retry fault policy is not supported in sharded runs" in (
            capsys.readouterr().err
        )


def test_demand_rejects_a_matrix_file_it_would_not_read(tmp_path, capsys):
    from repro.traffic.demand import DemandMatrix

    matrix = tmp_path / "matrix.json"
    matrix.write_text(DemandMatrix.uniform((2, 2, 2), 0.2).to_json())
    argv = ["demand", "--shape", "2x2x2", "--duration", "8",
            "--matrix-file", str(matrix)]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == (
        "error: --matrix-file is only read by --generator file, not "
        "--generator hotspot\n"
    )
    assert main(argv + ["--generator", "file"]) == 0
    assert "injected" in capsys.readouterr().out


def test_resume_refuses_another_runs_checkpoint_before_rewinding_the_trace(
    tmp_path, capsys, monkeypatch
):
    """A resume cuts the trace file back to the checkpoint; a checkpoint
    that is not this run's must be refused before that."""
    trace, ck, straight = (
        str(tmp_path / name) for name in ("t.jsonl", "ck.json", "s.jsonl")
    )
    demand = [
        "demand", "--shape", "2x2x2", "--endpoints", "2", "--cores", "2",
        "--duration", "96", "--rate", "0.2",
    ]
    checkpointed = demand + [
        "--trace", trace, "--checkpoint", ck, "--checkpoint-every", "16",
    ]
    assert main(demand + ["--trace", straight]) == 0
    monkeypatch.setenv("REPRO_CRASH_AT_CYCLE", "40")
    with pytest.raises(KeyboardInterrupt):
        main(checkpointed)
    monkeypatch.delenv("REPRO_CRASH_AT_CYCLE")
    before = open(trace, "rb").read(), open(ck, "rb").read()
    assert len(before[0]) > json.loads(before[1])["trace"]["bytes_written"]
    capsys.readouterr()

    assert main(checkpointed + ["--seed", "4"]) == 1
    assert "was written by a different run" in capsys.readouterr().err
    assert (open(trace, "rb").read(), open(ck, "rb").read()) == before

    assert main(checkpointed) == 0
    assert open(trace, "rb").read() == open(straight, "rb").read()


class TestOneCheckpointContract:
    """``repro run``, ``repro demand`` and ``repro faults run`` share one
    ``--checkpoint`` contract: a checkpoint of this run at the path is
    picked up (trace included) by making the same command again; anything
    else at the path is refused by name, exit 1, and left as it is."""

    MACHINE = ["--shape", "2x2x2", "--endpoints", "2", "--cores", "2"]

    @pytest.fixture
    def commands(self, tmp_path):
        faults = str(tmp_path / "faults.json")
        assert main(
            ["faults", "sample", "--shape", "2x2x2", "--endpoints", "2",
             "-k", "1", "--down", "10", "--out", faults]
        ) == 0
        return {
            "run": ["run", "--batch", "8", "--seed", "3"] + self.MACHINE,
            "demand": ["demand", "--duration", "96", "--rate", "0.2"] + self.MACHINE,
            "faults run": ["faults", "run", faults, "--batch", "8"] + self.MACHINE,
        }

    @staticmethod
    def _killed(argv, monkeypatch, at="40"):
        monkeypatch.setenv("REPRO_CRASH_AT_CYCLE", at)
        with pytest.raises(KeyboardInterrupt):
            main(argv)
        monkeypatch.delenv("REPRO_CRASH_AT_CYCLE")

    @pytest.mark.parametrize("command", ["run", "demand", "faults run"])
    def test_another_runs_checkpoint_is_refused_and_left(
        self, command, commands, tmp_path, capsys, monkeypatch
    ):
        ck = str(tmp_path / "ck.json")
        saves = ["--checkpoint", ck, "--checkpoint-every", "16"]
        self._killed(commands["run"] + ["--seed", "9"] + saves, monkeypatch)
        before = open(ck, "rb").read()
        capsys.readouterr()
        assert main(commands[command] + saves) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(
            f"error: checkpoint {ck} was written by a different run"
        )
        assert open(ck, "rb").read() == before

    @pytest.mark.parametrize(
        "command", ["run", "demand", "faults run", "checkpoint restore"]
    )
    def test_a_file_that_is_no_checkpoint_is_refused_and_left(
        self, command, commands, tmp_path, capsys
    ):
        # ``demand``/``faults run`` without ``--resume`` used to unlink it.
        ck = tmp_path / "notes.txt"
        ck.write_text("not a checkpoint\n")
        if command == "checkpoint restore":
            argv = ["checkpoint", "restore", str(ck)]
        else:
            argv = commands[command] + ["--checkpoint", str(ck)]
        capsys.readouterr()
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"error: {ck}: checkpoint is not valid JSON")
        assert ck.read_text() == "not a checkpoint\n"

    @pytest.mark.parametrize("command", ["demand", "faults run"])
    def test_same_command_twice_around_a_crash_gives_the_straight_trace(
        self, command, commands, tmp_path, capsys, monkeypatch
    ):
        trace, ck, straight = (
            str(tmp_path / name) for name in ("t.jsonl", "ck.json", "s.jsonl")
        )
        assert main(commands[command] + ["--trace", straight]) == 0
        checkpointed = commands[command] + [
            "--trace", trace, "--checkpoint", ck, "--checkpoint-every", "16",
        ]
        self._killed(checkpointed, monkeypatch)
        assert main(checkpointed) == 0
        assert open(trace, "rb").read() == open(straight, "rb").read()
        import os

        assert not os.path.exists(ck)

    def test_stdout_trace_cannot_resume_and_says_what_to_pass(
        self, commands, tmp_path, capsys, monkeypatch
    ):
        ck = str(tmp_path / "ck.json")
        saves = ["--checkpoint", ck, "--checkpoint-every", "16"]
        self._killed(
            commands["demand"] + ["--trace", str(tmp_path / "t.jsonl")] + saves,
            monkeypatch,
        )
        before = open(ck, "rb").read()
        capsys.readouterr()
        assert main(commands["demand"] + ["--trace", "-"] + saves) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert "pass the interrupted run's trace file, not stdout" in err
        assert open(ck, "rb").read() == before

    def test_stdout_appended_to_a_file_keeps_what_the_file_held(
        self, commands, tmp_path, capsys, monkeypatch
    ):
        """``--trace - >> log``: stdout is a seekable file at offset 0
        that holds the user's bytes. They stay -- on a fresh run, and on
        one that finds a checkpoint to resume (refused as above)."""
        import os
        import sys

        ck, straight = str(tmp_path / "ck.json"), str(tmp_path / "s.jsonl")
        saves = ["--checkpoint", ck, "--checkpoint-every", "16"]
        assert main(commands["demand"] + ["--trace", straight]) == 0
        self._killed(
            commands["demand"] + ["--trace", str(tmp_path / "t.jsonl")] + saves,
            monkeypatch,
        )
        log = tmp_path / "log"
        earlier = "earlier output\n" * 4000  # more than the checkpoint's bytes
        log.write_text(earlier)
        for argv, status in (
            (commands["demand"] + ["--trace", "-"] + saves, 1),
            (commands["demand"] + ["--trace", "-"], 0),
        ):
            # As the shell opens it: O_APPEND, not positioned at the end.
            fd = os.open(log, os.O_WRONLY | os.O_APPEND)
            with open(fd, "w") as stream, monkeypatch.context() as patch:
                patch.setattr(sys, "stdout", stream)
                assert main(argv) == status
        assert log.read_text() == earlier + open(straight).read()

    def test_trace_to_a_fifo_is_only_written_to(self, commands, tmp_path):
        """A path that is no regular file (a FIFO, ``/dev/stdout``, a
        ``>(...)`` substitution) cannot be opened for rewinding."""
        import os
        import threading

        straight, fifo = str(tmp_path / "s.jsonl"), str(tmp_path / "fifo")
        assert main(commands["demand"] + ["--trace", straight]) == 0
        os.mkfifo(fifo)
        read = []
        reader = threading.Thread(
            target=lambda: read.append(open(fifo).read()), daemon=True
        )
        reader.start()
        assert main(commands["demand"] + ["--trace", fifo]) == 0
        reader.join(timeout=30)
        assert read == [open(straight).read()]
