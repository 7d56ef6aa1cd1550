"""Trace-replay conformance: a recorded run replays byte-for-byte.

The replay contract (:mod:`repro.traffic.replay`): feeding a recorded
JSONL trace back through :func:`replay_trace` reproduces the *exact*
bytes of the original -- header and metadata verbatim, every event
re-derived by actually re-running the simulation from the reconstructed
inject schedule. These tests pin that contract against the committed
golden traces and against freshly recorded runs, and pin the rejection
behavior for every class of non-replayable trace.
"""

import io
import json

import pytest

from repro.core.machine import Machine, MachineConfig
from repro.sim.goldens import GOLDEN_DIR, render_golden
from repro.sim.simulator import RunSpec, build
from repro.sim.trace import JsonlTraceWriter
from repro.traffic.demand import DemandMatrix, DemandSpec
from repro.traffic.patterns import Tornado, UniformRandom
from repro.traffic.replay import (
    ReplayError,
    build_replay_engine,
    load_replay,
    replay_trace,
)

HEALTHY_GOLDENS = {
    # name -> weight_patterns needed to rebuild iw tables (None otherwise)
    "uniform_2x2x2": None,
    "tornado_4x1x1": [Tornado((4, 1, 1))],
    "pingpong_2x2x2": None,
    "demand_2x2x2": None,
    # Non-torus machines: the header's "topology" picks the machine, and
    # chiplet's iw tables are rebuilt on a machine without translation
    # symmetry.
    "mesh_4x4": None,
    "chiplet_2x2": [UniformRandom((2, 2, 1))],
}


def golden_text(name):
    return (GOLDEN_DIR / f"{name}.jsonl").read_text()


def round_trip(text, weight_patterns=None):
    out = io.StringIO()
    stats, workload, events = replay_trace(
        text.splitlines(), out_stream=out, weight_patterns=weight_patterns
    )
    return out.getvalue(), stats, workload, events


class TestGoldenRoundTrips:
    def test_uniform_golden_replays_bitwise(self):
        # The headline acceptance criterion: the committed uniform golden,
        # fed back through replay, reproduces its own bytes.
        text = golden_text("uniform_2x2x2")
        replayed, stats, workload, events = round_trip(text)
        assert replayed == text
        assert events == workload.num_events
        assert stats.delivered == len(workload.packets)

    @pytest.mark.parametrize("name", sorted(HEALTHY_GOLDENS))
    def test_every_healthy_golden_replays_bitwise(self, name):
        text = golden_text(name)
        replayed, _stats, _workload, _events = round_trip(
            text, weight_patterns=HEALTHY_GOLDENS[name]
        )
        assert replayed == text

    @pytest.mark.parametrize("name", sorted(HEALTHY_GOLDENS))
    def test_committed_goldens_match_generators(self, name):
        # Replay conformance is only meaningful if the committed bytes
        # are the generator's bytes.
        assert golden_text(name) == render_golden(name)

    def test_replay_of_replay_is_fixed_point(self):
        text = golden_text("uniform_2x2x2")
        once, _s, _w, _e = round_trip(text)
        twice, _s, _w, _e = round_trip(once)
        assert twice == once == text

    def test_faulted_golden_is_rejected(self):
        text = golden_text("faulted_2x2x2")
        with pytest.raises(ReplayError, match="not bitwise-replayable"):
            load_replay(text.splitlines())


class TestFreshTraceRoundTrip:
    def test_recorded_demand_run_replays_bitwise(self):
        shape = (2, 2, 2)
        machine = Machine(MachineConfig(shape=shape, endpoints_per_chip=2))
        from repro.core.routing import RouteComputer

        routes = RouteComputer(machine)
        spec = DemandSpec(
            demand=DemandMatrix.hotspot(shape, rate=0.4, seed=21),
            cores_per_chip=2,
            mode="open",
            duration_cycles=40,
            injection="paced",
            seed=13,
        )
        stream = io.StringIO()
        writer = JsonlTraceWriter(
            stream,
            meta={
                "shape": list(shape),
                "endpoints": 2,
                "tpc": machine.ticks_per_cycle,
                "arb": "rr",
            },
        )
        engine = build(RunSpec(machine.config, spec), machine, routes, trace=writer)
        engine.run()
        writer.flush()
        text = stream.getvalue()

        replayed, stats, _workload, _events = round_trip(text)
        assert replayed == text
        assert stats.delivered == engine.stats.delivered


class TestWorkloadReconstruction:
    def test_header_metadata_is_parsed(self):
        workload = load_replay(golden_text("tornado_4x1x1").splitlines())
        assert workload.shape == (4, 1, 1)
        assert workload.endpoints_per_chip == 1
        assert workload.arbitration == "iw"
        assert workload.pattern == "tornado"
        assert workload.cores == 1

    def test_header_topology_is_honoured(self):
        # Goldens spell a two-axis shape [4, 4]; `repro trace` writes the
        # normalized [4, 4, 1]. Both name the same mesh.
        lines = golden_text("mesh_4x4").splitlines()
        workload = load_replay(lines)
        assert workload.topology == "mesh"
        assert workload.shape == (4, 4, 1)
        assert workload.config.topology == "mesh"
        header = json.loads(lines[0])
        header["shape"] = [4, 4, 1]
        lines[0] = json.dumps(header, sort_keys=True, separators=(",", ":"))
        assert load_replay(lines).config == workload.config
        assert load_replay(
            golden_text("uniform_2x2x2").splitlines()
        ).topology == "torus"

    def test_packets_match_trace_events(self):
        text = golden_text("uniform_2x2x2")
        workload = load_replay(text.splitlines())
        events = [json.loads(line) for line in text.splitlines()[1:]]
        injects = {e["pid"]: e for e in events if e.get("ev") == "inject"}
        delivers = {e["pid"]: e for e in events if e.get("ev") == "deliver"}
        departs = {}
        for e in events:
            if e.get("ev") == "depart":
                departs.setdefault(e["pid"], []).append((e["ch"], e["vc"]))
        assert len(workload.packets) == len(injects) == len(delivers)
        by_pid = {p.pid: p for p in workload.packets}
        for pid, packet in by_pid.items():
            deliver = delivers[pid]
            assert packet.release_cycle == deliver["cyc"] - deliver["qlat"]
            assert list(packet.route.hops) == departs[pid]
            assert packet.route.src == injects[pid]["src"]
            assert packet.route.dst == injects[pid]["dst"]

    def test_per_source_blocks_are_queue_ordered(self):
        workload = load_replay(golden_text("demand_2x2x2").splitlines())
        last = {}
        for packet in workload.packets:
            src = packet.route.src
            assert last.get(src, -1) <= packet.release_cycle
            last[src] = packet.release_cycle


def perturbed(name="uniform_2x2x2", header=None, drop_last_deliver=False):
    lines = golden_text(name).splitlines()
    if header is not None:
        obj = json.loads(lines[0])
        obj.update(header)
        lines[0] = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    if drop_last_deliver:
        keep = []
        dropped = False
        for line in reversed(lines):
            if not dropped and '"ev":"deliver"' in line.replace(" ", ""):
                dropped = True
                continue
            keep.append(line)
        lines = list(reversed(keep))
        assert dropped
    return lines


class TestRejection:
    def test_empty_trace(self):
        with pytest.raises(ReplayError, match="empty trace"):
            load_replay([])
        with pytest.raises(ReplayError, match="empty trace"):
            load_replay(["", "  \n"])

    def test_missing_header(self):
        lines = golden_text("uniform_2x2x2").splitlines()
        with pytest.raises(ReplayError, match="no header record"):
            load_replay(lines[1:])

    def test_unsupported_schema(self):
        with pytest.raises(ReplayError, match="unsupported trace schema"):
            load_replay(perturbed(header={"schema": 2}))

    def test_missing_machine_metadata(self):
        lines = golden_text("uniform_2x2x2").splitlines()
        obj = json.loads(lines[0])
        del obj["shape"]
        lines[0] = json.dumps(obj, sort_keys=True)
        with pytest.raises(ReplayError, match="lacks 'shape'"):
            load_replay(lines)

    def test_timebase_mismatch(self):
        with pytest.raises(ReplayError, match="timebase"):
            load_replay(perturbed(header={"tpc": 99}))

    def test_header_only_trace_has_no_events(self):
        lines = [golden_text("uniform_2x2x2").splitlines()[0]]
        with pytest.raises(ReplayError, match="no events"):
            load_replay(lines)

    def test_interleaved_metadata_rejected(self):
        lines = golden_text("uniform_2x2x2").splitlines()
        # Splice a metadata record into the middle of the event stream.
        lines.insert(len(lines) // 2, '{"ev":"note","text":"mid"}')
        with pytest.raises(ReplayError, match="interleaved"):
            load_replay(lines)

    def test_truncated_trace_rejected(self):
        with pytest.raises(ReplayError, match="never delivered"):
            load_replay(perturbed(drop_last_deliver=True))

    def test_duplicate_inject_rejected(self):
        lines = golden_text("uniform_2x2x2").splitlines()
        index, inject = next(
            (i, line)
            for i, line in enumerate(lines)
            if '"ev":"inject"' in line.replace(" ", "")
        )
        lines.insert(index + 1, inject)
        with pytest.raises(ReplayError, match="injected twice"):
            load_replay(lines)

    def test_machine_mismatch_rejected(self):
        workload = load_replay(golden_text("uniform_2x2x2").splitlines())
        wrong = Machine(MachineConfig(shape=(4, 1, 1), endpoints_per_chip=2))
        with pytest.raises(ReplayError, match="does not match"):
            build_replay_engine(wrong, workload)

    def test_topology_mismatch_rejected(self):
        workload = load_replay(golden_text("mesh_4x4").splitlines())
        torus = Machine(MachineConfig(shape=(4, 4, 1), endpoints_per_chip=1))
        with pytest.raises(ReplayError, match="does not match"):
            build_replay_engine(torus, workload)

    def test_iw_without_weight_patterns_rejected(self):
        workload = load_replay(golden_text("tornado_4x1x1").splitlines())
        machine = Machine(MachineConfig(shape=(4, 1, 1), endpoints_per_chip=1))
        with pytest.raises(ReplayError, match="needs weight_patterns"):
            build_replay_engine(machine, workload)


def edited(kind, key, value, name="uniform_2x2x2"):
    """The golden with one field of pid 0's inject, or of its second
    depart, replaced."""
    lines = golden_text(name).splitlines()
    seen = 0
    for index, line in enumerate(lines):
        obj = json.loads(line)
        if obj.get("ev") == kind and obj.get("pid") == 0:
            seen += 1
            if kind == "inject" or seen == 2:
                obj[key] = value
                lines[index] = json.dumps(obj, separators=(",", ":"))
                return lines
    raise AssertionError(f"pid 0 has no such {kind} event")


#: A depart or inject edited so the packet's route is no walk of the
#: machine, and the one line that names why.
NO_WALK = [
    ("depart", "vc", 7, r"route has hop \(\d+, 7\), which is no \(channel, VC\)"),
    ("depart", "ch", -1, r"route has hop \(-1, \d+\), which is no \(channel, VC\)"),
    ("depart", "ch", 10**9, r"route has hop \(1000000000, \d+\), which is no "),
    ("depart", "ch", 5, r"route hops onto channel 5, which does not leave component"),
    ("depart", "ch", "5", r"route has hop \('5', \d+\), which is no "),
    ("inject", "src", "5", r"source component '5' is not an endpoint"),
    ("inject", "src", True, r"source component True is not an endpoint"),
    ("inject", "dst", 2.0, r"destination component 2\.0 is not an endpoint"),
]


class TestRoutesThatAreNoWalk:
    """A replayed route is checked as a checkpoint's is
    (:func:`~repro.core.routing.validate_route`) before the engine sees
    it: a bad hop is one named line, never a traceback or a packet that
    teleports."""

    @pytest.mark.parametrize("kind,key,value,message", NO_WALK)
    def test_refused_by_name(self, kind, key, value, message):
        with pytest.raises(ReplayError, match=rf"^pid 0: {message}"):
            load_replay(edited(kind, key, value))

    def test_the_command_prints_one_line_and_exits_1(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "t.jsonl"
        path.write_text("\n".join(edited("depart", "ch", 5)) + "\n")
        assert main(["replay", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: pid 0: route hops onto channel 5, ")
        assert err.count("\n") == 1
