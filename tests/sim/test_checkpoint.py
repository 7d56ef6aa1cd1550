"""Per-component checkpoint round-trips and payload validation.

Each mutable component the engine checkpoint captures is exercised in
isolation: ``restore(save(x))`` must be *observationally* equal to ``x``
-- continuing both with an identical stimulus stream produces identical
outputs -- and a second snapshot of the restored object must be
byte-identical to the first (double-checkpoint idempotence). The
end-to-end bitwise guarantee lives in
``tests/properties/test_checkpoint_props.py``; these tests localize a
failure to the component that lost state.
"""

import functools
import io
import json
import random

import pytest

from repro.arbiters.bank import (
    AgeBank,
    FixedPriorityBank,
    InverseWeightedBank,
    RoundRobinBank,
)
from repro.arbiters.base import SimpleRequest
from repro.arbiters.inverse_weighted import InverseWeightedArbiter
from repro.arbiters.weights import WeightTable
from repro.core.machine import ArbiterSites, Machine, MachineConfig
from repro.faults import FaultPolicy, FaultRuntime, FaultSet, FaultSpec
from repro.sim.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointError,
    _stage_builder,
    _upgrade_stage,
    _wheel_from_json,
    _wheel_to_json,
    checkpoint_info,
    dumps,
    load_checkpoint,
    loads,
    restore_engine,
    rng_state_from_json,
    rng_state_to_json,
    save_checkpoint,
    snapshot_engine,
)
from repro.sim.goldens import GOLDEN_DIR
from repro.sim.metrics import MetricsCollector, StreamingQuantile
from repro.sim.simulator import RunSpec, build
from repro.sim.trace import JsonlTraceWriter
from repro.sim.wheel import TimingWheel
from repro.traffic.batch import BatchSpec
from repro.traffic.patterns import UniformRandom

SHAPE = (2, 2, 2)
SCHEMA1_GOLDEN = GOLDEN_DIR / "checkpoint_uniform_2x2x2.schema1.json"


def make_machine():
    return Machine(MachineConfig(shape=SHAPE, endpoints_per_chip=2))


def make_engine(machine, seed=11, batch=8, arbitration="rr", faults=None,
                trace=None):
    from repro.core.routing import RouteComputer

    routes = (
        faults.route_computer if faults is not None else RouteComputer(machine)
    )
    pattern = UniformRandom(SHAPE)
    spec = BatchSpec(
        pattern, packets_per_source=batch, cores_per_chip=2, seed=seed
    )
    return build(
        RunSpec(machine.config, spec, arbitration), machine, routes, faults,
        trace=trace,
    )


def roundtrip(engine, trace=None):
    """Snapshot -> canonical text -> parse -> restore (the full path)."""
    return restore_engine(loads(dumps(snapshot_engine(engine))), trace=trace)


# --- timing wheel -----------------------------------------------------------------


def drain(wheel: TimingWheel, now: int):
    """Full drain in engine order: overflow-due, bucket FIFO, overflow."""
    import heapq

    out = []
    while wheel.pending:
        cycle = wheel.next_cycle(now)
        assert cycle is not None
        now = max(now, cycle)
        overflow = wheel.overflow
        while overflow and overflow[0][0] <= now:
            out.append((now, heapq.heappop(overflow)[2]))
            wheel.pending -= 1
        bucket = wheel.buckets[now & wheel.mask]
        for payload in bucket:
            out.append((now, payload))
            wheel.pending -= 1
        del bucket[:]
        while overflow and overflow[0][0] <= now:
            out.append((now, heapq.heappop(overflow)[2]))
            wheel.pending -= 1
    return out


class TestTimingWheelRoundTrip:
    def build(self):
        wheel = TimingWheel(32)
        now = 100
        rng = random.Random(5)
        for i in range(40):
            # Near events (bucket fast path) and far events (overflow),
            # interleaved, plus some at the same target cycle to pin
            # FIFO order within a bucket.
            delta = rng.choice([1, 2, 3, 3, 7, 40, 63, 64, 200, 500])
            wheel.push(now + delta, now, (0, i, delta, None))
        return wheel, now

    def test_drain_order_preserved(self):
        original, now = self.build()
        data = _wheel_to_json(original, now)
        restored = TimingWheel(32)
        _wheel_from_json(restored, data, decode=tuple)
        assert restored.pending == original.pending
        # Overflow sequence numbers are canonically renumbered 0..k-1 on
        # serialization (push history erased); the restored counter is
        # the overflow population, not the lifetime push count.
        assert restored.seq == len(data["overflow"])
        assert drain(restored, now) == drain(original, now)

    def test_snapshot_is_idempotent(self):
        original, now = self.build()
        data = _wheel_to_json(original, now)
        restored = TimingWheel(32)
        _wheel_from_json(restored, data, decode=tuple)
        again = _wheel_to_json(restored, now)
        # decode=tuple turns payload lists into tuples; re-encoding with
        # the default list encoder must reproduce the exact payload.
        assert json.dumps(again) == json.dumps(data)

    def test_overflow_serialized_sorted(self):
        wheel = TimingWheel(32)
        now = 0
        # Push far-future events out of cycle order: the overflow heap's
        # array layout now differs from sorted order.
        for cycle in (900, 300, 700, 100, 500):
            wheel.push(cycle, now, (0, cycle, None, None))
        data = _wheel_to_json(wheel, now)
        cycles = [entry[0] for entry in data["overflow"]]
        assert cycles == sorted(cycles)
        restored = TimingWheel(32)
        _wheel_from_json(restored, data, decode=tuple)
        assert drain(restored, now) == drain(wheel, now)


# --- arbiters ---------------------------------------------------------------------

#: Two four-input sites side by side: a site's state must not leak into
#: its neighbour's rows.
SITES = ArbiterSites(order=(0, 1), offsets=(0, 4), num_inputs=(4, 4), size=8)
IW_TABLES = {
    site: WeightTable([[31], [16], [8], [4]], 5, 1.0) for site in SITES.order
}


def bank_cases():
    return [
        ("rr", RoundRobinBank),
        ("fixed", FixedPriorityBank),
        ("age", AgeBank),
        ("iw", functools.partial(InverseWeightedBank, weight_tables=IW_TABLES)),
    ]


def drive(bank, site, seed, rounds=40):
    """Deterministic pseudo-random request stream; returns grant list."""
    rng = random.Random(seed)
    grants = []
    for cycle in range(rounds):
        entries = [
            (index, SimpleRequest(inject_cycle=cycle))
            for index in range(4)
            if rng.random() < 0.7
        ] or [(0, SimpleRequest(inject_cycle=cycle))]
        index, request = bank.peek(site, entries)
        bank.commit(site, index, request)
        grants.append(index)
    return grants


class TestArbiterRoundTrip:
    @pytest.mark.parametrize("name,build", bank_cases())
    def test_resume_equals_uninterrupted(self, name, build):
        # Warm both sites (pointer/accumulator state away from reset),
        # move the stage through JSON into a fresh bank, and check both
        # copies grant identically afterwards.
        bank = build(SITES)
        drive(bank, 0, seed=1)
        drive(bank, 1, seed=5)
        state = json.loads(json.dumps(bank.state()))
        assert state["type"] == name
        restored = _stage_builder(state)(SITES)
        assert type(restored) is type(bank)
        restored.restore(state)
        assert restored.state() == bank.state()
        for site, seed in ((1, 2), (0, 4)):
            assert drive(restored, site, seed) == drive(bank, site, seed)

    @pytest.mark.parametrize("name,build", bank_cases())
    def test_site_resume_equals_uninterrupted(self, name, build):
        # Warm both sites, move site 1 alone through JSON into a fresh
        # bank: it grants as the original does, and its neighbour is
        # untouched -- every row of site 0 still reads as a fresh bank's.
        bank = build(SITES)
        drive(bank, 0, seed=1)
        drive(bank, 1, seed=5)
        state = json.loads(json.dumps(bank.site_state(1)))
        fresh = _stage_builder(dict(state, type=bank.tag))
        restored = fresh(SITES)
        assert type(restored) is type(bank)
        restored.restore_site(1, state)
        assert restored.site_state(1) == bank.site_state(1)
        assert not any(restored.grants_of(0))
        assert restored.site_state(0) == fresh(SITES).site_state(0)
        assert drive(restored, 1, seed=2) == drive(bank, 1, seed=2)

    @pytest.mark.parametrize("name,build", bank_cases())
    def test_rows_are_the_sites_in_order(self, name, build):
        # Site 1 is listed first: the rows run site by site in ``order``.
        sites = SITES._replace(order=(1, 0))
        bank = build(sites)
        drive(bank, 0, seed=3)
        drive(bank, 1, seed=6)
        state = bank.state()
        first, second = (bank.site_state(site) for site in (1, 0))
        assert state["grants"] == first["grants"] + second["grants"]
        for key in ("accumulators", "weights"):
            if key in state:
                assert state[key] == first[key] + second[key]
        if "pointer" in state:
            assert state["pointer"] == [first["pointer"], second["pointer"]]

    @pytest.mark.parametrize("name,build", bank_cases())
    def test_double_checkpoint_idempotent(self, name, build):
        bank = build(SITES)
        drive(bank, 0, seed=3)
        first = bank.state()
        again = build(SITES)
        again.restore(json.loads(json.dumps(first)))
        assert json.dumps(again.state()) == json.dumps(first)

    def test_unknown_arbiter_type_rejected(self):
        with pytest.raises(CheckpointError, match="unknown arbiter type 'mystery'"):
            _stage_builder({"type": "mystery", "grants": [0]})

    def test_mixed_schema1_stage_rejected_by_name(self):
        specs = [
            [0, {"type": "rr", "state": {"grants": [0] * 4, "pointer": 0}}],
            [1, {"type": "age", "state": {"grants": [0] * 4, "pointer": 0}}],
        ]
        with pytest.raises(
            CheckpointError, match="mixes arbiter types age, rr in 'vc_arbiters'"
        ):
            _upgrade_stage(specs, SITES, "vc_arbiters")

    def test_mixed_schema1_engine_checkpoint_rejected(self):
        data = json.loads(SCHEMA1_GOLDEN.read_text())
        data["arbiters"][3][1]["type"] = "fixed"
        with pytest.raises(CheckpointError, match="mixes arbiter types fixed, rr"):
            restore_engine(data)

    def test_wrong_width_site_rejected(self):
        bank = RoundRobinBank(SITES)
        with pytest.raises(ValueError, match="has 3 inputs, expected 4"):
            bank.restore_site(0, {"grants": [0, 0, 0], "pointer": 0})

    @pytest.mark.parametrize("row,length", [("grants", 7), ("pointer", 3)])
    def test_wrong_length_row_rejected(self, row, length):
        bank = RoundRobinBank(SITES)
        state = dict(bank.state(), **{row: [0] * length})
        with pytest.raises(ValueError, match=f"{row} row of a rr stage has {length}"):
            bank.restore(state)

    @pytest.mark.parametrize("weights", [[[32]] * 8, [[1, 1]] * 8, [[-1]] * 8])
    def test_iw_weights_the_stage_cannot_hold_rejected(self, weights):
        bank = InverseWeightedBank(SITES, IW_TABLES)
        state = dict(bank.state(), weights=weights)
        with pytest.raises(ValueError, match="its stage stores 1 of 5 bits per input"):
            InverseWeightedBank(SITES).restore(state)

    def test_bit_level_model_state_rejected(self):
        arbiter = InverseWeightedArbiter([[31], [16], [8], [4]], 5, bit_exact=True)
        with pytest.raises(ValueError, match="bit-level model"):
            InverseWeightedBank(SITES).restore_site(0, arbiter.state())

    def test_iw_accumulators_survive(self):
        bank = InverseWeightedBank(SITES, IW_TABLES)
        drive(bank, 0, seed=7)
        state = bank.state()
        assert any(state["accumulators"])
        restored = InverseWeightedBank(SITES)
        restored.restore(state)
        assert restored.state() == state
        assert restored.site_state(1)["accumulators"] == [0] * 4

    def test_iw_site_accumulators_survive(self):
        bank = InverseWeightedBank(SITES, IW_TABLES)
        drive(bank, 0, seed=7)
        drive(bank, 1, seed=8)
        state = bank.site_state(1)
        assert any(state["accumulators"])
        restored = InverseWeightedBank(SITES)
        restored.restore_site(1, state)
        assert restored.site_state(1) == state
        assert restored.site_state(0)["accumulators"] == [0] * 4


# --- RNG streams ------------------------------------------------------------------


class TestRngStreamRoundTrip:
    def test_mid_stream_resume(self):
        rng = random.Random(1234)
        [rng.random() for _ in range(100)]
        rng.gauss(0.0, 1.0)  # leaves a cached second gaussian in-state
        state = json.loads(json.dumps(rng_state_to_json(rng)))
        resumed = rng_state_from_json(state)
        tail = [rng.random() for _ in range(50)] + [rng.gauss(0.0, 1.0)]
        assert [resumed.random() for _ in range(50)] + [
            resumed.gauss(0.0, 1.0)
        ] == tail

    def test_state_is_json_safe(self):
        rng = random.Random(7)
        rng.randrange(1000)
        text = json.dumps(rng_state_to_json(rng))
        assert rng_state_from_json(json.loads(text)).getstate() == rng.getstate()


# --- streaming quantile -----------------------------------------------------------


class TestStreamingQuantileRoundTrip:
    def test_resume_equals_uninterrupted(self):
        full = StreamingQuantile(max_bins=16)
        half = StreamingQuantile(max_bins=16)
        samples = [random.Random(9).randrange(10_000) for _ in range(500)]
        for value in samples[:250]:
            full.add(value)
            half.add(value)
        resumed = StreamingQuantile.from_state(
            json.loads(json.dumps(half.state()))
        )
        for value in samples[250:]:
            full.add(value)
            resumed.add(value)
        assert resumed == full
        assert resumed.quantiles() == full.quantiles()

    def test_state_idempotent(self):
        est = StreamingQuantile(max_bins=8)
        est.add_many(range(100))  # forces re-binning past 8 bins
        state = est.state()
        assert StreamingQuantile.from_state(state).state() == state


# --- fault runtime ----------------------------------------------------------------


def faulted_engine(policy="retry", down=0, up=40, seed=11):
    machine = make_machine()
    fault_set = FaultSet(
        specs=(
            FaultSpec(kind="link", channel=640, down_cycle=down, up_cycle=up),
            FaultSpec(kind="link", channel=656, down_cycle=10, up_cycle=None),
        ),
        shape=SHAPE,
    )
    runtime = FaultRuntime(
        machine,
        fault_set,
        policy=FaultPolicy(mode=policy, max_retries=3),
    )
    return make_engine(machine, seed=seed, faults=runtime), runtime


class TestFaultRuntimeRoundTrip:
    def test_runtime_state_survives(self):
        engine, runtime = faulted_engine()
        engine.run_for(25)
        restored = roundtrip(engine)
        r2 = restored._fault_runtime
        assert r2 is not None
        assert r2.policy.mode == runtime.policy.mode
        assert r2.policy.max_retries == runtime.policy.max_retries
        assert r2.fault_set.to_json() == runtime.fault_set.to_json()
        assert restored._failed_channels == engine._failed_channels
        assert restored.cycle == engine.cycle
        # In-flight retry bookkeeping maps onto the restored packet
        # objects with identical output channels.
        assert sorted(restored._inflight.values()) == sorted(
            engine._inflight.values()
        )
        assert len(restored._inflight) == len(engine._inflight)

    def test_resolution_counts_are_not_state(self):
        # The fault-aware computer's escalation-stage counters count the
        # *misses* of its resolution memo, which restarts cold on every
        # restore: they depend on when the memo was last emptied, not on
        # the simulation, so the snapshot does not carry them (it once
        # did, and a serve session resumed from its snapshot doubled them
        # in the next one).
        engine, runtime = faulted_engine(policy="reroute")
        engine.run_for(25)
        assert runtime.route_computer.resolution_counts
        data = snapshot_engine(engine)
        assert sorted(data["faults"]) == [
            "failed", "fault_set", "inflight", "policy"
        ]
        restored = roundtrip(engine)
        assert not restored._fault_runtime.route_computer.resolution_counts
        assert dumps(snapshot_engine(restored)) == dumps(data)

    def test_older_file_with_resolution_counts_still_restores(self):
        engine, _ = faulted_engine(policy="reroute")
        engine.run_for(25)
        data = json.loads(dumps(snapshot_engine(engine)))
        data["faults"]["resolution"] = [["primary", 125], ["repick", 1]]
        restored = restore_engine(data)
        engine.run()
        restored.run()
        assert json.dumps(engine.stats.asdict()) == json.dumps(
            restored.stats.asdict()
        )


# --- stats bookkeeping ------------------------------------------------------------


class TestStatsBookkeeping:
    def test_end_cycle_restored_at_checkpoint(self):
        engine = make_engine(make_machine())
        engine.run_for(20)
        assert engine.stats.end_cycle == 20
        restored = roundtrip(engine)
        assert restored.stats.end_cycle == 20


# --- whole-engine double-checkpoint idempotence ----------------------------------


class TestDoubleCheckpointIdempotence:
    def test_without_trace(self):
        engine = make_engine(make_machine(), arbitration="iw")
        engine.run_for(25)
        first = dumps(snapshot_engine(engine))
        second = dumps(snapshot_engine(restore_engine(loads(first))))
        assert second == first

    def test_with_trace_writer(self):
        stream = io.StringIO()
        engine = make_engine(
            make_machine(), trace=JsonlTraceWriter(stream, meta={"t": 1})
        )
        engine.run_for(25)
        first = snapshot_engine(engine)
        # A new writer on the same trace, rewound by the restore, must
        # make the second snapshot byte-identical.
        resumed = JsonlTraceWriter(stream, meta={"t": 1}, owns_stream=True)
        restored = restore_engine(loads(dumps(first)), trace=resumed)
        assert dumps(snapshot_engine(restored)) == dumps(first)

    def test_with_collector(self):
        engine = make_engine(make_machine(), trace=MetricsCollector())
        engine.run_for(25)
        first = dumps(snapshot_engine(engine))
        # restore_engine revives the captured collector automatically.
        second = dumps(snapshot_engine(restore_engine(loads(first))))
        assert second == first

    def test_faulted(self):
        engine, _ = faulted_engine(policy="retry")
        engine.run_for(30)
        first = dumps(snapshot_engine(engine))
        second = dumps(snapshot_engine(restore_engine(loads(first))))
        assert second == first


# --- packet rows ------------------------------------------------------------------


class TestPacketRow:
    """What no batch route has: a detour's via chip, a choice that pins no
    deltas, a condemned copy, a retry count."""

    def test_every_field_survives(self):
        from repro.core.geometry import Dim
        from repro.core.routing import Route, RouteChoice, RouteComputer
        from repro.sim.checkpoint import PACKET_ROW, _checkpoint_codec
        from repro.sim.packet import Packet

        machine = Machine(MachineConfig(shape=(2, 2, 2)))
        src = machine.ep_id[((0, 0, 0), 0)]
        dst = machine.ep_id[((1, 0, 1), 1)]
        choice = RouteChoice((Dim.Z, Dim.X, Dim.Y), 1, None)
        walk = RouteComputer(machine).compute(src, dst, choice)
        # A via chip the machine would not build, so the hops ride along.
        route = Route.from_hops(machine, src, dst, choice, walk.hops, 2, (1, 0, 1))
        packet = Packet(41, route, size_flits=2, pattern=1, traffic_class=0,
                        release_cycle=6)
        packet.inject_cycle, packet.ready_cycle, packet.hop_index = 8, 11, 2
        packet.retries, packet.drop_on_arrival = 3, True
        codec = _checkpoint_codec(machine, faulted=True)
        row = json.loads(json.dumps(codec.row(packet)))
        assert len(row) == len(PACKET_ROW) + 2 * len(walk.hops)
        back = _checkpoint_codec(machine, faulted=True).packet(row)
        assert back.route == route and back.next_hop == walk.slots[2]
        for name in Packet.__slots__:
            if name not in ("route", "next_hop", "fifo_next"):
                assert getattr(back, name) == getattr(packet, name), name
        assert codec.row(back) == row


# --- payload validation -----------------------------------------------------------


class TestPayloadValidation:
    def snapshot(self):
        engine = make_engine(make_machine())
        engine.run_for(10)
        return snapshot_engine(engine)

    def test_future_schema_rejected(self):
        data = self.snapshot()
        data["schema"] = CHECKPOINT_SCHEMA_VERSION + 1
        with pytest.raises(CheckpointError, match="schema version"):
            loads(dumps(data))

    def test_missing_kind_rejected(self):
        with pytest.raises(CheckpointError, match="not an engine checkpoint"):
            loads('{"schema": 1}\n')

    def test_non_object_rejected(self):
        with pytest.raises(CheckpointError):
            loads("[1, 2, 3]\n")

    def test_truncated_text_rejected(self):
        text = dumps(self.snapshot())
        with pytest.raises(CheckpointError, match="not valid JSON"):
            loads(text[: len(text) // 2])

    def test_corrupted_section_rejected(self):
        data = self.snapshot()
        del data["wheel"]
        with pytest.raises(CheckpointError, match="truncated or corrupted"):
            restore_engine(json.loads(dumps(data)))

    @pytest.mark.parametrize(
        "field",
        ["cycle", "queued", "in_network", "last_progress", "watchdog_cycles"],
    )
    @pytest.mark.parametrize("value", ["abc", -5, 1.5, True, None])
    def test_bad_counter_rejected(self, field, value):
        data = self.snapshot()
        data[field] = value
        with pytest.raises(CheckpointError, match=f"'{field}' must be a non-neg"):
            restore_engine(json.loads(dumps(data)))

    def test_info_on_damaged_payload_rejected(self):
        data = self.snapshot()
        assert checkpoint_info(data)["cycle"] == 10
        del data["cycle"]
        with pytest.raises(CheckpointError, match="truncated or corrupted"):
            checkpoint_info(data)
        data["cycle"] = "abc"
        with pytest.raises(CheckpointError, match="'cycle' must be a non-neg"):
            checkpoint_info(data)

    def test_mangled_packet_index_rejected(self):
        data = self.snapshot()
        data["source_queues"] = [[0, [10_000_000]]]
        with pytest.raises(CheckpointError, match="names packet 10000000"):
            restore_engine(json.loads(dumps(data)))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(str(tmp_path / "nope.json"))

    def test_on_delivery_hook_rejected(self):
        engine = make_engine(make_machine())
        engine.on_delivery = lambda packet: None
        with pytest.raises(CheckpointError, match="on_delivery"):
            snapshot_engine(engine)

    def test_save_load_round_trip(self, tmp_path):
        engine = make_engine(make_machine())
        engine.run_for(10)
        path = str(tmp_path / "ck.json")
        written = save_checkpoint(engine, path)
        assert dumps(load_checkpoint(path)) == dumps(written)

    def test_other_machines_checkpoint_rejected_by_name(self):
        # A caller-supplied machine must be the checkpoint's own: it used
        # to be trusted, and a larger checkpoint on a smaller machine died
        # in "truncated or corrupted checkpoint: IndexError(...)".
        data = self.snapshot()
        other = Machine(MachineConfig(shape=(4, 2, 2), endpoints_per_chip=3))
        with pytest.raises(CheckpointError) as caught:
            restore_engine(data, machine=other)
        assert str(caught.value) == (
            "checkpoint belongs to a different machine: shape is (2, 2, 2) "
            "in the checkpoint, (4, 2, 2) in this run; endpoints_per_chip "
            "is 2 in the checkpoint, 3 in this run"
        )
        restore_engine(data, machine=make_machine())  # an equal config is fine


class TestRunStamp:
    """Periodic saves that know their run stamp the file with it; a
    resume under any other run is refused by name, file untouched."""

    @staticmethod
    def runspec(seed=11, arbitration="rr"):
        config = MachineConfig(shape=SHAPE, endpoints_per_chip=2)
        spec = BatchSpec(UniformRandom(SHAPE), 8, cores_per_chip=2, seed=seed)
        return RunSpec(config, spec, arbitration)

    def killed(self, tmp_path, monkeypatch, **kwargs):
        from repro.sim.checkpoint import CRASH_ENV_VAR
        from repro.sim.simulator import run

        path = str(tmp_path / "ck.json")
        monkeypatch.setenv(CRASH_ENV_VAR, "40")
        with pytest.raises(KeyboardInterrupt):
            run(self.runspec(), checkpoint_path=path, checkpoint_every=16, **kwargs)
        monkeypatch.delenv(CRASH_ENV_VAR)
        return path

    def test_stamp_is_the_hash_of_the_canonical_run(self, tmp_path, monkeypatch):
        from repro.sim.checkpoint import run_stamp

        path = self.killed(tmp_path, monkeypatch)
        data = load_checkpoint(path)
        assert list(data)[-1] == "run_stamp"
        assert data["run_stamp"] == run_stamp(self.runspec())
        assert run_stamp(self.runspec()) != run_stamp(self.runspec(seed=12))
        # The stamp is the only difference from an unstamped save.
        stamp = data.pop("run_stamp")
        engine = restore_engine(data)
        assert dumps(snapshot_engine(engine)) == dumps(data)
        assert save_checkpoint(engine, path, stamp)["run_stamp"] == stamp

    def test_different_run_refused_and_file_untouched(self, tmp_path, monkeypatch):
        from repro.sim.simulator import run

        path = self.killed(tmp_path, monkeypatch)
        with open(path, "rb") as handle:
            before = handle.read()
        with pytest.raises(
            CheckpointError,
            match=f"checkpoint {path} was written by a different run",
        ):
            run(self.runspec(seed=12), checkpoint_path=path, checkpoint_every=16)
        with open(path, "rb") as handle:
            assert handle.read() == before
        expect = run(self.runspec())
        resumed = run(self.runspec(), checkpoint_path=path, checkpoint_every=16)
        assert json.dumps(resumed.asdict()) == json.dumps(expect.asdict())

    def test_a_run_handed_its_tables_is_stamped_too(self, tmp_path, monkeypatch):
        # The hand-held entries used to save unstamped files, which any
        # run on a matching machine would finish as its own.
        from repro.sim.checkpoint import CRASH_ENV_VAR, run_stamp
        from repro.sim.simulator import program_weights, run, shared_machine

        described = self.runspec(arbitration="iw")
        tables = program_weights(described, *shared_machine(described.config))
        path = str(tmp_path / "ck.json")
        saves = dict(checkpoint_path=path, checkpoint_every=16, weight_tables=tables)
        monkeypatch.setenv(CRASH_ENV_VAR, "40")
        with pytest.raises(KeyboardInterrupt):
            run(described, **saves)
        monkeypatch.delenv(CRASH_ENV_VAR)
        assert load_checkpoint(path)["run_stamp"] == run_stamp(described)
        with open(path, "rb") as handle:
            before = handle.read()
        with pytest.raises(
            CheckpointError,
            match=f"checkpoint {path} was written by a different run",
        ):
            run(self.runspec(seed=12, arbitration="iw"), **saves)
        with open(path, "rb") as handle:
            assert handle.read() == before
        resumed = run(described, **saves)
        assert json.dumps(resumed.asdict()) == json.dumps(run(described).asdict())


class TestStartRevivesSinks:
    """``start`` restores through ``restore_engine``, which puts back
    whatever the save recorded of the sinks it is handed -- behind a
    ``Tee`` too, where the save finds them."""

    def test_teed_collector_survives_a_crash_through_run(
        self, tmp_path, monkeypatch
    ):
        # At the parent only a collector handed in bare was revived: this
        # resumed run reported p50/p95/p99 = 54/66/76.
        from repro.core.routing import RouteComputer
        from repro.sim.checkpoint import CRASH_ENV_VAR
        from repro.sim.metrics import MetricsCollector
        from repro.sim.simulator import run
        from repro.sim.trace import ListSink, Tee

        machine = make_machine()
        spec = BatchSpec(UniformRandom(SHAPE), 16, cores_per_chip=2, seed=3)

        def leg(**checkpoint):
            collector = MetricsCollector()
            run(
                RunSpec(machine.config, spec), machine=machine,
                trace=Tee(collector, ListSink()),
                route_computer=RouteComputer(machine), **checkpoint,
            )
            return collector.summary()

        clean = leg()
        saves = dict(checkpoint_path=str(tmp_path / "ck.json"), checkpoint_every=8)
        monkeypatch.setenv(CRASH_ENV_VAR, "60")
        with pytest.raises(KeyboardInterrupt):
            leg(**saves)
        monkeypatch.delenv(CRASH_ENV_VAR)
        resumed = leg(**saves)
        assert resumed == clean
        assert [clean.latency_quantiles[q] for q in (0.5, 0.95, 0.99)] == [43, 64, 66]

    def test_a_writer_is_not_rewound_into_a_stream_that_lacks_the_bytes(self):
        engine = make_engine(
            make_machine(), trace=JsonlTraceWriter(io.StringIO(), meta={"t": 1})
        )
        engine.run_for(25)
        data = loads(dumps(snapshot_engine(engine)))
        fresh = JsonlTraceWriter(io.StringIO(), meta={"t": 1}, owns_stream=True)
        with pytest.raises(CheckpointError, match="cannot resume this trace"):
            restore_engine(data, trace=fresh)
        assert fresh.stream.getvalue() == ""  # nothing written, nothing cut

    def test_a_writer_needs_a_checkpoint_that_recorded_one(self):
        engine = make_engine(make_machine())
        engine.run_for(25)
        data = loads(dumps(snapshot_engine(engine)))
        with pytest.raises(CheckpointError, match="without a JSONL trace writer"):
            restore_engine(data, trace=JsonlTraceWriter(io.StringIO()))
