"""Property tests pinning the timing-wheel scheduler's contracts.

Random small configurations -- shape, load, faults on/off, tracing
on/off -- exercising the invariants the wheel must preserve over the
heap it replaced:

* trace events are emitted in chronological order (non-decreasing
  cycle; within a cycle, emission order is the documented causal order);
* credits are conserved: a drained healthy run leaves zero credits
  outstanding on every (channel, VC);
* scheduling is pause-resistant: ``run_for(n)`` then ``run_for(m)``
  is bitwise identical to ``run_for(n + m)``;
* the engine's drain (credits and wakes as walked, then faults, then
  arrivals by channel) is the canonical one: the whole batch sorted by
  ``event_sort_key`` and dispatched in that order, kept here as an
  oracle -- same trace records, same stats, same checkpoint bytes.
"""

import random
from heapq import heappop

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arbiters.bank import AgeBank, FixedPriorityBank, RoundRobinBank
from repro.core.geometry import all_coords
from repro.core.machine import ChannelKind, Machine, MachineConfig
from repro.core.routing import RouteComputer
from repro.faults import FaultPolicy, FaultRuntime, FaultSet, FaultSpec
from repro.sim.checkpoint import dumps, snapshot_engine
from repro.sim.engine import (
    _EV_ARRIVAL,
    _EV_CREDIT,
    _EV_WAKE,
    Engine,
    arrival_vc,
    event_sort_key,
)
from repro.sim.packet import Packet
from repro.sim.simulator import RunSpec, run, start
from repro.sim.trace import ListSink, TraceEvent
from repro.traffic.batch import BatchSpec
from repro.traffic.patterns import UniformRandom

_CACHE = {}

ARBITERS = {
    "rr": RoundRobinBank,
    "age": AgeBank,
    "fixed": FixedPriorityBank,
}


def setup_for(shape):
    if shape not in _CACHE:
        machine = Machine(MachineConfig(shape=shape, endpoints_per_chip=2))
        _CACHE[shape] = (machine, RouteComputer(machine))
    return _CACHE[shape]


@st.composite
def scheduler_case(draw):
    shape = draw(st.sampled_from([(2, 2, 1), (2, 2, 2), (3, 2, 1)]))
    batch = draw(st.integers(min_value=1, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    tracing = draw(st.booleans())
    faulted = draw(st.booleans())
    fault_pick = draw(st.integers(min_value=0, max_value=2**16))
    down_cycle = draw(st.integers(min_value=1, max_value=40))
    policy = draw(st.sampled_from(["drop", "reroute"]))
    return shape, batch, seed, tracing, faulted, fault_pick, down_cycle, policy


def case_run(case, node=None):
    """The case's run spec, machine, sink and fault runtime, as keywords;
    ``node`` fails that chip instead of one torus link."""
    shape, batch, seed, tracing, faulted, fault_pick, down_cycle, policy = case
    machine, routes = setup_for(shape)
    spec = BatchSpec(
        UniformRandom(shape), batch, cores_per_chip=2, seed=seed
    )
    runtime = None
    if faulted:
        torus = [
            cid
            for cid, kind in enumerate(machine.channel_kind)
            if kind == ChannelKind.TORUS
        ]
        cid = torus[fault_pick % len(torus)]
        fault = FaultSpec(kind="link", channel=cid, down_cycle=down_cycle)
        if node is not None:
            fault = FaultSpec(kind="node", chip=node, down_cycle=down_cycle)
        fault_set = FaultSet(specs=(fault,), shape=shape)
        runtime = FaultRuntime(
            machine, fault_set, policy=FaultPolicy(mode=policy)
        )
    return RunSpec(machine.config, spec), dict(
        machine=machine,
        trace=ListSink() if tracing else None,
        route_computer=runtime.route_computer if runtime else routes,
        faults=runtime,
    )


def run_case(case):
    spec, kwargs = case_run(case)
    stats = run(spec, **kwargs)
    return kwargs["machine"], stats, kwargs["trace"]


@st.composite
def split_case(draw):
    shape = draw(st.sampled_from([(2, 2, 1), (2, 2, 2)]))
    seed = draw(st.integers(min_value=0, max_value=9999))
    count = draw(st.integers(min_value=4, max_value=40))
    n = draw(st.integers(min_value=1, max_value=30))
    m = draw(st.integers(min_value=1, max_value=300))
    policy = draw(st.sampled_from(sorted(ARBITERS)))
    return shape, seed, count, n, m, policy


def fill_engine(machine, routes, seed, count, trace, policy):
    rng = random.Random(seed)
    chips = list(all_coords(machine.config.shape))

    engine = Engine(
        machine,
        arbiter_builder=ARBITERS[policy],
        vc_arbiter_builder=ARBITERS[policy],
        trace=trace,
    )
    per_source_release = {}
    for pid in range(count):
        src_chip = rng.choice(chips)
        dst_chip = rng.choice(chips)
        src = machine.ep_id[(src_chip, rng.randrange(2))]
        dst = machine.ep_id[(dst_chip, rng.randrange(2))]
        if src == dst:
            continue
        choice = routes.random_choice(rng, src_chip, dst_chip)
        route = routes.compute(src, dst, choice)
        release = per_source_release.get(src, 0) + rng.randrange(4)
        per_source_release[src] = release
        engine.enqueue(Packet(pid, route, release_cycle=release))
    return engine


class TestSchedulerInvariants:
    @given(scheduler_case())
    @settings(max_examples=25)
    def test_trace_chronological_and_credits_conserved(self, case):
        machine, stats, sink = run_case(case)
        faulted = case[4]
        generated = case[1] * 2 * machine.config.num_chips
        if faulted:
            # Every generated packet has exactly one terminal outcome.
            assert stats.delivered + stats.dropped == generated
        else:
            assert stats.delivered == generated
        if sink is not None:
            cycles = [event.cycle for event in sink.events]
            assert cycles == sorted(cycles)
        if not faulted:
            assert stats.injected == stats.delivered

    @given(split_case())
    @settings(max_examples=20)
    def test_drained_run_conserves_credits(self, case):
        shape, seed, count, _n, _m, policy = case
        machine, routes = setup_for(shape)
        engine = fill_engine(machine, routes, seed, count, None, policy)
        stats = engine.run()
        assert stats.delivered == stats.injected
        assert engine.buffered_packets() == 0
        for cid, vcs in enumerate(machine.channel_vcs):
            for vc in range(vcs):
                assert engine.credits_outstanding(cid, vc) == 0


class TestSplitRunEquivalence:
    @given(split_case())
    @settings(max_examples=20)
    def test_run_for_split_is_bitwise_identical(self, case):
        shape, seed, count, n, m, policy = case
        machine, routes = setup_for(shape)
        sink_a, sink_b = ListSink(), ListSink()
        split = fill_engine(machine, routes, seed, count, sink_a, policy)
        single = fill_engine(machine, routes, seed, count, sink_b, policy)
        split.run_for(n)
        split.run_for(m)
        single.run_for(n + m)
        assert split.cycle == single.cycle
        assert split.stats == single.stats
        assert sink_a.events == sink_b.events
        assert split.buffered_packets() == single.buffered_packets()


def canonical_drain(engine):
    """The drain by its definition: the cycle's whole batch sorted by
    ``event_sort_key``, then dispatched one event at a time."""
    events, now = engine._events, engine.cycle
    batch = []
    while events.overflow and events.overflow[0][0] <= now:
        batch.append(heappop(events.overflow)[2])
    events.pending -= len(batch)
    batch.extend(events.take_due(now))
    batch.sort(key=event_sort_key)
    for kind, a, b, c in batch:
        if kind == _EV_ARRIVAL:
            canonical_arrival(engine, a, b, now)
        elif kind == _EV_CREDIT:
            engine._credits[(a << engine._vc_bits) | b] += c
        elif kind == _EV_WAKE:
            engine._active[a] = None
        else:
            engine._apply_fault(a, b, c)


def canonical_arrival(engine, packet, cid, now):
    ticks = now * engine._ticks_per_cycle
    vc = arrival_vc(packet)
    if engine._inflight is not None:
        engine._inflight.pop(packet, None)
    if packet.drop_on_arrival or packet.next_hop is None:
        engine._in_network -= 1
        engine._last_progress = now
        if not packet.drop_on_arrival:
            packet.deliver_cycle = now
            engine.stats.record_delivery(packet)
            if engine.trace is not None:
                engine.trace.emit(
                    TraceEvent(
                        "deliver", now, ticks, packet.pid, cid, vc,
                        (("lat", packet.network_latency), ("qlat", packet.latency)),
                    )
                )
        engine._push_event(
            now + engine._latency[cid], _EV_CREDIT, cid, vc, packet.size_flits
        )
        return
    packet.ready_cycle = now + engine._pipeline
    slot = (cid << engine._vc_bits) | vc
    tail = engine._fifo_tail[slot]
    if tail is None:
        engine._fifo_head[slot] = packet
        engine._vc_occupied[cid] |= 1 << vc
        engine._input_occupied[engine._channel_dst[cid]] |= engine._input_bit[cid]
    else:
        tail.fifo_next = packet
    engine._fifo_tail[slot] = packet
    engine._active[engine._channel_dst[cid]] = None
    if engine.trace is not None:
        engine.trace.emit(TraceEvent("arrive", now, ticks, packet.pid, cid, vc))


def assert_drain_matches_canonical(case, mid, node=None):
    spec, kwargs = case_run(case, node)
    engine = start(spec, **kwargs)
    spec, kwargs = case_run(case, node)
    oracle = start(spec, **kwargs)
    oracle._process_events = lambda: canonical_drain(oracle)
    engine.run_for(mid)
    oracle.run_for(mid)
    assert dumps(snapshot_engine(engine)) == dumps(snapshot_engine(oracle))
    assert engine.run() == oracle.run()
    if engine.trace is not None:
        assert engine.trace.events == oracle.trace.events
    return engine.stats


class TestDrainMatchesCanonicalOrder:
    @given(scheduler_case(), st.integers(min_value=1, max_value=60))
    @settings(max_examples=25, deadline=None)
    def test_same_records_stats_and_checkpoint_bytes(self, case, mid):
        assert_drain_matches_canonical(case, mid)

    def test_retry_policy_on_3x2x1(self):
        # A failed node is several same-cycle faults, applied in timeline
        # order; its stranded packets go back to their sources.
        retried = 0
        for seed, down, node in ((1, 6, (1, 0, 0)), (2, 10, (2, 1, 0)), (3, 4, None)):
            case = ((3, 2, 1), 12, seed, True, True, seed, down, "retry")
            stats = assert_drain_matches_canonical(case, down + 3, node)
            retried += stats.retried
        assert retried
