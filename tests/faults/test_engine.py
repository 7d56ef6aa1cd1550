"""Engine-level fault injection: mid-run failures, stranded-packet
policies, trace events, and the packet conservation laws.

Two conservation laws hold under faults:

* every generated packet has exactly one terminal outcome, so
  ``delivered + dropped == generated`` (a retried packet's clone keeps
  its pid and carries its terminal outcome);
* ``delivered + dropped + retried == injected + queue_drops``: each
  *injection* ends delivered, dropped in-network, or condemned by a
  retry, while packets dropped out of a source queue never injected at
  all -- so the left side can exceed ``injected``, never undershoot it.
"""

from collections import Counter

import pytest

from repro.core.machine import (
    ChannelGroup,
    ChannelKind,
    Machine,
    MachineConfig,
    group_of,
)
from repro.faults import (
    FaultPolicy,
    FaultRuntime,
    FaultSet,
    FaultSpec,
    sample_link_faults,
)
from repro.sim.simulator import RunSpec, run
from repro.sim.trace import ListSink
from repro.traffic.batch import BatchSpec
from repro.traffic.patterns import BitComplement, UniformRandom


def _busiest_torus_channels(machine, count=2):
    """The most-used torus channels under uniform traffic -- failing
    these maximizes the number of stranded packets."""
    from repro.core.routing import RouteComputer
    from repro.traffic.loads import compute_loads

    routes = RouteComputer(machine)
    table = compute_loads(
        machine, routes, UniformRandom(machine.config.shape),
        machine.config.endpoints_per_chip,
    )
    torus = [
        (load, cid)
        for cid, load in table.channel_load.items()
        if machine.channel_kind[cid] == ChannelKind.TORUS
    ]
    torus.sort(reverse=True)
    return [cid for _load, cid in torus[:count]]


def _run(machine, fault_set, policy_mode, batch=16, seed=7, max_cycles=10_000_000):
    runtime = FaultRuntime(
        machine, fault_set, policy=FaultPolicy(mode=policy_mode)
    )
    sink = ListSink()
    spec = BatchSpec(
        UniformRandom(machine.config.shape),
        packets_per_source=batch,
        cores_per_chip=machine.config.endpoints_per_chip,
        seed=seed,
    )
    stats = run(
        RunSpec(machine.config, spec),
        machine=machine,
        trace=sink,
        max_cycles=max_cycles,
        route_computer=runtime.route_computer,
        faults=runtime,
    )
    return stats, sink.events


def _mid_run_faults(machine, cycles=(30, 60)):
    cids = _busiest_torus_channels(machine, len(cycles))
    return FaultSet(
        specs=tuple(
            FaultSpec(kind="link", channel=cid, down_cycle=cycle)
            for cid, cycle in zip(cids, cycles)
        ),
        shape=machine.config.shape,
    )


def _generated(machine, batch):
    """Packets the batch generator enqueues: one batch per source."""
    chips = 1
    for radix in machine.config.shape:
        chips *= radix
    return chips * machine.config.endpoints_per_chip * batch


class TestPolicies:
    @pytest.mark.parametrize("policy", ["reroute", "drop", "retry"])
    def test_conservation_laws(self, tiny_machine, policy):
        fault_set = _mid_run_faults(tiny_machine)
        stats, events = _run(tiny_machine, fault_set, policy, batch=16)
        # One terminal outcome per generated packet...
        assert stats.delivered + stats.dropped == _generated(tiny_machine, 16)
        # ...and every injection is accounted for (source-queue drops
        # never injected, so the left side may only exceed injections).
        assert (
            stats.delivered + stats.dropped + stats.retried >= stats.injected
        )
        assert stats.fault_events == len(fault_set.timeline(tiny_machine))
        kinds = Counter(e.kind for e in events)
        assert kinds["fault"] == stats.fault_events

    def test_mid_run_failure_strands_packets(self, tiny_machine):
        # The busiest torus channels fail mid-run, so some packets must
        # actually get re-dispositioned -- this pins that the sweep runs.
        fault_set = _mid_run_faults(tiny_machine)
        stats, events = _run(tiny_machine, fault_set, "reroute")
        assert stats.rerouted > 0
        kinds = Counter(e.kind for e in events)
        assert kinds["reroute"] == stats.rerouted
        assert stats.dropped == 0

    def test_drop_policy_counts_and_delivers_rest(self, tiny_machine):
        fault_set = _mid_run_faults(tiny_machine)
        stats, events = _run(tiny_machine, fault_set, "drop", batch=16)
        assert stats.dropped > 0
        assert stats.delivered == _generated(tiny_machine, 16) - stats.dropped
        kinds = Counter(e.kind for e in events)
        assert kinds["drop"] == stats.dropped

    def test_retry_reinjects_with_backoff(self, tiny_machine):
        fault_set = _mid_run_faults(tiny_machine)
        stats, events = _run(tiny_machine, fault_set, "retry")
        assert stats.retried > 0
        retry_events = [e for e in events if e.kind == "retry"]
        assert len(retry_events) == stats.retried
        for event in retry_events:
            # Re-release is scheduled strictly after the fault cycle,
            # with the policy's bounded exponential backoff.
            assert event.get("rel") > event.cycle
            assert event.get("attempt") >= 1

    def test_fault_event_fields(self, tiny_machine):
        fault_set = _mid_run_faults(tiny_machine)
        _stats, events = _run(tiny_machine, fault_set, "reroute")
        fault_events = [e for e in events if e.kind == "fault"]
        failed = fault_set.all_channels(tiny_machine)
        for event in fault_events:
            assert event.pid == -1
            assert event.channel in failed
            assert event.get("down") == 1


class TestZeroDelivery:
    def test_total_loss_reports_empty_quantiles(self, tiny_machine, tiny_routes):
        """A run that delivers nothing must still report a result.

        Every network channel is down from cycle 0 and the pattern sends
        no same-chip traffic, so under the drop policy every packet is
        condemned at its source queue: delivered == 0. The quantile
        reporters -- both the SimStats estimator and the trace-fed
        collector summary -- must carry empty dicts, not crash."""
        from repro.sim.metrics import MetricsCollector

        down = tuple(
            FaultSpec(kind="link", channel=cid)
            for cid, kind in enumerate(tiny_machine.channel_kind)
            if group_of(kind) != ChannelGroup.E
        )
        fault_set = FaultSet(specs=down, shape=tiny_machine.config.shape)
        runtime = FaultRuntime(
            tiny_machine, fault_set, policy=FaultPolicy(mode="drop")
        )
        collector = MetricsCollector(window_cycles=16)
        spec = BatchSpec(
            BitComplement(tiny_machine.config.shape),
            packets_per_source=4,
            cores_per_chip=tiny_machine.config.endpoints_per_chip,
            seed=7,
        )
        # Routes are generated against the healthy machine (as a real
        # workload's would be); the engine screens them at enqueue.
        stats = run(
            RunSpec(tiny_machine.config, spec),
            machine=tiny_machine,
            trace=collector,
            route_computer=tiny_routes,
            faults=runtime,
            latency_quantiles=True,
        )
        assert stats.delivered == 0
        assert stats.dropped == _generated(tiny_machine, 4)
        assert stats.latency_quantiles() == {}
        assert stats.throughput_packets_per_cycle() == 0.0
        summary = collector.summary(stats.end_cycle)
        assert summary.delivered == 0
        assert summary.latency_quantiles == {}


class TestRecovery:
    def test_link_down_then_up_completes(self, tiny_machine):
        cid = _busiest_torus_channels(tiny_machine, 1)[0]
        fault_set = FaultSet(
            specs=(
                FaultSpec(kind="link", channel=cid, down_cycle=30, up_cycle=60),
            ),
            shape=tiny_machine.config.shape,
        )
        stats, events = _run(tiny_machine, fault_set, "reroute", batch=16)
        assert stats.delivered + stats.dropped == _generated(tiny_machine, 16)
        downs = [e for e in events if e.kind == "fault" and e.get("down") == 1]
        ups = [e for e in events if e.kind == "fault" and e.get("down") == 0]
        assert len(downs) == 1 and len(ups) == 1
        assert ups[0].cycle == 60


class TestZeroFaultIdentity:
    def test_empty_fault_runtime_is_bitwise_identical(self, tiny_machine):
        """An attached-but-empty fault runtime must not perturb the run:
        same events, same stats -- the zero-overhead-when-disabled bar."""
        spec = BatchSpec(
            UniformRandom((2, 2, 2)),
            packets_per_source=8,
            cores_per_chip=2,
            seed=3,
        )
        from repro.core.routing import RouteComputer

        plain_sink = ListSink()
        plain = run(
            RunSpec(tiny_machine.config, spec), machine=tiny_machine,
            trace=plain_sink, route_computer=RouteComputer(tiny_machine),
        )
        runtime = FaultRuntime(tiny_machine, FaultSet())
        faulted_sink = ListSink()
        faulted = run(
            RunSpec(tiny_machine.config, spec),
            machine=tiny_machine,
            trace=faulted_sink,
            route_computer=runtime.route_computer,
            faults=runtime,
        )
        assert plain_sink.events == faulted_sink.events
        assert plain.delivered == faulted.delivered
        assert plain.end_cycle == faulted.end_cycle
        assert faulted.fault_events == 0


class TestReproducibility:
    def test_json_round_trip_reproduces_identical_trace(self, tiny_machine):
        """The acceptance property: a fault set that went through JSON
        produces the byte-for-byte identical degraded run."""
        fault_set = sample_link_faults(
            tiny_machine, 2, seed=13, down_cycle=30
        )
        round_tripped = FaultSet.from_json(fault_set.to_json())
        assert round_tripped == fault_set
        stats_a, events_a = _run(tiny_machine, fault_set, "reroute")
        stats_b, events_b = _run(tiny_machine, round_tripped, "reroute")
        assert events_a == events_b
        assert stats_a.end_cycle == stats_b.end_cycle
        assert stats_a.rerouted == stats_b.rerouted


@pytest.mark.slow
class TestLongRun:
    @pytest.mark.parametrize("policy", ["reroute", "drop", "retry"])
    def test_50k_cycle_budget_two_midrun_failures(self, tiny_machine, policy):
        """The acceptance run: a seeded long batch with two mid-run link
        failures completes under every policy well inside a 50k-cycle
        watchdog budget."""
        cids = _busiest_torus_channels(tiny_machine, 2)
        fault_set = FaultSet(
            specs=(
                FaultSpec(kind="link", channel=cids[0], down_cycle=500),
                FaultSpec(kind="link", channel=cids[1], down_cycle=1500),
            ),
            shape=tiny_machine.config.shape,
        )
        stats, _events = _run(
            tiny_machine, fault_set, policy, batch=512, max_cycles=50_000
        )
        assert stats.delivered + stats.dropped == _generated(tiny_machine, 512)
        assert (
            stats.delivered + stats.dropped + stats.retried >= stats.injected
        )
        assert stats.end_cycle < 50_000
        assert stats.fault_events == 2
