"""One route memo per machine.

A route is a pure function of (machine, src, dst, choice, class), so the
machine keeps one table of them per (direction order, displacement rule)
(:meth:`~repro.core.machine.Machine.route_memo`) and every computer on it
reads and fills that table: a run's, a campaign's, a fault-aware one's base
lookups, a checkpoint restore's. Fault resolutions stay each computer's own,
because they depend on its failed set. The machine lives as long as the
process that elaborated it, so each table is bounded.
"""

import random

import pytest

from repro.core.geometry import Dim
from repro.core.machine import Machine, MachineConfig
from repro.core.onchip import ANTON_DIRECTION_ORDER
from repro.core import routing
from repro.core.routing import RouteComputer
from repro.faults import FaultRuntime, FaultSet, FaultSpec
from repro.faults.model import failable_channels
from repro.faults.routing import FaultAwareRouteComputer
from repro.traffic.demand import (
    DemandMatrix,
    DemandSchedule,
    DemandSpec,
    generate_demand,
)

#: A 4-ring in X, so a pair one hop apart has a non-minimal way round.
CONFIG = MachineConfig(shape=(4, 2, 2), endpoints_per_chip=2)


def endpoints(machine, src_chip, dst_chip):
    return machine.ep_id[(src_chip, 0)], machine.ep_id[(dst_chip, 1)]


def test_two_computers_on_one_machine_return_the_identical_route():
    machine = Machine(CONFIG)
    first, second = RouteComputer(machine), RouteComputer(machine)
    src, dst = endpoints(machine, (0, 0, 0), (2, 1, 1))
    fields = ((Dim.Y, Dim.X, Dim.Z), 1, (2, 1, 1))
    choice = first.intern_choice(*fields)
    route = first.compute(src, dst, choice)
    assert second.compute(src, dst, second.intern_choice(*fields)) is route
    # Another machine of the same config has its own table: equal, not shared.
    elsewhere = RouteComputer(Machine(CONFIG)).compute(src, dst, choice)
    assert elsewhere == route and elsewhere is not route


def test_a_fault_aware_computer_shares_the_nonminimal_table():
    machine = Machine(CONFIG)
    src, dst = endpoints(machine, (0, 0, 0), (1, 0, 0))
    aware = FaultAwareRouteComputer(machine)
    widened = RouteComputer(machine, allow_nonminimal=True)
    choice = aware.intern_choice((Dim.X, Dim.Y, Dim.Z), 0, (1, 0, 0))
    assert aware.compute(src, dst, choice) is widened.compute(src, dst, choice)
    # A minimal-only computer keeps a table of its own.
    assert RouteComputer(machine).compute(src, dst, choice) is not widened.compute(
        src, dst, choice
    )


def test_a_plain_computer_still_refuses_a_nonminimal_choice():
    machine = Machine(CONFIG)
    src, dst = endpoints(machine, (0, 0, 0), (1, 0, 0))
    aware = FaultAwareRouteComputer(machine)
    the_long_way = aware.intern_choice((Dim.X, Dim.Y, Dim.Z), 0, (-3, 0, 0))
    route = aware.compute(src, dst, the_long_way)
    assert route.internode_hops == 3
    with pytest.raises(ValueError, match="delta -3 is not legal"):
        RouteComputer(machine).compute(src, dst, the_long_way)


def test_a_full_table_is_emptied_before_it_grows(monkeypatch):
    monkeypatch.setattr(routing, "ROUTE_MEMO_ENTRIES", 4)
    machine = Machine(CONFIG)
    computer = RouteComputer(machine)
    memo = machine.route_memo(computer.direction_order, False)
    rng = random.Random(2)
    endpoint_ids = sorted(machine.ep_id.values())
    built = {}
    for _ in range(40):
        src, dst = rng.sample(endpoint_ids, 2)
        choice = computer.random_choice(
            rng, machine.components[src].chip, machine.components[dst].chip
        )
        built[src, dst, choice] = computer.compute(src, dst, choice)
        assert len(memo) <= 4
    # What fell out is rebuilt equal.
    fresh = RouteComputer(Machine(CONFIG))
    for (src, dst, choice), route in built.items():
        assert computer.compute(src, dst, choice) == route == fresh.compute(src, dst, choice)


def test_a_direction_order_has_its_own_table():
    machine = Machine(CONFIG)
    src, dst = endpoints(machine, (0, 0, 0), (2, 1, 1))
    stock = RouteComputer(machine)
    reordered = RouteComputer(machine, direction_order=tuple(reversed(ANTON_DIRECTION_ORDER)))
    choice = stock.intern_choice((Dim.X, Dim.Y, Dim.Z), 0, (2, 1, 1))
    assert stock.compute(src, dst, choice) is not reordered.compute(src, dst, choice)


def test_a_second_fault_runtime_generates_without_building_a_route(monkeypatch):
    machine = Machine(CONFIG)
    spec = DemandSpec(
        demand=DemandSchedule.from_matrices(
            [DemandMatrix.hotspot(CONFIG.shape, rate=0.5, hotspots=2, hot_fraction=0.6, seed=4)],
            24,
        ),
        cores_per_chip=2, mode="open", duration_cycles=24,
        injection="bernoulli", seed=4,
    )
    down, flaky = random.Random(4).sample(failable_channels(machine), 2)
    fault_set = FaultSet(
        specs=(
            FaultSpec(kind="link", channel=down, down_cycle=6),
            FaultSpec(kind="link", channel=flaky, down_cycle=12, up_cycle=24),
        ),
        shape=CONFIG.shape,
    )
    first = generate_demand(machine, FaultRuntime(machine, fault_set).route_computer, spec)

    built = []
    build_plan = RouteComputer._build_plan

    def counted(self, *args):
        built.append(args)
        return build_plan(self, *args)

    monkeypatch.setattr(RouteComputer, "_build_plan", counted)
    second = generate_demand(machine, FaultRuntime(machine, fault_set).route_computer, spec)
    assert built == []
    assert len(second) == len(first) > 100
    assert all(a.route is b.route for a, b in zip(first, second))
