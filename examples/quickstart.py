#!/usr/bin/env python3
"""Quickstart: build a small Anton 2 machine and run traffic through it.

Builds a 4x4x4 torus of ASICs (each with its 4x4 on-chip mesh, skip
channels, and channel adapters), routes a single packet to show the
unified on-chip/inter-node path, then runs a uniform-random batch under
round-robin and inverse-weighted arbitration and compares normalized
throughput.

Run:  python examples/quickstart.py
"""

from repro import (
    BatchSpec,
    Machine,
    MachineConfig,
    RouteComputer,
    RunSpec,
    UniformRandom,
)
from repro.analysis import format_table, measure_run
from repro.core.routing import RouteChoice


def show_one_route(machine: Machine, routes: RouteComputer) -> None:
    """Print every hop of one unified-network route."""
    src = machine.ep_id[((0, 0, 0), 0)]
    dst = machine.ep_id[((2, 3, 1), 1)]
    route = routes.compute(src, dst, RouteChoice(slice_index=1))
    print(f"Route {machine.components[src]} -> {machine.components[dst]} "
          f"({route.internode_hops} inter-node hops, {len(route.hops)} channel hops):")
    for channel_id, vc in route.hops:
        head = machine.components[machine.channel_src[channel_id]]
        tail = machine.components[machine.channel_dst[channel_id]]
        print(f"  {machine.channel_kind[channel_id].name:13s} "
              f"{str(head):>18s} -> {str(tail):<18s} vc={vc}")
    print()


def main() -> None:
    config = MachineConfig(shape=(4, 4, 4), endpoints_per_chip=4)
    machine = Machine(config)
    routes = RouteComputer(machine)
    print(machine.describe())
    print()

    show_one_route(machine, routes)

    pattern = UniformRandom(config.shape)
    spec = BatchSpec(pattern, packets_per_source=64, cores_per_chip=4)
    print(f"Batch experiment: {pattern.name} traffic, 64 packets per core, "
          f"4 cores per chip")
    rows = []
    for arbitration in ("rr", "iw"):
        # One description of the run, measured on the machine built above.
        point = measure_run(
            RunSpec(config, spec, arbitration),
            machine=machine, route_computer=routes,
        )
        rows.append([
            arbitration,
            point.normalized_throughput,
            point.finish_spread,
            point.completion_cycles,
        ])
    print(format_table(
        ["arbitration", "norm. throughput", "finish spread", "cycles"], rows
    ))


if __name__ == "__main__":
    main()
