"""Workload generation: batches and open-loop injection processes.

The paper's throughput experiments (Section 4.1) use a *batch*
methodology: every participating core sends a fixed number of packets
according to a traffic pattern as fast as the network accepts them, and
throughput is the batch size divided by the time at which the last packet
is received. Batches also expose fairness: beyond saturation, an unfair
network finishes some sources long before others, stretching the
completion time (Figure 9).
"""

from __future__ import annotations

import dataclasses
import random
from typing import List, Optional

from repro.core.machine import Machine
from repro.core.routing import RouteComputer
from repro.sim.packet import Packet

from .loads import active_endpoints
from .patterns import Blend, TrafficPattern


class _RouteSampler:
    """Destination/route sampling shared by the batch and open-loop
    generators.

    Both generators draw, per packet: a destination chip (blend-aware)
    and a randomized route choice -- in that RNG order, which seeded
    workloads depend on. A source's packets go to the endpoint of the
    same index on the destination chip (core i talks to core i).
    Centralizing the draw keeps blend handling from drifting apart
    between the generators.
    """

    def __init__(
        self,
        machine: Machine,
        route_computer: RouteComputer,
        pattern: TrafficPattern,
        size_flits: int,
        traffic_class: int,
    ) -> None:
        if pattern.shape != machine.config.shape:
            raise ValueError("pattern shape does not match the machine")
        self.machine = machine
        self.route_computer = route_computer
        self.pattern = pattern
        self.size_flits = size_flits
        self.traffic_class = traffic_class
        self.is_blend = isinstance(pattern, Blend)

    def draw(
        self,
        rng: random.Random,
        src_chip,
        src_index: int,
        pid: int,
        release_cycle: int,
    ) -> Packet:
        """Draw one packet for a source endpoint."""
        if self.is_blend:
            dst_chip, pattern_id = self.pattern.sample_with_pattern(rng, src_chip)
        else:
            dst_chip = self.pattern.sample(rng, src_chip)
            pattern_id = 0
        dst_ep = self.machine.ep_id[(dst_chip, src_index)]
        choice = self.route_computer.random_choice(rng, src_chip, dst_chip)
        src_ep = self.machine.ep_id[(src_chip, src_index)]
        route = self.route_computer.compute(
            src_ep, dst_ep, choice, self.traffic_class
        )
        return Packet(
            pid,
            route,
            size_flits=self.size_flits,
            pattern=pattern_id,
            traffic_class=self.traffic_class,
            release_cycle=release_cycle,
        )


@dataclasses.dataclass(frozen=True)
class BatchSpec:
    """Parameters of one batch workload."""

    pattern: TrafficPattern
    packets_per_source: int
    cores_per_chip: int
    size_flits: int = 1
    traffic_class: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.packets_per_source < 1:
            raise ValueError("packets_per_source must be at least 1")


def generate_batch(
    machine: Machine, route_computer: RouteComputer, spec: BatchSpec
) -> List[Packet]:
    """Generate the packets of a batch, all released at cycle zero.

    Destinations, route choices (dimension order, slice, tie-breaks) and
    blend membership are drawn from a seeded RNG, so workloads are
    reproducible. Packets drawn from a :class:`~repro.traffic.patterns.Blend`
    carry the index of their component pattern in the ``pattern`` header
    field.
    """
    sampler = _RouteSampler(
        machine, route_computer, spec.pattern, spec.size_flits,
        spec.traffic_class,
    )
    rng = random.Random(spec.seed)
    packets: List[Packet] = []
    pid = 0
    for src_ep in active_endpoints(machine, spec.cores_per_chip):
        src_comp = machine.components[src_ep]
        for _ in range(spec.packets_per_source):
            packets.append(
                sampler.draw(rng, src_comp.chip, src_comp.detail, pid, 0)
            )
            pid += 1
    return packets


def generate_open_loop(
    machine: Machine,
    route_computer: RouteComputer,
    pattern: TrafficPattern,
    injection_rate: float,
    duration_cycles: int,
    cores_per_chip: int,
    size_flits: int = 1,
    seed: int = 0,
    traffic_class: int = 0,
) -> List[Packet]:
    """Open-loop Bernoulli injection at ``injection_rate`` packets per
    source per cycle, for latency-versus-load style experiments."""
    if not 0 < injection_rate <= 1:
        raise ValueError(f"injection_rate must be in (0, 1], got {injection_rate}")
    sampler = _RouteSampler(
        machine, route_computer, pattern, size_flits, traffic_class
    )
    rng = random.Random(seed)
    packets: List[Packet] = []
    pid = 0
    for src_ep in active_endpoints(machine, cores_per_chip):
        src_comp = machine.components[src_ep]
        for cycle in range(duration_cycles):
            if rng.random() >= injection_rate:
                continue
            packets.append(
                sampler.draw(rng, src_comp.chip, src_comp.detail, pid, cycle)
            )
            pid += 1
    return packets
