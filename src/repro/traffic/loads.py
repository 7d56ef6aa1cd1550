"""Analytic channel and arbiter-input loads (Figure 5 semantics).

The *load* a traffic pattern places on a resource is the expected number
of packets per unit time that use the resource, summed over all sources
(Section 3.1). This module computes, by exact enumeration of the
oblivious route distribution (all dimension orders x slices x minimal
tie-breaks, each with its probability):

* the expected load on every directed channel, and
* the expected load on every (output channel, input port) arbitration
  point -- the ``gamma_{i,n}`` values from which the inverse-weighted
  arbiter's weights are computed.

Loads are normalized to "every active source endpoint injects exactly one
packet": multiplying by a per-source batch size B gives the expected
number of packets crossing each channel during a batch, which is how the
throughput experiments normalize completion time (a normalized throughput
of 1 means the most-loaded inter-node channel never idles).
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Dict, List, Optional, Sequence

from repro.core.geometry import all_coords
from repro.core.machine import ChannelKind, Machine
from repro.core.routing import RouteComputer

from .patterns import TrafficPattern


def active_endpoints(machine: Machine, cores_per_chip: int) -> List[int]:
    """The endpoint component ids participating in an experiment.

    The first ``cores_per_chip`` endpoints of each chip are used; the
    default floorplan places consecutive endpoints on distinct routers, so
    this matches the paper's measurement setup ("one core per router
    participating") when ``cores_per_chip`` equals the router count.
    """
    if not 1 <= cores_per_chip <= machine.config.endpoints_per_chip:
        raise ValueError(
            f"cores_per_chip must be in [1, {machine.config.endpoints_per_chip}]"
        )
    ids = []
    for chip in all_coords(machine.config.shape):
        for index in range(cores_per_chip):
            ids.append(machine.ep_id[(chip, index)])
    return ids


@dataclasses.dataclass
class LoadTable:
    """Expected loads for one traffic pattern on one machine."""

    #: Expected packets per channel id, per one packet injected by every
    #: active source.
    channel_load: Dict[int, float]
    #: ``arbiter_load[output channel][input index]`` -- expected packets
    #: arriving at that arbitration point via that input port.
    arbiter_load: Dict[int, List[float]]
    #: ``vc_load[channel][vc]`` -- expected packets carried per virtual
    #: channel of each channel. This is the load seen by the SA1 (per-
    #: input VC selection) arbitration stage; dateline geography makes
    #: these loads uneven, so SA1 must be weighted too for global EoS.
    vc_load: Dict[int, List[float]]
    #: Number of active source endpoints the table was computed over.
    num_sources: int

    def max_load(self, machine: Machine, kind: Optional[ChannelKind] = None) -> float:
        """The largest channel load, optionally restricted to one kind."""
        best = 0.0
        for cid, load in self.channel_load.items():
            if kind is not None and machine.channel_kind[cid] != kind:
                continue
            best = max(best, load)
        return best

    def max_torus_load(self, machine: Machine) -> float:
        """Peak inter-node channel load; the throughput normalizer."""
        return self.max_load(machine, ChannelKind.TORUS)


def _translation_maps(machine: Machine, channel_ids):
    """``(offset, {channel id: its id shifted by offset})`` for every
    nonzero offset of a translation-invariant machine.

    No graph walk: channel ids sit in per-chip blocks
    (:class:`~repro.core.machine.ChipBlockLayout`), and shifting a
    channel moves it to the same slot of the shifted chip's block.
    """
    kx, ky, kz = machine.config.shape
    layout = machine.layout
    chip_index = layout.chip_index
    blocks = [(cid, *layout.block_of(cid)) for cid in channel_ids]
    for ox, oy, oz in layout.chips[1:]:
        shifted = [
            chip_index[((x + ox) % kx, (y + oy) % ky, (z + oz) % kz)]
            for x, y, z in layout.chips
        ]
        yield (ox, oy, oz), {
            cid: cid + (shifted[chip] - chip) * stride
            for cid, chip, stride in blocks
        }


def compute_loads(
    machine: Machine,
    route_computer: RouteComputer,
    pattern: TrafficPattern,
    cores_per_chip: int,
    use_symmetry: Optional[bool] = None,
) -> LoadTable:
    """Exact expected loads for ``pattern`` over the oblivious router,
    core i of a chip talking to core i of the destination chip (the
    generators' own rule).

    For translation-symmetric patterns (``pattern.node_symmetric``) on a
    translation-invariant topology (every dimension wraps -- the torus),
    only sources on one chip are enumerated and the resulting loads are
    translated over the machine -- exact, and an O(num_chips) speedup.
    Mesh and chiplet machines are not translation-invariant (an edge node
    differs from an interior one), and neither is any machine whose route
    computer routes around failed channels, so those always take the
    exhaustive path. ``use_symmetry`` overrides the automatic choice
    (tests use this to verify the fast and slow paths agree); asking for
    the shortcut where it does not hold is an error.
    """
    if pattern.shape != machine.config.shape:
        raise ValueError("pattern shape does not match the machine")
    failed = getattr(route_computer, "failed", ())
    if use_symmetry is None:
        use_symmetry = (
            pattern.node_symmetric
            and machine.topology.translation_invariant
            and not failed
        )
    elif use_symmetry and not machine.topology.translation_invariant:
        raise ValueError(
            f"use_symmetry requires a translation-invariant topology; "
            f"{machine.config.topology!r} is not"
        )
    elif use_symmetry and failed:
        raise ValueError(
            f"use_symmetry requires a fault-free route computer; this one "
            f"routes around {len(failed)} failed channel(s)"
        )

    sources = active_endpoints(machine, cores_per_chip)
    vcs = machine.channel_vcs
    bits = machine.vc_bits
    input_index = machine.input_index
    # Flat rows, as an engine keeps its state: by channel, by slot
    # ``(cid << bits) | vc`` (what a route stores) and by arbiter input
    # (an output channel's inputs from ``first_input[oc]`` on). Each
    # entry gets its additions in enumeration order, the order the pinned
    # tables were summed in, so every float is theirs. A table holds the
    # entries some route crossed at a nonzero probability (no pattern
    # names a destination at probability 0).
    fan_in = [len(machine.component_inputs[src]) for src in machine.channel_src]
    first_input = [0, *itertools.accumulate(fan_in)]
    channel_row = [0.0] * len(vcs)
    slot_row = [0.0] * (len(vcs) << bits)
    input_row = [0.0] * first_input[-1]

    if use_symmetry:
        base_chip = (0, 0, 0)
        enumerated = [
            machine.ep_id[(base_chip, index)] for index in range(cores_per_chip)
        ]
    else:
        enumerated = sources

    for src_ep in enumerated:
        src_comp = machine.components[src_ep]
        src_chip = src_comp.chip
        src_index = src_comp.detail
        for dst_chip, node_prob in pattern.destinations(src_chip):
            dst_ep = machine.ep_id[(dst_chip, src_index)]
            for choice, choice_prob in route_computer.all_choices(
                src_chip, dst_chip
            ):
                prob = node_prob * choice_prob
                route = route_computer.compute(src_ep, dst_ep, choice)
                prev_channel = -1
                for slot in route.slots:
                    channel_id = slot >> bits
                    channel_row[channel_id] += prob
                    slot_row[slot] += prob
                    if prev_channel >= 0:
                        input_row[
                            first_input[channel_id] + input_index[prev_channel]
                        ] += prob
                    prev_channel = channel_id

    loaded = [cid for cid, load in enumerate(channel_row) if load]
    if use_symmetry:
        # Translate the single-chip result over every nonzero offset.
        # Arbiter input indices are translation-invariant because every
        # chip's channels are created in the same per-chip order.
        base_channels = [(cid, channel_row[cid]) for cid in loaded]
        base_inputs = [
            (cid, index, load)
            for cid in loaded
            for index, load in enumerate(
                input_row[first_input[cid]:first_input[cid + 1]]
            )
            if load
        ]
        base_slots = [
            (cid, vc, load)
            for cid in loaded
            for vc, load in enumerate(
                slot_row[cid << bits:(cid << bits) + vcs[cid]]
            )
            if load
        ]
        for _offset, channel_map in _translation_maps(machine, loaded):
            for cid, load in base_channels:
                channel_row[channel_map[cid]] += load
            for cid, index, load in base_inputs:
                input_row[first_input[channel_map[cid]] + index] += load
            for cid, vc, load in base_slots:
                slot_row[(channel_map[cid] << bits) | vc] += load
        loaded = [cid for cid, load in enumerate(channel_row) if load]

    arbiter_load: Dict[int, List[float]] = {}
    vc_load: Dict[int, List[float]] = {}
    for cid in loaded:
        inputs = input_row[first_input[cid]:first_input[cid + 1]]
        if any(inputs):
            arbiter_load[cid] = inputs
        vc_load[cid] = slot_row[cid << bits:(cid << bits) + vcs[cid]]
    return LoadTable(
        channel_load={cid: channel_row[cid] for cid in loaded},
        arbiter_load=arbiter_load,
        vc_load=vc_load,
        num_sources=len(sources),
    )


def merge_arbiter_loads(
    machine: Machine, tables: Sequence[LoadTable]
) -> Dict[int, List[List[float]]]:
    """Stack per-pattern arbiter loads into per-site ``gamma[i][n]`` matrices.

    Returns a map from output channel id to a matrix whose row ``i`` is
    input ``i``'s load under each pattern -- the exact input of
    :func:`repro.arbiters.weights.compute_inverse_weights`.
    """
    sites = set()
    for table in tables:
        sites.update(table.arbiter_load.keys())
    merged: Dict[int, List[List[float]]] = {}
    for oc in sites:
        num_inputs = len(machine.component_inputs[machine.channel_src[oc]])
        matrix = [[0.0] * len(tables) for _ in range(num_inputs)]
        for n, table in enumerate(tables):
            row = table.arbiter_load.get(oc)
            if row is None:
                continue
            for i, value in enumerate(row):
                matrix[i][n] = value
        merged[oc] = matrix
    return merged


def merge_vc_loads(
    machine: Machine, tables: Sequence[LoadTable]
) -> Dict[int, List[List[float]]]:
    """Stack per-pattern VC loads into per-channel ``gamma[vc][n]`` matrices.

    The SA1 analogue of :func:`merge_arbiter_loads`: row ``vc`` of the
    matrix for a channel is that VC's load under each pattern.
    """
    channels = set()
    for table in tables:
        channels.update(table.vc_load.keys())
    merged: Dict[int, List[List[float]]] = {}
    for cid in channels:
        matrix = [[0.0] * len(tables) for _ in range(machine.channel_vcs[cid])]
        for n, table in enumerate(tables):
            row = table.vc_load.get(cid)
            if row is None:
                continue
            for vc, value in enumerate(row):
                matrix[vc][n] = value
        merged[cid] = matrix
    return merged


def ideal_batch_cycles(
    machine: Machine,
    table: LoadTable,
    packets_per_source: int,
    flits_per_packet: int = 1,
    bottleneck: str = "torus",
) -> float:
    """Cycles an ideal (perfect-switch) network needs for a batch.

    With ``bottleneck="torus"`` (the paper's normalization: "a throughput
    of 1 indicates full utilization of torus channels") the bound is the
    time the busiest torus channel needs to carry its share of the batch
    at its effective bandwidth. ``bottleneck="any"`` instead bounds over
    every channel (including injection/ejection links), which is the
    honest bound for small machine configurations whose torus is not the
    limiting resource.
    """
    if bottleneck == "torus":
        return (
            packets_per_source
            * table.max_torus_load(machine)
            * flits_per_packet
            * machine.config.torus_cycles_per_flit
        )
    if bottleneck != "any":
        raise ValueError(f"unknown bottleneck {bottleneck!r}")
    worst = 0.0
    for cid, load in table.channel_load.items():
        worst = max(worst, load * machine.channel_cycles_per_flit[cid])
    return packets_per_source * worst * flits_per_packet
