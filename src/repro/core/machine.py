"""Whole-machine model: a channel-sliced 3D torus of Anton 2 ASICs.

The :class:`Machine` instantiates every network component (routers,
endpoint adapters, channel adapters) and every directed channel (mesh,
skip, router/adapter links, inter-node torus channels) for a configurable
torus shape, and exposes the lookup tables that routing
(:mod:`repro.core.routing`), the deadlock checker
(:mod:`repro.core.deadlock`) and the simulator (:mod:`repro.sim`) operate
on. Every node is the same ASIC, so chip 0's block is elaborated once and
copied to every other chip by id offset; a channel is its entries in the
flat per-channel rows (``channel_src``, ``channel_kind``, ...), by
channel id.

The deadlock analysis of Section 2.5 divides channels into two groups:

* **M-group** -- mesh channels, excluding skip channels and the links
  between routers and torus-channel adapters;
* **T-group** -- skip channels, router/channel-adapter links, and the
  torus channels themselves.

Endpoint-adapter links are pure traffic sources/sinks and belong to
neither group (``ChannelGroup.E``).
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import itertools
import math
from fractions import Fraction
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple, Union

from . import params
from .chip import ChipFloorplan, default_floorplan
from .geometry import (
    Coord2,
    Coord3,
    Dim,
    TORUS_DIRECTIONS,
    TorusDirection,
    all_coords,
)
from .topology import Topology, make_topology


class ComponentKind(enum.IntEnum):
    """The three network component types of Figure 1 / Table 1."""

    ROUTER = 0
    ENDPOINT = 1
    CHANNEL_ADAPTER = 2


class ChannelKind(enum.IntEnum):
    """Physical role of a directed channel."""

    MESH = 0
    SKIP = 1
    ROUTER_TO_CA = 2
    CA_TO_ROUTER = 3
    ROUTER_TO_EP = 4
    EP_TO_ROUTER = 5
    TORUS = 6


class ChannelGroup(enum.IntEnum):
    """Deadlock-analysis channel group (Section 2.5)."""

    M = 0
    T = 1
    E = 2


#: Channel kinds belonging to the T-group.
T_GROUP_KINDS = frozenset(
    {ChannelKind.SKIP, ChannelKind.ROUTER_TO_CA, ChannelKind.CA_TO_ROUTER, ChannelKind.TORUS}
)


def group_of(kind: ChannelKind) -> ChannelGroup:
    """Map a channel kind to its deadlock-analysis group."""
    if kind == ChannelKind.MESH:
        return ChannelGroup.M
    if kind in T_GROUP_KINDS:
        return ChannelGroup.T
    return ChannelGroup.E


def exact_cycles_per_flit(value: Union[int, float, Fraction]) -> Fraction:
    """Coerce a cycles-per-flit value to an exact positive rational.

    Floats are snapped to the nearest small-denominator rational, so a
    caller writing ``3.2`` gets 16/5 rather than the 52-bit binary
    approximation (whose denominator would explode the machine's global
    tick; see :attr:`Machine.ticks_per_cycle`).
    """
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"cycles_per_flit must be finite, got {value}")
        value = Fraction(value).limit_denominator(10**6)
    else:
        value = Fraction(value)
    if value <= 0:
        raise ValueError("cycles_per_flit must be positive")
    return value


#: On-chip channels move one flit per cycle; one shared object, so the
#: per-channel tables in ``Machine._build`` can key on identity.
_ONE_CYCLE_PER_FLIT = Fraction(1)


@dataclasses.dataclass(frozen=True)
class Component:
    """One network component instance.

    ``detail`` disambiguates within a chip: mesh coordinates for a router,
    ``(direction, slice)`` for a channel adapter, or an integer index for
    an endpoint adapter.
    """

    cid: int
    kind: ComponentKind
    chip: Coord3
    detail: object

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.kind == ComponentKind.ROUTER:
            return f"R{self.detail}@{self.chip}"
        if self.kind == ComponentKind.ENDPOINT:
            return f"E{self.detail}@{self.chip}"
        direction, slice_index = self.detail
        return f"C[{direction}{slice_index}]@{self.chip}"


@dataclasses.dataclass(frozen=True)
class MachineConfig:
    """Configuration of a machine instance.

    Parameters mirror the real machine where they are published and are
    otherwise simulation knobs. Defaults are chosen for faithful behaviour
    at simulation-friendly scale; see DESIGN.md for the scale
    substitutions.
    """

    #: Machine radices. For the default torus topology these are the
    #: torus radices (k_X, k_Y, k_Z); the paper's machine is (8, 8, 8).
    #: Two-axis topologies (``mesh``, ``chiplet``) accept a 2-tuple and
    #: normalize it to ``(k_X, k_Y, 1)``.
    shape: Coord3 = (4, 4, 4)
    #: Endpoint adapters instantiated per chip (the real chip has 23; small
    #: simulations reduce this since idle endpoints only cost memory).
    endpoints_per_chip: int = params.ENDPOINTS_PER_ASIC
    #: VC scheme: "anton" (promotion, n+1 VCs), "baseline" (2n VCs), or
    #: "unsafe-single" (one VC, deadlock-prone -- a negative control used
    #: by the deadlock tests).
    vc_scheme: str = "anton"
    #: Traffic classes instantiated in simulation (the hardware has 2;
    #: experiments drive a single class).
    num_classes: int = 1
    #: Channel latencies, in cycles.
    mesh_latency: int = 1
    skip_latency: int = 1
    adapter_link_latency: int = 1
    torus_latency: int = 12
    #: Per-VC input buffer depth in flits for on-chip channels.
    onchip_buffer_flits: int = 8
    #: Per-VC input buffer depth in flits for torus-channel inputs (the
    #: channel adapters carry deep queues to cover the inter-node
    #: credit round trip; cf. Table 2's queue-dominated channel adapters).
    torus_buffer_flits: int = 64
    #: Cycles a torus channel needs per flit: the mesh-to-effective-torus
    #: bandwidth ratio 288 / 89.6, exactly 45/14. Setting this to 1 models
    #: an (unrealistic) full-speed torus; tests use that to stress the
    #: mesh. Ints, floats, and Fractions are accepted and normalized to an
    #: exact rational (floats via ``exact_cycles_per_flit``).
    torus_cycles_per_flit: Fraction = params.TORUS_CYCLES_PER_FLIT
    #: Extra cycles a packet spends in a component's pipeline (RC, VA, ...)
    #: before it may arbitrate for an output. Zero keeps the fast
    #: one-cycle-per-hop abstraction used by the throughput experiments;
    #: latency-focused studies can set it to the four router stages.
    router_pipeline_cycles: int = 0
    #: Inter-node topology name (:data:`repro.core.topology.TOPOLOGIES`):
    #: ``"torus"`` (the default; the paper's machine), ``"mesh"`` (a
    #: standalone 2D mesh, no datelines), or ``"chiplet"`` (chiplets on
    #: an interposer).
    topology: str = "torus"

    def __post_init__(self) -> None:
        # Building the topology validates (and normalizes) the shape.
        topo = make_topology(self.topology, self.shape)
        object.__setattr__(self, "shape", topo.shape)
        if self.vc_scheme not in ("anton", "baseline", "unsafe-single"):
            raise ValueError(f"unknown vc_scheme {self.vc_scheme!r}")
        if not 1 <= self.num_classes <= params.NUM_TRAFFIC_CLASSES:
            raise ValueError(f"num_classes must be 1 or 2, got {self.num_classes}")
        if not 1 <= self.endpoints_per_chip:
            raise ValueError("endpoints_per_chip must be at least 1")
        for name in (
            "mesh_latency",
            "skip_latency",
            "adapter_link_latency",
            "torus_latency",
            "onchip_buffer_flits",
            "torus_buffer_flits",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        # Normalize to an exact rational (frozen dataclass, hence setattr).
        object.__setattr__(
            self,
            "torus_cycles_per_flit",
            exact_cycles_per_flit(self.torus_cycles_per_flit),
        )
        if self.router_pipeline_cycles < 0:
            raise ValueError("router_pipeline_cycles must be nonnegative")

    @property
    def vcs_per_class_m(self) -> int:
        """VCs per traffic class on M-group channels."""
        if self.vc_scheme == "anton":
            return params.VCS_PER_CLASS_ANTON
        if self.vc_scheme == "unsafe-single":
            return 1
        return params.VCS_PER_CLASS_BASELINE_M

    @property
    def vcs_per_class_t(self) -> int:
        """VCs per traffic class on T-group channels."""
        if self.vc_scheme == "anton":
            return params.VCS_PER_CLASS_ANTON
        if self.vc_scheme == "unsafe-single":
            return 1
        return params.VCS_PER_CLASS_BASELINE_T

    @property
    def num_chips(self) -> int:
        kx, ky, kz = self.shape
        return kx * ky * kz

    def make_topology(self) -> Topology:
        """Instantiate this configuration's :class:`Topology`."""
        return make_topology(self.topology, self.shape)


@dataclasses.dataclass(frozen=True)
class ChipBlockLayout:
    """Where each chip's channels sit in a machine's channel ids.

    Every chip is the same chip, elaborated chip after chip in
    ``all_coords`` order: components and on-chip channels sit in per-chip
    blocks of one fixed internal order, so a fact about one chip's block
    holds for all of them --

    * component ``chip index * components_per_chip + k`` is the same
      (kind, detail) on every chip;
    * on-chip channel ``chip index * onchip_channels_per_chip + slot``
      links the same two components of its chip, on every chip;
    * the inter-node channels, chip-major too, start at
      ``internode_base``, where the on-chip blocks end.

    Read off the elaborated graph once (:attr:`Machine.layout`); routes
    are assembled from it by arithmetic
    (:meth:`repro.core.routing.RouteComputer.compute_plan`) and load
    tables translated by it (:func:`repro.traffic.loads.compute_loads`).
    """

    #: Chip coordinates by chip index (``all_coords`` order), and back.
    chips: Tuple[Coord3, ...]
    chip_index: Dict[Coord3, int]
    #: Slot of the mesh or skip channel between two routers, by their
    #: mesh coordinates ``(from, to)``.
    router_link: Dict[Tuple[Coord2, Coord2], int]
    #: ``(router -> adapter slot, adapter -> router slot)`` of each
    #: channel adapter's links, by ``(direction, slice)``.
    adapter_link: Dict[Tuple[TorusDirection, int], Tuple[int, int]]
    #: The same pair for each endpoint adapter, by endpoint index.
    endpoint_link: Tuple[Tuple[int, int], ...]
    #: ``internode[(direction, slice)][chip index]`` is the inter-node
    #: channel leaving that chip: ``(channel id, chip index it arrives
    #: at, whether it crosses the dimension's dateline)``, or ``None``
    #: where the topology has no link.
    internode: Dict[
        Tuple[TorusDirection, int], List[Optional[Tuple[int, int, bool]]]
    ]
    #: On-chip channels per chip; first inter-node channel id; inter-node
    #: channels per chip where every chip has as many (a topology whose
    #: every dimension wraps -- elsewhere edge chips have fewer).
    onchip_per_chip: int
    internode_base: int
    internode_per_chip: int
    #: ``cids[channel id]`` is the one int object that names the channel.
    #: ``base + slot`` makes a new int per use; a route built of these
    #: instead shares one int per channel with every other route.
    cids: List[int]

    def block_of(self, cid: int) -> Tuple[int, int]:
        """``(chip index, channels per chip)`` of the block a channel is in.

        Adding ``n`` times the second to ``cid`` names the same channel
        ``n`` chips later -- for inter-node channels only where
        ``internode_per_chip`` holds.
        """
        if cid < self.internode_base:
            return cid // self.onchip_per_chip, self.onchip_per_chip
        return (
            (cid - self.internode_base) // self.internode_per_chip,
            self.internode_per_chip,
        )


class ArbiterSites(NamedTuple):
    """Where one arbitration stage's sites sit in flat per-input rows.

    A site is named by a channel id: an SA2 site by the output channel it
    guards (its inputs are the input ports of the channel's source), an
    SA1 site by the input channel whose VCs it picks among. Input ``i`` of
    site ``s`` is at ``offsets[s] + i`` of every per-input row of
    :mod:`repro.arbiters.bank`; the SA1 offsets are the channel's first
    VC slot, ``s << Machine.vc_bits``.
    """

    #: Site ids in the order checkpoints list them.
    order: Tuple[int, ...]
    #: By channel id.
    offsets: Tuple[int, ...]
    #: By channel id; 0 where the channel is no site of this stage.
    num_inputs: Tuple[int, ...]
    #: Length of a per-input row.
    size: int


class EngineRows(NamedTuple):
    """What every engine built on one machine indexes its state by
    (:mod:`repro.sim.engine`), tabulated once: see
    :attr:`Machine.engine_rows`."""

    #: The ``channel_latency`` / ``_src`` / ``_dst`` rows, and
    #: whether a component is an endpoint adapter, by component id.
    latency: Tuple[int, ...]
    src: Tuple[int, ...]
    dst: Tuple[int, ...]
    is_endpoint: Tuple[bool, ...]
    #: The credits every slot (:attr:`Machine.vc_bits`) starts with: the
    #: buffer depth, and 0 in the padding a channel with fewer VCs leaves.
    credits: Tuple[int, ...]
    #: The sites of the SA2 (output) and SA1 (VC selection) stages.
    arbiter_sites: ArbiterSites
    vc_arbiter_sites: ArbiterSites


class OccupancyRows(NamedTuple):
    """What an engine's occupancy masks are read by, tabulated once: see
    :attr:`Machine.occupancy_rows`."""

    #: ``1 << input_index``, by channel id: the channel's bit in the
    #: occupancy mask of the component it feeds.
    input_bit: Tuple[int, ...]
    #: The set bits of ``m``, lowest first, by ``m`` below ``2^w`` for
    #: ``w`` the widest fan-in or VC set: what an occupancy mask names.
    bits: Tuple[Tuple[int, ...], ...]


class Machine:
    """A fully elaborated Anton 2 machine (component/channel graph)."""

    def __init__(
        self,
        config: Optional[MachineConfig] = None,
        floorplan: Optional[ChipFloorplan] = None,
    ) -> None:
        self.config = config or MachineConfig()
        #: The inter-node :class:`Topology` (torus by default).
        self.topology: Topology = self.config.make_topology()
        self.floorplan = floorplan or default_floorplan(
            num_endpoints=self.config.endpoints_per_chip
        )
        if self.floorplan.num_endpoints != self.config.endpoints_per_chip:
            raise ValueError(
                "floorplan endpoint count does not match configuration"
            )
        self.components: List[Component] = []
        #: (chip, (u, v)) -> router component id
        self.router_id: Dict[Tuple[Coord3, Coord2], int] = {}
        #: (chip, direction, slice) -> channel-adapter component id
        self.ca_id: Dict[Tuple[Coord3, TorusDirection, int], int] = {}
        #: (chip, endpoint index) -> endpoint component id
        self.ep_id: Dict[Tuple[Coord3, int], int] = {}
        #: The channels as rows, by channel id; a channel's deadlock
        #: group is ``group_of(channel_kind[cid])``. ``cycles_per_flit`` is
        #: an exact rational: 1 on chip, 45/14 on a default torus channel
        #: (288 / 89.6 Gb/s, Section 2.4). A component id in a row is that
        #: component's own ``Component.cid`` object.
        self.channel_src: List[int] = []
        self.channel_dst: List[int] = []
        self.channel_kind: List[ChannelKind] = []
        self.channel_latency: List[int] = []
        self.channel_cycles_per_flit: List[Fraction] = []
        #: incoming channel ids per component, in input-index order
        self.component_inputs: Tuple[Tuple[int, ...], ...] = ()
        #: outgoing channel ids per component
        self.component_outputs: List[List[int]] = []
        #: input index of each channel at its destination component
        self.input_index: List[int] = []
        #: Every chip holds the same on-chip channels in the same order,
        #: chip after chip in ``all_coords`` order, before any inter-node
        #: channel: on-chip channel ids are ``chip index *
        #: onchip_channels_per_chip + slot``, and the inter-node ids
        #: (chip-major too) start where they end. What sits at each slot
        #: is :attr:`layout`.
        self.onchip_channels_per_chip: int = 0
        #: Integer ticks per on-chip cycle: the LCM of the denominators of
        #: every channel's ``cycles_per_flit``, so each channel's per-flit
        #: occupancy is a whole number of ticks (45 ticks per flit on a
        #: default torus channel, 14 on a mesh channel). The simulator
        #: carries all channel timing in these ticks; see
        #: :mod:`repro.sim.engine`.
        self.ticks_per_cycle: int = 1
        #: Per-flit occupancy in ticks, total VCs (every class) and
        #: per-VC input buffer depth in flits, by channel id.
        self.channel_occupancy_ticks: List[int] = []
        self.channel_vcs: List[int] = []
        self.channel_buffer_depth: List[int] = []
        #: Width of the VC field of a (channel, VC) *slot*, ``(cid <<
        #: vc_bits) | vc``: the one int a route stores per hop and the
        #: index of an engine's flat per-VC rows. Channel ``cid``'s slots
        #: are ``range(cid << vc_bits, (cid << vc_bits) + channel_vcs[cid])``.
        self.vc_bits: int = 0
        #: ``_channel_ids[channel id]`` is the one int object that names
        #: the channel everywhere: in :attr:`component_inputs` and
        #: :attr:`component_outputs` and the layout's ``cids`` and
        #: inter-node rows (DESIGN.md section 9, the int-identity trap).
        self._channel_ids: List[int] = []
        #: :meth:`route_memo`'s tables, by (direction order, non-minimal).
        self._route_memos: Dict[Tuple[tuple, bool], dict] = {}
        self._build()

    # --- construction -----------------------------------------------------

    def _add_component(self, kind: ComponentKind, chip: Coord3, detail: object) -> int:
        cid = len(self.components)
        self.components.append(Component(cid, kind, chip, detail))
        return cid

    def _add_channel(
        self,
        src: int,
        dst: int,
        kind: ChannelKind,
        latency: int,
        cycles_per_flit: Fraction = _ONE_CYCLE_PER_FLIT,
    ) -> None:
        self.channel_src.append(src)
        self.channel_dst.append(dst)
        self.channel_kind.append(kind)
        self.channel_latency.append(latency)
        self.channel_cycles_per_flit.append(cycles_per_flit)

    def _build(self) -> None:
        """Elaborate chip 0 the long way, copy it to every other chip by
        id offset, then add the inter-node channels."""
        cfg = self.config
        plan = self.floorplan
        chips = tuple(all_coords(cfg.shape))
        chip = chips[0]

        # Chip 0's block: the one statement of how a floorplan maps to
        # components and on-chip channels.
        for coord in plan.router_coords():
            self.router_id[(chip, coord)] = self._add_component(
                ComponentKind.ROUTER, chip, coord
            )
        for (direction, slice_index), _coord in sorted(
            plan.channel_adapter_router.items(),
            key=lambda item: (item[0][0].dim, item[0][0].sign, item[0][1]),
        ):
            self.ca_id[(chip, direction, slice_index)] = self._add_component(
                ComponentKind.CHANNEL_ADAPTER, chip, (direction, slice_index)
            )
        for index in range(plan.num_endpoints):
            self.ep_id[(chip, index)] = self._add_component(
                ComponentKind.ENDPOINT, chip, index
            )

        # Mesh channels (both directions of each link).
        for a, b in plan.mesh_links():
            ra = self.router_id[(chip, a)]
            rb = self.router_id[(chip, b)]
            self._add_channel(ra, rb, ChannelKind.MESH, cfg.mesh_latency)
            self._add_channel(rb, ra, ChannelKind.MESH, cfg.mesh_latency)
        # Skip channels.
        for skip in plan.skip_channels:
            ra = self.router_id[(chip, skip.ends[0])]
            rb = self.router_id[(chip, skip.ends[1])]
            self._add_channel(ra, rb, ChannelKind.SKIP, cfg.skip_latency)
            self._add_channel(rb, ra, ChannelKind.SKIP, cfg.skip_latency)
        # Router <-> channel-adapter links.
        for (direction, slice_index), coord in plan.channel_adapter_router.items():
            router = self.router_id[(chip, coord)]
            adapter = self.ca_id[(chip, direction, slice_index)]
            self._add_channel(
                router, adapter, ChannelKind.ROUTER_TO_CA, cfg.adapter_link_latency
            )
            self._add_channel(
                adapter, router, ChannelKind.CA_TO_ROUTER, cfg.adapter_link_latency
            )
        # Router <-> endpoint-adapter links.
        for index, coord in enumerate(plan.endpoint_router):
            router = self.router_id[(chip, coord)]
            endpoint = self.ep_id[(chip, index)]
            self._add_channel(
                router, endpoint, ChannelKind.ROUTER_TO_EP, cfg.adapter_link_latency
            )
            self._add_channel(
                endpoint, router, ChannelKind.EP_TO_ROUTER, cfg.adapter_link_latency
            )

        # Every other chip is the same block, its ids shifted by chip
        # index x block size.
        onchip = self.onchip_channels_per_chip = len(self.channel_src)
        block = self.components[:]
        for chip in chips[1:]:
            for first in block:
                cid = self._add_component(first.kind, chip, first.detail)
                if first.kind == ComponentKind.ROUTER:
                    self.router_id[(chip, first.detail)] = cid
                elif first.kind == ComponentKind.CHANNEL_ADAPTER:
                    self.ca_id[(chip,) + first.detail] = cid
                else:
                    self.ep_id[(chip, first.detail)] = cid
        # A row holds each component's own cid object: dicts keyed by
        # component id (the engine's active set) find a different int
        # object only by comparing values, which costs.
        component_ids = [component.cid for component in self.components]
        bases = range(0, len(component_ids), len(block))
        for row in (self.channel_src, self.channel_dst):
            row[:] = [component_ids[base + c] for base in bases for c in row]
        for row in (
            self.channel_kind,
            self.channel_latency,
            self.channel_cycles_per_flit,
        ):
            row *= len(chips)

        # Inter-node channels. A packet departing chip c in direction d
        # arrives at the neighbor's adapter for the opposite direction. The
        # topology decides which links exist (a torus dimension wraps; a
        # mesh/chiplet line has no edge-wrapping link) and what the channel
        # costs (torus cable vs. interposer trace).
        internode_base = len(self.channel_src)
        internode_latency = self.topology.internode_latency(cfg)
        internode_cpf = self.topology.internode_cycles_per_flit(cfg)
        for chip in chips:
            for direction in TORUS_DIRECTIONS:
                radix = cfg.shape[direction.dim]
                if radix < 2:
                    continue
                neighbor = self.topology.neighbor(chip, direction)
                if neighbor is None:
                    continue
                for slice_index in range(params.NUM_SLICES):
                    self._add_channel(
                        self.ca_id[(chip, direction, slice_index)],
                        self.ca_id[(neighbor, direction.opposite, slice_index)],
                        ChannelKind.TORUS,
                        internode_latency,
                        internode_cpf,
                    )

        # Different chips' blocks join different components, so only
        # chip 0's block and the inter-node channels can repeat a pair.
        seen = set()
        for start, stop in ((0, onchip), (internode_base, len(self.channel_src))):
            for key in zip(self.channel_src[start:stop], self.channel_dst[start:stop]):
                if key in seen:
                    raise ValueError(f"duplicate channel between {key[0]} and {key[1]}")
                seen.add(key)

        # Input/output indices.
        cids = self._channel_ids = list(range(len(self.channel_src)))
        component_inputs: List[List[int]] = [[] for _ in self.components]
        self.component_outputs = [[] for _ in self.components]
        input_index = self.input_index
        for cid, src, dst in zip(cids, self.channel_src, self.channel_dst):
            inputs = component_inputs[dst]
            input_index.append(len(inputs))
            inputs.append(cid)
            self.component_outputs[src].append(cid)
        self.component_inputs = tuple(map(tuple, component_inputs))

        # Each per-channel constant, once per distinct kind or
        # cycles-per-flit value. The rows share one Fraction object per
        # value (chip 0's block and the inter-node channels hold them
        # all), so identity keys them: hashing a Fraction costs more than
        # the lookup saves.
        cpfs = self.channel_cycles_per_flit
        distinct = {id(cpf): cpf for cpf in cpfs[:onchip] + cpfs[internode_base:]}
        self.ticks_per_cycle = math.lcm(
            *(cpf.denominator for cpf in distinct.values())
        )
        ticks = {key: self._occupancy_ticks(cpf) for key, cpf in distinct.items()}
        self.channel_occupancy_ticks = [ticks[id(cpf)] for cpf in cpfs]
        kinds = set(self.channel_kind)
        vcs = {kind: self._vcs(group_of(kind)) for kind in kinds}
        depth = {kind: self._buffer_depth(kind) for kind in kinds}
        self.channel_vcs = [vcs[kind] for kind in self.channel_kind]
        self.channel_buffer_depth = [depth[kind] for kind in self.channel_kind]
        self.vc_bits = (max(vcs.values(), default=1) - 1).bit_length()

    # --- queries ------------------------------------------------------------

    @functools.cached_property
    def layout(self) -> ChipBlockLayout:
        """The chip-block layout of this machine's channel ids.

        Built on first use (the first route), not at elaboration: a
        machine that never routes does not pay for it.
        """
        components = self.components
        src, dst = self.channel_src, self.channel_dst
        cids = self._channel_ids
        chips = tuple(all_coords(self.config.shape))
        components_per_chip = len(components) // len(chips)
        internode_base = len(chips) * self.onchip_channels_per_chip

        # Chip index 0's block: its ids are the per-chip positions. An
        # adapter's ``detail`` is (direction, slice) or an endpoint index.
        router_link: Dict[Tuple[Coord2, Coord2], int] = {}
        to_adapter: Dict[object, int] = {}
        from_adapter: Dict[object, int] = {}
        for slot in range(self.onchip_channels_per_chip):
            head = components[src[slot]]
            tail = components[dst[slot]]
            if tail.kind != ComponentKind.ROUTER:
                to_adapter[tail.detail] = slot
            elif head.kind != ComponentKind.ROUTER:
                from_adapter[head.detail] = slot
            else:
                router_link[(head.detail, tail.detail)] = slot
        adapter_link = {
            key: (to_adapter[key], from_adapter[key])
            for key in self.floorplan.channel_adapter_router
        }

        internode: Dict[Tuple[TorusDirection, int], list] = {
            key: [None] * len(chips) for key in adapter_link
        }
        # (dimension, row) by the adapter's position in its chip's block.
        rows = {
            self.ca_id[(chips[0],) + key]: (key[0].dim, row)
            for key, row in internode.items()
        }
        crossing_step = self.topology.crossing_step
        for cid in cids[internode_base:]:
            src_chip, adapter = divmod(src[cid], components_per_chip)
            dst_chip = dst[cid] // components_per_chip
            dim, row = rows[adapter]
            row[src_chip] = (
                cid,
                dst_chip,
                crossing_step(dim, chips[src_chip][dim], chips[dst_chip][dim]),
            )

        return ChipBlockLayout(
            chips=chips,
            chip_index={chip: index for index, chip in enumerate(chips)},
            router_link=router_link,
            adapter_link=adapter_link,
            endpoint_link=tuple(
                (to_adapter[index], from_adapter[index])
                for index in range(self.floorplan.num_endpoints)
            ),
            internode=internode,
            onchip_per_chip=self.onchip_channels_per_chip,
            internode_base=internode_base,
            internode_per_chip=(len(cids) - internode_base) // len(chips),
            cids=cids,
        )

    def route_memo(self, direction_order: tuple, allow_nonminimal: bool) -> dict:
        """The routes built on this machine under one on-chip direction
        order and one displacement rule, by ``(src, dst, choice, class)``.

        A route is a pure function of the machine and that key, so every
        :class:`~repro.core.routing.RouteComputer` of this machine with the
        same order and rule reads and fills the one table -- a run's, a
        campaign's, a fault-aware computer's base lookups, a checkpoint
        restore's -- and no entry ever goes stale. Keying by the rule keeps
        a minimal-only computer refusing the non-minimal choices a
        fault-aware one has built. It holds the routes asked for, up to
        :data:`~repro.core.routing.ROUTE_MEMO_ENTRIES` a table: a computer
        empties a full table before it adds a route, which costs later
        lookups a rebuild of an equal route and nothing else.
        """
        return self._route_memos.setdefault((direction_order, allow_nonminimal), {})

    @functools.cached_property
    def engine_rows(self) -> EngineRows:
        """The static tables of this machine's engines.

        Built on first use, like :attr:`layout`, and shared by every
        engine built or restored on the machine afterwards -- a sweep's
        points, a serve session's, a shard worker's.
        """
        src = tuple(self.channel_src)
        dst = tuple(self.channel_dst)
        is_endpoint = tuple(
            comp.kind == ComponentKind.ENDPOINT for comp in self.components
        )
        vcs = self.channel_vcs
        bits = self.vc_bits
        credits: List[int] = []
        for n, depth in zip(vcs, self.channel_buffer_depth):
            credits += [depth] * n + [0] * ((1 << bits) - n)
        # An endpoint adapter arbitrates nothing: its output has no SA2
        # site, the channel into it no SA1 site.
        fan_in = [
            0 if is_endpoint[cid] else len(inputs)
            for cid, inputs in enumerate(self.component_inputs)
        ]
        num_inputs = tuple(fan_in[comp] for comp in src)
        offsets = (0,) + tuple(itertools.accumulate(num_inputs))
        return EngineRows(
            latency=tuple(self.channel_latency),
            src=src,
            dst=dst,
            is_endpoint=is_endpoint,
            credits=tuple(credits),
            arbiter_sites=ArbiterSites(
                order=tuple(
                    oc
                    for comp, outputs in enumerate(self.component_outputs)
                    if not is_endpoint[comp]
                    for oc in outputs
                ),
                offsets=offsets[:-1],
                num_inputs=num_inputs,
                size=offsets[-1],
            ),
            vc_arbiter_sites=ArbiterSites(
                order=tuple(
                    cid for cid, comp in enumerate(dst) if not is_endpoint[comp]
                ),
                offsets=tuple(cid << bits for cid in range(len(vcs))),
                num_inputs=tuple(
                    0 if is_endpoint[comp] else n for comp, n in zip(dst, vcs)
                ),
                size=len(credits),
            ),
        )

    @functools.cached_property
    def occupancy_rows(self) -> OccupancyRows:
        """The tables of the engines' occupancy masks (DESIGN.md section
        9), shared like :attr:`engine_rows`. Floorplans cap a router at 6
        ports and the widest VC set is 12 (``baseline``, two classes), so
        ``bits`` has at most 2^12 entries."""
        width = max(max(self.channel_vcs), max(map(len, self.component_inputs)))
        bits: List[Tuple[int, ...]] = [()]
        for bit in range(width):
            bits += [low + (bit,) for low in bits]
        return OccupancyRows(
            input_bit=tuple(1 << i for i in self.input_index), bits=tuple(bits)
        )

    def neighbor(self, chip: Coord3, direction: TorusDirection) -> Optional[Coord3]:
        """The coordinate one hop away in ``direction``.

        ``None`` when the topology has no link there (stepping off the
        edge of a non-wrapping dimension); never ``None`` on the torus.
        """
        return self.topology.neighbor(chip, direction)

    def _vcs(self, group: ChannelGroup) -> int:
        cfg = self.config
        if group == ChannelGroup.M:
            per_class = cfg.vcs_per_class_m
        elif group == ChannelGroup.T:
            per_class = cfg.vcs_per_class_t
        else:
            per_class = 1
        return per_class * cfg.num_classes

    def _buffer_depth(self, kind: ChannelKind) -> int:
        if kind == ChannelKind.TORUS:
            return self.config.torus_buffer_flits
        return self.config.onchip_buffer_flits

    def _occupancy_ticks(self, cycles_per_flit: Fraction) -> int:
        # ``ticks_per_cycle`` is the LCM of all channel denominators, so
        # the product is integral by construction.
        occupancy = cycles_per_flit * self.ticks_per_cycle
        assert occupancy.denominator == 1
        return occupancy.numerator

    def endpoints(self) -> Iterator[Component]:
        """All endpoint adapters, chip-major then index order."""
        for component in self.components:
            if component.kind == ComponentKind.ENDPOINT:
                yield component

    def routers(self) -> Iterator[Component]:
        for component in self.components:
            if component.kind == ComponentKind.ROUTER:
                yield component

    def channel_adapters(self) -> Iterator[Component]:
        for component in self.components:
            if component.kind == ComponentKind.CHANNEL_ADAPTER:
                yield component

    def describe(self) -> str:
        """A short human-readable summary of the machine."""
        kx, ky, kz = self.config.shape
        if self.config.topology != "torus":
            return (
                f"Anton 2 machine {self.topology.describe()} "
                f"({self.config.num_chips} chips, {len(self.components)} "
                f"components, {len(self.channel_src)} directed channels, "
                f"vc_scheme={self.config.vc_scheme})"
            )
        return (
            f"Anton 2 machine {kx}x{ky}x{kz} "
            f"({self.config.num_chips} chips, {len(self.components)} components, "
            f"{len(self.channel_src)} directed channels, vc_scheme="
            f"{self.config.vc_scheme})"
        )
