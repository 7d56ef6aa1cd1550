"""Declarative fault model: which channels fail, and when.

A fault set is a reproducible artifact: a list of :class:`FaultSpec`
entries (failed links or failed nodes, each with an optional mid-run
down/up schedule) plus the machine shape it was drawn for and the sampler
seed, serializable to JSON and back bit-for-bit. The rest of the
subsystem consumes fault sets three ways:

* :meth:`FaultSet.initial_failed` — channels already down at cycle 0,
  excluded from route construction before the run starts;
* :meth:`FaultSet.timeline` — scheduled mid-run link-down / link-up
  events, applied by the engine at their cycle;
* :func:`sample_link_faults` — a seeded random sampler (``k`` random
  link failures on an LxMxN machine) for degradation sweeps.

Endpoint-adapter links (E group) cannot fail: a dead endpoint link is
indistinguishable from removing the endpoint from the workload, which is
a traffic-pattern question, not a network-resilience one.
"""

from __future__ import annotations

import dataclasses
import json
import random
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.geometry import Coord3
from ..core.machine import ChannelGroup, ChannelKind, Machine, group_of

#: Fault-set JSON schema version.
FAULT_SCHEMA_VERSION = 1

#: Channel kinds eligible for link faults (everything but E-group links).
FAILABLE_KINDS: Tuple[ChannelKind, ...] = (
    ChannelKind.MESH,
    ChannelKind.SKIP,
    ChannelKind.ROUTER_TO_CA,
    ChannelKind.CA_TO_ROUTER,
    ChannelKind.TORUS,
)


def _is_int(value) -> bool:
    """An integer, and not a bool (JSON ``true`` is no channel id)."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclasses.dataclass(frozen=True)
class FaultSpec:
    """One fault: a failed link or a failed node, with a down/up schedule.

    ``kind`` is ``"link"`` (``channel`` is the failed channel id) or
    ``"node"`` (``chip`` is the failed chip; every non-endpoint channel
    touching it fails). The channel is down from ``down_cycle`` (0 means
    before the run starts) until ``up_cycle`` (``None`` means forever).
    """

    kind: str
    channel: Optional[int] = None
    chip: Optional[Coord3] = None
    down_cycle: int = 0
    up_cycle: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in ("link", "node"):
            raise ValueError(f"fault kind must be 'link' or 'node', got {self.kind!r}")
        # Named by their JSON keys (to_dict): a fault file is where a
        # wrong type comes from. Only ``down`` may not be null.
        for key, value in (
            ("channel", self.channel),
            ("down", self.down_cycle),
            ("up", self.up_cycle),
        ):
            if value is None and key != "down":
                continue
            if not _is_int(value):
                raise ValueError(f"fault {key!r} must be an integer, got {value!r}")
        if self.chip is not None and not (
            type(self.chip) is tuple
            and len(self.chip) == 3
            and all(map(_is_int, self.chip))
        ):
            raise ValueError(
                f"fault 'chip' must be three integers, got {self.chip!r}"
            )
        if self.kind == "link" and self.channel is None:
            raise ValueError("link fault needs a channel id")
        if self.kind == "node" and self.chip is None:
            raise ValueError("node fault needs a chip coordinate")
        if self.down_cycle < 0:
            raise ValueError(f"down_cycle must be >= 0, got {self.down_cycle}")
        if self.up_cycle is not None and self.up_cycle <= self.down_cycle:
            raise ValueError(
                f"up_cycle {self.up_cycle} must follow down_cycle {self.down_cycle}"
            )

    def to_dict(self) -> Dict:
        out: Dict = {"kind": self.kind, "down": self.down_cycle}
        if self.channel is not None:
            out["channel"] = self.channel
        if self.chip is not None:
            out["chip"] = list(self.chip)
        if self.up_cycle is not None:
            out["up"] = self.up_cycle
        return out

    @classmethod
    def from_dict(cls, data: Dict) -> "FaultSpec":
        if not isinstance(data, dict):
            raise ValueError(f"a fault is a JSON object, got {data!r}")
        chip = data.get("chip")
        return cls(
            kind=data.get("kind"),
            channel=data.get("channel"),
            chip=tuple(chip) if isinstance(chip, list) else chip,
            down_cycle=data.get("down", 0),
            up_cycle=data.get("up"),
        )

    def channels_on(self, machine: Machine) -> Tuple[int, ...]:
        """The channel ids this fault takes down on a concrete machine."""
        if self.kind == "link":
            return (self.channel,)
        components = machine.components
        return tuple(
            cid
            for cid, (src, dst, kind) in enumerate(
                zip(machine.channel_src, machine.channel_dst, machine.channel_kind)
            )
            if group_of(kind) != ChannelGroup.E
            and self.chip in (components[src].chip, components[dst].chip)
        )


@dataclasses.dataclass(frozen=True)
class FaultSet:
    """An ordered collection of faults bound to a machine shape."""

    specs: Tuple[FaultSpec, ...] = ()
    shape: Optional[Coord3] = None
    seed: Optional[int] = None
    note: str = ""
    #: Topology the set was drawn for; channel ids are only meaningful
    #: on the machine graph they were sampled from.
    topology: str = "torus"

    def __len__(self) -> int:
        return len(self.specs)

    # --- engine-facing views ------------------------------------------------

    def validate(self, machine: Machine) -> None:
        """Check every spec against a concrete machine; raise ValueError."""
        if self.shape is not None and self.shape != machine.config.shape:
            raise ValueError(
                f"fault set was drawn for shape {self.shape}, "
                f"machine is {machine.config.shape}"
            )
        if self.topology != machine.config.topology:
            raise ValueError(
                f"fault set was drawn for topology {self.topology!r}, "
                f"machine is {machine.config.topology!r}"
            )
        kinds = machine.channel_kind
        for spec in self.specs:
            if spec.kind == "link":
                if not 0 <= spec.channel < len(kinds):
                    raise ValueError(f"no channel {spec.channel} on this machine")
                kind = kinds[spec.channel]
                if group_of(kind) == ChannelGroup.E:
                    raise ValueError(
                        f"endpoint-adapter link ch{spec.channel}[{kind.name}] "
                        "cannot fail; "
                        "remove the endpoint from the workload instead"
                    )
            else:
                shape = machine.config.shape
                if not all(0 <= spec.chip[d] < shape[d] for d in range(3)):
                    raise ValueError(
                        f"chip {spec.chip} is outside machine shape {shape}"
                    )

    def initial_failed(self, machine: Machine) -> frozenset:
        """Channel ids already down when the run starts (cycle 0)."""
        out = set()
        for spec in self.specs:
            if spec.down_cycle == 0:
                out.update(spec.channels_on(machine))
        return frozenset(out)

    def timeline(self, machine: Machine) -> List[Tuple[int, int, bool]]:
        """Scheduled ``(cycle, channel id, is_down)`` events, sorted.

        Down events at the same cycle sort before up events, and events
        are otherwise ordered by (cycle, channel id) so the engine's
        application order is deterministic.
        """
        events: List[Tuple[int, int, bool]] = []
        for spec in self.specs:
            for cid in spec.channels_on(machine):
                if spec.down_cycle > 0:
                    events.append((spec.down_cycle, cid, True))
                if spec.up_cycle is not None:
                    events.append((spec.up_cycle, cid, False))
        events.sort(key=lambda e: (e[0], not e[2], e[1]))
        return events

    def all_channels(self, machine: Machine) -> frozenset:
        """Every channel id any spec ever takes down."""
        out = set()
        for spec in self.specs:
            out.update(spec.channels_on(machine))
        return frozenset(out)

    # --- JSON round-trip ----------------------------------------------------

    def to_json(self, indent: Optional[int] = None) -> str:
        data: Dict = {
            "version": FAULT_SCHEMA_VERSION,
            "faults": [spec.to_dict() for spec in self.specs],
        }
        if self.shape is not None:
            data["shape"] = list(self.shape)
        if self.seed is not None:
            data["seed"] = self.seed
        if self.note:
            data["note"] = self.note
        if self.topology != "torus":
            data["topology"] = self.topology
        return json.dumps(data, sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "FaultSet":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSet":
        """The set a decoded :meth:`to_json` object spells."""
        if not isinstance(data, dict):
            raise ValueError(f"a fault set is a JSON object, got {data!r}")
        version = data.get("version")
        if version != FAULT_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported fault schema version {version!r} "
                f"(this build reads version {FAULT_SCHEMA_VERSION})"
            )
        shape = data.get("shape")
        if shape is not None and not (
            isinstance(shape, list)
            and 2 <= len(shape) <= 3
            and all(map(_is_int, shape))
        ):
            raise ValueError(
                f"fault set 'shape' must be a list of 2 or 3 integers, got {shape!r}"
            )
        if shape is not None:
            # A mesh or chiplet file may spell its shape in two ints;
            # machines normalize to three, as ``MachineConfig`` does.
            shape = tuple(shape) + (1,) * (3 - len(shape))
        faults = data.get("faults")
        if not isinstance(faults, list):
            raise ValueError(f"'faults' must be a JSON list, got {faults!r}")
        return cls(
            specs=tuple(FaultSpec.from_dict(d) for d in faults),
            shape=shape,
            seed=data.get("seed"),
            note=data.get("note", ""),
            topology=data.get("topology", "torus"),
        )


def failable_channels(
    machine: Machine, kinds: Sequence[ChannelKind] = (ChannelKind.TORUS,)
) -> List[int]:
    """Sorted candidate channel ids for link-fault sampling."""
    wanted = set(kinds)
    bad = wanted - set(FAILABLE_KINDS)
    if bad:
        raise ValueError(f"channel kinds {sorted(k.name for k in bad)} cannot fail")
    return [cid for cid, kind in enumerate(machine.channel_kind) if kind in wanted]


def sample_link_faults(
    machine: Machine,
    k: int,
    seed: int,
    kinds: Sequence[ChannelKind] = (ChannelKind.TORUS,),
    down_cycle: int = 0,
    up_cycle: Optional[int] = None,
    note: str = "",
) -> FaultSet:
    """Draw ``k`` distinct random link failures, reproducibly.

    The candidate list is the sorted channel ids of the requested kinds,
    so the same (machine shape, kinds, seed, k) always yields the same
    fault set regardless of machine construction order.
    """
    candidates = failable_channels(machine, kinds)
    if k > len(candidates):
        raise ValueError(
            f"cannot sample {k} faults from {len(candidates)} candidate links"
        )
    rng = random.Random(seed)
    chosen = sorted(rng.sample(candidates, k))
    specs = tuple(
        FaultSpec(kind="link", channel=cid, down_cycle=down_cycle, up_cycle=up_cycle)
        for cid in chosen
    )
    return FaultSet(
        specs=specs,
        shape=machine.config.shape,
        seed=seed,
        note=note,
        topology=machine.config.topology,
    )
