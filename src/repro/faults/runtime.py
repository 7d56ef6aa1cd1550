"""Engine-facing fault state: policy + schedule + route computer.

A :class:`FaultRuntime` is what the engine consumes: it binds a
:class:`~repro.faults.model.FaultSet` to a concrete machine, owns the
:class:`~repro.faults.routing.FaultAwareRouteComputer` used for every
re-resolution, and carries the :class:`FaultPolicy` deciding what happens
to packets stranded by a mid-run failure.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

from ..core.machine import Machine
from .model import FaultSet
from .routing import FaultAwareRouteComputer

#: What to do with packets whose remaining route crosses a failed channel.
POLICY_MODES = ("reroute", "drop", "retry")


@dataclasses.dataclass(frozen=True)
class FaultPolicy:
    """Disposition of packets stranded by a mid-run link failure.

    * ``"reroute"`` — recompute the remainder of the route in place from
      the component currently holding the packet (drop only if the
      degraded machine is Unroutable from there);
    * ``"drop"`` — drop the packet and count it;
    * ``"retry"`` — drop the in-network copy and re-inject from the
      source with bounded exponential backoff (``backoff_base_cycles *
      2**(attempt-1)``, capped at ``backoff_cap_cycles``), giving up
      after ``max_retries`` attempts.

    Packets still waiting in a source queue are always re-routed at
    injection time (or dropped if unroutable) — they have not entered
    the network, so retry semantics do not apply to them.
    """

    mode: str = "reroute"
    max_retries: int = 4
    backoff_base_cycles: int = 8
    backoff_cap_cycles: int = 256

    def __post_init__(self) -> None:
        if self.mode not in POLICY_MODES:
            raise ValueError(
                f"policy mode must be one of {POLICY_MODES}, got {self.mode!r}"
            )
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base_cycles < 1 or self.backoff_cap_cycles < 1:
            raise ValueError("backoff cycles must be >= 1")

    def backoff(self, attempt: int) -> int:
        """Backoff delay in cycles before the ``attempt``-th re-injection."""
        return min(
            self.backoff_cap_cycles,
            self.backoff_base_cycles * (2 ** (attempt - 1)),
        )


class FaultRuntime:
    """A fault set bound to a machine, ready for the engine."""

    def __init__(
        self,
        machine: Machine,
        fault_set: FaultSet,
        policy: Optional[FaultPolicy] = None,
        route_computer: Optional[FaultAwareRouteComputer] = None,
    ) -> None:
        fault_set.validate(machine)
        self.machine = machine
        self.fault_set = fault_set
        self.policy = policy or FaultPolicy()
        #: The computer used for every fault-time re-resolution. Sharing
        #: one instance with the workload generator keeps its caches warm.
        self.route_computer = route_computer or FaultAwareRouteComputer(machine)
        if self.route_computer.machine is not machine:
            raise ValueError("route computer is bound to a different machine")
        #: Channels down before cycle 0.
        self.initial_failed: frozenset = fault_set.initial_failed(machine)
        #: Scheduled mid-run (cycle, channel, is_down) events.
        self.timeline: List[Tuple[int, int, bool]] = fault_set.timeline(machine)
        self.route_computer.set_failed(self.initial_failed)

    def extend(self, fault_set: FaultSet) -> List[Tuple[int, int, bool]]:
        """Merge additional (already validated) specs into the bound set.

        Supports live fault injection (``repro serve``'s ``inject_fault``
        request): the merged set is what a checkpoint of the engine
        serializes, so a session resumed from a ``snapshot`` taken after
        an injection restores the same fault schedule bitwise. Returns the timeline events of
        just the *new* specs, for the caller to push onto the engine's
        wheel; ``initial_failed`` is deliberately untouched -- a running
        engine's failed-set lives on the engine, not here.
        """
        self.fault_set = dataclasses.replace(
            self.fault_set, specs=self.fault_set.specs + fault_set.specs
        )
        self.timeline = self.fault_set.timeline(self.machine)
        return fault_set.timeline(self.machine)
