"""Arbiter interface shared by all arbitration policies.

An arbiter guards a single contended resource (in the Anton 2 network, an
output channel of a router or adapter). Each cycle the simulator presents
the arbiter with one optional *request* per input; the arbiter selects at
most one input to grant and updates its internal state.

A request carries enough information for every policy implemented here:

* ``pattern`` -- the traffic-pattern identifier from the packet header,
  used by the inverse-weighted arbiter (Section 3.3);
* ``inject_cycle`` -- the packet's injection timestamp, used by the
  age-based baseline arbiter [Abts & Weisser 2007].

Packets produced by :mod:`repro.sim.packet` satisfy this protocol directly.
"""

from __future__ import annotations

import abc
import dataclasses
from typing import Optional, Protocol, Sequence, runtime_checkable


@runtime_checkable
class Request(Protocol):
    """Structural type of an arbitration request."""

    pattern: int
    inject_cycle: int


@dataclasses.dataclass
class SimpleRequest:
    """A minimal concrete request, convenient for tests and examples."""

    pattern: int = 0
    inject_cycle: int = 0


class Arbiter(abc.ABC):
    """Abstract base class for k-input, single-grant arbiters.

    The interface is split into a pure :meth:`peek` (compute the winner)
    and a state-updating :meth:`commit`. The split exists because the
    router pipeline arbitrates twice per hop: the SA1 winner of an input
    port only *actually* departs if it also wins SA2 at the output, and
    only real departures may update service history. :meth:`arbitrate`
    composes the two for single-stage use.
    """

    def __init__(self, num_inputs: int) -> None:
        if num_inputs < 1:
            raise ValueError(f"arbiter needs at least one input, got {num_inputs}")
        self.num_inputs = num_inputs
        #: Total grants issued, per input (service history; used by fairness
        #: metrics and by tests).
        self.grants = [0] * num_inputs

    @abc.abstractmethod
    def peek(self, requests: Sequence[Optional[Request]]) -> Optional[int]:
        """The input this arbiter would grant, without changing state.

        ``requests[i]`` is ``None`` when input ``i`` is not requesting.
        Returns the winning input index, or ``None`` if nothing requests.
        """

    @abc.abstractmethod
    def commit(self, index: int, request: Request) -> None:
        """Apply the state updates for an actual grant of ``index``."""

    def arbitrate(self, requests: Sequence[Optional[Request]]) -> Optional[int]:
        """Grant at most one requesting input and update arbiter state."""
        self._validate(requests)
        index = self.peek(requests)
        if index is not None:
            request = requests[index]
            assert request is not None
            self.commit(index, request)
        return index

    def _validate(self, requests: Sequence[Optional[Request]]) -> None:
        if len(requests) != self.num_inputs:
            raise ValueError(
                f"expected {self.num_inputs} request slots, got {len(requests)}"
            )

    def record_grant(self, index: int) -> None:
        """Update the service history after a grant."""
        self.grants[index] += 1

    def reset_history(self) -> None:
        """Clear the service history without touching policy state."""
        self.grants = [0] * self.num_inputs

    # --- checkpoint support -----------------------------------------------------

    def state(self) -> dict:
        """JSON-safe snapshot of all mutable arbiter state.

        Subclasses with policy state (pointers, accumulators) extend the
        dict; :meth:`restore` is the exact inverse. The contract -- pinned
        by the checkpoint round-trip tests -- is observational: an arbiter
        restored from ``state()`` grants identically to the original on
        every future request sequence.
        """
        return {"grants": list(self.grants)}

    def restore(self, state: dict) -> None:
        """Reinstate a :meth:`state` snapshot (same-shape arbiter only)."""
        grants = list(state["grants"])
        if len(grants) != self.num_inputs:
            raise ValueError(
                f"arbiter state has {len(grants)} inputs, expected "
                f"{self.num_inputs}"
            )
        self.grants = grants
