"""Arbiter banks: every arbitration site of one stage in flat rows.

The paper's router state is a small register bank -- per arbiter "a few
accumulators and a priority encoder" (Sections 3.3-3.4, Figures 6-8) --
and the engine (:mod:`repro.sim.engine`) keeps it one: a bank holds all
the sites of an arbitration stage as a pointer row by site and a grant
row (for ``iw`` also an accumulator and a weight row) by *input*, input
``i`` of site ``s`` at ``offsets[s] + i``
(:class:`~repro.core.machine.ArbiterSites`), with ``peek`` / ``commit``
integer arithmetic over them; ``commit_all`` applies a stage's grants of
one cycle in one call (each site is granted at most once a cycle in the
engine, but a batch is applied in order either way). A whole machine's
arbiters are a few lists of ints, not 92 160 objects (plain lists:
DESIGN.md section 9 measures ``array`` reads at 2.2x theirs).

The per-site classes next door stay as the standalone models and as the
banks' oracle: a site grants what the object would, and ``site_state``
is the object's ``state()`` dict for dict
(``tests/properties/test_arbiter_bank_props.py``).

Requests are *sparse*: ``peek`` takes the requesting inputs only, as
tuples starting ``(input index, request)``, and returns the winning
tuple, so the engine hands over the nominations it holds and gets back
the one that departs.
"""

from __future__ import annotations

import functools
from operator import itemgetter
from typing import Dict, Optional, Sequence

from .weights import WeightTable, compute_inverse_weights


class ArbiterBank:
    """Service history by input, and fixed priority (the highest
    requesting index wins): the base of every policy."""

    #: The policy's name in a checkpoint.
    tag = "fixed"
    #: What :meth:`state` writes after the tag: each row's name, and
    #: whether it runs by input (else by site).
    state_rows = (("grants", True),)

    def __init__(self, sites) -> None:
        self.order = sites.order
        self.offsets = sites.offsets
        self.num_inputs = sites.num_inputs
        #: Total grants issued, by input.
        self.grants = [0] * sites.size

    def peek(self, site: int, entries: Sequence[tuple]) -> Optional[tuple]:
        """The entry ``site`` would grant, without changing state."""
        return max(entries, key=itemgetter(0), default=None)

    def commit(self, site: int, index: int, request) -> None:
        """Apply the state updates for an actual grant of ``index``."""
        self.commit_all((site,), (index,), (request,))

    def commit_all(self, sites, indices, requests) -> None:
        """:meth:`commit` each ``(site, index, request)`` of the parallel
        sequences in turn: a stage's grants of one cycle, in one call."""
        grants, offsets = self.grants, self.offsets
        for site, index in zip(sites, indices):
            grants[offsets[site] + index] += 1

    def grants_of(self, site: int) -> list:
        """``site``'s grants, by input."""
        start = self.offsets[site]
        return self.grants[start:start + self.num_inputs[site]]

    def site_state(self, site: int) -> dict:
        """What the per-site object's ``state()`` would be."""
        return {"grants": self.grants_of(site)}

    def restore_site(self, site: int, state: dict) -> None:
        """Reinstate a :meth:`site_state` snapshot of ``site``."""
        self._assign(self.grants, site, state["grants"], "arbiter")

    @functools.cached_property
    def _input_order(self) -> list:
        """Each input's index in the per-input rows, sites in ``order``."""
        offsets, counts = self.offsets, self.num_inputs
        return [i for s in self.order for i in range(offsets[s], offsets[s] + counts[s])]

    def state(self) -> dict:
        """The whole stage, as a checkpoint stores it: the policy's tag, then
        each row with its sites in ``order``, a site's inputs side by side."""
        out = {"type": self.tag}
        for name, by_input in self.state_rows:
            row = getattr(self, name)
            out[name] = [row[i] for i in (self._input_order if by_input else self.order)]
        return out

    def restore(self, state: dict) -> None:
        """Reinstate a :meth:`state`; a row of another length raises ValueError."""
        for name, by_input in self.state_rows:
            order = self._input_order if by_input else self.order
            row = getattr(self, name)
            for index, value in zip(order, self._row(state, name, order)):
                row[index] = value

    def _row(self, state: dict, name: str, order: list) -> list:
        """``state``'s ``name`` row, refused unless one entry per ``order``."""
        values = state[name]
        if len(values) != len(order):
            raise ValueError(
                f"the {name} row of a {self.tag} stage has {len(values)} "
                f"entries, this machine's {len(order)}"
            )
        return values

    def _assign(self, row: list, site: int, values, what: str) -> None:
        start, count = self.offsets[site], self.num_inputs[site]
        if len(values) != count:
            raise ValueError(
                f"{what} state has {len(values)} inputs, expected {count}"
            )
        row[start:start + count] = values


FixedPriorityBank = ArbiterBank


class RoundRobinBank(ArbiterBank):
    """Round-robin, descending from the pointer (Figure 8's order)."""

    tag = "rr"
    state_rows = ArbiterBank.state_rows + (("pointer", False),)

    def __init__(self, sites) -> None:
        super().__init__(sites)
        #: By site: one above the most-preferred input (the last granted).
        self.pointer = [0] * len(sites.offsets)

    def peek(self, site, entries):
        count = self.num_inputs[site]
        before = self.pointer[site] - 1
        best = None
        best_rank = count
        for entry in entries:
            rank = (before - entry[0]) % count
            if rank < best_rank:
                best_rank = rank
                best = entry
        return best

    def commit_all(self, sites, indices, requests):
        grants, offsets, pointer = self.grants, self.offsets, self.pointer
        for site, index in zip(sites, indices):
            pointer[site] = index
            grants[offsets[site] + index] += 1

    def site_state(self, site):
        return dict(super().site_state(site), pointer=self.pointer[site])

    def restore_site(self, site, state):
        super().restore_site(site, state)
        self.pointer[site] = state["pointer"]


class AgeBank(RoundRobinBank):
    """Oldest packet first, ties broken round-robin."""

    tag = "age"

    def peek(self, site, entries):
        count = self.num_inputs[site]
        before = self.pointer[site] - 1
        return min(
            entries,
            key=lambda e: (e[1].inject_cycle, (before - e[0]) % count),
            default=None,
        )


class InverseWeightedBank(RoundRobinBank):
    """The inverse-weighted arbiter of Section 3: the accumulators of
    Figure 6 under the two-level prioritized round-robin of Figure 8.

    ``weight_tables`` programs the sites it names; any other is charged
    the maximum weight (no modeled traffic crosses it). One stage has one
    pattern count and one weight width -- its tables', else
    ``num_patterns`` and ``weight_bits``.
    """

    tag = "iw"
    state_rows = RoundRobinBank.state_rows + (("accumulators", True),)

    def __init__(
        self,
        sites,
        weight_tables: Optional[Dict[int, WeightTable]] = None,
        num_patterns: int = 1,
        weight_bits: int = 5,
    ) -> None:
        super().__init__(sites)
        tables = weight_tables or {}
        for table in tables.values():
            num_patterns, weight_bits = table.num_patterns, table.weight_bits
            break
        self.num_patterns = num_patterns
        self.weight_bits = weight_bits
        #: Half the accumulators' sliding window, ``2^M``.
        self.window = 1 << weight_bits
        self.accumulators = [0] * sites.size
        idle = compute_inverse_weights(
            [[0.0] * num_patterns], weight_bits=weight_bits
        ).inverse_weights[0]
        #: By input: its inverse weight per pattern.
        self.weights = [idle] * sites.size
        for site in sites.order:
            table = tables.get(site)
            if table is not None:
                self.program(site, table.inverse_weights, table.weight_bits)

    def program(self, site: int, weights, weight_bits: int) -> None:
        """Load ``site``'s weight memory: ``weights[i][n]`` for input
        ``i``, pattern ``n``, each of the stage's ``weight_bits`` bits."""
        if (
            weight_bits != self.weight_bits
            or any(len(row) != self.num_patterns for row in weights)
            or not all(0 <= m < self.window for row in weights for m in row)
        ):
            raise ValueError(
                f"arbiter {site} lists {weight_bits}-bit weights {weights}; "
                f"its stage stores {self.num_patterns} of {self.weight_bits} "
                f"bits per input"
            )
        self._assign(self.weights, site, weights, "weight")

    def peek(self, site, entries):
        start = self.offsets[site]
        count = self.num_inputs[site]
        pointer = self.pointer[site]
        window = self.window
        accumulators = self.accumulators
        best = None
        best_key = -1
        for entry in entries:
            index = entry[0]
            # (effective priority level, index): the accumulator's
            # priority bit plus the round-robin boost below the pointer.
            key = (
                (accumulators[start + index] < window) + (index < pointer)
            ) * count + index
            if key > best_key:
                best_key = key
                best = entry
        return best

    def commit_all(self, sites, indices, requests):
        offsets, num_inputs, pointer = self.offsets, self.num_inputs, self.pointer
        grants, accumulators, weights = self.grants, self.accumulators, self.weights
        window = self.window
        mask = window - 1
        last_pattern = self.num_patterns - 1
        for site, index, request in zip(sites, indices, requests):
            start = offsets[site]
            granted = start + index
            # A packet marked with a pattern the stage has no weights for
            # is charged against the last it does have.
            pattern = request.pattern
            if pattern > last_pattern:
                pattern = last_pattern
            value = accumulators[granted]
            if value >= window:
                # A low-priority grant: the window slides for every input,
                # high-priority accumulators clamping at zero.
                for slot in range(start, start + num_inputs[site]):
                    other = accumulators[slot]
                    accumulators[slot] = other & mask if other >= window else 0
                value &= mask
            accumulators[granted] = value + weights[granted][pattern]
            pointer[site] = index
            grants[granted] += 1

    def site_state(self, site):
        start = self.offsets[site]
        stop = start + self.num_inputs[site]
        return dict(
            super().site_state(site),
            bit_exact=False,
            weight_bits=self.weight_bits,
            weights=[list(row) for row in self.weights[start:stop]],
            accumulators=self.accumulators[start:stop],
        )

    def restore_site(self, site, state):
        super().restore_site(site, state)
        if state["bit_exact"]:
            raise ValueError(
                f"arbiter {site} is the bit-level model "
                f"(InverseWeightedArbiter(bit_exact=True)), which no engine "
                f"runs"
            )
        self.program(site, state["weights"], state["weight_bits"])
        self._assign(
            self.accumulators, site, state["accumulators"], "accumulator"
        )

    def state(self):
        out = super().state()
        out["weights"] = [list(self.weights[i]) for i in self._input_order]
        out["weight_bits"] = self.weight_bits
        return out

    def restore(self, state):
        super().restore(state)
        weights = self._row(state, "weights", self._input_order)
        start = 0  # each site's weights held to what the stage stores
        for site in self.order:
            stop = start + self.num_inputs[site]
            self.program(site, weights[start:stop], state["weight_bits"])
            start = stop


#: Bank class by checkpoint tag.
BANKS = {
    cls.tag: cls
    for cls in (RoundRobinBank, InverseWeightedBank, AgeBank, FixedPriorityBank)
}
