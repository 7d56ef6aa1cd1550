"""Arbiter banks: every arbitration site of one stage in flat rows.

The paper's router state is a small register bank -- per arbiter "a few
accumulators and a priority encoder" (Sections 3.3-3.4, Figures 6-8) --
and the engine (:mod:`repro.sim.engine`) keeps it one: a bank holds all
the sites of an arbitration stage as a pointer row (for ``iw`` also a
debt row) by site and a grant row (for ``iw`` also an accumulator and a
weight row) by *input*, input ``i`` of site ``s`` at ``offsets[s] + i``
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
import itertools
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
        """Reinstate a :meth:`site_state` snapshot of ``site``; an entry out
        of its row's range (:meth:`_limit`) raises ValueError."""
        self._assign(self.grants, site, state["grants"], "arbiter", "grants")

    def _limit(self, name: str, site: int) -> Optional[int]:
        """One past the largest value row ``name`` may hold at ``site``;
        None when only negatives are out of range."""
        return None

    def _check(self, name: str, sites, values) -> None:
        """Refuse ``values`` of row ``name`` (one per site of ``sites``)
        unless each is an int (not a bool) in its :meth:`_limit`."""
        for site, value in zip(sites, values):
            limit = self._limit(name, site)
            if type(value) is not int or not (
                0 <= value and (limit is None or value < limit)
            ):
                wanted = "integer >= 0" if limit is None else f"integer in [0, {limit})"
                raise ValueError(
                    f"arbiter {site}'s {name} entry is {value!r}, not an {wanted}"
                )

    @functools.cached_property
    def _input_order(self) -> list:
        """Each input's index in the per-input rows, sites in ``order``."""
        offsets, counts = self.offsets, self.num_inputs
        return [i for s in self.order for i in range(offsets[s], offsets[s] + counts[s])]

    @functools.cached_property
    def _input_sites(self) -> list:
        """The site of each entry of :attr:`_input_order`."""
        return [s for s in self.order for _ in range(self.num_inputs[s])]

    def state(self) -> dict:
        """The whole stage, as a checkpoint stores it: the policy's tag, then
        each row with its sites in ``order``, a site's inputs side by side."""
        out = {"type": self.tag}
        for name, by_input in self.state_rows:
            row = getattr(self, name)
            out[name] = [row[i] for i in (self._input_order if by_input else self.order)]
        return out

    def restore(self, state: dict) -> None:
        """Reinstate a :meth:`state`; a row of another length, or an entry
        out of its row's range (:meth:`_limit`), raises ValueError."""
        for name, by_input in self.state_rows:
            order = self._input_order if by_input else self.order
            values = self._row(state, name, order)
            self._check(name, self._input_sites if by_input else order, values)
            row = getattr(self, name)
            for index, value in zip(order, values):
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

    def _assign(self, row: list, site: int, values, what: str, name=None) -> None:
        start, count = self.offsets[site], self.num_inputs[site]
        if len(values) != count:
            raise ValueError(
                f"{what} state has {len(values)} inputs, expected {count}"
            )
        if name is not None:
            self._check(name, itertools.repeat(site), values)
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
        self._check("pointer", (site,), (state["pointer"],))
        self.pointer[site] = state["pointer"]

    def _limit(self, name, site):
        return self.num_inputs[site] if name == "pointer" else None


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
        # A low-priority grant slides every accumulator of its site down
        # by 2^M, clamping at zero (Figure 6); an O(1) debt books it, as
        # ``max(max(x - d, 0) - W, 0) == max(x - (d + W), 0)``.
        #: By input: its accumulator plus its site's debt.
        self.raw = [0] * sites.size
        #: By site: the window slides not yet taken off its raw values.
        self.debt = [0] * len(sites.offsets)
        idle = compute_inverse_weights(
            [[0.0] * num_patterns], weight_bits=weight_bits
        ).inverse_weights[0]
        #: By input: its inverse weight per pattern.
        self.weights = [idle] * sites.size
        for site in sites.order:
            table = tables.get(site)
            if table is not None:
                self.program(site, table.inverse_weights, table.weight_bits)

    @property
    def accumulators(self) -> list:
        """The accumulators, by input: every site's debt taken off its raw
        values, they are :attr:`raw` itself (what :meth:`state` reads and
        :meth:`restore` writes)."""
        raw, debt = self.raw, self.debt
        for site in self.order:
            owed = debt[site]
            if owed:
                start = self.offsets[site]
                for slot in range(start, start + self.num_inputs[site]):
                    value = raw[slot] - owed
                    raw[slot] = value if value > 0 else 0
                debt[site] = 0
        return raw

    def _limit(self, name, site):
        # The stage holds values below 2^(M+1): on that range a debt's
        # slide is the hardware's ``value & (2^M - 1)``.
        return 2 * self.window if name == "accumulators" else super()._limit(name, site)

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
        # An accumulator below the window: a raw value below this.
        high = self.debt[site] + self.window
        raw = self.raw
        best = None
        best_key = -1
        for entry in entries:
            index = entry[0]
            # (effective priority level, index): the accumulator's
            # priority bit plus the round-robin boost below the pointer.
            key = ((raw[start + index] < high) + (index < pointer)) * count + index
            if key > best_key:
                best_key = key
                best = entry
        return best

    def commit_all(self, sites, indices, requests):
        offsets, pointer, debt = self.offsets, self.pointer, self.debt
        grants, raw, weights = self.grants, self.raw, self.weights
        window = self.window
        last_pattern = self.num_patterns - 1
        for site, index, request in zip(sites, indices, requests):
            granted = offsets[site] + index
            # A packet marked with a pattern the stage has no weights for
            # is charged against the last it does have.
            pattern = request.pattern
            if pattern > last_pattern:
                pattern = last_pattern
            value = raw[granted]
            floor = debt[site]
            if value < floor:
                value = floor  # an accumulator clamped at zero
            elif value >= floor + window:
                # A low-priority grant: the window slides for every input.
                debt[site] = floor + window
            raw[granted] = value + weights[granted][pattern]
            pointer[site] = index
            grants[granted] += 1

    def site_state(self, site):
        start = self.offsets[site]
        stop = start + self.num_inputs[site]
        debt = self.debt[site]
        return dict(
            super().site_state(site),
            bit_exact=False,
            weight_bits=self.weight_bits,
            weights=[list(row) for row in self.weights[start:stop]],
            accumulators=[
                value - debt if value > debt else 0 for value in self.raw[start:stop]
            ],
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
            self.raw, site, state["accumulators"], "accumulator", "accumulators"
        )
        self.debt[site] = 0

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
