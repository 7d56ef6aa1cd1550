"""Computing inverse weights from per-input loads (Section 3.3).

Given the load ``gamma_{i,n}`` placed on arbiter input ``i`` by traffic
pattern ``n`` (computed offline by :mod:`repro.traffic.loads`), the
hardware stores integer inverse weights

    m_{i,n} = nint(beta / gamma_{i,n})

where ``beta`` is a per-arbiter positive scale factor and ``nint`` is the
nearest-integer function. The number of weight bits ``M`` is chosen so
that every ``m_{i,n} < 2^M``.

Inputs that carry no traffic of a pattern (``gamma = 0``) are assigned the
maximum representable weight: any packet they do send is charged maximally,
so unexpected traffic cannot starve modeled traffic.
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence


def nint(value: float) -> int:
    """Nearest-integer function, rounding halves away from zero."""
    import math

    return int(math.floor(value + 0.5)) if value >= 0 else -int(
        math.floor(-value + 0.5)
    )


@dataclasses.dataclass(frozen=True)
class WeightTable:
    """The programmed state of one inverse-weighted arbiter.

    Attributes
    ----------
    inverse_weights:
        ``inverse_weights[i][n]`` for input ``i``, pattern ``n``.
    weight_bits:
        ``M``, bits per weight; all weights are < ``2**weight_bits``.
    beta:
        The scale factor actually used.
    """

    inverse_weights: Sequence[Sequence[int]]
    weight_bits: int
    beta: float

    @property
    def num_inputs(self) -> int:
        return len(self.inverse_weights)

    @property
    def num_patterns(self) -> int:
        return len(self.inverse_weights[0]) if self.inverse_weights else 0


#: The fraction of the largest load below which a load is insignificant.
SIGNIFICANCE = 0.02


def choose_beta(loads: Sequence[Sequence[float]], weight_bits: int) -> float:
    """Pick ``beta`` so the significant load ratios fit in ``M`` bits.

    The smallest load anchored determines the largest weight:
    ``beta = (2^M - 1 - 0.5) * gamma_anchor`` keeps
    ``nint(beta / gamma) <= 2^M - 1`` for every load at or above the
    anchor. Anchoring on the *smallest significant* load (at least
    :data:`SIGNIFICANCE` of the largest) rather than the absolute minimum
    matters: a negligible stray input would otherwise compress all the
    meaningful weights into a few codes, destroying the grant-ratio
    resolution the arbiter exists to provide. Loads below the anchor
    simply saturate at the maximum weight, which is the correct policy
    for near-idle inputs. Returns 1.0 if all loads are zero.
    """
    if weight_bits < 1:
        raise ValueError(f"weight_bits must be positive, got {weight_bits}")
    nonzero = [g for row in loads for g in row if g > 0]
    if not nonzero:
        return 1.0
    threshold = SIGNIFICANCE * max(nonzero)
    significant = [g for g in nonzero if g >= threshold]
    max_weight = (1 << weight_bits) - 1
    return (max_weight - 0.5) * min(significant)


def compute_inverse_weights(
    loads: Sequence[Sequence[float]],
    weight_bits: int = 5,
    beta: float = None,
) -> WeightTable:
    """Quantize per-input, per-pattern loads into hardware inverse weights.

    Parameters
    ----------
    loads:
        ``loads[i][n]`` = ``gamma_{i,n}``, the expected packets per unit
        time arriving at input ``i`` under pattern ``n``. Negative loads
        are invalid.
    weight_bits:
        ``M``. The paper's example hardware uses ``M = 5`` (Figure 6).
    beta:
        Scale factor; if omitted, :func:`choose_beta` picks the largest
        value that fits.
    """
    if not loads:
        raise ValueError("at least one input is required")
    num_patterns = len(loads[0])
    for i, row in enumerate(loads):
        if len(row) != num_patterns:
            raise ValueError(
                f"input {i} lists {len(row)} patterns, expected {num_patterns}"
            )
        for n, gamma in enumerate(row):
            if gamma < 0:
                raise ValueError(f"load gamma[{i}][{n}] = {gamma} is negative")
    if beta is None:
        beta = choose_beta(loads, weight_bits)
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    max_weight = (1 << weight_bits) - 1
    table: List[List[int]] = []
    for row in loads:
        weights = []
        for gamma in row:
            if gamma <= 0:
                weights.append(max_weight)
            else:
                weights.append(min(max_weight, max(1, nint(beta / gamma))))
        table.append(weights)
    return WeightTable(
        inverse_weights=tuple(tuple(w) for w in table),
        weight_bits=weight_bits,
        beta=beta,
    )


def uniform_weight_table(num_inputs: int, num_patterns: int = 1, weight_bits: int = 5) -> WeightTable:
    """A degenerate table with equal weights (behaves like round-robin)."""
    loads = [[1.0] * num_patterns for _ in range(num_inputs)]
    return compute_inverse_weights(loads, weight_bits=weight_bits)
