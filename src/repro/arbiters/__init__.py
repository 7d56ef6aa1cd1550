"""Arbitration policies for the Anton 2 network reproduction.

The package provides the paper's inverse-weighted arbiter (Section 3) as a
pair of bit-faithful hardware models plus a packaged policy object, along
with the baselines the paper measures against (round-robin) or cites
(age-based, fixed-priority). Those are one object per arbiter; the
engine runs the same policies a stage at a time, over the flat rows of
:mod:`repro.arbiters.bank`.
"""

from .accumulator import AccumulatorBank
from .age_based import AgeBasedArbiter
from .base import Arbiter, SimpleRequest
from .cost import (
    ArbiterCost,
    anton2_router_arbiter_cost,
    fixed_priority_arbiters_conventional,
    fixed_priority_arbiters_optimized,
    reduction_fraction,
)
from .inverse_weighted import InverseWeightedArbiter
from .priority_arb import (
    behavioral_grant,
    grant_index,
    priority_arb_bits,
    thermometer,
)
from .round_robin import FixedPriorityArbiter, RoundRobinArbiter
from .weights import (
    WeightTable,
    choose_beta,
    compute_inverse_weights,
    uniform_weight_table,
)

__all__ = [
    "AccumulatorBank",
    "AgeBasedArbiter",
    "Arbiter",
    "ArbiterCost",
    "FixedPriorityArbiter",
    "InverseWeightedArbiter",
    "RoundRobinArbiter",
    "SimpleRequest",
    "WeightTable",
    "anton2_router_arbiter_cost",
    "behavioral_grant",
    "choose_beta",
    "compute_inverse_weights",
    "fixed_priority_arbiters_conventional",
    "fixed_priority_arbiters_optimized",
    "grant_index",
    "priority_arb_bits",
    "reduction_fraction",
    "thermometer",
    "uniform_weight_table",
]
