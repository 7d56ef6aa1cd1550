"""Traffic patterns, workload generators, and analytic load computation."""

from .adversarial import AdversarialResult, score_permutation, search_worst_permutation
from .batch import BatchSpec, generate_batch, generate_open_loop
from .demand import (
    DemandMatrix,
    DemandMatrixPattern,
    DemandRunResult,
    DemandSchedule,
    DemandSpec,
    as_schedule,
    build_demand_engine,
    generate_demand,
    measure_demand_point,
)
from .md import MdMulticastWorkload, import_region, random_particle_destinations
from .loads import (
    LoadTable,
    active_endpoints,
    compute_loads,
    ideal_batch_cycles,
    merge_arbiter_loads,
)
from .patterns import (
    BitComplement,
    Blend,
    FixedPermutation,
    NHopNeighbor,
    ReverseTornado,
    Tornado,
    TrafficPattern,
    UniformRandom,
)
from .replay import (
    ReplayError,
    ReplayWorkload,
    build_replay_engine,
    load_replay,
    replay_trace,
)

__all__ = [
    "AdversarialResult",
    "BatchSpec",
    "DemandMatrix",
    "DemandMatrixPattern",
    "DemandRunResult",
    "DemandSchedule",
    "DemandSpec",
    "MdMulticastWorkload",
    "ReplayError",
    "ReplayWorkload",
    "import_region",
    "random_particle_destinations",
    "BitComplement",
    "Blend",
    "FixedPermutation",
    "LoadTable",
    "NHopNeighbor",
    "ReverseTornado",
    "Tornado",
    "TrafficPattern",
    "UniformRandom",
    "active_endpoints",
    "as_schedule",
    "build_demand_engine",
    "build_replay_engine",
    "compute_loads",
    "generate_batch",
    "generate_demand",
    "generate_open_loop",
    "ideal_batch_cycles",
    "load_replay",
    "measure_demand_point",
    "merge_arbiter_loads",
    "replay_trace",
    "score_permutation",
    "search_worst_permutation",
]
