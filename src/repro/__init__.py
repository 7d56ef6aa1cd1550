"""Reproduction of "Unifying on-chip and inter-node switching within the
Anton 2 network" (Towles, Grossman, Greskamp, Shaw; ISCA 2014).

The package models the complete unified network of the Anton 2
supercomputer -- a channel-sliced 3D torus of ASICs whose 4x4 on-chip
meshes double as the inter-node switches -- together with the paper's
three design contributions and the tooling to reproduce its evaluation:

* :mod:`repro.core` -- topology (chip floorplan, machine graph,
  packaging), oblivious inter-node routing, direction-order on-chip
  routing, the VC promotion deadlock-avoidance algorithm and its
  mechanical verification, multicast trees, and the worst-case routing
  search (enumeration + linear program).
* :mod:`repro.arbiters` -- the inverse-weighted arbiter (bit-faithful
  models of the paper's Figures 6-8) plus round-robin, age-based, and
  fixed-priority baselines, weight computation, and hardware cost models.
* :mod:`repro.sim` -- a cycle-level, packet-granularity simulator of the
  whole machine with virtual cut-through flow control and credits.
* :mod:`repro.traffic` -- the evaluated traffic patterns, batch workload
  generation, and exact analytic channel/arbiter load computation.
* :mod:`repro.models` -- latency, energy (activation-rate), and silicon
  area models reproducing Figures 11-13 and Tables 1-2.
* :mod:`repro.analysis` -- throughput/fairness experiment harnesses and
  report formatting.

Quick start::

    from repro import BatchSpec, MachineConfig, RunSpec, UniformRandom, run
    from repro.analysis import measure_run

    config = MachineConfig(shape=(4, 4, 4), endpoints_per_chip=4)
    spec = BatchSpec(UniformRandom(config.shape), packets_per_source=64,
                     cores_per_chip=4)
    stats = run(RunSpec(config, spec, arbitration="iw"))
    point = measure_run(RunSpec(config, spec, arbitration="iw"))
    print(stats.end_cycle, point.normalized_throughput)
"""

from .arbiters import (
    AgeBasedArbiter,
    InverseWeightedArbiter,
    RoundRobinArbiter,
    WeightTable,
    compute_inverse_weights,
)
from .core import (
    ANTON_DIRECTION_ORDER,
    Machine,
    MachineConfig,
    Packaging,
    Route,
    RouteChoice,
    RouteComputer,
    default_floorplan,
    search_direction_orders,
)
from .core import params
from .models import AreaModel, EnergyModel, LatencyModel
from .sim import Engine, Packet, RunSpec, SimStats, run, run_single_packet
from .traffic import (
    BatchSpec,
    Blend,
    NHopNeighbor,
    ReverseTornado,
    Tornado,
    UniformRandom,
    compute_loads,
)

__version__ = "1.0.0"

__all__ = [
    "ANTON_DIRECTION_ORDER",
    "AgeBasedArbiter",
    "AreaModel",
    "BatchSpec",
    "Blend",
    "EnergyModel",
    "Engine",
    "InverseWeightedArbiter",
    "LatencyModel",
    "Machine",
    "MachineConfig",
    "NHopNeighbor",
    "Packaging",
    "Packet",
    "ReverseTornado",
    "RoundRobinArbiter",
    "Route",
    "RouteChoice",
    "RouteComputer",
    "RoundRobinArbiter",
    "RunSpec",
    "SimStats",
    "Tornado",
    "UniformRandom",
    "WeightTable",
    "compute_inverse_weights",
    "compute_loads",
    "default_floorplan",
    "params",
    "run",
    "run_single_packet",
    "search_direction_orders",
    "__version__",
]
