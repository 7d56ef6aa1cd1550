"""Demand-matrix workloads: arbitrary N x N rate matrices over the torus.

The paper's evaluation drives the network with a handful of analytic
patterns (Sections 4.1-4.2), but design-space exploration needs
*arbitrary* communication demands: hotspots, skewed popularity, explicit
permutations, and demands that change over time. This module represents
such a workload as a :class:`DemandMatrix` -- an N x N matrix of
injection rates (packets per source endpoint per cycle), rows indexed by
source node, columns by destination node, nodes in
:func:`repro.core.geometry.all_coords` order -- in the style of the
demand-matrix-driven switch simulators (e.g. rotorsim).

Time-varying workloads are piecewise constant: a :class:`DemandSchedule`
holds ``(start_cycle, DemandMatrix)`` epochs, and the generator resolves
the schedule into concrete release cycles up front. Because packets are
fully pre-generated (like :func:`repro.traffic.batch.generate_batch`),
demand workloads are automatically compatible with the engine checkpoint
schema: the workload state *is* the serialized source queues, so
split-run resume is bitwise-identical with no schema change.

Injection modes
---------------

* ``mode="closed"`` -- batch-style: each source sends
  ``round(packets_scale * row_sum)`` packets as fast as the network
  accepts them (all released at cycle 0);
* ``mode="open"`` with ``injection="bernoulli"`` -- one biased coin per
  source per cycle at rate ``min(1, row_sum)``;
* ``mode="open"`` with ``injection="paced"`` -- a deterministic rate
  accumulator (credit/Bresenham style): per cycle the source banks
  ``min(1, row_sum)`` packets and emits whenever the bank reaches one.
  Paced injection makes "offered load never exceeds the matrix row sum"
  a *hard* per-source invariant, not a statistical one, which is what
  the conservation-law tests pin.

RNG draw order (seeded workloads depend on it): sources are visited in
:func:`~repro.traffic.loads.active_endpoints` order; for each source,
cycles (open) or packet slots (closed) in increasing order; each emitted
packet draws through :class:`repro.traffic.batch._RouteSampler` --
destination, then route choice.
Bernoulli injection draws one ``rng.random()`` per (source, cycle) of
every epoch whose row rate is positive; zero-rate spans draw nothing.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.geometry import Coord3, all_coords
from repro.core.machine import Machine, MachineConfig
from repro.core.routing import RouteComputer
from repro.sim.packet import Packet

from .batch import _RouteSampler
from .loads import active_endpoints
from .patterns import TrafficPattern


def _num_nodes(shape: Coord3) -> int:
    return shape[0] * shape[1] * shape[2]


@dataclasses.dataclass(frozen=True)
class DemandMatrix:
    """An N x N injection-rate matrix over the nodes of one torus shape.

    ``rates[i][j]`` is the rate (packets per source endpoint per cycle)
    at which sources on node ``i`` send to node ``j``; node indices
    follow :func:`~repro.core.geometry.all_coords` order. Every endpoint
    participating on a chip injects at that chip's row rates, so the
    chip-level offered load scales with ``cores_per_chip``.
    """

    shape: Coord3
    rates: Tuple[Tuple[float, ...], ...]
    name: str = "demand"

    def __post_init__(self) -> None:
        # A matrix file is outside input: refuse what is not a matrix by
        # name before any arithmetic touches it.
        shape, rates = self.shape, self.rates
        if not (
            isinstance(shape, (tuple, list)) and len(shape) == 3
            and all(type(d) is int and d > 0 for d in shape)
        ):
            raise ValueError(f"shape must be 3 positive ints, got {shape!r}")
        if not isinstance(rates, (tuple, list)) or not all(
            isinstance(row, (tuple, list)) for row in rates
        ):
            raise ValueError(
                f"rates must be a list of rows, each a list of numbers, got {rates!r}"
            )
        for row in rates:
            for value in row:
                if type(value) is bool or not isinstance(value, (int, float)):
                    raise ValueError(f"rates must be numbers, got {value!r}")
        object.__setattr__(self, "shape", tuple(shape))
        n = _num_nodes(self.shape)
        object.__setattr__(
            self, "rates", tuple(tuple(float(v) for v in row) for row in rates)
        )
        if len(self.rates) != n or any(len(row) != n for row in self.rates):
            raise ValueError(
                f"rates must be {n}x{n} for shape {self.shape}, got "
                f"{len(self.rates)} row(s)"
            )
        for row in self.rates:
            for value in row:
                if not math.isfinite(value) or value < 0:
                    raise ValueError(f"rates must be finite and >= 0, got {value}")

    # -- node bookkeeping ------------------------------------------------

    def nodes(self) -> List[Coord3]:
        return list(all_coords(self.shape))

    def node_index(self) -> Dict[Coord3, int]:
        return {node: i for i, node in enumerate(all_coords(self.shape))}

    def row(self, index: int) -> Tuple[float, ...]:
        return self.rates[index]

    def row_sum(self, index: int) -> float:
        return sum(self.rates[index])

    def row_sums(self) -> List[float]:
        return [sum(row) for row in self.rates]

    def max_row_sum(self) -> float:
        return max(self.row_sums())

    def scaled(self, factor: float, name: Optional[str] = None) -> "DemandMatrix":
        if factor < 0:
            raise ValueError("scale factor must be >= 0")
        return DemandMatrix(
            shape=self.shape,
            rates=tuple(tuple(v * factor for v in row) for row in self.rates),
            name=name if name is not None else self.name,
        )

    # -- serialization ---------------------------------------------------

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(
            {
                "shape": list(self.shape),
                "name": self.name,
                "rates": [list(row) for row in self.rates],
            },
            sort_keys=True,
            indent=indent,
        )

    @classmethod
    def from_json(cls, text: str) -> "DemandMatrix":
        obj = json.loads(text)
        try:
            shape, rates = obj["shape"], obj["rates"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"demand matrix JSON missing field: {exc}")
        return cls(shape=shape, rates=rates, name=obj.get("name", "demand"))

    # -- seeded generators ----------------------------------------------

    @classmethod
    def uniform(cls, shape: Coord3, rate: float) -> "DemandMatrix":
        """Every source spreads ``rate`` evenly over all other nodes."""
        n = _num_nodes(shape)
        if n < 2:
            raise ValueError("uniform demand needs at least 2 nodes")
        share = rate / (n - 1)
        rates = tuple(
            tuple(0.0 if i == j else share for j in range(n)) for i in range(n)
        )
        return cls(shape=shape, rates=rates, name=f"demand-uniform-r{rate:g}")

    @classmethod
    def hotspot(
        cls,
        shape: Coord3,
        rate: float,
        hotspots: int = 1,
        hot_fraction: float = 0.5,
        seed: int = 0,
    ) -> "DemandMatrix":
        """Seeded hotspot demand: each source sends ``hot_fraction`` of
        its ``rate`` to ``hotspots`` randomly chosen hot nodes and the
        rest uniformly elsewhere. A source that is itself hot redirects
        its self-share to the remaining hot nodes (or to the background
        if it is the only one)."""
        n = _num_nodes(shape)
        if n < 2:
            raise ValueError("hotspot demand needs at least 2 nodes")
        if not 1 <= hotspots < n:
            raise ValueError(f"hotspots must be in [1, {n - 1}], got {hotspots}")
        if not 0.0 <= hot_fraction <= 1.0:
            raise ValueError(f"hot_fraction must be in [0, 1], got {hot_fraction}")
        rng = random.Random(seed)
        hot = sorted(rng.sample(range(n), hotspots))
        hot_set = set(hot)
        rows = []
        for i in range(n):
            row = [0.0] * n
            targets = [j for j in hot if j != i]
            cold = [j for j in range(n) if j != i and j not in hot_set]
            hot_share = rate * hot_fraction
            cold_share = rate - hot_share
            if not targets:
                # The lone hot node sends everything to the background.
                cold_share = rate
                hot_share = 0.0
            if not cold:
                hot_share += cold_share
                cold_share = 0.0
            for j in targets:
                row[j] += hot_share / len(targets)
            for j in cold:
                row[j] += cold_share / len(cold)
            rows.append(tuple(row))
        return cls(
            shape=shape,
            rates=tuple(rows),
            name=(
                f"demand-hotspot-r{rate:g}-h{hotspots}"
                f"-f{hot_fraction:g}-s{seed}"
            ),
        )

    @classmethod
    def skewed(
        cls,
        shape: Coord3,
        rate: float,
        exponent: float = 1.0,
        seed: int = 0,
    ) -> "DemandMatrix":
        """Zipf-skewed destination popularity: node popularity follows
        ``1 / (rank + 1) ** exponent`` with a seeded random assignment of
        ranks to nodes; each row spreads ``rate`` over the other nodes in
        proportion to their popularity."""
        n = _num_nodes(shape)
        if n < 2:
            raise ValueError("skewed demand needs at least 2 nodes")
        if exponent < 0:
            raise ValueError(f"exponent must be >= 0, got {exponent}")
        rng = random.Random(seed)
        ranks = list(range(n))
        rng.shuffle(ranks)
        weights = [1.0 / (ranks[j] + 1) ** exponent for j in range(n)]
        rows = []
        for i in range(n):
            others = [(j, weights[j]) for j in range(n) if j != i]
            total = sum(w for _j, w in others)
            row = [0.0] * n
            for j, w in others:
                row[j] = rate * w / total
            rows.append(tuple(row))
        return cls(
            shape=shape,
            rates=tuple(rows),
            name=f"demand-skew-r{rate:g}-e{exponent:g}-s{seed}",
        )

    @classmethod
    def permutation(
        cls, shape: Coord3, rate: float = 1.0, seed: int = 0
    ) -> "DemandMatrix":
        """A seeded random permutation demand (no fixed points): each
        source sends its whole ``rate`` to exactly one distinct node."""
        n = _num_nodes(shape)
        if n < 2:
            raise ValueError("permutation demand needs at least 2 nodes")
        rng = random.Random(seed)
        targets = list(range(n))
        while True:
            rng.shuffle(targets)
            if all(targets[i] != i for i in range(n)):
                break
        rows = []
        for i in range(n):
            row = [0.0] * n
            row[targets[i]] = rate
            rows.append(tuple(row))
        return cls(
            shape=shape,
            rates=tuple(rows),
            name=f"demand-perm-r{rate:g}-s{seed}",
        )

    @classmethod
    def from_mapping(
        cls,
        shape: Coord3,
        mapping: Dict[Coord3, Coord3],
        rate: float = 1.0,
        name: str = "demand-perm",
    ) -> "DemandMatrix":
        """The demand matrix of an explicit node permutation (the form
        the adversarial search emits)."""
        index = {node: i for i, node in enumerate(all_coords(shape))}
        n = _num_nodes(shape)
        if set(mapping) != set(index) or set(mapping.values()) != set(index):
            raise ValueError("mapping must be a permutation of all nodes")
        rows = [[0.0] * n for _ in range(n)]
        for src, dst in mapping.items():
            rows[index[src]][index[dst]] = rate
        return cls(
            shape=shape, rates=tuple(tuple(r) for r in rows), name=name
        )


@dataclasses.dataclass(frozen=True)
class DemandSchedule:
    """A piecewise-constant sequence of demand matrices over cycles.

    ``epochs`` is a tuple of ``(start_cycle, DemandMatrix)`` pairs; the
    first epoch must start at cycle 0 and starts must strictly increase.
    Each epoch's matrix applies from its start up to the next epoch's
    start (the last epoch extends to the end of the run).
    """

    epochs: Tuple[Tuple[int, DemandMatrix], ...]

    def __post_init__(self) -> None:
        epochs = tuple((int(start), matrix) for start, matrix in self.epochs)
        object.__setattr__(self, "epochs", epochs)
        if not epochs:
            raise ValueError("schedule needs at least one epoch")
        if epochs[0][0] != 0:
            raise ValueError(
                f"first epoch must start at cycle 0, got {epochs[0][0]}"
            )
        starts = [start for start, _m in epochs]
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError(f"epoch starts must strictly increase: {starts}")
        shapes = {matrix.shape for _s, matrix in epochs}
        if len(shapes) != 1:
            raise ValueError(f"all epochs must share one shape, got {shapes}")

    @property
    def shape(self) -> Coord3:
        return self.epochs[0][1].shape

    @property
    def name(self) -> str:
        if len(self.epochs) == 1:
            return self.epochs[0][1].name
        return f"schedule[{len(self.epochs)}]({self.epochs[0][1].name},...)"

    @classmethod
    def from_matrices(
        cls, matrices: Sequence[DemandMatrix], epoch_length: int
    ) -> "DemandSchedule":
        """Equal-length epochs: matrix ``k`` applies from cycle
        ``k * epoch_length``."""
        if epoch_length < 1:
            raise ValueError("epoch_length must be at least 1")
        return cls(
            epochs=tuple(
                (k * epoch_length, matrix) for k, matrix in enumerate(matrices)
            )
        )

    def matrix_at(self, cycle: int) -> DemandMatrix:
        """The matrix in force at ``cycle``."""
        current = self.epochs[0][1]
        for start, matrix in self.epochs:
            if start > cycle:
                break
            current = matrix
        return current

    def spans(self, duration_cycles: int) -> List[Tuple[int, int, int]]:
        """Concrete ``(start, end, epoch_index)`` half-open spans covering
        ``[0, duration_cycles)``."""
        spans = []
        for k, (start, _matrix) in enumerate(self.epochs):
            end = (
                self.epochs[k + 1][0]
                if k + 1 < len(self.epochs)
                else duration_cycles
            )
            end = min(end, duration_cycles)
            if start >= end:
                continue
            spans.append((start, end, k))
        return spans


Demand = Union[DemandMatrix, DemandSchedule]


def as_schedule(demand: Demand) -> DemandSchedule:
    """Normalize a bare matrix into a one-epoch schedule."""
    if isinstance(demand, DemandSchedule):
        return demand
    if isinstance(demand, DemandMatrix):
        return DemandSchedule(epochs=((0, demand),))
    raise TypeError(f"expected DemandMatrix or DemandSchedule, got {type(demand)!r}")


#: Generator names accepted by :func:`matrix_from_params` (and therefore
#: by ``repro demand --generator`` and serve-protocol demand specs).
GENERATOR_NAMES = (
    "uniform", "hotspot", "skew", "permutation", "adversarial", "file",
)


def matrix_from_params(
    shape: Coord3,
    generator: str,
    rate: float,
    seed: int = 0,
    hotspots: int = 1,
    hot_fraction: float = 0.5,
    skew_exponent: float = 1.0,
    matrix_json: Optional[str] = None,
    restarts: int = 3,
    steps: int = 60,
    cores_per_chip: int = 2,
    machine: Optional[Machine] = None,
    route_computer: Optional[RouteComputer] = None,
) -> DemandMatrix:
    """Build one demand matrix from named generator parameters.

    The single authority behind every surface that accepts generator
    parameters -- ``repro demand --generator ...`` epoch construction and
    the serve protocol's ``create``/``submit_demand`` demand specs -- so
    the same parameters always denote the same matrix. ``seed`` drives
    the seeded generators; the adversarial search additionally needs an
    elaborated machine and route computer (built on demand when omitted).
    """
    if generator == "uniform":
        return DemandMatrix.uniform(shape, rate)
    if generator == "hotspot":
        return DemandMatrix.hotspot(
            shape,
            rate,
            hotspots=hotspots,
            hot_fraction=hot_fraction,
            seed=seed,
        )
    if generator == "skew":
        return DemandMatrix.skewed(shape, rate, exponent=skew_exponent, seed=seed)
    if generator == "permutation":
        return DemandMatrix.permutation(shape, rate=rate, seed=seed)
    if generator == "adversarial":
        from .adversarial import search_worst_permutation

        if machine is None:
            machine = Machine(MachineConfig(shape=shape, endpoints_per_chip=2))
        if route_computer is None:
            route_computer = RouteComputer(machine)
        result = search_worst_permutation(
            machine,
            route_computer,
            seed=seed,
            restarts=restarts,
            steps=steps,
            cores_per_chip=cores_per_chip,
            include_lp_bound=False,
        )
        return result.demand.scaled(rate, name=f"{result.demand.name}-r{rate:g}")
    if generator == "file":
        if matrix_json is None:
            raise ValueError("generator 'file' needs the matrix JSON text")
        return DemandMatrix.from_json(matrix_json)
    raise ValueError(
        f"unknown demand generator {generator!r}; known: {', '.join(GENERATOR_NAMES)}"
    )


class DemandMatrixPattern(TrafficPattern):
    """One demand matrix viewed as a :class:`TrafficPattern`.

    The destination distribution of a source node is its matrix row,
    normalized -- which is exactly what the analytic load computation and
    the shared :class:`~repro.traffic.batch._RouteSampler` consume. The
    *rate* information (row sums) lives in the generators below; the
    pattern carries only the conditional where-to distribution.
    """

    node_symmetric = False

    def __init__(self, matrix: DemandMatrix) -> None:
        super().__init__(matrix.shape)
        self.matrix = matrix
        index = matrix.node_index()
        nodes = matrix.nodes()
        self._dests: Dict[Coord3, List[Tuple[Coord3, float]]] = {}
        self._cdf: Dict[Coord3, List[Tuple[float, Coord3]]] = {}
        for src in nodes:
            row = matrix.row(index[src])
            total = sum(row)
            dests = []
            cdf = []
            if total > 0:
                acc = 0.0
                for j, value in enumerate(row):
                    if value <= 0:
                        continue
                    prob = value / total
                    dests.append((nodes[j], prob))
                    acc += prob
                    cdf.append((acc, nodes[j]))
            self._dests[src] = dests
            self._cdf[src] = cdf

    @property
    def name(self) -> str:
        return self.matrix.name

    def destinations(self, src: Coord3) -> List[Tuple[Coord3, float]]:
        return list(self._dests[src])

    def sample(self, rng: random.Random, src: Coord3) -> Coord3:
        cdf = self._cdf[src]
        if not cdf:
            raise ValueError(f"source {src} has zero demand; nothing to sample")
        roll = rng.random()
        for acc, dst in cdf:
            if roll < acc:
                return dst
        return cdf[-1][1]


@dataclasses.dataclass(frozen=True)
class DemandSpec:
    """Parameters of one demand-matrix workload.

    ``demand`` is a :class:`DemandMatrix` or :class:`DemandSchedule`
    (closed-loop runs use the cycle-0 matrix). Open-loop runs emit over
    ``duration_cycles``; closed-loop runs emit
    ``round(packets_scale * row_sum)`` packets per source, all at
    cycle 0.
    """

    demand: Demand
    cores_per_chip: int
    mode: str = "open"
    duration_cycles: int = 0
    packets_scale: float = 1.0
    injection: str = "bernoulli"
    size_flits: int = 1
    traffic_class: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        as_schedule(self.demand)  # validates the type
        if self.mode not in ("open", "closed"):
            raise ValueError(f"mode must be 'open' or 'closed', got {self.mode!r}")
        if self.injection not in ("bernoulli", "paced"):
            raise ValueError(
                f"injection must be 'bernoulli' or 'paced', got {self.injection!r}"
            )
        if self.mode == "open" and self.duration_cycles < 1:
            raise ValueError("open-loop demand needs duration_cycles >= 1")
        if self.mode == "closed" and self.packets_scale <= 0:
            raise ValueError("closed-loop demand needs packets_scale > 0")

    @property
    def schedule(self) -> DemandSchedule:
        return as_schedule(self.demand)

    @classmethod
    def from_params(
        cls, d: dict, shape: Coord3, cores: int, seed: int,
        machine: Optional[Machine] = None,
        route_computer: Optional[RouteComputer] = None,
    ) -> "DemandSpec":
        """Decode the ``demand`` sub-dict of a run's parameter form
        (:meth:`repro.sim.simulator.RunSpec.from_params`; also a serve
        ``submit_demand`` request). ``shape``, ``cores`` and ``seed`` are
        the enclosing run's.

        Keys mirror ``repro demand``: ``generator``/``rate``/
        ``matrix_seed`` (+ generator-specific ``hotspots``,
        ``hot_fraction``, ``skew_exponent``, ``restarts``, ``steps``, or
        an inline ``matrix`` object for ``generator="file"``) choose the
        matrix per epoch (epoch ``k`` draws from ``matrix_seed + k``, so
        multi-epoch runs evolve while staying a pure function of the
        parameters); ``epochs``/``epoch_length`` build a schedule;
        ``mode``/``duration``/``scale``/``injection``/``seed``
        parameterize emission. ``machine``/``route_computer`` are what
        the adversarial search routes on.
        """
        from repro.sim.simulator import _field

        if not isinstance(d, dict):
            raise ValueError("'demand' must be a JSON object")
        epochs = _field(d, "epochs", 1)
        if epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {epochs}")
        matrix_seed = _field(d, "matrix_seed", 0)
        matrix_json = (
            json.dumps(d["matrix"]) if d.get("matrix") is not None else None
        )
        matrices = [
            matrix_from_params(
                shape,
                d.get("generator", "uniform"),
                _field(d, "rate", 0.1, float),
                seed=matrix_seed + k,
                hotspots=_field(d, "hotspots", 1),
                hot_fraction=_field(d, "hot_fraction", 0.5, float),
                skew_exponent=_field(d, "skew_exponent", 1.0, float),
                matrix_json=matrix_json,
                restarts=_field(d, "restarts", 3),
                steps=_field(d, "steps", 60),
                cores_per_chip=cores,
                machine=machine,
                route_computer=route_computer,
            )
            for k in range(epochs)
        ]
        mode = d.get("mode", "open")
        return cls(
            demand=(
                matrices[0]
                if epochs == 1
                else DemandSchedule.from_matrices(
                    matrices, _field(d, "epoch_length", 64)
                )
            ),
            cores_per_chip=cores,
            mode=mode,
            duration_cycles=_field(d, "duration", 256) if mode == "open" else 0,
            packets_scale=_field(d, "scale", 1.0, float),
            injection=d.get("injection", "bernoulli"),
            seed=_field(d, "seed", seed),
        )


def generate_demand(
    machine: Machine, route_computer: RouteComputer, spec: DemandSpec
) -> List[Packet]:
    """Generate the packets of a demand workload (see the module
    docstring for the injection modes and the RNG draw order).

    All packets are pre-generated with concrete release cycles, so the
    resulting engine state checkpoints with the existing schema.
    """
    schedule = spec.schedule
    if schedule.shape != machine.config.shape:
        raise ValueError(
            f"demand shape {schedule.shape} does not match machine shape "
            f"{machine.config.shape}"
        )
    samplers = [
        _RouteSampler(
            machine, route_computer, DemandMatrixPattern(matrix),
            spec.size_flits, spec.traffic_class,
        )
        for _start, matrix in schedule.epochs
    ]
    node_index = schedule.epochs[0][1].node_index()
    rng = random.Random(spec.seed)
    packets: List[Packet] = []
    pid = 0

    if spec.mode == "closed":
        matrix = schedule.epochs[0][1]
        sampler = samplers[0]
        for src_ep in active_endpoints(machine, spec.cores_per_chip):
            src_comp = machine.components[src_ep]
            row_sum = matrix.row_sum(node_index[src_comp.chip])
            count = int(round(spec.packets_scale * row_sum))
            for _ in range(count):
                packets.append(
                    sampler.draw(rng, src_comp.chip, src_comp.detail, pid, 0)
                )
                pid += 1
        return packets

    spans = schedule.spans(spec.duration_cycles)
    for src_ep in active_endpoints(machine, spec.cores_per_chip):
        src_comp = machine.components[src_ep]
        row_index = node_index[src_comp.chip]
        bank = 0.0  # paced-injection accumulator, carried across epochs
        for start, end, k in spans:
            matrix = schedule.epochs[k][1]
            sampler = samplers[k]
            rate = min(1.0, matrix.row_sum(row_index))
            if rate <= 0.0:
                continue
            for cycle in range(start, end):
                if spec.injection == "bernoulli":
                    if rng.random() >= rate:
                        continue
                    emit = 1
                else:
                    bank += rate
                    emit = int(bank)
                    bank -= emit
                for _ in range(emit):
                    packets.append(
                        sampler.draw(
                            rng, src_comp.chip, src_comp.detail, pid, cycle
                        )
                    )
                    pid += 1
    return packets


def default_weight_patterns(spec: DemandSpec) -> List[TrafficPattern]:
    """What programs ``iw`` weights when the caller names no pattern: the
    cycle-0 matrix's conditional distribution."""
    return [DemandMatrixPattern(spec.schedule.epochs[0][1])]


def build_demand_engine(
    machine: Machine,
    route_computer: RouteComputer,
    spec: DemandSpec,
    faults=None,
):
    """A cycle-0 round-robin engine with a full demand workload enqueued:
    the demand entry into :func:`repro.sim.simulator.build`, as
    :func:`~repro.sim.simulator.build_batch_engine` is the batch one, for
    a caller that holds the pair (and perhaps a fault runtime, whose
    fault-aware computer ``route_computer`` should then be)."""
    from repro.sim.simulator import RunSpec, build

    return build(RunSpec(machine.config, spec), machine, route_computer, faults)


@dataclasses.dataclass
class DemandRunResult:
    """Aggregate outcome of one demand sweep point."""

    label: str
    generated: int
    delivered: int
    dropped: int
    end_cycle: int
    #: Offered packets per source per cycle (open-loop; 0 for closed).
    offered_rate: float
    #: Delivered packets per source per cycle over the full run.
    achieved_rate: float


def measure_demand_point(point: "RunSpec") -> DemandRunResult:
    """Run one demand :class:`~repro.sim.simulator.RunSpec` -- the sweep
    point *is* the run: picklable and fingerprintable like any batch
    point -- and reduce it to a result labelled by its schedule."""
    from repro.sim.simulator import run, shared_machine

    spec = point.spec
    machine = shared_machine(point.config)[0]
    stats = run(point, machine=machine)
    num_sources = len(active_endpoints(machine, spec.cores_per_chip))
    offered = 0.0
    if spec.mode == "open" and spec.duration_cycles > 0:
        offered = stats.injected / (num_sources * spec.duration_cycles)
    achieved = (
        stats.delivered / (num_sources * stats.end_cycle)
        if stats.end_cycle
        else 0.0
    )
    return DemandRunResult(
        label=spec.schedule.name,
        generated=stats.injected,
        delivered=stats.delivered,
        dropped=stats.dropped,
        end_cycle=stats.end_cycle,
        offered_rate=offered,
        achieved_rate=achieved,
    )
