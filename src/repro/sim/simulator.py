"""High-level simulation facade: one description of a run, one builder.

A :class:`RunSpec` says what to simulate -- machine config, workload
spec, arbitration and its weight patterns, faults -- and :func:`run`
simulates it, serially or sharded:

    config = MachineConfig(shape=(4, 4, 4), endpoints_per_chip=4)
    spec = BatchSpec(UniformRandom(config.shape), 64, cores_per_chip=4)
    stats = run(RunSpec(config, spec, arbitration="iw"))

A run also has one *serialised* form, the flat parameter mapping a
serve ``create`` request carries (``kind``/``topology``/``shape``/
``endpoints``/``cores``/``arbitration``/``seed``/``pattern``/``batch``/
``demand{...}``/``faults``/``policy{mode,retries}``): command-line flags
and the golden tables spell the same keys, :meth:`RunSpec.from_params`
is their one decoder, and :func:`trace_header` writes what ``repro
replay`` reads back (:func:`header_params`).

Every surface (CLI commands, goldens, serve sessions, sweeps, the shard
hub and its workers) describes its run this way and goes through
:func:`build`, which owns three rules:

* **own-pattern default** -- ``iw`` with no ``weight_patterns`` programs
  the weights from the workload's own pattern (a batch's ``pattern``, a
  demand spec's cycle-0 matrix);
* **faulted means exhaustive** -- a run with a fault runtime programs
  from exhaustively enumerated loads: faults break the translation
  symmetry the load shortcut relies on;
* **the machine comes from the config** -- shape, endpoints *and*
  topology, wherever the run is built.

What runs share offline -- the elaborated machine, healthy-machine load
tables, the ``iw`` tables programmed from them -- is computed once per
process and remembered here, behind :func:`build`.

A run has one way to start, :func:`start`: a checkpoint of it at the
path it was given is restored, sinks revived; otherwise :func:`build`
makes the cycle-0 engine -- cut over ``shards`` workers when the caller
asks for more than one. And one way to be driven, :func:`run`: whatever
``start`` returned has the engine's surface, so "is this a resume?",
the cycle cap, the save cadence and the clean-up are each asked or
applied in one place, at any shard count. A caller that holds pieces of
its own -- a route computer, a fault runtime, programmed tables, packets
-- hands them to :func:`run` too; the run is still stamped as its
``RunSpec``.

The ``arbitration`` field selects the policy at every router and adapter
output:

* ``"rr"`` -- round-robin (the paper's gray baseline curves);
* ``"age"`` -- age-based (the heavy-weight EoS reference);
* ``"iw"`` -- inverse-weighted, programmed from analytically computed
  loads of one or more traffic patterns (the paper's black curves).

:func:`build_batch_engine` and :func:`run_batch_sharded` (and
:func:`repro.traffic.demand.build_demand_engine`) are thin entries into
:func:`build` and :func:`run` for a caller that holds a machine.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arbiters.bank import BANKS, InverseWeightedBank
from repro.arbiters.weights import WeightTable, compute_inverse_weights
from repro.core.chip import default_floorplan
from repro.core.machine import Machine, MachineConfig
from repro.core.onchip import ANTON_DIRECTION_ORDER
from repro.core.routing import RouteComputer

from .checkpoint import (
    canonical,
    load_checkpoint,
    restore_engine,
    run_stamp,
    run_with_checkpoints,
)
from .engine import ArbiterBuilder, Engine
from .stats import SimStats

#: Default inverse-weight width, matching the Figure 6 example hardware.
DEFAULT_WEIGHT_BITS = 5


# --- what runs share offline, remembered once per process ---------------------------

#: The one memo of what runs share offline (DESIGN.md section 16):
#: ``("machine", config)`` -> the ``(Machine, RouteComputer)`` pair the
#: config elaborates to; ``("loads" | "tables", ...)`` -> a load table or
#: an ``(SA2, SA1)`` pair computed on such a pair. A value is a pure
#: function of its key -- config, the patterns' canonical *content*
#: (never their names), cores, weight bits -- so none is
#: ever invalidated and a forked pool worker inherits all of it. Nothing
#: computed on a custom floorplan or route computer, or on a faulted
#: run's fault-aware one, is kept: the key could not say so.
_MEMO: Dict[tuple, object] = {}

#: Load tables (and as many table pairs) kept for demand-matrix patterns,
#: the newest: a matrix is the one key whose content a serve client
#: chooses, and unbounded a server's memo would grow for as long as
#: clients invent matrices. Other keys are a handful per machine.
_DEMAND_ENTRIES = 8


def shared_machine(config: MachineConfig) -> Tuple[Machine, RouteComputer]:
    """The ``(machine, route computer)`` pair of a config, elaborated once
    per process. Engines never mutate their machine, so every run of a
    config shares it, and with it the machine's route memo
    (:meth:`~repro.core.machine.Machine.route_memo`): this computer, a
    run's own (:func:`run_context`) and a restore's all read and fill the
    one table."""
    pair = _MEMO.get(("machine", config))
    if pair is None:
        machine = Machine(config)
        pair = _MEMO["machine", config] = (machine, RouteComputer(machine))
    return pair


def _is_stock(machine: Machine, route_computer) -> bool:
    """Whether the pair is the one ``machine.config`` alone describes."""
    return (
        type(route_computer) is RouteComputer
        and route_computer.machine is machine
        and route_computer.direction_order == ANTON_DIRECTION_ORDER
        and not route_computer.allow_nonminimal
        and machine.floorplan
        == default_floorplan(num_endpoints=machine.config.endpoints_per_chip)
    )


def share_machine(machine: Machine, route_computer: RouteComputer) -> None:
    """Make the caller's pair the one :func:`shared_machine` returns.

    A campaign's points describe their machine by its config alone, so a
    custom floorplan or route computer would be silently replaced by the
    stock one: it is refused here, before any point runs.
    """
    if not _is_stock(machine, route_computer):
        raise ValueError(
            "a campaign runs on the machine its MachineConfig describes "
            "(default floorplan, stock RouteComputer) and this pair is not "
            "that one; measure_run(run, machine=, route_computer=) takes "
            "the pair itself"
        )
    _MEMO["machine", machine.config] = (machine, route_computer)


def _remembered(kind, machine, route_computer, faults, patterns, rest, compute):
    """``compute()``, kept in the memo when ``(machine, route_computer)``
    is the healthy stock pair its key describes."""
    if faults is not None or not _is_stock(machine, route_computer):
        return compute()
    from repro.traffic.demand import DemandMatrixPattern

    bounded = any(isinstance(p, DemandMatrixPattern) for p in patterns)
    contents = tuple(canonical(p) for p in patterns)
    key = (kind, bounded, machine.config, contents) + rest
    value = _MEMO.get(key)
    if value is None:
        value = _MEMO[key] = compute()
        if bounded:
            for stale in [k for k in _MEMO if k[:2] == key[:2]][:-_DEMAND_ENTRIES]:
                del _MEMO[stale]
    return value


def loads_of(
    machine: Machine,
    route_computer: RouteComputer,
    patterns: Sequence["TrafficPattern"],
    cores_per_chip: int,
    faults=None,
) -> List["LoadTable"]:
    """The analytic loads of each of ``patterns``, one table per pattern.

    With a fault runtime the enumeration is exhaustive, whatever the
    set holds at cycle 0: the degraded machine has no translation
    symmetry to exploit.
    """
    # Imported here (not at module top) to avoid a circular import:
    # repro.traffic generates Packet objects and so imports repro.sim.
    from repro.traffic.loads import compute_loads

    return [
        _remembered(
            "loads", machine, route_computer, faults, (pattern,),
            (cores_per_chip,),
            lambda pattern=pattern: compute_loads(
                machine, route_computer, pattern, cores_per_chip,
                use_symmetry=None if faults is None else False,
            ),
        )
        for pattern in patterns
    ]


def make_weight_tables(
    machine: Machine,
    route_computer: RouteComputer,
    patterns: Sequence["TrafficPattern"],
    cores_per_chip: int,
    weight_bits: int = DEFAULT_WEIGHT_BITS,
    load_tables: Optional[Sequence["LoadTable"]] = None,
) -> Dict[int, WeightTable]:
    """Program inverse-weight tables for every arbitration site.

    This is the offline flow of Section 3.2: compute per-input loads for
    each traffic pattern, then quantize their inverses into the per-site
    weight memories. ``load_tables`` may be passed to reuse
    already-computed loads.
    """
    from repro.traffic.loads import merge_arbiter_loads

    if load_tables is None:
        load_tables = loads_of(machine, route_computer, patterns, cores_per_chip)
    merged = merge_arbiter_loads(machine, load_tables)
    return {
        oc: compute_inverse_weights(matrix, weight_bits=weight_bits)
        for oc, matrix in merged.items()
    }


def make_vc_weight_tables(
    machine: Machine,
    route_computer: RouteComputer,
    patterns: Sequence["TrafficPattern"],
    cores_per_chip: int,
    weight_bits: int = DEFAULT_WEIGHT_BITS,
    load_tables: Optional[Sequence["LoadTable"]] = None,
) -> Dict[int, WeightTable]:
    """Program inverse-weight tables for the SA1 (VC selection) stage.

    Equality of service must hold at *every* arbitration point
    (Section 3.1), and the per-input VC selection is one: dateline
    geography makes per-VC loads uneven (sources beyond a dateline travel
    on promoted VCs), so an unweighted SA1 would re-introduce exactly the
    source bias the output arbiters remove.
    """
    from repro.traffic.loads import merge_vc_loads

    if load_tables is None:
        load_tables = loads_of(machine, route_computer, patterns, cores_per_chip)
    merged = merge_vc_loads(machine, load_tables)
    return {
        cid: compute_inverse_weights(matrix, weight_bits=weight_bits)
        for cid, matrix in merged.items()
    }


def arbiter_builder_for(
    arbitration: str,
    weight_tables: Optional[Dict[int, WeightTable]] = None,
    num_patterns: int = 1,
    weight_bits: int = DEFAULT_WEIGHT_BITS,
) -> ArbiterBuilder:
    """The bank builder of one arbitration stage under a policy: what
    :class:`~repro.sim.engine.Engine` takes as ``arbiter_builder`` /
    ``vc_arbiter_builder``.

    Used for both stages: SA2 sites are keyed by output channel id with
    per-input-port weights, SA1 sites by input channel id with per-VC
    weights. A site ``weight_tables`` does not name sees no modeled
    traffic; packets that do show up there are charged equal (maximal)
    weights, ``num_patterns`` of ``weight_bits`` bits when there is no
    table at all to take the stage's shape from.
    """
    if arbitration == "iw":
        if weight_tables is None:
            raise ValueError("inverse-weighted arbitration requires weight tables")
        return functools.partial(
            InverseWeightedBank,
            weight_tables=weight_tables,
            num_patterns=num_patterns,
            weight_bits=weight_bits,
        )
    if arbitration in ("rr", "age"):
        return BANKS[arbitration]
    raise ValueError(f"unknown arbitration policy {arbitration!r}")


# --- one description of a run, one builder ----------------------------------------


#: Workload kinds the parameter form may name.
RUN_KINDS = ("batch", "demand", "idle")


def _field(params: dict, key: str, default, kind=int):
    """``params[key]`` (else ``default``) as a ``kind``: an integer, or
    for ``float`` any real number -- never a bool, a string or ``None``."""
    value = params.get(key, default)
    accepted = (int, float) if kind is float else int
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ValueError(
            f"{key!r} must be {'a number' if kind is float else 'an integer'}, "
            f"got {value!r}"
        )
    return kind(value)


@dataclasses.dataclass(frozen=True)
class RunSpec:
    """Picklable description of one experiment: everything a run depends on.

    ``spec`` is the workload -- a :class:`~repro.traffic.batch.BatchSpec`
    or :class:`~repro.traffic.demand.DemandSpec` (a replay hands
    :func:`build` its recorded packets instead of generating).
    ``weight_patterns`` programs ``iw`` arbitration; empty means the
    workload's own pattern. ``fault_set``/``fault_policy`` describe the
    faults rather than carrying a runtime, so whoever builds the run --
    this process, a pool worker, a shard worker under ``spawn`` --
    rebuilds the same fault-aware route computer deterministically.
    """

    config: MachineConfig
    spec: object
    arbitration: str = "rr"
    weight_patterns: tuple = ()
    weight_bits: int = DEFAULT_WEIGHT_BITS
    fault_set: Optional[object] = None
    fault_policy: Optional[object] = None

    @classmethod
    def from_params(cls, params: dict) -> "RunSpec":
        """Decode the parameter form of a run (DESIGN.md section 17).

        The one place that checks field types and names the offending
        key in a ``ValueError``. Absent keys take the wire defaults (a
        2x2x2 torus, 2 endpoints, 2 cores, ``rr``, seed 0, ``uniform`` x
        8); unknown keys are ignored, so a trace header decodes too
        (:func:`header_params`). ``kind`` is ``batch``, ``demand`` (its
        sub-dict goes to :meth:`DemandSpec.from_params`) or ``idle`` --
        no workload, ``spec`` is ``None``: a serve session fed later, or
        a command that only wants the machine and its faults. ``faults``
        is a fault set's JSON object; ``policy`` alone attaches an empty
        set (it enables a session's live ``inject_fault``).
        """
        kind = params.get("kind", "idle")
        if kind not in RUN_KINDS:
            raise ValueError(
                f"unknown workload kind {kind!r}; known: {RUN_KINDS}"
            )
        shape = params.get("shape", (2, 2, 2))
        if (
            not isinstance(shape, (list, tuple))
            or len(shape) not in (2, 3)
            or not all(type(k) is int and k >= 1 for k in shape)
        ):
            raise ValueError(
                f"'shape' must be 2 or 3 positive integers, got {shape!r}"
            )
        config = MachineConfig(
            shape=tuple(shape),
            endpoints_per_chip=_field(params, "endpoints", 2),
            topology=params.get("topology", "torus"),
        )
        cores = _field(params, "cores", 2)
        arbitration = params.get("arbitration", "rr")
        if arbitration not in ("rr", "age", "iw"):
            raise ValueError(
                f"arbitration must be rr, age, or iw, got {arbitration!r}"
            )
        seed = _field(params, "seed", 0)

        fault_set = fault_policy = None
        if params.get("faults") is not None or "policy" in params:
            from repro.faults import FaultPolicy, FaultSet

            faults, policy = params.get("faults"), params.get("policy") or {}
            for key, value in (("faults", faults), ("policy", policy)):
                if value is not None and not isinstance(value, dict):
                    raise ValueError(f"{key!r} must be a JSON object")
            if faults is not None:
                fault_set = FaultSet.from_dict(faults)
            else:
                fault_set = FaultSet(shape=config.shape, topology=config.topology)
            fault_policy = FaultPolicy(
                mode=policy.get("mode", "reroute"),
                max_retries=_field(policy, "retries", 4),
            )
        run = cls(
            config, None, arbitration,
            fault_set=fault_set, fault_policy=fault_policy,
        )
        if kind == "idle":
            return run
        if kind == "batch":
            from repro.traffic.batch import BatchSpec
            from repro.traffic.patterns import pattern_factories

            # Patterns key off the normalized 3-tuple ("shape": [4, 4]).
            factories = pattern_factories(config.shape)
            name = params.get("pattern", "uniform")
            if name not in factories:
                raise ValueError(
                    f"unknown pattern {name!r}; known: "
                    f"{', '.join(sorted(factories))}"
                )
            spec = BatchSpec(
                factories[name](), _field(params, "batch", 8), cores, seed=seed
            )
        else:
            from repro.traffic.demand import DemandSpec

            demand = params.get("demand") or {}
            # Only the adversarial generator routes while it decodes: its
            # search runs on this run's own (fault-aware) computer, as the
            # degraded machine's workload generation does.
            context = ()
            if isinstance(demand, dict) and demand.get("generator") == "adversarial":
                context = run_context(run)[:2]
            spec = DemandSpec.from_params(
                demand, config.shape, cores, seed, *context
            )
        return dataclasses.replace(run, spec=spec)


def header_params(header: dict) -> dict:
    """The parameter form a batch trace header spells.

    A header says ``arb`` for the form's ``arbitration`` and has no
    ``kind``; its other keys (``topology``, ``shape``, ``endpoints``,
    ``cores``, ``pattern``, ``batch``, ``seed``) are the form's own. The
    golden tables and ``repro replay`` read headers back through this.
    """
    return dict(header, kind="batch", arbitration=header.get("arb", "rr"))


def trace_header(params: dict, run: RunSpec, machine: Machine) -> dict:
    """Trace-header metadata of the run ``params`` decodes to.

    One writer behind ``repro trace``, ``checkpoint save``, ``faults
    run`` and ``demand``, so a checkpointed-and-resumed trace is byte-
    identical to an uninterrupted one (same record, same key order) and
    the trace is self-describing: ``repro replay`` rebuilds the machine
    from ``shape``/``endpoints``/``topology``/``tpc`` and a batch's ``iw``
    weight tables from ``pattern``/``cores``. ``pattern`` is therefore the
    factory key the params name (``1hop``), not ``pattern.name``
    (``1-hop-neighbor``), which only labels ``workload``.
    """
    config, spec = run.config, run.spec
    meta = {
        "shape": list(config.shape),
        "endpoints": config.endpoints_per_chip,
        "tpc": machine.ticks_per_cycle,
        "arb": run.arbitration,
        "cores": spec.cores_per_chip,
    }
    if _is_demand(run):
        meta["workload"] = (
            f"demand {spec.schedule.name} {spec.mode} "
            f"{spec.injection} seed{spec.seed}"
        )
    else:
        meta["pattern"] = params.get("pattern", "uniform")
        meta["batch"] = spec.packets_per_source
        meta["seed"] = spec.seed
        meta["workload"] = (
            f"batch {spec.pattern.name} x{spec.packets_per_source} "
            f"{run.arbitration} seed{spec.seed}"
        )
    # Only non-default topologies annotate the header, so every torus
    # trace (goldens included) keeps its exact bytes.
    if config.topology != "torus":
        meta["topology"] = config.topology
        meta["workload"] += f" topology={config.topology}"
    if run.fault_set is not None:
        meta["faults"] = len(run.fault_set)
        meta["policy"] = run.fault_policy.mode
    return meta


def run_context(run: RunSpec, machine: Optional[Machine] = None):
    """``(machine, route computer, fault runtime)`` of a run, deterministically.

    The machine is the run's config elaborated -- the process's one
    (:func:`shared_machine`), or ``machine``, the same already built by
    the caller -- and the route computer is the run's own, over the
    machine's route memo. A faulted run routes through one fault-aware
    computer shared by workload generation, load enumeration and the
    runtime's re-resolutions, so it sees the same initially-failed set
    wherever the run is built; its fault resolutions are its own, its
    base routes the machine's.
    """
    if machine is None:
        machine = shared_machine(run.config)[0]
    if run.fault_set is None:
        return machine, RouteComputer(machine), None
    from repro.faults.routing import FaultAwareRouteComputer
    from repro.faults.runtime import FaultRuntime

    route_computer = FaultAwareRouteComputer(machine)
    faults = FaultRuntime(
        machine,
        run.fault_set,
        policy=run.fault_policy,
        route_computer=route_computer,
    )
    return machine, route_computer, faults


def _is_demand(run: RunSpec) -> bool:
    return getattr(run.spec, "demand", None) is not None


def generate_workload(run: RunSpec, machine: Machine, route_computer) -> list:
    """The run's packets, in generation order (global ids, one RNG stream)."""
    if _is_demand(run):
        from repro.traffic.demand import generate_demand as generate
    else:
        from repro.traffic.batch import generate_batch as generate
    return generate(machine, route_computer, run.spec)


def _weight_patterns(run: RunSpec) -> list:
    """The patterns behind the run's ``iw`` weights: the named ones, or
    else the workload's own."""
    if run.weight_patterns:
        return list(run.weight_patterns)
    if _is_demand(run):
        from repro.traffic.demand import default_weight_patterns

        return default_weight_patterns(run.spec)
    return [run.spec.pattern]


def program_weights(
    run: RunSpec, machine, route_computer, faults=None, load_tables=None
):
    """The run's ``(SA2, SA1)`` weight tables; ``(None, None)`` unless
    it arbitrates by inverse weights. Programmed from ``load_tables``
    when the caller has enumerated them, else from the run's weight
    patterns -- and then remembered: only then does the run say what
    they are made of."""
    if run.arbitration != "iw":
        return None, None
    cores = run.spec.cores_per_chip

    def program(loads=load_tables):
        if loads is None:
            loads = loads_of(
                machine, route_computer, _weight_patterns(run), cores, faults
            )
        # The loads are all the tables depend on: no pattern is consulted.
        args = (machine, route_computer, (), cores, run.weight_bits)
        return (
            make_weight_tables(*args, load_tables=loads),
            make_vc_weight_tables(*args, load_tables=loads),
        )

    if load_tables is not None:
        return program()
    return _remembered(
        "tables", machine, route_computer, faults, _weight_patterns(run),
        (cores, run.weight_bits), program,
    )


def build(
    run: RunSpec,
    machine: Machine,
    route_computer,
    faults=None,
    trace=None,
    packets: Optional[Sequence["Packet"]] = None,
    weight_tables=None,
    load_tables: Optional[Sequence["LoadTable"]] = None,
    latency_quantiles: bool = False,
) -> Engine:
    """The run's cycle-0 engine: arbiters programmed, sinks attached,
    every packet in its source queue.

    ``machine``, ``route_computer`` and ``faults`` are the run's context
    (:func:`run_context`). ``packets`` (already generated from the run's
    spec, in generation order) stands in for generation -- a replay's
    recorded ones -- and ``weight_tables``, an ``(SA2, SA1)`` pair, for
    programming ``iw``; a stage left ``None`` is programmed here, from
    ``load_tables`` when the caller has already enumerated them.
    """
    sa2, sa1 = weight_tables or (None, None)
    num_patterns = 1
    if run.arbitration == "iw":
        if sa2 is None or sa1 is None:
            programmed = program_weights(
                run, machine, route_computer, faults, load_tables
            )
            sa2 = programmed[0] if sa2 is None else sa2
            sa1 = programmed[1] if sa1 is None else sa1
        for table in sa2.values():
            num_patterns = table.num_patterns
            break
    engine = Engine(
        machine,
        arbiter_builder=arbiter_builder_for(
            run.arbitration, sa2, num_patterns, run.weight_bits
        ),
        vc_arbiter_builder=arbiter_builder_for(
            run.arbitration, sa1, num_patterns, run.weight_bits
        ),
        trace=trace,
        latency_quantiles=latency_quantiles,
        faults=faults,
    )
    if packets is None:
        packets = generate_workload(run, machine, route_computer)
    for packet in packets:
        engine.enqueue(packet)
    return engine


def start(
    run: RunSpec,
    machine: Optional[Machine] = None,
    trace=None,
    checkpoint_path: Optional[str] = None,
    route_computer=None,
    faults=None,
    shards: int = 1,
    timings: Optional[dict] = None,
    profiles: Optional[list] = None,
    **programmed,
) -> Engine:
    """The run's engine, wherever the run has got to: restored from the
    checkpoint at ``checkpoint_path`` when a file is there, else built at
    cycle 0 (``programmed`` is :func:`build`'s).

    The one place that decides between the two. A file at the path marks
    an interrupted run: it must be a checkpoint of this machine, stamped
    by this run or by none (:func:`~repro.sim.checkpoint.run_stamp`);
    anything else is refused by name and left as it is. Restoring also
    revives the sinks under ``trace``
    (:func:`~repro.sim.checkpoint.restore_engine`), last, so the resumed
    run's trace and metrics are the uninterrupted run's and a refusal
    leaves them as they were.
    ``route_computer`` and ``faults`` are the context of a caller that
    holds one; by default it is :func:`run_context`'s.

    ``shards=1`` is the serial engine itself; any other count cuts it
    over as many worker processes behind a
    :class:`~repro.sim.shard.ShardedEngine` (``timings`` and ``profiles``
    are its) -- the same
    surface, bit-identical stats, trace events and checkpoint bytes. What
    that does not support is refused by name, before anything is
    generated or spawned.
    """
    if machine is None:
        machine = shared_machine(run.config)[0]

    def whole() -> Engine:
        if checkpoint_path and os.path.exists(checkpoint_path):
            data = load_checkpoint(checkpoint_path, run_stamp(run))
            return restore_engine(data, machine=machine, trace=trace)
        context = (route_computer, faults)
        if route_computer is None:
            context = run_context(run, machine)[1:]
        return build(run, machine, *context, trace=trace, **programmed)

    if shards == 1:
        return whole()
    reject_unshardable(run.config, run.fault_policy)
    from .shard import ShardedEngine

    return ShardedEngine(machine, whole, shards, timings, profiles)


def reject_unshardable(config: MachineConfig, fault_policy=None) -> None:
    """Raise the named error for what the sharded runner does not support."""
    # The slab partitioner and its lookahead derivation assume the wrap
    # links of a torus; rather than risk a silently wrong decomposition,
    # other topologies are rejected outright and must run serially.
    if config.topology != "torus":
        raise ValueError(
            f"sharded runs support only the torus topology, not "
            f"{config.topology!r}; run serially (shards=1) instead"
        )
    if fault_policy is not None and fault_policy.mode == "retry":
        raise ValueError(
            "the retry fault policy is not supported in sharded runs: "
            "re-injection happens at the stranded packet's source, which "
            "may belong to another shard"
        )


def run(
    run: RunSpec,
    shards: int = 1,
    machine: Optional[Machine] = None,
    trace=None,
    max_cycles: int = 10_000_000,
    checkpoint_path: Optional[str] = None,
    checkpoint_every: int = 0,
    **started,
) -> SimStats:
    """Simulate ``run`` to completion, decomposed over ``shards`` sub-boxes.

    The one loop above an engine, serial or sharded: :func:`start` the
    run (``started`` is its: a caller's ``route_computer``/``faults``,
    the shard ``timings``/``profiles``, and :func:`build`'s
    ``weight_tables``/``packets``/``load_tables``/``latency_quantiles``)
    and run the engine to completion. With ``checkpoint_path`` and a
    positive ``checkpoint_every`` the engine is saved there as
    :func:`~repro.sim.checkpoint.run_with_checkpoints` says, stamped with
    ``run`` as :func:`start` vets it, so a run killed and made again
    picks itself up for a result bitwise-identical to a never-interrupted
    one; the file is removed once the run completes.
    """
    path = checkpoint_path if checkpoint_every > 0 else None
    with contextlib.closing(
        start(run, machine, trace, path, shards=shards, **started)
    ) as engine:
        if path:
            stats = run_with_checkpoints(
                engine, path, checkpoint_every, max_cycles, run_stamp(run)
            )
            if os.path.exists(path):
                os.unlink(path)
        else:
            stats = engine.run(max_cycles=max_cycles)
    if trace is not None:
        trace.flush()
    return stats


# --- entries for callers that hold a machine ---------------------------------------


def build_batch_engine(
    machine: Machine,
    route_computer: RouteComputer,
    spec: "BatchSpec",
    arbitration: str = "rr",
    weight_tables: Optional[Dict[int, WeightTable]] = None,
    vc_weight_tables: Optional[Dict[int, WeightTable]] = None,
    trace=None,
) -> Engine:
    """A cycle-0 engine with a full batch enqueued: :func:`build` for a
    caller that holds the pair. ``weight_tables``/``vc_weight_tables``
    are pre-programmed ``iw`` tables for the two arbitration stages; a
    stage left ``None`` is programmed from the batch's own pattern."""
    return build(
        RunSpec(machine.config, spec, arbitration), machine, route_computer,
        trace=trace, weight_tables=(weight_tables, vc_weight_tables),
    )


def run_batch_sharded(
    machine: Machine,
    spec: "BatchSpec",
    shards: int = 1,
    transport: str = "process",
) -> SimStats:
    """Run a round-robin batch decomposed over ``shards`` torus
    sub-boxes: :func:`run` for a caller that holds the machine. Shards
    run in worker processes; ``transport`` names that, and nothing else
    is accepted."""
    if transport != "process":
        raise ValueError(
            f"unknown shard transport {transport!r}: shards run only in "
            f"worker processes (\"process\")"
        )
    return run(RunSpec(machine.config, spec), shards, machine=machine)


def run_single_packet(
    machine: Machine,
    route_computer: RouteComputer,
    src_endpoint: int,
    dst_endpoint: int,
    choice=None,
    size_flits: int = 1,
) -> int:
    """Inject one packet into an idle network; returns its latency in cycles.

    Used by the latency-versus-hops experiment (Figure 11): in an idle
    network the measured latency is pure pipeline and channel delay.
    """
    from repro.core.routing import RouteChoice
    from repro.sim.packet import Packet

    if choice is None:
        choice = RouteChoice()
    route = route_computer.compute(src_endpoint, dst_endpoint, choice)
    engine = Engine(machine)
    packet = Packet(0, route, size_flits=size_flits)
    engine.enqueue(packet)
    engine.run()
    return packet.network_latency
