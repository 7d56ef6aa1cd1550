"""Bitwise reproducibility of identically-seeded simulations.

With exact fixed-point channel timing, a simulation's result is a pure
function of (machine config, workload spec, arbitration, seed): every
counter, latency, and busy-tick tally of two identically-seeded runs
must be *equal*, not merely close. This is what makes the parallel sweep
runner (:mod:`repro.sim.sweep`) sound -- a worker process re-running a
point reproduces the serial loop's result exactly.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.machine import Machine, MachineConfig
from repro.core.routing import RouteComputer
from repro.sim.simulator import RunSpec, run
from repro.sim.trace import ListSink
from repro.traffic.batch import BatchSpec
from repro.traffic.patterns import Blend, Tornado, UniformRandom

_CACHE = {}


def setup_for(shape):
    if shape not in _CACHE:
        machine = Machine(MachineConfig(shape=shape, endpoints_per_chip=2))
        _CACHE[shape] = (machine, RouteComputer(machine))
    return _CACHE[shape]


def make_pattern(shape, kind):
    if kind == "uniform":
        return UniformRandom(shape)
    if kind == "tornado":
        return Tornado(shape)
    return Blend([UniformRandom(shape), Tornado(shape)], [0.5, 0.5])


@st.composite
def simulation_point(draw):
    shape = draw(st.sampled_from([(2, 2, 2), (3, 2, 2)]))
    pattern = draw(st.sampled_from(["uniform", "tornado", "blend"]))
    arbitration = draw(st.sampled_from(["rr", "iw"]))
    batch = draw(st.integers(min_value=1, max_value=24))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    size = draw(st.sampled_from([1, 2]))
    return shape, pattern, arbitration, batch, seed, size


class TestBitwiseReproducibility:
    @given(simulation_point())
    @settings(max_examples=15)
    def test_identically_seeded_runs_are_identical(self, case):
        shape, kind, arbitration, batch, seed, size = case
        machine, routes = setup_for(shape)
        pattern = make_pattern(shape, kind)
        spec = BatchSpec(
            pattern, batch, cores_per_chip=2, size_flits=size, seed=seed
        )
        runs, sinks = [], [ListSink(), ListSink()]
        for sink in sinks:
            runs.append(run(
                RunSpec(machine.config, spec, arbitration),
                machine=machine, trace=sink, route_computer=routes,
            ))
        # Dataclass equality compares every field: injection/delivery
        # counts, per-source and per-pattern tallies, per-channel flit
        # and busy-tick maps, latency sums; every packet's latency is its
        # deliver event's ``lat``.
        assert runs[0] == runs[1]
        assert sinks[0].events == sinks[1].events
        assert runs[0].delivered == batch * 2 * machine.config.num_chips
