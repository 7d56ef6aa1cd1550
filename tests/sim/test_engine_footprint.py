"""An engine is a few dozen objects, whatever the machine.

The paper's router state is a small register bank per router; the engine
keeps all of it in one flat row per kind of state (DESIGN.md section 9),
so building one allocates a fixed handful of lists -- not a list per
(channel, VC) and an arbiter object per site, which is what made a
whole-machine engine cost a third of a second (and seven full garbage
collections) to build at 8x8x8. The counts are of objects the collector
tracks, the ones a generation-2 pass has to walk.
"""

import gc

from repro.core.machine import Machine, MachineConfig
from repro.sim.engine import Engine


def engine_objects(shape):
    machine = Machine(MachineConfig(shape=shape, endpoints_per_chip=2))
    machine.engine_rows  # the machine's, built once, shared by its engines
    gc.collect()
    before = len(gc.get_objects())
    engine = Engine(machine)
    added = len(gc.get_objects()) - before
    assert engine.machine is machine
    return added, len(machine.channel_src)


class TestEngineFootprint:
    def test_footprint_is_independent_of_machine_size(self):
        tiny, tiny_channels = engine_objects((2, 2, 2))
        small, small_channels = engine_objects((4, 4, 4))
        assert small_channels == 8 * tiny_channels
        # ~63 000 when state was nested per channel and per site.
        assert small < 1000
        assert small <= tiny + 16
