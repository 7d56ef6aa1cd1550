"""JsonlTraceWriter flushes its stream on ``flush()`` and nowhere else.

An emitted event only writes; when bytes reach the file is the caller's
call (the periodic checkpoint driver flushes before each save, ``run``
once at the end), and never a per-event branch in the hot path.
"""

import io

from repro.core.machine import Machine, MachineConfig
from repro.core.routing import RouteComputer
from repro.sim.simulator import build_batch_engine
from repro.sim.trace import JsonlTraceWriter
from repro.traffic.batch import BatchSpec
from repro.traffic.patterns import pattern_factories


class FlushCountingStream(io.StringIO):
    def __init__(self):
        super().__init__()
        self.flushes = 0

    def flush(self):
        self.flushes += 1
        super().flush()


def _traced_engine(writer):
    machine = Machine(MachineConfig(shape=(2, 2, 2), endpoints_per_chip=2))
    spec = BatchSpec(
        pattern=pattern_factories(machine.config.shape)["uniform"](),
        packets_per_source=4,
        cores_per_chip=2,
        seed=9,
    )
    return build_batch_engine(machine, RouteComputer(machine), spec, trace=writer)


def test_a_run_never_flushes_the_stream():
    stream = FlushCountingStream()
    writer = JsonlTraceWriter(stream, meta={"run": "flush-pin"})
    _traced_engine(writer).run()
    assert writer.events_written > 0
    assert stream.flushes == 0
    writer.flush()
    assert stream.flushes == 1
    assert stream.getvalue().count("\n") == writer.events_written + 1


def test_flush_puts_out_the_held_header():
    stream = FlushCountingStream()
    writer = JsonlTraceWriter(stream, meta={"run": "flush-pin"})
    assert stream.getvalue() == ""  # held until the first write
    writer.flush()
    assert stream.flushes == 1
    assert stream.getvalue().startswith('{"ev":"trace"')
    assert len(stream.getvalue().encode()) == writer.bytes_written
