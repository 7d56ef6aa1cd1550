"""Tests for workload generation."""

import pytest

from repro.traffic.batch import BatchSpec, generate_batch, generate_open_loop
from repro.traffic.patterns import Blend, ReverseTornado, Tornado, UniformRandom


class TestBatchSpec:
    def test_valid(self):
        BatchSpec(UniformRandom((2, 2, 2)), 4, cores_per_chip=2)

    def test_zero_packets(self):
        with pytest.raises(ValueError):
            BatchSpec(UniformRandom((2, 2, 2)), 0, cores_per_chip=2)


class TestGenerateBatch:
    def test_count(self, tiny_machine, tiny_routes):
        spec = BatchSpec(UniformRandom((2, 2, 2)), 5, cores_per_chip=2)
        packets = generate_batch(tiny_machine, tiny_routes, spec)
        assert len(packets) == 16 * 5

    def test_reproducible(self, tiny_machine, tiny_routes):
        spec = BatchSpec(UniformRandom((2, 2, 2)), 5, cores_per_chip=2, seed=4)
        first = generate_batch(tiny_machine, tiny_routes, spec)
        second = generate_batch(tiny_machine, tiny_routes, spec)
        assert [p.route.hops for p in first] == [p.route.hops for p in second]

    def test_seed_changes_workload(self, tiny_machine, tiny_routes):
        base = BatchSpec(UniformRandom((2, 2, 2)), 8, cores_per_chip=2, seed=1)
        other = BatchSpec(UniformRandom((2, 2, 2)), 8, cores_per_chip=2, seed=2)
        a = generate_batch(tiny_machine, tiny_routes, base)
        b = generate_batch(tiny_machine, tiny_routes, other)
        assert [p.route.dst for p in a] != [p.route.dst for p in b]

    def test_all_released_at_zero(self, tiny_machine, tiny_routes):
        spec = BatchSpec(UniformRandom((2, 2, 2)), 3, cores_per_chip=2)
        for packet in generate_batch(tiny_machine, tiny_routes, spec):
            assert packet.release_cycle == 0

    def test_blend_marks_patterns(self, tiny_machine, tiny_routes):
        blend = Blend(
            [Tornado((2, 2, 2)), ReverseTornado((2, 2, 2))], [0.5, 0.5]
        )
        spec = BatchSpec(blend, 20, cores_per_chip=2, seed=3)
        packets = generate_batch(tiny_machine, tiny_routes, spec)
        patterns = {p.pattern for p in packets}
        assert patterns == {0, 1}

    def test_unblended_marks_zero(self, tiny_machine, tiny_routes):
        spec = BatchSpec(UniformRandom((2, 2, 2)), 5, cores_per_chip=2)
        for packet in generate_batch(tiny_machine, tiny_routes, spec):
            assert packet.pattern == 0

    def test_core_i_talks_to_core_i(self, tiny_machine, tiny_routes):
        spec = BatchSpec(Tornado((2, 2, 2)), 2, cores_per_chip=2)
        for packet in generate_batch(tiny_machine, tiny_routes, spec):
            src = tiny_machine.components[packet.src]
            dst = tiny_machine.components[packet.dst]
            assert src.detail == dst.detail

    def test_shape_mismatch(self, tiny_machine, tiny_routes):
        spec = BatchSpec(UniformRandom((3, 3, 3)), 2, cores_per_chip=2)
        with pytest.raises(ValueError):
            generate_batch(tiny_machine, tiny_routes, spec)

    def test_size_flits_propagates(self, tiny_machine, tiny_routes):
        spec = BatchSpec(UniformRandom((2, 2, 2)), 2, cores_per_chip=2, size_flits=2)
        for packet in generate_batch(tiny_machine, tiny_routes, spec):
            assert packet.size_flits == 2


class TestOpenLoop:
    def test_rate_approximate(self, tiny_machine, tiny_routes):
        packets = generate_open_loop(
            tiny_machine, tiny_routes, UniformRandom((2, 2, 2)),
            injection_rate=0.25, duration_cycles=800, cores_per_chip=2, seed=5,
        )
        rate = len(packets) / (16 * 800)
        assert rate == pytest.approx(0.25, abs=0.03)

    def test_release_cycles_within_duration(self, tiny_machine, tiny_routes):
        packets = generate_open_loop(
            tiny_machine, tiny_routes, UniformRandom((2, 2, 2)),
            injection_rate=0.5, duration_cycles=100, cores_per_chip=1,
        )
        assert all(0 <= p.release_cycle < 100 for p in packets)

    def test_release_order_per_source(self, tiny_machine, tiny_routes):
        packets = generate_open_loop(
            tiny_machine, tiny_routes, UniformRandom((2, 2, 2)),
            injection_rate=0.5, duration_cycles=100, cores_per_chip=2,
        )
        per_source = {}
        for packet in packets:
            per_source.setdefault(packet.src, []).append(packet.release_cycle)
        for releases in per_source.values():
            assert releases == sorted(releases)

    def test_rate_validation(self, tiny_machine, tiny_routes):
        with pytest.raises(ValueError):
            generate_open_loop(
                tiny_machine, tiny_routes, UniformRandom((2, 2, 2)),
                injection_rate=1.5, duration_cycles=10, cores_per_chip=1,
            )

    def test_runs_through_engine(self, tiny_machine, tiny_routes):
        from repro.sim.engine import Engine

        packets = generate_open_loop(
            tiny_machine, tiny_routes, UniformRandom((2, 2, 2)),
            injection_rate=0.1, duration_cycles=200, cores_per_chip=2, seed=2,
        )
        engine = Engine(tiny_machine)
        for packet in packets:
            engine.enqueue(packet)
        stats = engine.run()
        assert stats.delivered == len(packets)
