"""Tests for the Topology interface, registry, and its consumers' pins."""

import pytest

from repro.core import params
from repro.core.geometry import (
    TORUS_DIRECTIONS,
    TorusDirection,
    crosses_dateline,
    minimal_deltas,
    ring_deltas,
    torus_delta,
)
from repro.core.machine import Machine, MachineConfig
from repro.core.topology import (
    ChipletTopology,
    Mesh2DTopology,
    TOPOLOGIES,
    TOPOLOGY_NAMES,
    TorusTopology,
    make_topology,
)
from repro.faults.model import FaultSet, sample_link_faults


class TestRegistry:
    def test_registered_names(self):
        assert TOPOLOGY_NAMES == ("torus", "mesh", "chiplet")
        for name, cls in TOPOLOGIES.items():
            assert cls.name == name

    def test_make_topology(self):
        assert isinstance(make_topology("torus", (2, 2, 2)), TorusTopology)
        assert isinstance(make_topology("mesh", (3, 3)), Mesh2DTopology)
        assert isinstance(make_topology("chiplet", (2, 2)), ChipletTopology)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown topology 'ring'"):
            make_topology("ring", (4, 4))

    def test_cli_choices_match_registry(self):
        # The CLI mirrors the registry in a literal tuple (argparse
        # choices must be static); this pin keeps the two in sync.
        from repro.cli import TOPOLOGY_CHOICES

        assert tuple(TOPOLOGY_CHOICES) == TOPOLOGY_NAMES

    def test_equality_and_hash(self):
        assert make_topology("mesh", (3, 3)) == make_topology("mesh", (3, 3, 1))
        assert make_topology("mesh", (2, 2)) != make_topology("chiplet", (2, 2))
        assert hash(make_topology("torus", (2, 2, 2))) == hash(
            TorusTopology((2, 2, 2))
        )


class TestShapeNormalization:
    def test_2d_shapes_pad_to_coord3(self):
        assert Mesh2DTopology((4, 2)).shape == (4, 2, 1)
        assert ChipletTopology((3, 2)).shape == (3, 2, 1)
        assert TorusTopology((2, 3, 4)).shape == (2, 3, 4)

    def test_3_tuple_with_degenerate_pad_accepted(self):
        assert Mesh2DTopology((4, 2, 1)).shape == (4, 2, 1)

    def test_3_tuple_with_real_third_axis_rejected(self):
        with pytest.raises(ValueError, match="two-dimensional"):
            Mesh2DTopology((4, 2, 2))

    def test_torus_requires_three_axes(self):
        with pytest.raises(ValueError, match="3 dimension"):
            TorusTopology((4, 4))

    def test_interposer_radix_cap(self):
        assert ChipletTopology((4, 4)).shape == (4, 4, 1)
        with pytest.raises(ValueError, match="radix"):
            ChipletTopology((5, 2))
        # The same radix is fine on the (uncapped) standalone mesh.
        assert Mesh2DTopology((5, 2)).shape == (5, 2, 1)

    def test_shape_str_drops_pad(self):
        assert Mesh2DTopology((4, 2)).shape_str() == "4x2"
        assert TorusTopology((2, 2, 2)).shape_str() == "2x2x2"
        assert ChipletTopology((2, 2)).describe() == "chiplet 2x2"


class TestDimensionSemantics:
    def test_torus_delegates_to_geometry(self):
        topo = TorusTopology((4, 3, 2))
        for dim, radix in enumerate(topo.shape):
            assert topo.wraps(dim)
            for src in range(radix):
                for dst in range(radix):
                    assert topo.minimal_deltas(src, dst, dim) == minimal_deltas(
                        src, dst, radix
                    )
                    assert topo.monotone_deltas(src, dst, dim) == ring_deltas(
                        src, dst, radix
                    )
                    assert topo.delta(src, dst, dim) == torus_delta(
                        src, dst, radix
                    )
                    delta = topo.delta(src, dst, dim)
                    assert topo.crosses_dateline(
                        dim, src, delta
                    ) == crosses_dateline(src, delta, radix)

    def test_line_deltas_unique_and_monotone(self):
        topo = Mesh2DTopology((4, 3))
        for dim, radix in enumerate((4, 3)):
            assert not topo.wraps(dim)
            for src in range(radix):
                for dst in range(radix):
                    # A line has exactly one way: monotone == minimal.
                    assert topo.minimal_deltas(src, dst, dim) == (dst - src,)
                    assert topo.monotone_deltas(src, dst, dim) == (dst - src,)
                    assert not topo.crosses_dateline(dim, src, dst - src)

    def test_line_edges_have_no_neighbor(self):
        topo = Mesh2DTopology((3, 2))
        x_neg = next(d for d in TORUS_DIRECTIONS if d.dim == 0 and d.sign < 0)
        x_pos = next(d for d in TORUS_DIRECTIONS if d.dim == 0 and d.sign > 0)
        assert topo.neighbor((0, 0, 0), x_neg) is None
        assert not topo.has_link((0, 0, 0), x_neg)
        assert topo.neighbor((0, 0, 0), x_pos) == (1, 0, 0)
        assert topo.neighbor((2, 1, 0), x_pos) is None
        # The same coordinates on a torus wrap instead.
        torus = TorusTopology((3, 2, 1))
        assert torus.neighbor((0, 0, 0), x_neg) == (2, 0, 0)

    def test_active_directions_exclude_degenerate_dims(self):
        mesh = Mesh2DTopology((3, 3))
        assert all(d.dim < 2 for d in mesh.active_directions())
        assert len(mesh.active_directions()) == 4
        assert TorusTopology((2, 2, 2)).active_directions() == TORUS_DIRECTIONS

    def test_hops(self):
        mesh = Mesh2DTopology((4, 4))
        assert mesh.hops((0, 0, 0), (3, 3, 0)) == 6  # no wrap shortcut
        torus = TorusTopology((4, 4, 1))
        assert torus.hops((0, 0, 0), (3, 3, 0)) == 2  # wraps both dims

    def test_translation_invariance(self):
        assert TorusTopology((2, 2, 2)).translation_invariant
        assert not Mesh2DTopology((3, 3)).translation_invariant
        assert not ChipletTopology((2, 2)).translation_invariant


class TestChannelParameters:
    def test_torus_channels_use_config_parameters(self):
        cfg = MachineConfig(shape=(2, 2, 2))
        topo = cfg.make_topology()
        assert topo.internode_latency(cfg) == cfg.torus_latency
        assert topo.internode_cycles_per_flit(cfg) == cfg.torus_cycles_per_flit

    def test_interposer_is_shorter_and_wider_than_cables(self):
        cfg = MachineConfig(shape=(2, 2), topology="chiplet")
        topo = cfg.make_topology()
        assert topo.internode_latency(cfg) < cfg.torus_latency
        assert (
            topo.internode_cycles_per_flit(cfg) < cfg.torus_cycles_per_flit
        )

    def test_chiplet_machine_channel_parameters(self):
        machine = Machine(MachineConfig(shape=(2, 2), topology="chiplet"))
        from repro.core.machine import ChannelKind

        internode = [
            cid
            for cid, kind in enumerate(machine.channel_kind)
            if kind == ChannelKind.TORUS
        ]
        assert internode
        for cid in internode:
            assert machine.channel_latency[cid] == ChipletTopology.INTERPOSER_LATENCY
            assert (
                machine.channel_cycles_per_flit[cid]
                == ChipletTopology.INTERPOSER_CYCLES_PER_FLIT
            )
        # Exact rational tick arithmetic: lcm denominator is 2, not 14.
        assert machine.ticks_per_cycle == 2


class TestMachineConfigIntegration:
    def test_default_topology_is_torus(self):
        cfg = MachineConfig(shape=(2, 2, 2))
        assert cfg.topology == "torus"
        assert isinstance(cfg.make_topology(), TorusTopology)

    def test_2d_config_shape_normalized(self):
        cfg = MachineConfig(shape=(4, 2), topology="mesh")
        assert cfg.shape == (4, 2, 1)

    def test_mesh_machine_has_no_wrap_links(self):
        machine = Machine(
            MachineConfig(shape=(3, 3), topology="mesh", endpoints_per_chip=1)
        )
        x_neg = next(d for d in TORUS_DIRECTIONS if d.dim == 0 and d.sign < 0)
        assert machine.neighbor((0, 0, 0), x_neg) is None
        # 2 dims x 2 radix-3 lines x (3-1) hops x 3 columns... count edges:
        # a KxK mesh has 2*K*(K-1) bidirectional = 4*K*(K-1) directed node
        # links, times NUM_SLICES channel slices.
        from repro.core import params as p
        from repro.core.machine import ChannelKind

        internode = [k for k in machine.channel_kind if k == ChannelKind.TORUS]
        assert len(internode) == 4 * 3 * (3 - 1) * p.NUM_SLICES

    def test_describe_names_topology(self):
        mesh = Machine(
            MachineConfig(shape=(3, 3), topology="mesh", endpoints_per_chip=1)
        )
        assert "mesh 3x3" in mesh.describe()
        torus = Machine(
            MachineConfig(shape=(2, 2, 2), endpoints_per_chip=1)
        )
        assert "torus" not in torus.describe()  # legacy wording unchanged
        assert "2x2x2" in torus.describe()

    def test_unknown_topology_rejected_at_config(self):
        with pytest.raises(ValueError, match="unknown topology"):
            MachineConfig(shape=(2, 2, 2), topology="hypercube")


class TestFaultSetTopologyBinding:
    def test_sampler_records_topology(self):
        machine = Machine(
            MachineConfig(shape=(3, 3), topology="mesh", endpoints_per_chip=1)
        )
        fault_set = sample_link_faults(machine, k=2, seed=7)
        assert fault_set.topology == "mesh"
        fault_set.validate(machine)

    def test_json_roundtrip_preserves_topology(self):
        machine = Machine(
            MachineConfig(shape=(2, 2), topology="chiplet", endpoints_per_chip=1)
        )
        fault_set = sample_link_faults(machine, k=1, seed=3)
        restored = FaultSet.from_json(fault_set.to_json())
        assert restored.topology == "chiplet"
        assert restored == fault_set

    def test_torus_json_has_no_topology_key(self):
        # Byte-compatibility: torus fault files serialize exactly as
        # before the topology field existed.
        machine = Machine(MachineConfig(shape=(2, 2, 2), endpoints_per_chip=1))
        fault_set = sample_link_faults(machine, k=1, seed=3)
        assert '"topology"' not in fault_set.to_json()
        assert FaultSet.from_json(fault_set.to_json()).topology == "torus"

    def test_cross_topology_fault_set_rejected(self):
        mesh = Machine(
            MachineConfig(shape=(3, 3), topology="mesh", endpoints_per_chip=1)
        )
        torus = Machine(
            MachineConfig(shape=(3, 3, 1), endpoints_per_chip=1)
        )
        fault_set = sample_link_faults(torus, k=1, seed=5)
        with pytest.raises(ValueError, match="drawn for topology 'torus'"):
            fault_set.validate(mesh)
