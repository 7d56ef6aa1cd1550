"""Tests for the declarative fault model: specs, sets, JSON, sampling."""

import json

import pytest

from repro.core.machine import ChannelGroup, ChannelKind, group_of
from repro.faults import (
    FAULT_SCHEMA_VERSION,
    FaultSet,
    FaultSpec,
    failable_channels,
    sample_link_faults,
)


class TestFaultSpec:
    def test_link_needs_channel(self):
        with pytest.raises(ValueError, match="channel"):
            FaultSpec(kind="link")

    def test_node_needs_chip(self):
        with pytest.raises(ValueError, match="chip"):
            FaultSpec(kind="node")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            FaultSpec(kind="gamma-ray", channel=0)

    def test_up_must_follow_down(self):
        with pytest.raises(ValueError, match="up_cycle"):
            FaultSpec(kind="link", channel=3, down_cycle=10, up_cycle=10)

    def test_dict_round_trip(self):
        spec = FaultSpec(kind="link", channel=17, down_cycle=5, up_cycle=50)
        assert FaultSpec.from_dict(spec.to_dict()) == spec
        node = FaultSpec(kind="node", chip=(1, 2, 0))
        assert FaultSpec.from_dict(node.to_dict()) == node

    def test_node_fault_covers_all_non_endpoint_channels(self, tiny_machine):
        spec = FaultSpec(kind="node", chip=(0, 0, 0))
        cids = spec.channels_on(tiny_machine)
        assert cids
        components = tiny_machine.components

        def touches_chip(cid):
            return (0, 0, 0) in (
                components[tiny_machine.channel_src[cid]].chip,
                components[tiny_machine.channel_dst[cid]].chip,
            )

        for cid in cids:
            assert group_of(tiny_machine.channel_kind[cid]) != ChannelGroup.E
            assert touches_chip(cid)
        # Every non-E channel touching the chip is included.
        expected = sum(
            1
            for cid, kind in enumerate(tiny_machine.channel_kind)
            if group_of(kind) != ChannelGroup.E and touches_chip(cid)
        )
        assert len(cids) == expected


class TestFaultSetValidation:
    def test_shape_mismatch_rejected(self, tiny_machine):
        fault_set = FaultSet(
            specs=(FaultSpec(kind="link", channel=0),), shape=(3, 3, 3)
        )
        with pytest.raises(ValueError, match="shape"):
            fault_set.validate(tiny_machine)

    def test_endpoint_link_cannot_fail(self, tiny_machine):
        ep_link = next(
            cid
            for cid, kind in enumerate(tiny_machine.channel_kind)
            if group_of(kind) == ChannelGroup.E
        )
        fault_set = FaultSet(specs=(FaultSpec(kind="link", channel=ep_link),))
        with pytest.raises(ValueError, match="endpoint"):
            fault_set.validate(tiny_machine)

    def test_unknown_channel_rejected(self, tiny_machine):
        fault_set = FaultSet(
            specs=(FaultSpec(kind="link", channel=len(tiny_machine.channel_kind)),)
        )
        with pytest.raises(ValueError, match="channel"):
            fault_set.validate(tiny_machine)

    def test_chip_outside_shape_rejected(self, tiny_machine):
        fault_set = FaultSet(specs=(FaultSpec(kind="node", chip=(5, 0, 0)),))
        with pytest.raises(ValueError, match="outside"):
            fault_set.validate(tiny_machine)


class TestFaultSetViews:
    def test_initial_failed_only_cycle_zero(self, tiny_machine):
        torus = failable_channels(tiny_machine)
        fault_set = FaultSet(
            specs=(
                FaultSpec(kind="link", channel=torus[0]),
                FaultSpec(kind="link", channel=torus[1], down_cycle=100),
            )
        )
        assert fault_set.initial_failed(tiny_machine) == {torus[0]}

    def test_timeline_sorted_downs_before_ups(self, tiny_machine):
        torus = failable_channels(tiny_machine)
        fault_set = FaultSet(
            specs=(
                FaultSpec(
                    kind="link", channel=torus[1], down_cycle=50, up_cycle=100
                ),
                FaultSpec(kind="link", channel=torus[0], down_cycle=100),
            )
        )
        assert fault_set.timeline(tiny_machine) == [
            (50, torus[1], True),
            (100, torus[0], True),
            (100, torus[1], False),
        ]

    def test_all_channels_includes_scheduled(self, tiny_machine):
        torus = failable_channels(tiny_machine)
        fault_set = FaultSet(
            specs=(
                FaultSpec(kind="link", channel=torus[0]),
                FaultSpec(kind="link", channel=torus[1], down_cycle=100),
            )
        )
        assert fault_set.all_channels(tiny_machine) == {torus[0], torus[1]}


class TestJsonRoundTrip:
    def test_exact_round_trip(self, tiny_machine):
        fault_set = sample_link_faults(tiny_machine, 3, seed=42, note="rt")
        text = fault_set.to_json()
        assert FaultSet.from_json(text) == fault_set
        # Canonical rendering: a second serialization is byte-identical.
        assert FaultSet.from_json(text).to_json() == text

    def test_schema_version_pinned(self):
        bad = json.dumps({"version": FAULT_SCHEMA_VERSION + 1, "faults": []})
        with pytest.raises(ValueError, match="version"):
            FaultSet.from_json(bad)


class TestSampler:
    def test_same_seed_same_set(self, tiny_machine):
        a = sample_link_faults(tiny_machine, 4, seed=9)
        b = sample_link_faults(tiny_machine, 4, seed=9)
        assert a == b

    def test_different_seed_differs(self, tiny_machine):
        a = sample_link_faults(tiny_machine, 4, seed=9)
        b = sample_link_faults(tiny_machine, 4, seed=10)
        assert a != b

    def test_sampled_channels_have_requested_kind(self, tiny_machine):
        fault_set = sample_link_faults(
            tiny_machine, 3, seed=1, kinds=(ChannelKind.MESH,)
        )
        for spec in fault_set.specs:
            assert tiny_machine.channel_kind[spec.channel] == ChannelKind.MESH

    def test_oversampling_rejected(self, tiny_machine):
        torus = failable_channels(tiny_machine)
        with pytest.raises(ValueError, match="sample"):
            sample_link_faults(tiny_machine, len(torus) + 1, seed=0)

    def test_endpoint_kind_rejected(self, tiny_machine):
        with pytest.raises(ValueError, match="cannot fail"):
            failable_channels(tiny_machine, kinds=(ChannelKind.ROUTER_TO_EP,))
