"""Mechanical deadlock re-verification on degraded topologies.

The Section 2.5 dateline argument covers healthy routing; these tests
pin its degraded extensions: the resolved route set of any sampled fault
set keeps the channel-dependency graph acyclic, the exhaustive
single-link-failure property holds, and removing the dateline VCs
(``unsafe-single``) still deadlocks on a degraded machine -- faults do
not accidentally break the cycles that make the scheme necessary.
"""

import pytest

from repro.core import deadlock
from repro.core.machine import ChannelKind, Machine, MachineConfig
from repro.faults import (
    FaultAwareRouteComputer,
    FaultSet,
    FaultSpec,
    degraded_report,
    sample_link_faults,
    verify_single_link_failures,
)


class TestDegradedReport:
    def test_sampled_faults_stay_deadlock_free(self, odd_machine):
        fault_set = sample_link_faults(odd_machine, 3, seed=7)
        report = degraded_report(odd_machine, fault_set, endpoints_per_chip=1)
        assert report.deadlock_free
        assert report.routes > 0

    def test_node_fault_stays_deadlock_free(self, odd_machine):
        fault_set = FaultSet(specs=(FaultSpec(kind="node", chip=(1, 1, 1)),))
        report = degraded_report(odd_machine, fault_set, endpoints_per_chip=1)
        assert report.deadlock_free

    def test_scheduled_faults_use_most_degraded_topology(self, tiny_machine):
        # A mid-run-only fault must still be part of the verified set:
        # the report covers every channel the run can ever lose.
        from repro.faults.model import failable_channels

        torus = failable_channels(tiny_machine)
        fault_set = FaultSet(
            specs=(FaultSpec(kind="link", channel=torus[0], down_cycle=500),)
        )
        report = degraded_report(tiny_machine, fault_set, endpoints_per_chip=1)
        assert report.deadlock_free


class TestSingleLinkFailures:
    def test_tiny_machine_all_torus_failures_acyclic(self, tiny_machine):
        report = verify_single_link_failures(tiny_machine)
        assert report.checked == len(
            [k for k in tiny_machine.channel_kind if k == ChannelKind.TORUS]
        )
        assert report.all_acyclic
        assert not report.unroutable
        # Any single torus failure resolves within the existing legal
        # choice set -- no non-minimal or detour escalations needed.
        assert not report.escalations

    @pytest.mark.slow
    def test_3x3x3_every_single_torus_failure_acyclic(self):
        """The acceptance property: VC promotion keeps the dependency
        graph acyclic under every single torus-link failure of a 3x3x3
        machine, with no pair left unroutable."""
        machine = Machine(MachineConfig(shape=(3, 3, 3), endpoints_per_chip=1))
        report = verify_single_link_failures(machine)
        assert report.checked == 324
        assert report.all_acyclic
        assert not report.unroutable
        assert not report.escalations


class TestUnsafeSchemeStillDeadlocks:
    def test_no_dateline_ablation_cyclic_with_faults(self):
        # Degrading the machine must not be mistaken for a fix: with the
        # dateline VCs ablated, the degraded route set still has cycles.
        machine = Machine(
            MachineConfig(
                shape=(4, 2, 2), endpoints_per_chip=1, vc_scheme="unsafe-single"
            )
        )
        fault_set = sample_link_faults(machine, 2, seed=5)
        computer = FaultAwareRouteComputer(machine)
        computer.set_failed(fault_set.all_channels(machine))
        routes = deadlock.enumerate_routes(
            machine, computer, endpoints_per_chip=1, skip_unroutable=True
        )
        report = deadlock.analyze_routes(machine, routes)
        assert not report.deadlock_free
        assert report.cycle
