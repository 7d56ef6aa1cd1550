"""The arbiter banks against the per-site arbiter objects.

The engine arbitrates over flat rows (:mod:`repro.arbiters.bank`); the
per-site classes are the standalone models those rows replaced on the hot
path, and stay as their oracle. Random request streams drive one site of
a bank -- with warmed neighbours either side, so a stray offset shows --
and the object built from the same configuration: after every grant the
two must have granted the same input and hold the same ``state()``.

``iw`` is held to the literal bit-level model of Figure 8
(``bit_exact=True``); the bank reports ``bit_exact`` ``False``, the one
key compared apart. Whatever state a stream leaves, the whole stage's
``state()`` -- what a checkpoint stores -- restores into a fresh bank
site for site. ``commit_all`` -- one stage's grants of a cycle in one
call -- leaves the state committing them one at a time would.
"""

import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arbiters.age_based import AgeBasedArbiter
from repro.arbiters.bank import (
    AgeBank,
    FixedPriorityBank,
    InverseWeightedBank,
    RoundRobinBank,
)
from repro.arbiters.base import SimpleRequest
from repro.arbiters.inverse_weighted import InverseWeightedArbiter
from repro.arbiters.round_robin import FixedPriorityArbiter, RoundRobinArbiter
from repro.arbiters.weights import WeightTable
from repro.core.machine import ArbiterSites

PLAIN = {
    "rr": (RoundRobinBank, RoundRobinArbiter),
    "age": (AgeBank, AgeBasedArbiter),
    "fixed": (FixedPriorityBank, FixedPriorityArbiter),
}


def three_sites(k):
    """Sites 3, 0 and 2 (1 is no site) of 2, ``k`` and 3 inputs, site 0
    in the middle of the rows."""
    return ArbiterSites(
        order=(3, 0, 2),
        offsets=(2, 0, 2 + k, 0),
        num_inputs=(k, 0, 3, 2),
        size=k + 5,
    )


def warm(bank):
    for site, index in ((3, 1), (2, 2), (2, 0), (3, 0)):
        bank.commit(site, index, SimpleRequest())


@st.composite
def request_stream(draw, max_pattern=0):
    k = draw(st.integers(min_value=1, max_value=6))
    request = st.builds(
        SimpleRequest,
        pattern=st.integers(min_value=0, max_value=max_pattern),
        inject_cycle=st.integers(min_value=0, max_value=5),
    )
    steps = draw(
        st.lists(
            st.lists(st.none() | request, min_size=k, max_size=k), max_size=120
        )
    )
    return k, steps


def assert_lockstep(bank, oracle, steps, same_state):
    neighbours = [bank.site_state(site) for site in (3, 2)]
    for requests in steps:
        entries = [
            (index, request)
            for index, request in enumerate(requests)
            if request is not None
        ]
        granted = bank.peek(0, entries)
        expected = oracle.peek(requests)
        if expected is None:
            assert granted is None
            continue
        assert granted == (expected, requests[expected])
        bank.commit(0, *granted)
        oracle.commit(expected, requests[expected])
        same_state(bank.site_state(0), oracle.state())
        assert bank.grants_of(0) == oracle.grants
    assert [bank.site_state(site) for site in (3, 2)] == neighbours


def assert_stage_round_trips(bank, fresh):
    state = bank.state()
    fresh.restore(json.loads(json.dumps(state)))
    assert fresh.state() == state
    assert [fresh.site_state(site) for site in fresh.order] == [
        bank.site_state(site) for site in bank.order
    ]


class TestBankMatchesObjects:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(PLAIN)), request_stream())
    def test_plain_policies(self, policy, stream):
        k, steps = stream
        bank_cls, oracle_cls = PLAIN[policy]
        bank = bank_cls(three_sites(k))
        warm(bank)

        def same_state(ours, theirs):
            assert ours == theirs

        assert_lockstep(bank, oracle_cls(k), steps, same_state)
        assert_stage_round_trips(bank, bank_cls(three_sites(k)))

    @settings(max_examples=120, deadline=None)
    @given(
        # Patterns 0..3 against tables of 1..3: beyond-the-table packets
        # (charged the last pattern's weight) are in every run of length.
        request_stream(max_pattern=3),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=2, max_value=6),
        st.data(),
    )
    def test_inverse_weighted_against_the_bit_level_model(
        self, stream, patterns, bits, data
    ):
        k, steps = stream
        # Weights in the upper half of the range, so accumulators cross
        # the window -- a low-priority grant, the slide -- within a few
        # grants of any run.
        weight = st.integers(min_value=1 << (bits - 1), max_value=(1 << bits) - 1)
        rows = st.lists(weight, min_size=patterns, max_size=patterns)
        weights = data.draw(st.lists(rows, min_size=k, max_size=k))
        sites = three_sites(k)
        tables = {
            0: WeightTable(weights, bits, 1.0),
            2: WeightTable([[1] * patterns] * 3, bits, 1.0),
        }
        bank = InverseWeightedBank(sites, tables)
        warm(bank)
        oracle = InverseWeightedArbiter(weights, bits, bit_exact=True)

        def same_state(ours, theirs):
            assert theirs.pop("bit_exact") and not ours.pop("bit_exact")
            assert ours == theirs

        assert_lockstep(bank, oracle, steps, same_state)
        assert all(
            0 <= value < 2 << bits for value in bank.accumulators
        )
        assert_stage_round_trips(
            bank,
            InverseWeightedBank(sites, num_patterns=patterns, weight_bits=bits),
        )

    def test_window_slide_and_clamp_by_hand(self):
        # M = 2: window 4. Input 0 is granted twice (3 + 3 = 6 >= 4, low
        # priority), then alone again: the window slides, input 1's 1
        # clamps to 0, input 0 keeps 6 & 3 = 2 and adds its weight.
        sites = ArbiterSites(order=(0,), offsets=(0,), num_inputs=(2,), size=2)
        bank = InverseWeightedBank(sites, {0: WeightTable([[3], [1]], 2, 1.0)})
        oracle = InverseWeightedArbiter([[3], [1]], 2, bit_exact=True)
        request = SimpleRequest(pattern=9)  # beyond the table: clamped
        for index in (0, 1, 0, 0):
            bank.commit(0, index, request)
            oracle.commit(index, request)
        assert bank.site_state(0)["accumulators"] == [5, 0]
        assert bank.site_state(0)["accumulators"] == oracle.state()["accumulators"]
        assert bank.site_state(0)["pointer"] == oracle.state()["pointer"] == 0


class TestDebtAgainstTheObjects:
    """``iw``'s window slide is booked as a per-site debt; over a stream
    long enough for every site's debt to pass many windows, each site
    still grants what its object grants and reports the object's state
    at every step, across a mid-stream ``state()`` -> ``restore()``."""

    GRANTS = 10_000  # a site

    def test_ten_thousand_grants_a_site(self):
        rng = random.Random(35)
        bits, patterns = 3, 2
        sites = three_sites(5)
        counts = {3: 2, 0: 5, 2: 3}
        # Upper-half weights: most grants cross the window.
        tables = {
            site: WeightTable(
                [[rng.randrange(4, 8) for _ in range(patterns)] for _ in range(k)],
                bits, 1.0,
            )
            for site, k in counts.items()
        }
        bank = InverseWeightedBank(sites, tables)
        oracles = {
            site: InverseWeightedArbiter(table.inverse_weights, bits)
            for site, table in tables.items()
        }
        granted = dict.fromkeys(counts, 0)
        restored = False
        while min(granted.values()) < self.GRANTS:
            site = rng.choice(sorted(counts))
            requests = [
                SimpleRequest(pattern=rng.randrange(patterns + 1))
                if rng.random() < 0.7 else None
                for _ in range(counts[site])
            ]
            entries = [(i, r) for i, r in enumerate(requests) if r is not None]
            expected = oracles[site].peek(requests)
            if expected is None:
                assert bank.peek(site, entries) is None
                continue
            assert bank.peek(site, entries) == (expected, requests[expected])
            bank.commit(site, expected, requests[expected])
            oracles[site].commit(expected, requests[expected])
            assert bank.site_state(site) == oracles[site].state()
            granted[site] += 1
            if not restored and granted[site] == self.GRANTS // 2:
                # Mid-stream, every debt far past a window: the stage
                # saves and restores as the objects' states.
                assert min(bank.debt[s] for s in counts) > 100 * bank.window
                fresh = InverseWeightedBank(
                    sites, num_patterns=patterns, weight_bits=bits
                )
                fresh.restore(json.loads(json.dumps(bank.state())))
                bank, restored = fresh, True
                assert [bank.site_state(s) for s in counts] == [
                    oracles[s].state() for s in counts
                ]
        assert restored
        assert min(bank.debt[s] for s in counts) > 100 * bank.window


def make_bank(policy, k, data):
    if policy != "iw":
        return lambda: PLAIN[policy][0](three_sites(k))
    bits = data.draw(st.integers(min_value=2, max_value=4))
    patterns = data.draw(st.integers(min_value=1, max_value=3))
    weight = st.integers(min_value=1 << (bits - 1), max_value=(1 << bits) - 1)
    rows = st.lists(weight, min_size=patterns, max_size=patterns)
    tables = {
        0: WeightTable(data.draw(st.lists(rows, min_size=k, max_size=k)), bits, 1.0),
        2: WeightTable(data.draw(st.lists(rows, min_size=3, max_size=3)), bits, 1.0),
    }
    return lambda: InverseWeightedBank(three_sites(k), tables)


class TestCommitAll:
    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from(["fixed", "rr", "age", "iw"]),
        st.integers(min_value=1, max_value=6),
        st.data(),
    )
    def test_matches_committing_one_grant_at_a_time(self, policy, k, data):
        make = make_bank(policy, k, data)
        inputs = {3: 2, 0: k, 2: 3}
        request = st.builds(
            SimpleRequest,
            pattern=st.integers(min_value=0, max_value=3),
            inject_cycle=st.integers(min_value=0, max_value=5),
        )
        # Sites repeat within a stream: a batch is applied in order.
        grants = data.draw(
            st.lists(
                st.sampled_from(sorted(inputs)).flatmap(
                    lambda site: st.tuples(
                        st.just(site),
                        st.integers(min_value=0, max_value=inputs[site] - 1),
                        request,
                    )
                ),
                max_size=60,
            )
        )
        cuts = sorted(data.draw(st.lists(st.integers(0, len(grants)), max_size=4)))
        batched, single = make(), make()
        warm(batched)
        warm(single)
        for site, index, request in grants:
            single.commit(site, index, request)
        for start, stop in zip([0] + cuts, cuts + [len(grants)]):
            chunk = grants[start:stop]
            batched.commit_all(
                [g[0] for g in chunk], [g[1] for g in chunk], [g[2] for g in chunk]
            )
        assert batched.state() == single.state()
        assert [batched.site_state(site) for site in batched.order] == [
            single.site_state(site) for site in single.order
        ]
