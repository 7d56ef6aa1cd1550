"""Property tests for the deadlock proofs' one cycle finder.

:func:`repro.core.deadlock.find_cycle` decides every healthy, degraded
and single-link deadlock verdict, so it is checked here against an
independent reference (Kahn's algorithm) on random small digraphs, with
self-loops and repeated edges allowed.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.deadlock import find_cycle

node = st.integers(min_value=0, max_value=11)
digraphs = st.lists(st.tuples(node, node), max_size=40)


def kahn_acyclic(edges) -> bool:
    """The reference verdict: every node can be peeled off at indegree 0."""
    nodes = {n for edge in edges for n in edge}
    indegree = {n: 0 for n in nodes}
    for _src, dst in edges:
        indegree[dst] += 1
    ready = [n for n in nodes if indegree[n] == 0]
    peeled = 0
    while ready:
        src = ready.pop()
        peeled += 1
        for edge_src, dst in edges:
            if edge_src == src:
                indegree[dst] -= 1
                if indegree[dst] == 0:
                    ready.append(dst)
    return peeled == len(nodes)


@settings(max_examples=300)
@given(digraphs)
def test_none_exactly_when_acyclic(edges):
    assert (find_cycle(edges) is None) == kahn_acyclic(edges)


@settings(max_examples=300)
@given(digraphs)
def test_a_cycle_is_a_closed_walk_of_edges_over_distinct_nodes(edges):
    cycle = find_cycle(edges)
    if cycle is None:
        return
    assert cycle and len(set(cycle)) == len(cycle)
    present = set(edges)
    for here, after in zip(cycle, cycle[1:] + cycle[:1]):
        assert (here, after) in present


@given(digraphs)
def test_the_cycle_is_a_function_of_the_edge_sequence(edges):
    # Same edge sequence, node labels whose hashes order sets differently:
    # the cycle must map back label for label.
    relabel = {n: f"node-{n}" for n in range(12)}
    renamed = [(relabel[a], relabel[b]) for a, b in edges]
    cycle = find_cycle(edges)
    renamed_cycle = find_cycle(renamed)
    if cycle is None:
        assert renamed_cycle is None
    else:
        assert renamed_cycle == [relabel[n] for n in cycle]
