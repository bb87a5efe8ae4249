"""Max-flow: the input contract, and min cuts checked against enumeration."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from submodopt import _maxflow


def max_flow(n, arcs, s, t):
    """The max-flow of the (tail, head, capacity) triples arcs."""
    tails = np.array([u for u, _, _ in arcs], dtype=np.int64)
    heads = np.array([v for _, v, _ in arcs], dtype=np.int64)
    caps = np.array([c for _, _, c in arcs], dtype=np.float64)
    return _maxflow.max_flow(*_maxflow.residual_network(n, tails, heads, caps), s, t)


@pytest.mark.parametrize("n, arcs, s, t", [
    (2, [(0, 1, 1.0)], 0, 0),           # source == sink
    (2, [(0, 2, 1.0)], 0, 1),           # head outside 0..n-1
    (2, [(-1, 1, 1.0)], 0, 1),          # tail outside 0..n-1
    (2, [(1, 1, 1.0)], 0, 2),           # sink outside 0..n-1
])
def test_rejects_bad_nodes(n, arcs, s, t):
    with pytest.raises(ValueError):
        max_flow(n, arcs, s, t)


@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf, -1.0])
def test_rejects_bad_capacities(c):
    with pytest.raises(ValueError):
        max_flow(3, [(0, 1, 1.0), (1, 2, c)], 0, 2)
    with pytest.raises(ValueError):  # also on a self-loop, which is dropped
        max_flow(3, [(1, 1, c)], 0, 2)


def test_counts_on_a_path_and_a_diamond():
    r = max_flow(3, [(0, 1, 2.0), (1, 2, 1.0)], 0, 2)
    assert (r.value, r.phases, r.augmentations) == (1.0, 1, 1)
    assert r.source_side.tolist() == [True, True, False]
    assert r.sink_side.tolist() == [False, False, True]
    # two disjoint paths of length 2 are one level graph, two paths
    r = max_flow(4, [(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)], 0, 3)
    assert (r.value, r.phases, r.augmentations) == (2.0, 1, 2)


def test_saturation_threshold_scales_with_the_network():
    # a capacity of 1e-13 counts next to 1: the path carries it
    r = max_flow(3, [(0, 1, 1e-13), (1, 2, 1.0)], 0, 2)
    assert r.value == 1e-13
    assert r.source_side.tolist() == [True, False, False]
    assert r.sink_side.tolist() == [False, True, True]
    # and 0.5 left on an arc of 1 counts next to a path of 1e300
    r = max_flow(4, [(0, 1, 1e300), (1, 3, 1e300), (0, 2, 1.0), (2, 3, 0.5)], 0, 3)
    assert r.value == 1e300 + 0.5
    assert r.source_side.tolist() == [True, False, True, False]
    # capacities that sum past 1e308 overflow the flow value, not the cut
    r = max_flow(4, [(0, 1, 1e308), (1, 3, 1e308), (0, 2, 1e308), (2, 3, 1e308)], 0, 3)
    assert r.value == math.inf
    assert r.source_side.tolist() == [True, False, False, False]


def test_rejects_mismatched_arrays():
    with pytest.raises(ValueError, match="one length"):
        _maxflow.residual_network(2, np.array([0]), np.array([1, 1]), np.array([1.0]))
    with pytest.raises(TypeError, match="integers"):
        _maxflow.residual_network(2, np.array([0.5]), np.array([1]), np.array([1.0]))


@st.composite
def st_networks(draw):
    """(n, arcs, s, t, integral) at n <= 8 with capacities in {0, 1/4, ..., 4},
    or in {0, ..., 16} when integral: every sum is exact.  Self-loops,
    parallel arcs and zero arcs are all drawn, and short arc lists often
    leave no s-t path."""
    n = draw(st.integers(2, 8))
    s, t = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                         unique=True))
    integral = draw(st.booleans())
    node = st.integers(0, n - 1)
    arcs = draw(st.lists(st.tuples(node, node, st.integers(0, 16)),
                         max_size=4 * n))
    scale = 1.0 if integral else 0.25
    return n, [(u, v, k * scale) for u, v, k in arcs], s, t, integral


def min_cuts(n, arcs, s, t):
    """The minimum cut value and every source side attaining it."""
    others = [k for k in range(n) if k not in (s, t)]
    sides = []
    for bits in range(1 << len(others)):
        side = {s} | {k for j, k in enumerate(others) if bits >> j & 1}
        sides.append((sum(c for u, v, c in arcs if u in side and v not in side),
                      side))
    best = min(value for value, _ in sides)
    return best, [side for value, side in sides if value == best]


@settings(max_examples=300, deadline=None)
@given(case=st_networks())
@example(case=(4, [(0, 1, 1.0), (2, 3, 1.0), (1, 1, 2.0)], 0, 3, True))
@example(case=(3, [(0, 1, 0.5), (0, 1, 0.25), (1, 2, 1.0), (1, 2, 0.0),
                   (2, 1, 3.0)], 0, 2, False))
def test_max_flow_matches_enumerated_min_cuts(case):
    n, arcs, s, t, integral = case
    r = max_flow(n, arcs, s, t)
    best, sides = min_cuts(n, arcs, s, t)
    assert r.value == best
    nodes = set(range(n))
    assert set(np.flatnonzero(r.source_side)) == set.intersection(*sides)
    assert nodes - set(np.flatnonzero(r.sink_side)) == set.union(*sides)
    assert r.phases <= n - 1
    assert r.augmentations >= r.phases
    if integral:
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import maximum_flow

        kept = [(u, v, int(c)) for u, v, c in arcs if u != v]
        rows, cols, data = zip(*kept) if kept else ((), (), ())
        # csr_matrix sums parallel arcs
        graph = csr_matrix((np.array(data, dtype=np.int32), (rows, cols)),
                           shape=(n, n))
        assert r.value == maximum_flow(graph, s, t).flow_value
