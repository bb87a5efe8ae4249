"""Cuts, covers, flows, concave families, log-det, matroid ranks."""

import math
import tracemalloc

import numpy as np
import pytest

import submodopt as so

from helpers import address_space_limit, cover_lovasz_ref, cut_lovasz_ref


def sym_digraph(p, edges):
    arcs = []
    for u, v, w in edges:
        arcs += [(u, v, w), (v, u, w)]
    return so.Digraph(p, arcs)


def test_cut_examples():
    g = sym_digraph(2, [(0, 1, 1.0)])
    F = so.cut_function(g)
    assert np.array_equal(so.to_explicit(F), [0.0, 1.0, 1.0, 0.0])
    assert cut_lovasz_ref(g, [2.0, 0.5]) == pytest.approx(1.5, abs=1e-12)
    grid = sym_digraph(4, [(0, 1, 1.0), (2, 3, 1.0), (0, 2, 1.0), (1, 3, 1.0)])
    Fg = so.cut_function(grid)
    assert Fg(0b0001) == 2.0


def test_cut_lovasz_matches_generic():
    rng = np.random.default_rng(0)
    for seed in range(4):
        grng = np.random.default_rng(seed + 50)
        arcs = [(i, j, float(grng.random()))
                for i in range(6) for j in range(6)
                if i != j and grng.random() < 0.5]
        g = so.Digraph(6, arcs)
        F = so.cut_function(g)
        for _ in range(50):
            w = rng.standard_normal(6)
            fast = cut_lovasz_ref(g, w)
            ref = so.lovasz_extension(F, w)
            assert fast == pytest.approx(ref, rel=1e-10, abs=1e-12)


def test_cut_minimize_examples():
    g = sym_digraph(2, [(0, 1, 1.0)])
    # enumeration oracle: F - z over the four subsets is [0, -1, 1, -2],
    # so the unique minimizer is the full set at value -2
    res = so.cut_minimize(g, [2.0, 0.0])
    assert res.min_value == -2.0
    assert res.minimal_minimizer == res.maximal_minimizer == 0b11

    res0 = so.cut_minimize(g, [0.0, 0.0])
    assert res0.min_value == 0.0
    assert res0.minimal_minimizer == 0

    lonely = so.Digraph(1, [])
    res1 = so.cut_minimize(lonely, [3.0])
    assert res1.min_value == -3.0
    assert res1.maximal_minimizer == 0b1


def test_cut_minimize_matches_brute():
    for seed in range(40):
        p = 4 + seed % 7
        rng = np.random.default_rng(seed + 100)
        arcs = [(i, j, float(rng.integers(1, 1 << 12)) / 4096.0)
                for i in range(p) for j in range(p)
                if i != j and rng.random() < 0.45]
        g = so.Digraph(p, arcs)
        z = rng.integers(-(1 << 12), 1 << 12, size=p).astype(float) / 4096.0
        res = so.cut_minimize(g, z)
        F = so.cut_function(g)
        shifted = so.add_modular(F, -z)
        ref = so.minimize(shifted, backend="brute")
        assert res.min_value == pytest.approx(ref.min_value, abs=1e-9)
        assert res.maximal_minimizer == ref.maximal_minimizer
        assert res.minimal_minimizer == ref.minimal_minimizer


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_weights_rejected(bad):
    with pytest.raises(ValueError, match="not finite"):
        so.Digraph(2, [(0, 1, bad)])
    with pytest.raises(ValueError, match="not finite"):
        so.FlowNetwork(n_nodes=3, sources=(0,), sinks=(2,),
                       arcs=[(0, 1, 1.0), (1, 2, bad)])
    with pytest.raises(ValueError, match="finite"):
        so.cut_minimize(sym_digraph(2, [(0, 1, 1.0)]), [1.0, bad])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_numbers_rejected_by_every_constructor(bad):
    # NaN slips through the sign checks (nan < 0 is False), so each
    # constructor checks finiteness first
    cases = [
        lambda: so.CoverSystem(2, [(0b11, 1.0), (0b01, bad)]),
        lambda: so.weighted_concave([1.0, bad], "sqrt"),
        lambda: so.concave_cardinality([0.0, 1.0, bad]),
        lambda: so.logdet_function([[2.0, bad], [bad, 2.0]]),
        lambda: so.linear_matroid_rank([[1.0, 0.0], [bad, 1.0]]),
    ]
    for build in cases:
        with pytest.raises(ValueError, match="must be finite"):
            build()


def test_cover_examples():
    c = so.CoverSystem(2, [(0b11, 1.0)])
    F = so.cover_function(c)
    assert np.array_equal(so.to_explicit(F), [0.0, 1.0, 1.0, 1.0])
    assert cover_lovasz_ref(c, [3.0, 1.0]) == 3.0
    t = [0.5, 1.5, 0.25]
    singles = so.CoverSystem(3, [(1 << k, t[k]) for k in range(3)])
    assert np.array_equal(so.to_explicit(so.cover_function(singles)),
                          so.to_explicit(so.modular_function(t)))


def test_cover_lovasz_matches_generic():
    rng = np.random.default_rng(1)
    c = so.CoverSystem(5, [(int(rng.integers(1, 32)), float(rng.random()))
                           for _ in range(8)])
    F = so.cover_function(c)
    for _ in range(40):
        w = np.abs(rng.standard_normal(5))
        assert cover_lovasz_ref(c, w) == pytest.approx(
            so.lovasz_extension(F, w), rel=1e-10, abs=1e-12)


def test_flow_examples():
    direct = so.FlowNetwork(n_nodes=3, sources=(0,), sinks=(1, 2),
                            arcs=[(0, 1, 1.0), (0, 2, 1.0)])
    assert np.array_equal(so.to_explicit(so.flow_function(direct)),
                          [0.0, 1.0, 1.0, 2.0])
    bottleneck = so.FlowNetwork(n_nodes=4, sources=(0,), sinks=(2, 3),
                                arcs=[(0, 1, 1.0), (1, 2, 1.0), (1, 3, 1.0)])
    assert np.array_equal(so.to_explicit(so.flow_function(bottleneck)),
                          [0.0, 1.0, 1.0, 1.0])


def test_flow_properties():
    rng = np.random.default_rng(2)
    net = so.FlowNetwork(
        n_nodes=7, sources=(0, 1), sinks=(4, 5, 6),
        arcs=[(int(u), int(v), float(rng.random()))
              for u in range(7) for v in range(7)
              if u != v and rng.random() < 0.4])
    F = so.flow_function(net)
    assert so.is_submodular(F, tol=1e-9).holds
    assert so.is_monotone(F, tol=1e-9).holds


def test_flow_n_nodes_sizes_no_allocation():
    # the max-flows run on the nodes that sources, sinks and arcs name, so a
    # network numbered up to 10**8 costs what its used nodes cost
    arcs = [(0, 1, 1.0), (0, 2, 2.0)]
    small = so.to_explicit(so.flow_function(so.FlowNetwork(3, (0,), (1, 2), arcs)))
    tracemalloc.start()
    try:
        with address_space_limit():
            huge = so.to_explicit(so.flow_function(
                so.FlowNetwork(10 ** 8, (0,), (1, 2), arcs)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
    assert np.array_equal(huge, small)
    # the same random network with its seven nodes spread over 10**8 ids,
    # in another order: the same values bit for bit
    rng = np.random.default_rng(2)
    arcs = [(int(u), int(v), float(rng.random()))
            for u in range(7) for v in range(7) if u != v and rng.random() < 0.4]
    spread = rng.choice(10 ** 8, size=7, replace=False).tolist()
    net = so.FlowNetwork(7, (0, 1), (4, 5, 6), arcs)
    moved = so.FlowNetwork(10 ** 8, (spread[0], spread[1]), tuple(spread[4:]),
                           [(spread[u], spread[v], w) for u, v, w in arcs])
    with address_space_limit():
        moved_table = so.to_explicit(so.flow_function(moved))
    assert np.array_equal(moved_table, so.to_explicit(so.flow_function(net)))


def test_flow_equals_partial_min_of_cut():
    # sources contracted into the kept side, sinks as the ground set:
    # minimizing the cut over the middle nodes reproduces the flow value
    net = so.FlowNetwork(n_nodes=4, sources=(0,), sinks=(2, 3),
                         arcs=[(0, 1, 1.0), (1, 2, 1.0), (1, 3, 1.0)])
    F = so.flow_function(net)
    # direct min-cut enumeration on the same network
    for mask in range(4):
        sinks = [net.sinks[k] for k in so.elements_of(mask)]
        best = math.inf
        for x in range(1 << 4):
            if not (x & 1):      # source must stay on the left side
                continue
            if any(x & (1 << t) for t in sinks):
                continue
            cut = sum(c for u, v, c in net.arcs
                      if (x & (1 << u)) and not (x & (1 << v)))
            best = min(best, cut)
        assert F(mask) == pytest.approx(0.0 if mask == 0 else best, abs=1e-12)


def _sink_side_in_cut(net):
    """In-cut of the sink side as a cut-plus-modular build on non-source nodes.

    With Y the sink side of a source/sink cut, its capacity is the cut of
    the reversed internal arcs at Y plus a modular term for the source
    arcs.  Returns the function and the local index of each original node.
    """
    nodes = [v for v in range(net.n_nodes) if v not in net.sources]
    local = {v: i for i, v in enumerate(nodes)}
    reversed_arcs = [(local[v], local[u], c) for u, v, c in net.arcs
                     if u in local and v in local]
    in_cut = so.cut_function(so.Digraph(len(nodes), reversed_arcs))
    source_caps = np.zeros(len(nodes))
    for u, v, c in net.arcs:
        if u in net.sources and v in local:
            source_caps[local[v]] += c
    return so.add_modular(in_cut, source_caps), local


def test_flow_matches_partial_min_transform():
    # the bottleneck flow is exactly a partial minimization of its in-cut
    # over the middle node (extra sinks on the cut side can never help here)
    net = so.FlowNetwork(n_nodes=4, sources=(0,), sinks=(2, 3),
                         arcs=[(0, 1, 1.0), (1, 2, 1.0), (1, 3, 1.0)])
    F = so.flow_function(net)
    H, local = _sink_side_in_cut(net)
    middle = so.subset_of(local[v] for v in local if v not in net.sinks)
    G = so.partial_min(H, middle)
    kept = so.elements_of(so.complement(middle, H.p))
    order = [kept.index(local[t]) for t in net.sinks]
    for mask in range(1 << F.p):
        lifted = so.subset_of(order[k] for k in so.elements_of(mask))
        assert F(mask) == pytest.approx(G(lifted), abs=1e-12)


def test_flow_matches_monotonized_in_cut():
    # in general the cut side may also absorb sinks outside A, so the flow
    # is the monotonized in-cut restricted to the sink coordinates
    rng = np.random.default_rng(17)
    net = so.FlowNetwork(
        n_nodes=7, sources=(0, 1), sinks=(4, 5, 6),
        arcs=[(int(u), int(v), float(rng.integers(1, 16)) / 4.0)
              for u in range(7) for v in range(7)
              if u != v and rng.random() < 0.4])
    F = so.flow_function(net)
    H, local = _sink_side_in_cut(net)
    sinks = so.subset_of(local[t] for t in net.sinks)
    G = so.restrict(so.monotonize(H), sinks)
    order = [so.elements_of(sinks).index(local[t]) for t in net.sinks]
    for mask in range(1 << F.p):
        lifted = so.subset_of(order[k] for k in so.elements_of(mask))
        assert F(mask) == pytest.approx(G(lifted), abs=1e-9)


def test_concave_cardinality_examples():
    ident = so.concave_cardinality([0.0, 1.0, 2.0, 3.0])
    assert np.array_equal(so.to_explicit(ident),
                          so.to_explicit(so.SetFunction(3, lambda m: float(
                              int(m).bit_count()))))
    f_or = so.concave_cardinality([0.0, 1.0, 1.0])
    assert np.array_equal(so.to_explicit(f_or), [0.0, 1.0, 1.0, 1.0])
    got = so.lovasz_extension(so.concave_cardinality([0.0, 1.0, math.sqrt(2)]),
                              [4.0, 1.0])
    assert got == pytest.approx(4.0 + math.sqrt(2) - 1.0, abs=1e-12)


def test_concave_validation():
    with pytest.raises(ValueError, match=r"g\(0\) = 1\.0, must be 0"):
        so.concave_cardinality([1.0, 2.0])
    with pytest.raises(ValueError, match="increments of g must be non-increasing"):
        so.concave_cardinality([0.0, 1.0, 3.0])


def test_weighted_concave():
    rng = np.random.default_rng(3)
    s = np.abs(rng.standard_normal(5))
    profiles = (("sqrt", None, np.sqrt), ("log1p", None, np.log1p),
                ("cap", 1.2, lambda x: np.minimum(x, 1.2)))
    for kind, cap, g in profiles:
        F = so.weighted_concave(s, kind, cap)
        assert so.is_submodular(F, tol=1e-9).holds
        assert so.is_monotone(F, tol=1e-9).holds
        for _ in range(20):
            w = rng.standard_normal(5)
            # increments of g along the partial sums of s in decreasing w
            order = np.argsort(-w, kind="stable")
            steps = np.diff(g(np.concatenate([[0.0], np.cumsum(s[order])])))
            assert so.lovasz_extension(F, w) == pytest.approx(
                float(np.sum(w[order] * steps)), rel=1e-10, abs=1e-12)


def test_logdet_examples():
    assert np.array_equal(so.to_explicit(so.logdet_function(np.eye(3))),
                          np.zeros(8))
    F = so.logdet_function(np.diag([math.e, math.e]))
    assert np.allclose(so.to_explicit(F), [0.0, 1.0, 1.0, 2.0], atol=1e-12)
    rng = np.random.default_rng(4)
    r = rng.standard_normal((6, 6))
    Q = r @ r.T + np.eye(6)
    assert so.is_submodular(so.logdet_function(Q), tol=1e-9).holds
    with pytest.raises(ValueError, match="Q is not positive definite"):
        so.logdet_function(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ValueError, match="Q must be symmetric"):
        so.logdet_function(np.array([[1.0, 0.5], [0.4, 1.0]]))


@pytest.mark.parametrize("build, message", [
    (lambda: so.Digraph(2, [(0.5, 1, 1.0)]), "arc end 0.5 is not an integer"),
    (lambda: so.Digraph(2, [(0, 2, 1.0)]), "arc end 2 out of range"),
    (lambda: so.FlowNetwork(3, sources=(0,), sinks=(1.5,)),
     "sink 1.5 is not an integer"),
    (lambda: so.FlowNetwork(3, sources=(3,), sinks=(1,)), "source 3 out of range"),
    (lambda: so.FlowNetwork(3, sources=(0,), sinks=(2,), arcs=[(0, 1.25, 1.0)]),
     "arc end 1.25 is not an integer"),
    (lambda: so.graphic_matroid_rank(3, [(0, 1.5)]), "edge end 1.5 is not an integer"),
    (lambda: so.graphic_matroid_rank(3, [(0, -1)]), "edge end -1 out of range"),
    (lambda: so.dep(so.modular_function([1.0, 2.0]), [1.0, 2.0], 0.5),
     "element 0.5 is not an integer"),
])
def test_node_indices_must_be_integral_and_in_range(build, message):
    # before, int() truncated each of the non-integral ones to a node, so the
    # function answered for another graph, and out-of-range sources and sinks
    # were taken as they came
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def test_weighted_concave_profile_takes_only_its_own_cap():
    # a cap given to the sqrt or log1p profile used to be ignored unchecked
    for kind in ("sqrt", "log1p"):
        with pytest.raises(ValueError,
                           match=f"^the '{kind}' profile takes no cap value, got -5$"):
            so.weighted_concave([1.0, 2.0], kind, -5)
    with pytest.raises(ValueError, match="^the 'cap' profile needs a nonnegative cap value$"):
        so.weighted_concave([1.0, 2.0], "cap", -5)
    with pytest.raises(ValueError, match="^the 'cap' profile needs a nonnegative cap value$"):
        so.weighted_concave([1.0, 2.0], "cap")


def test_graphic_matroid_examples():
    tri = so.graphic_matroid_rank(3, [(0, 1), (1, 2), (0, 2)])
    assert tri(0b111) == 2.0
    forest = so.graphic_matroid_rank(5, [(0, 1), (2, 3), (3, 4)])
    for m in range(1 << 3):
        assert forest(m) == float(int(m).bit_count())


def test_linear_matroid_examples():
    F = so.linear_matroid_rank(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]))
    assert F(0b111) == 2.0
    assert F(0b011) == 2.0
    assert F(0b100) == 1.0


def test_matroid_rank_axioms():
    rng = np.random.default_rng(5)
    edges = [(int(rng.integers(0, 5)), int(rng.integers(0, 5))) for _ in range(8)]
    edges = [(u, v) for u, v in edges if u != v][:8]
    graphic = so.graphic_matroid_rank(5, edges)
    mat = rng.integers(-2, 3, size=(3, 7)).astype(float)
    linear = so.linear_matroid_rank(mat)
    for F in (graphic, linear):
        assert F(0) == 0.0
        assert so.is_submodular(F, tol=1e-9).holds
        assert so.is_monotone(F, tol=1e-9).holds
        for m in range(1 << F.p):
            assert F(m) <= int(m).bit_count()
    # cross-check the linear rank against numpy
    for m in range(1 << 7):
        idx = so.elements_of(m)
        assert linear(m) == (np.linalg.matrix_rank(mat[:, idx]) if idx else 0)


def test_zoo_is_symmetric_posimodular_for_symmetric_cuts():
    g = sym_digraph(4, [(0, 1, 0.5), (1, 2, 1.5), (2, 3, 1.0), (0, 3, 2.0)])
    F = so.cut_function(g)
    assert so.is_symmetric(F).holds
    assert so.is_posimodular(F).holds
    assert so.is_submodular(F).holds
