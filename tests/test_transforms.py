"""Restriction, contraction, partial minimization, convolution, Moebius."""

import numpy as np
import pytest

import submodopt as so

from helpers import batch_subset_sums, dyadic, dyadic_cover, dyadic_digraph

F_OR = so.explicit_function([0.0, 1.0, 1.0, 1.0])
SYM_CUT2 = so.explicit_function([0.0, 1.0, 1.0, 0.0])


def path_cut(p):
    arcs = []
    for i in range(p - 1):
        arcs += [(i, i + 1, 1.0), (i + 1, i, 1.0)]
    return so.cut_function(so.Digraph(p, arcs))


def test_restrict_examples():
    r = so.restrict(F_OR, 0b01)
    assert r.p == 1 and r(1) == 1.0
    path = path_cut(3)
    r2 = so.restrict(path, 0b101)
    assert r2.p == 2
    assert r2(0b01) == 1.0
    assert r2(0b11) == 2.0
    full = so.restrict(F_OR, 0b11)
    assert np.array_equal(so.to_explicit(full), so.to_explicit(F_OR))


def test_contract_examples():
    c = so.contract(F_OR, 0b01)
    assert c.p == 1
    assert c(1) == 0.0
    t = so.modular_function([1.0, -2.0, 3.0])
    ct = so.contract(t, 0b010)
    assert ct.p == 2
    assert np.array_equal(so.to_explicit(ct), [0.0, 1.0, 3.0, 4.0])
    card = so.SetFunction(3, lambda m: float(int(m).bit_count()))
    cc = so.contract(card, 0b100)
    assert np.array_equal(so.to_explicit(cc), [0.0, 1.0, 1.0, 2.0])


def test_partial_min_examples():
    # path v0 - w - v1 with unit symmetric weights, minimized over w
    g = path_cut(3)
    F = so.partial_min(g, 0b010)
    assert F.p == 2
    assert F(0b01) == 1.0
    assert F(0b10) == 1.0
    assert F(0b11) == 0.0
    # independent of the W coordinate: falls back to the original function
    t = so.modular_function([1.0, 5.0, -2.0])
    G = so.partial_min(t, 0b010)  # t_w = 5 >= 0, min at B = empty
    assert np.array_equal(so.to_explicit(G), [0.0, 1.0, -2.0, -1.0])


def test_partial_min_cap():
    from submodopt.errors import CapExceeded
    G = so.random_submodular(0, 8, "cut")
    with pytest.raises(CapExceeded):
        so.partial_min(G, 0b1111, cap=3)


def test_partial_min_above_the_cap_runs_the_per_mask_loop():
    # G is above the cap of the tabulation, so the builder gives way to one
    # query per mask, each a min over the 2**|W| completions; on dyadic
    # weights both read the same values
    g = dyadic_digraph(np.random.default_rng(5), 8, density=0.4)
    W = 0b10110100
    table = so.partial_min(so.cut_function(g), W).tabulate()
    F = so.partial_min(so.cut_function(g), W)
    assert F.structured and F.tabulate(cap=7).tobytes() == table.tobytes()


def test_convolution_queries_match_the_table():
    # each query takes the min over the submasks B of A of F(B) + z(A - B)
    rng = np.random.default_rng(6)
    F = so.cover_function(dyadic_cover(rng, 7))
    z = dyadic(rng, -0.5, 0.5, size=7)
    G = so.convolve_modular(F, z)
    table = G.tabulate()
    assert [G(m) for m in range(1 << 7)] == table.tolist()
    ref = so.to_explicit(F)
    assert table.tolist() == [
        min(ref[b] + sum(z[k] for k in so.elements_of(a & ~b))
            for b in range(1 << 7) if b & ~a == 0) for a in range(1 << 7)]


def test_convolve_examples():
    G = so.convolve_modular(F_OR, [0.5, 0.5])
    assert [G(m) for m in range(4)] == [0.0, 0.5, 0.5, 1.0]
    huge = so.convolve_modular(F_OR, [100.0, 100.0])
    assert np.array_equal(so.to_explicit(huge), so.to_explicit(F_OR))
    zero = so.convolve_modular(F_OR, [0.0, 0.0])
    assert np.array_equal(so.to_explicit(zero), [0.0, 0.0, 0.0, 0.0])


def test_convolve_dominated():
    F = so.random_submodular(1, 6, "cut")
    rng = np.random.default_rng(1)
    z = np.abs(rng.standard_normal(6))
    G = so.convolve_modular(F, z)
    zsum = batch_subset_sums(z[None, :])[0]
    for m in range(1 << 6):
        assert G(m) <= F(m) + 1e-12
        assert G(m) <= zsum[m] + 1e-12


def test_monotonize_examples():
    G = so.monotonize(SYM_CUT2)
    assert np.array_equal(so.to_explicit(G), [0.0, 0.0, 0.0, 0.0])
    C = so.random_submodular(0, 5, "cover")  # already non-decreasing
    M = so.monotonize(C)
    assert np.array_equal(so.to_explicit(M), so.to_explicit(C))
    t = so.modular_function([1.0, -1.0])
    G2 = so.monotonize(t)
    assert np.array_equal(so.to_explicit(G2), [0.0, 1.0, 0.0, 1.0])


def test_arithmetic_examples():
    double = so.add(F_OR, F_OR)
    assert np.array_equal(so.to_explicit(double), [0.0, 2.0, 2.0, 2.0])
    zero = so.scale(F_OR, 0.0)
    assert np.array_equal(so.to_explicit(zero), [0.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="scale factor must be nonnegative, got -1.0"):
        so.scale(F_OR, -1.0)
    shifted = so.add_modular(F_OR, [-1.0, 0.0])
    assert np.array_equal(so.to_explicit(shifted), [0.0, 0.0, 1.0, 0.0])


def test_modular_vectors_have_length_p_and_finite_entries():
    cover = so.cover_function(so.CoverSystem(2, [(0b11, 1.0)]))
    for F in (F_OR, cover):
        for transform in (so.add_modular, so.convolve_modular):
            with pytest.raises(ValueError, match=r"expected \(2,\)"):
                transform(F, [1.0, 2.0, 3.0])
            for bad in (np.nan, np.inf, -np.inf):
                with pytest.raises(ValueError, match="must be finite"):
                    transform(F, [0.5, bad])


def test_mobius_examples():
    D = so.mobius(F_OR)
    assert np.array_equal(D, [0.0, 0.0, 0.0, 1.0])
    t = np.array([0.75, 0.25, 1.5])
    D2 = so.mobius(so.modular_function(t))
    expected = np.zeros(8)
    expected[[1, 2, 4]] = t
    assert np.array_equal(D2, expected)


def test_mobius_round_trip_exact():
    for seed in range(10):
        for family in ("cut", "cover", "cut+modular"):
            F = so.random_submodular(seed, 7, family)
            table = so.to_explicit(F)
            rec = so.mobius_reconstruct(so.mobius(F))
            assert np.array_equal(so.to_explicit(rec), table), (seed, family)


def test_mobius_recovers_cover_weights():
    groups = ((0b011, 0.5), (0b100, 1.25), (0b111, 2.0))
    F = so.cover_function(so.CoverSystem(3, groups))
    D = so.mobius(F)
    expected = np.zeros(8)
    for mask, wt in groups:
        expected[mask] += wt
    assert np.allclose(D, expected, atol=1e-9)


def test_submodularity_preserved():
    F = so.random_submodular(3, 8, "cut+modular")
    rng = np.random.default_rng(3)
    z = rng.standard_normal(8)
    assert so.is_submodular(so.restrict(F, 0b10111011)).holds
    assert so.is_submodular(so.contract(F, 0b01000100)).holds
    assert so.is_submodular(so.convolve_modular(F, z)).holds
    assert so.is_submodular(so.monotonize(F)).holds
    G = so.random_submodular(4, 8, "cut")
    assert so.is_submodular(so.partial_min(G, 0b011)).holds


def test_restriction_polyhedron_is_projection():
    F = so.random_submodular(5, 6, "cut+modular")
    A = 0b011011
    FA = so.restrict(F, A)
    rng = np.random.default_rng(5)
    for _ in range(20):
        s_small = so.greedy_base(FA, rng.standard_normal(FA.p)) - np.abs(
            rng.standard_normal(FA.p)) * rng.integers(0, 2)
        assert so.in_P(FA, s_small)
        # lift with very negative padding: stays in P(F)
        lifted = np.full(6, -1e6)
        lifted[so.elements_of(A)] = s_small
        assert so.in_P(F, lifted)
        # and projections of P(F) samples lie in P(F_A)
        s_big = so.greedy_base(F, rng.standard_normal(6)) - np.abs(
            rng.standard_normal(6)) * rng.integers(0, 2)
        assert so.in_P(FA, s_big[so.elements_of(A)])


def test_contraction_extension_identity():
    # f^A(w) = f(1_A, w) - F(A); needs max(w) <= 1 so the A block sorts first
    F = so.random_submodular(6, 6, "cut+modular")
    A = 0b001100
    FA = so.contract(F, A)
    rng = np.random.default_rng(6)
    w_full = np.empty(6)
    for _ in range(20):
        w = rng.uniform(-3.0, 1.0, size=FA.p)
        w_full[:] = 0.0
        w_full[list(so.elements_of(A))] = 1.0
        w_full[so.elements_of(so.complement(A, 6))] = w
        lhs = so.lovasz_extension(FA, w)
        rhs = so.lovasz_extension(F, w_full) - F(A)
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_partial_min_extension_identity_at_vertices():
    G = so.random_submodular(7, 6, "cut")
    W = 0b000011
    F = so.partial_min(G, W)
    w_elems = so.elements_of(W)
    v_elems = so.elements_of(so.complement(W, 6))
    for m in range(1 << F.p):
        w = np.array([(m >> k) & 1 for k in range(F.p)], dtype=float)
        best = min(
            so.lovasz_extension(G, _joint(w, v_elems, vv, w_elems, 6))
            for vv in _binary_vectors(len(w_elems)))
        offset = min(so.lovasz_extension(G, _joint(np.zeros(F.p), v_elems, vv,
                                                   w_elems, 6))
                     for vv in _binary_vectors(len(w_elems)))
        assert so.lovasz_extension(F, w) == pytest.approx(best - offset, abs=1e-9)


def _binary_vectors(q):
    for m in range(1 << q):
        yield np.array([(m >> k) & 1 for k in range(q)], dtype=float)


def _joint(w, v_elems, vv, w_elems, p):
    full = np.zeros(p)
    full[v_elems] = w
    full[w_elems] = vv
    return full


def test_convolution_polyhedron_identity():
    F = so.random_submodular(8, 6, "cut+modular")
    rng = np.random.default_rng(8)
    z = rng.standard_normal(6)
    G = so.convolve_modular(F, z)
    for _ in range(200):
        s = rng.standard_normal(6) * 2.0
        lhs = so.in_P(G, s)
        rhs = so.in_P(F, s) and bool(np.all(s <= z + 1e-9))
        assert lhs == rhs


def test_monotonize_polyhedron_identity():
    # B(G) = B(F) & {s >= 0} holds when min F = 0 (true for cut functions);
    # a negative minimum shifts G(V) away from F(V) and the bases separate
    F = so.random_submodular(9, 6, "cut")
    G = so.monotonize(F)
    rng = np.random.default_rng(9)
    for _ in range(30):
        s = so.greedy_base(G, rng.standard_normal(6))
        assert so.in_B(G, s)
        assert so.in_B(F, s) and np.all(s >= -1e-9)
    for _ in range(200):
        s = rng.standard_normal(6)
        lhs = so.in_B(G, s)
        rhs = so.in_B(F, s) and bool(np.all(s >= -1e-9))
        assert lhs == rhs
