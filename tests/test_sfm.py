"""Minimum-norm-point solver, minimization backends, certificates."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import submodopt as so
from submodopt import sfm
from submodopt.errors import NumericalInconsistency

from helpers import (brute_min, dyadic_cover, dyadic_digraph, dyadic_energy,
                     min_norm_point_ref)

F_OR = so.explicit_function([0.0, 1.0, 1.0, 1.0])
SYM_CUT2 = so.explicit_function([0.0, 1.0, 1.0, 0.0])


def test_min_norm_point_examples():
    x, corral = so.min_norm_point(F_OR)
    assert np.allclose(x, [0.5, 0.5], atol=1e-9)
    assert corral.converged
    assert np.all(corral.coeffs >= 0)
    assert abs(np.sum(corral.coeffs) - 1.0) <= 1e-12

    x2, _ = so.min_norm_point(SYM_CUT2)
    assert np.allclose(x2, [0.0, 0.0], atol=1e-9)

    t = np.array([0.4, -1.3, 2.2])
    x3, _ = so.min_norm_point(so.modular_function(t))
    assert np.allclose(x3, t, atol=1e-12)


def test_corral_invariants_across_instances():
    for seed in range(10):
        F = so.random_submodular(seed, 6, "logdet+modular")
        x, corral = so.min_norm_point(F)
        assert np.all(corral.coeffs >= 0.0)
        assert abs(float(np.sum(corral.coeffs)) - 1.0) <= 1e-12
        assert np.allclose(corral.coeffs @ corral.bases, x, atol=1e-12)
        for base in corral.bases:
            assert so.in_B(F, base, tol=1e-9)


def test_corral_point_is_the_metric_projection():
    # x minimizes sum d (s - c)^2 over B(F) iff no base s has
    # <d (x - c), s - x> < 0; the greedy base for -d (x - c) minimizes it
    rng = np.random.default_rng(5)
    for seed in range(5):
        F = so.random_submodular(seed, 7, "cover+modular")
        d = rng.uniform(0.5, 4.0, 7)
        c = rng.uniform(-1.0, 1.0, 7)
        x, corral = so.min_norm_point(F, weights=d, center=c, eps=1e-12)
        g = d * (x - c)
        assert float(g @ (so.greedy_base(F, -g) - x)) >= -1e-9
        assert np.allclose(corral.coeffs @ corral.bases, x, atol=1e-12)


def test_min_norm_point_makes_one_greedy_call_per_iterate(monkeypatch):
    from submodopt.errors import NoConvergence

    calls = []
    greedy = sfm.greedy_base
    monkeypatch.setattr(sfm, "greedy_base",
                        lambda F, w: calls.append(1) or greedy(F, w))

    # the starting vertex of a modular function is optimal: no vertex is added
    _, corral = so.min_norm_point(so.modular_function([0.4, -1.3, 2.2]))
    assert (len(calls), corral.major_cycles) == (2, 0)
    # one call for the start, one per added vertex, one to confirm the last;
    # a start that follows the singletons can be optimal already
    for seed in range(5):
        calls.clear()
        _, corral = so.min_norm_point(so.random_submodular(seed, 8, "logdet+modular"))
        assert len(calls) == corral.major_cycles + 2
    # s-t energies at p = 10 need cycles from any start
    for seed in range(5):
        calls.clear()
        _, corral = so.min_norm_point(dyadic_energy(np.random.default_rng(seed), 10))
        assert corral.major_cycles > 0
        assert len(calls) == corral.major_cycles + 2
    calls.clear()
    with pytest.raises(NoConvergence) as info:
        so.min_norm_point(so.random_submodular(0, 8, "logdet+modular"),
                          max_major=1, eps=1e-14)
    assert (len(calls), info.value.result[1].major_cycles) == (3, 1)


def test_min_norm_point_starts_at_the_singleton_root_vertex(monkeypatch):
    weights = []
    greedy = sfm.greedy_base
    monkeypatch.setattr(sfm, "greedy_base",
                        lambda F, w: weights.append(np.array(w)) or greedy(F, w))
    rng = np.random.default_rng(7)
    cases = [(so.random_submodular(1, 7, "cover+modular"), None, None),
             (so.random_submodular(2, 7, "logdet+modular"), None, None),
             (dyadic_energy(rng, 9), rng.uniform(0.5, 4.0, 9),
              rng.uniform(-1.0, 1.0, 9))]
    for F, d, c in cases:
        weights.clear()
        so.min_norm_point(F, weights=d, center=c)
        d = np.ones(F.p) if d is None else d
        c = np.zeros(F.p) if c is None else c
        assert weights[0].tobytes() == (d * (c - F.singletons())).tobytes()
    # when every singleton ties, the start is the identity order's vertex
    weights.clear()
    so.min_norm_point(SYM_CUT2)
    assert np.all(weights[0] == -1.0)
    assert np.array_equal(greedy(SYM_CUT2, weights[0]), greedy(SYM_CUT2, [0.0, 0.0]))


def test_min_norm_with_metric_and_center():
    # projection of the center onto the base polytope in the given metric
    c = np.array([1.0, -1.0])
    x, _ = so.min_norm_point(SYM_CUT2, weights=[1.0, 1.0], center=c)
    assert np.allclose(x, [1.0, -1.0], atol=1e-9)
    x2, _ = so.min_norm_point(F_OR, weights=[2.0, 1.0], center=[0.0, 0.0])
    # minimize 2 s0^2 + s1^2 on s0 + s1 = 1, s <= 1: optimum (1/3, 2/3)
    assert np.allclose(x2, [1 / 3, 2 / 3], atol=1e-8)


def test_minimize_examples():
    res = so.minimize(F_OR)
    assert res.min_value == 0.0
    assert res.minimal_minimizer == 0 and res.maximal_minimizer == 0
    assert res.gap <= 1e-9

    res2 = so.minimize(SYM_CUT2)
    assert res2.min_value == 0.0
    assert res2.minimal_minimizer == 0
    assert res2.maximal_minimizer == 0b11

    t = so.modular_function([-1.0, 1.0])
    res3 = so.minimize(t)
    assert res3.min_value == -1.0
    assert res3.minimal_minimizer == res3.maximal_minimizer == 0b01


def test_minimize_brute_matches_plain_enumeration():
    for seed in range(10):
        F = so.random_submodular(seed, 7, "cut+modular")
        vmin, amin, omin, _ = brute_min(F)
        res = so.minimize(F, backend="brute")
        assert res.min_value == vmin
        assert (res.minimal_minimizer, res.maximal_minimizer) == (amin, omin)
        assert res.certificate is None and res.gap == 0.0


def test_minnorm_agrees_with_brute():
    for seed in range(30):
        family = ("cut+modular", "cover+modular", "logdet+modular")[seed % 3]
        F = so.random_submodular(seed, 4 + seed % 6, "%s" % family)
        ref = so.minimize(F, backend="brute")
        res = so.minimize(F, backend="minnorm")
        assert res.min_value == pytest.approx(ref.min_value, abs=1e-6)
        assert F(res.minimal_minimizer) == pytest.approx(ref.min_value, abs=1e-6)
        assert F(res.maximal_minimizer) == pytest.approx(ref.min_value, abs=1e-6)
        assert res.gap <= 1e-6
        assert so.in_B(F, res.certificate, tol=1e-7)


@st.composite
def st_energies(draw):
    """(g, z) at p <= 10: a digraph with weights in (0, 1] and unary terms
    z in [-2, 2], all multiples of 2**-8, so every sum is exact."""
    p = draw(st.integers(1, 10))
    weights = st.integers(1, 256).map(lambda v: v / 256)
    pairs = st.tuples(st.integers(0, p - 1), st.integers(0, p - 1), weights)
    arcs = [a for a in draw(st.lists(pairs, max_size=3 * p)) if a[0] != a[1]]
    z = np.array(draw(st.lists(st.integers(-512, 512), min_size=p, max_size=p)))
    return so.Digraph(p, arcs), z / 256


@settings(max_examples=60, deadline=None)
@given(case=st_energies())
def test_minnorm_brute_and_max_flow_agree_on_energies(case):
    # the s-t energy cut(A) - z(A), built as graph-cut callers build it: the
    # cut of g plus terminals s and t, contracted by s and restricted to V
    g, z = case
    p = g.p
    s, t = p, p + 1
    arcs = list(g.arcs) + [(s, k, z[k]) if z[k] > 0 else (k, t, -z[k])
                           for k in range(p) if z[k] != 0]
    cut = so.cut_function(so.Digraph(p + 2, arcs))
    F = so.restrict(so.contract(cut, 1 << s), (1 << p) - 1)
    results = [so.minimize(F), so.minimize(F, backend="brute"),
               so.cut_minimize(g, z)]
    assert len({(r.min_value, r.minimal_minimizer, r.maximal_minimizer)
                for r in results}) == 1, results


def test_minimizer_lattice_conditions():
    # each minimizer minimizes its own restriction, and nothing below it in
    # the contraction direction improves
    for seed in range(5):
        F = so.random_submodular(seed, 6, "cut+modular")
        vmin, amin, omin, mins = brute_min(F)
        for A in mins:
            assert all(F(b) >= vmin for b in range(1 << 6) if b & A == b)
            rest = so.complement(A, 6)
            sub = rest
            while True:
                assert F(A | sub) - F(A) >= -1e-12
                if sub == 0:
                    break
                sub = (sub - 1) & rest


def test_minimize_fully_degenerate_function():
    # every subset minimizes the zero function: extremes are empty and full
    zero = so.modular_function([0.0, 0.0, 0.0])
    for backend in ("brute", "minnorm"):
        res = so.minimize(zero, backend=backend)
        assert res.min_value == 0.0
        assert res.minimal_minimizer == 0
        assert res.maximal_minimizer == 0b111


def test_no_convergence_carries_partial_result():
    from submodopt.errors import NoConvergence

    F = so.random_submodular(0, 8, "logdet+modular")
    with pytest.raises(NoConvergence) as info:
        so.min_norm_point(F, max_major=1, eps=1e-14)
    x, corral = info.value.result
    assert x.shape == (8,)
    assert not corral.converged
    assert corral.gap > 0.0


def test_norm_increase_raises_package_error(monkeypatch):
    # B(F) is the segment from (2, 1) to (0, 3); weighting the second vertex
    # too heavily moves the iterate away from the origin
    F = so.explicit_function([0.0, 2.0, 3.0, 3.0])
    monkeypatch.setattr(sfm, "_affine_minimizer", lambda M: np.array([0.1, 0.9]))
    with pytest.raises(NumericalInconsistency, match="norm increased.*5.0"):
        so.min_norm_point(F)


def test_overflow_warnings_are_off_during_a_solve():
    # the solve, and the evaluations of F it makes, run with numpy's overflow
    # and invalid-value warnings off; the caller's settings hold again after
    def fn(mask):
        _ = np.float64(1e300) * 1e300 if mask else 0.0
        return float(bin(mask).count("1"))

    F = so.SetFunction(3, fn)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, _ = so.min_norm_point(F)
        assert np.array_equal(x, np.ones(3))
        with pytest.raises(NumericalInconsistency, match="Gram matrix"):
            so.min_norm_point(so.explicit_function([0.0, 1e300, 1.0, 1.0]))
        with pytest.raises(RuntimeWarning, match="overflow"):
            F(1)


def _bordered_gram(vertices, d, c):
    centered = vertices - c
    return (centered * d) @ centered.T + 1.0


def _affine_minimizer_by_cholesky(M):
    """Reference: the Cholesky factor of M and two triangular solves."""
    chol = np.linalg.cholesky(M)
    y = np.linalg.solve(chol.T, np.linalg.solve(chol, np.ones(M.shape[0])))
    return y / np.sum(y)


@pytest.mark.parametrize("m", [12, 30])
def test_affine_minimizer_matches_the_cholesky_solve(m):
    rng = np.random.default_rng(m)
    for _ in range(5):
        M = _bordered_gram(rng.standard_normal((m, m + 5)),
                           rng.uniform(0.5, 4.0, m + 5), rng.standard_normal(m + 5))
        y = sfm._affine_minimizer(M)
        ref = _affine_minimizer_by_cholesky(M)
        assert np.max(np.abs(y - ref)) <= 1e-12 * np.max(np.abs(ref))
        # the coefficients sum to one and make the residual of the plain
        # Gram matrix G = M - 11^T constant: G y = mu 1
        assert abs(float(np.sum(y)) - 1.0) <= 1e-12
        assert np.ptp((M - 1.0) @ y) <= 1e-10 * np.max(np.abs(M))


def test_affine_minimizer_on_singular_grams(monkeypatch):
    # two equal rows make M exactly singular: the solve raises and the
    # least-squares solve gives coefficients of the same affine minimizer
    lstsq = np.linalg.lstsq
    calls = []
    monkeypatch.setattr(np.linalg, "lstsq",
                        lambda *a, **k: calls.append(1) or lstsq(*a, **k))
    rng = np.random.default_rng(3)
    for _ in range(5):
        vertices = rng.standard_normal((5, 7))
        vertices[3] = vertices[1]
        d, c = rng.uniform(0.5, 4.0, 7), rng.standard_normal(7)
        calls.clear()
        y = sfm._affine_minimizer(_bordered_gram(vertices, d, c))
        assert calls == [1]
        assert np.all(np.isfinite(y)) and abs(float(np.sum(y)) - 1.0) <= 1e-12
        distinct = np.delete(vertices, 3, axis=0)
        ref = _affine_minimizer_by_cholesky(_bordered_gram(distinct, d, c))
        assert np.allclose(y @ vertices, ref @ distinct, rtol=0.0, atol=1e-12)


def test_min_norm_point_on_a_cut_with_parallel_copies(monkeypatch):
    # a symmetric cut with two parallel copies of one element: 0 lies in
    # B(F), so the final corral's affine hull passes through the origin; its
    # Gram matrix M - 11^T is singular, while the bordered M is not
    original = sfm._affine_minimizer
    nullities = []  # of the plain Gram matrix M - 11^T and of M

    def recording(M):
        m = M.shape[0]
        nullities.append((m - np.linalg.matrix_rank(M - 1.0), m - np.linalg.matrix_rank(M)))
        return original(M)

    monkeypatch.setattr(sfm, "_affine_minimizer", recording)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        p = 8
        g = dyadic_digraph(rng, p - 1, density=0.4)
        arcs = [*g.arcs, *((v, u, w) for u, v, w in g.arcs)]
        arcs += [(p - 1 if u == 0 else u, p - 1 if v == 0 else v, w)
                 for u, v, w in arcs if 0 in (u, v)]
        F = so.cut_function(so.Digraph(p, arcs))
        nullities.clear()
        x, corral = so.min_norm_point(F)
        assert corral.converged
        assert max(gram for gram, _ in nullities) > 0
        assert max(bordered for _, bordered in nullities) == 0
        assert np.max(np.abs(x)) <= 1e-9
        assert np.all(corral.coeffs >= 0.0)
        assert abs(float(np.sum(corral.coeffs)) - 1.0) <= 1e-12
        res = so.minimize(F)
        vmin, amin, omin, _ = brute_min(F)
        assert (res.min_value, res.minimal_minimizer,
                res.maximal_minimizer) == (vmin, amin, omin)


def test_corral_grows_past_p_plus_one_vertices(monkeypatch):
    # uniform coefficients never drop a vertex, so the corral outgrows the
    # p + 1 rows made at the start; every M a minor cycle sees must still be
    # the bordered Gram matrix of the vertices added so far, in order
    F = dyadic_energy(np.random.default_rng(11), 3)
    vertices = []
    greedy = sfm.greedy_base
    monkeypatch.setattr(sfm, "greedy_base",
                        lambda F, w: vertices.append(greedy(F, w)) or vertices[-1])
    sizes = []

    def uniform(M):
        m = M.shape[0]
        assert len(vertices) == m
        ref = _bordered_gram(np.array(vertices), np.ones(3), np.zeros(3))
        assert np.allclose(M, ref, rtol=1e-14, atol=0.0)
        sizes.append(m)
        return np.full(m, 1.0 / m)

    monkeypatch.setattr(sfm, "_affine_minimizer", uniform)
    with pytest.raises(so.NoConvergence) as info:
        so.min_norm_point(F, max_major=5)
    _, corral = info.value.result
    assert max(sizes) > F.p + 1
    assert np.array_equal(corral.bases, np.array(vertices[:len(corral.bases)]))
    assert np.array_equal(corral.coeffs, np.full(len(corral.bases), 1.0 / len(corral.bases)))


def test_two_vertices_dropped_in_one_minor_cycle(monkeypatch):
    # coefficients (-1/3, 1/3, -1/3, 4/3) on a corral weighted 1/3 each plus
    # the new vertex reach zero at the first and third vertex in the same
    # step; M must then be the bordered Gram matrix of the other two
    F = dyadic_energy(np.random.default_rng(11), 6)
    vertices = []
    greedy = sfm.greedy_base
    monkeypatch.setattr(sfm, "greedy_base",
                        lambda F, w: vertices.append(greedy(F, w)) or vertices[-1])
    corral, sizes = [0], []

    def stub(M):
        m = M.shape[0]
        if m > len(corral):
            corral.append(len(vertices) - 1)
        ref = _bordered_gram(np.array([vertices[i] for i in corral]),
                             np.ones(6), np.zeros(6))
        assert np.allclose(M, ref, rtol=1e-14, atol=0.0)
        sizes.append(m)
        if m == 4 and sizes.count(4) == 1:
            del corral[2], corral[0]
            return np.array([-1.0, 1.0, -1.0, 4.0]) / 3.0
        return np.full(m, 1.0 / m)

    monkeypatch.setattr(sfm, "_affine_minimizer", stub)
    # the next iterate, (v1 + v3) / 2, is farther from the origin than the
    # mean of v0, v1 and v2; its norm in the error shows the kept rows
    with pytest.raises(NumericalInconsistency,
                       match="norm increased across major cycle 3") as info:
        so.min_norm_point(F)
    assert sizes == [2, 3, 4, 2]
    x = np.full(2, 0.5) @ np.array([vertices[i] for i in corral])
    assert str(info.value).endswith(f" -> {float(np.ones(6) @ (x * x))!r}")


def _case(family, seed, p):
    rng = np.random.default_rng(seed)
    if family == "energy":
        F = dyadic_energy(rng, p)
    elif family == "cover":
        F = so.cover_function(dyadic_cover(rng, p))
    else:
        F = so.random_submodular(seed, p, "logdet+modular")
    return F, rng.uniform(0.25, 4.0, p), rng.uniform(-2.0, 2.0, p)


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(["energy", "cover", "logdet+modular"]),
       seed=st.integers(0, 2 ** 32 - 1), p=st.integers(1, 12))
def test_kept_bordered_gram_agrees_with_the_rebuilt_gram(family, seed, p):
    # the loop that rebuilds the jittered Gram matrix every minor cycle
    F, d, c = _case(family, seed, p)
    for weights, center in ((None, None), (d, c)):
        x, corral = so.min_norm_point(F, weights=weights, center=center)
        x_ref, majors_ref = min_norm_point_ref(F, weights=weights, center=center)
        assert np.max(np.abs(x - x_ref)) <= 1e-9 * (1.0 + np.max(np.abs(x_ref)))
        assert abs(corral.major_cycles - majors_ref) <= 2
    res = so.minimize(F)
    assert (res.min_value, res.minimal_minimizer,
            res.maximal_minimizer) == brute_min(F)[:3]


def test_min_norm_argument_validation():
    with pytest.raises(ValueError):
        so.min_norm_point(F_OR, weights=[1.0, -1.0])
    with pytest.raises(ValueError):
        so.min_norm_point(F_OR, center=[0.0])
    with pytest.raises(ValueError):
        so.min_norm_point(F_OR, eps=0.0)
    for eps in (np.nan, np.inf, -1.0):
        with pytest.raises(ValueError, match="eps must be finite and positive"):
            so.min_norm_point(F_OR, eps=eps)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="metric weights must be finite"):
            so.min_norm_point(F_OR, weights=[1.0, bad])
        with pytest.raises(ValueError, match="center must be finite"):
            so.min_norm_point(F_OR, center=[bad, 0.0])


def test_certificate_gap_examples():
    assert so.certificate_gap(F_OR, 0, [0.5, 0.5]) == 0.0
    assert so.certificate_gap(F_OR, 0b01, [0.5, 0.5]) == 1.0
    assert so.certificate_gap(SYM_CUT2, 0b11, [0.0, 0.0]) == 0.0
    for s in ([0.5], [0.5, 0.5, 0.0]):
        with pytest.raises(ValueError, match="expected \\(2,\\)"):
            so.certificate_gap(F_OR, 0, s)


def test_duality_bound():
    rng = np.random.default_rng(1)
    for seed in range(5):
        F = so.random_submodular(seed, 6, "cut+modular")
        vmin, *_ = brute_min(F)
        for _ in range(20):
            s = so.greedy_base(F, rng.standard_normal(6))
            assert float(np.sum(np.minimum(s, 0.0))) <= vmin + 1e-9


def test_clamped_certificate_in_P():
    # the negative part of the optimal base lies in P(F) and attains the min
    for seed in range(8):
        F = so.random_submodular(seed, 6, "cut+modular")
        res = so.minimize(F, backend="minnorm", eps=1e-10)
        s_minus = np.minimum(res.certificate, 0.0)
        assert so.in_P(F, s_minus, tol=1e-7)
        assert float(np.sum(s_minus)) == pytest.approx(res.min_value, abs=1e-6)


def test_recover_level_values_examples():
    assert so.recover_level_values(F_OR, [0.5, 0.5]) == [(0b11, 0.5)]
    t = np.array([0.7, -0.2, 1.9])
    T = so.modular_function(t)
    got = so.recover_level_values(T, t)
    assert got == [(0b010, -0.2), (0b001, 0.7), (0b100, 1.9)]
    assert so.recover_level_values(SYM_CUT2, [0.0, 0.0]) == [(0b11, 0.0)]


def test_recover_level_values_inconsistency():
    with pytest.raises(NumericalInconsistency):
        so.recover_level_values(F_OR, [0.5, 0.25])  # not a min-norm output


def test_recover_matches_solver_output():
    for seed in range(8):
        F = so.random_submodular(seed, 7, "cut+modular")
        x, _ = so.min_norm_point(F, eps=1e-11)
        blocks = so.recover_level_values(F, x)
        covered = 0
        for mask, value in blocks:
            covered |= mask
            for k in so.elements_of(mask):
                assert x[k] == pytest.approx(value, abs=1e-6)
        assert covered == (1 << 7) - 1
