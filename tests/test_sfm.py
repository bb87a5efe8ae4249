"""Minimum-norm-point solver, minimization backends, certificates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import submodopt as so
from submodopt import sfm
from submodopt.errors import NumericalInconsistency

from helpers import brute_min, dyadic_digraph

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
    # one call for the start, one per added vertex, one to confirm the last
    for seed in range(5):
        calls.clear()
        _, corral = so.min_norm_point(so.random_submodular(seed, 8, "logdet+modular"))
        assert corral.major_cycles > 0
        assert len(calls) == corral.major_cycles + 2
    calls.clear()
    with pytest.raises(NoConvergence) as info:
        so.min_norm_point(so.random_submodular(0, 8, "logdet+modular"),
                          max_major=1, eps=1e-14)
    assert (len(calls), info.value.result[1].major_cycles) == (3, 1)


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
    monkeypatch.setattr(sfm, "_affine_minimizer", lambda gram: np.array([0.1, 0.9]))
    with pytest.raises(NumericalInconsistency, match="norm increased.*5.0"):
        so.min_norm_point(F)


def _affine_minimizer_by_cholesky(gram):
    """Reference: the Cholesky factor of gram + jitter * I and two solves."""
    m = gram.shape[0]
    jitter = 1e-12 * max(1.0, float(np.max(np.diag(gram))))
    chol = np.linalg.cholesky(gram + jitter * np.eye(m))
    y = np.linalg.solve(chol.T, np.linalg.solve(chol, np.ones(m)))
    return y / np.sum(y)


@pytest.mark.parametrize("m", [12, 30])
def test_affine_minimizer_matches_the_cholesky_solve(m):
    rng = np.random.default_rng(m)
    for _ in range(5):
        vertices = rng.standard_normal((m, m + 5))
        gram = vertices @ vertices.T
        y = sfm._affine_minimizer(gram)
        ref = _affine_minimizer_by_cholesky(gram)
        assert np.max(np.abs(y - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_affine_minimizer_on_singular_grams():
    # two equal rows: the corral holds one vertex twice
    rng = np.random.default_rng(3)
    vertices = rng.standard_normal((5, 7))
    vertices[3] = vertices[1]
    y = sfm._affine_minimizer(vertices @ vertices.T)
    assert np.all(np.isfinite(y)) and abs(float(np.sum(y)) - 1.0) <= 1e-12
    # gram + jitter * I exactly singular: the solve raises and the jitter grows
    y = sfm._affine_minimizer(np.diag([-1e-12, 1.0]))
    assert np.all(np.isfinite(y)) and abs(float(np.sum(y)) - 1.0) <= 1e-12


def test_min_norm_point_on_a_cut_with_parallel_copies(monkeypatch):
    # a symmetric cut with two parallel copies of one element: 0 lies in
    # B(F), so the final corral's affine hull passes through the origin and
    # its Gram matrix is singular
    original = sfm._affine_minimizer
    ranks = []

    def recording(gram):
        ranks.append(gram.shape[0] - np.linalg.matrix_rank(gram))
        return original(gram)

    monkeypatch.setattr(sfm, "_affine_minimizer", recording)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        p = 8
        g = dyadic_digraph(rng, p - 1, density=0.4)
        arcs = [*g.arcs, *((v, u, w) for u, v, w in g.arcs)]
        arcs += [(p - 1 if u == 0 else u, p - 1 if v == 0 else v, w)
                 for u, v, w in arcs if 0 in (u, v)]
        F = so.cut_function(so.Digraph(p, arcs))
        ranks.clear()
        x, corral = so.min_norm_point(F)
        assert corral.converged and max(ranks) > 0
        assert np.max(np.abs(x)) <= 1e-9
        assert np.all(corral.coeffs >= 0.0)
        assert abs(float(np.sum(corral.coeffs)) - 1.0) <= 1e-12
        res = so.minimize(F)
        vmin, amin, omin, _ = brute_min(F)
        assert (res.min_value, res.minimal_minimizer,
                res.maximal_minimizer) == (vmin, amin, omin)


def test_min_norm_argument_validation():
    with pytest.raises(ValueError):
        so.min_norm_point(F_OR, weights=[1.0, -1.0])
    with pytest.raises(ValueError):
        so.min_norm_point(F_OR, center=[0.0])
    with pytest.raises(ValueError):
        so.min_norm_point(F_OR, eps=0.0)


def test_certificate_gap_examples():
    assert so.certificate_gap(F_OR, 0, [0.5, 0.5]) == 0.0
    assert so.certificate_gap(F_OR, 0b01, [0.5, 0.5]) == 1.0
    assert so.certificate_gap(SYM_CUT2, 0b11, [0.0, 0.0]) == 0.0


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
