"""Minimum-norm-point solver, minimization routes, certificates."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import submodopt as so
from submodopt import sfm
from submodopt.errors import NumericalInconsistency

from helpers import (brute_min, check_certified_minimum, dyadic, dyadic_cover,
                     dyadic_digraph, dyadic_energy, min_norm_point_ref)

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
    greedy = sfm._greedy_chain
    monkeypatch.setattr(sfm, "_greedy_chain",
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


def test_min_norm_minimize_reads_one_chain_per_greedy_step(monkeypatch):
    # the certified stop and the final reading of the minimizers read F
    # off the chain of the greedy step at the iterate, so a solve chains F
    # once for the start vertex and once per iterate, and no more
    rng = np.random.default_rng(31)
    cases = [dyadic_energy(rng, p) for p in (8, 12, 20)]
    cases += [so.add_modular(so.cover_function(dyadic_cover(rng, p)),
                             dyadic(rng, -1.0, 0.25, size=p)) for p in (8, 12)]
    cases += [so.add_modular(so.concave_cardinality(np.sqrt(np.arange(p + 1.0))),
                             dyadic(rng, -2.0, 1.0, size=p)) for p in (10, 20)]
    # a symmetric 4-cycle plus +-1 on two more elements leaves the four
    # cycle elements open, too many for the minor: it runs to convergence
    cycle = [(j, (j + 1) % 4, 0.5) for j in range(4)]
    cases.append(so.add_modular(
        so.cut_function(so.Digraph(6, cycle + [(b, a, w) for a, b, w in cycle])),
        [0.0, 0.0, 0.0, 0.0, 1.0, -1.0]))
    chained, steps, iterates, answers = [], [], [], []
    chain, greedy = so.SetFunction.chain, sfm._greedy_chain
    major_cycles, certified = sfm._major_cycles, sfm._certified

    def counted_cycles(*args):
        for item in major_cycles(*args):
            iterates.append(1)
            yield item

    monkeypatch.setattr(so.SetFunction, "chain",
                        lambda self, order: chained.append(self) or chain(self, order))
    monkeypatch.setattr(sfm, "_greedy_chain",
                        lambda F, w: steps.append(1) or greedy(F, w))
    monkeypatch.setattr(sfm, "_major_cycles", counted_cycles)
    monkeypatch.setattr(sfm, "_certified",
                        lambda *args: answers.append(certified(*args)) or answers[-1])
    stops = set()
    for inner in cases:
        F = so.scale(inner, 1.0)  # min-norm, also for a closed structure
        for log in (chained, steps, iterates, answers):
            log.clear()
        res = so.minimize(F)
        assert sum(G is F for G in chained) == len(steps) == len(iterates) + 1
        ref = so.brute_minimize(inner)
        assert (res.min_value, res.minimal_minimizer, res.maximal_minimizer) == (
            ref.min_value, ref.minimal_minimizer, ref.maximal_minimizer)
        stops.add((answers[-1] is res, len(iterates) > 1))
    # certified stops after the start vertex, and a converged solve
    assert {(True, True), (False, True)} <= stops


def test_min_norm_point_starts_at_the_singleton_root_vertex(monkeypatch):
    weights = []
    greedy = sfm._greedy_chain
    monkeypatch.setattr(sfm, "_greedy_chain",
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
    assert np.array_equal(so.greedy_base(SYM_CUT2, weights[0]),
                          so.greedy_base(SYM_CUT2, [0.0, 0.0]))


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
    check_certified_minimum(F_OR, res)
    x, _ = so.min_norm_point(F_OR)
    assert so.certificate_gap(F_OR, 0, x) <= 1e-9

    res2 = so.minimize(SYM_CUT2)
    assert res2.min_value == 0.0
    assert res2.minimal_minimizer == 0
    assert res2.maximal_minimizer == 0b11
    check_certified_minimum(SYM_CUT2, res2)

    t = so.modular_function([-1.0, 1.0])
    res3 = so.minimize(t)
    assert res3.min_value == -1.0
    assert res3.minimal_minimizer == res3.maximal_minimizer == 0b01
    check_certified_minimum(t, res3)


def test_minimize_brute_matches_plain_enumeration():
    for seed in range(10):
        F = so.random_submodular(seed, 7, "cut+modular")
        vmin, amin, omin, _ = brute_min(F)
        res = so.brute_minimize(F)
        assert res.min_value == vmin
        assert (res.minimal_minimizer, res.maximal_minimizer) == (amin, omin)
        assert res.certificate is None and res.gap == 0.0


def test_minnorm_agrees_with_brute():
    # a scaling by 1 keeps every value and chain but no closed structure,
    # so cuts and covers take min-norm too
    for seed in range(30):
        family = ("cut+modular", "cover+modular", "logdet+modular")[seed % 3]
        F = so.random_submodular(seed, 4 + seed % 6, "%s" % family)
        ref = so.brute_minimize(F)
        res = so.minimize(so.scale(F, 1.0))
        assert res.min_value == pytest.approx(ref.min_value, abs=1e-6)
        assert F(res.minimal_minimizer) == pytest.approx(ref.min_value, abs=1e-6)
        assert F(res.maximal_minimizer) == pytest.approx(ref.min_value, abs=1e-6)
        check_certified_minimum(F, res)
        # minimize stops at a certified answer; the projection converges
        x, _ = so.min_norm_point(F)
        assert so.certificate_gap(F, ref.minimal_minimizer, x) <= 1e-6
        assert so.in_B(F, x, tol=1e-7)


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
    results = [so.minimize(F), so.minimize(so.scale(F, 1.0)),
               so.brute_minimize(F), so.cut_minimize(g, z)]
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
    for res in (so.brute_minimize(zero), so.minimize(zero),
                so.minimize(so.scale(zero, 1.0))):
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
        res = so.minimize(so.scale(F, 1.0))
        vmin, amin, omin, _ = brute_min(F)
        assert (res.min_value, res.minimal_minimizer,
                res.maximal_minimizer) == (vmin, amin, omin)


def _record_greedy_vertices(monkeypatch, vertices):
    """Append the vertex of every greedy step of sfm to ``vertices``."""
    greedy = sfm._greedy_chain

    def recorded(F, w):
        step = greedy(F, w)
        vertices.append(step[0])
        return step

    monkeypatch.setattr(sfm, "_greedy_chain", recorded)


def test_corral_grows_past_p_plus_one_vertices(monkeypatch):
    # uniform coefficients never drop a vertex, so the corral outgrows the
    # p + 1 rows made at the start; every M a minor cycle sees must still be
    # the bordered Gram matrix of the vertices added so far, in order
    F = dyadic_energy(np.random.default_rng(11), 3)
    vertices = []
    _record_greedy_vertices(monkeypatch, vertices)
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
    _record_greedy_vertices(monkeypatch, vertices)
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


# derandomized: the draw is fixed by the test's source, and no saved
# example of an earlier run is replayed
@settings(max_examples=60, deadline=None, derandomize=True)
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
    res = so.minimize(so.scale(F, 1.0))
    assert (res.min_value, res.minimal_minimizer,
            res.maximal_minimizer) == brute_min(F)[:3]


def test_kept_bordered_gram_on_a_longer_path_than_the_rebuilt_gram():
    # here the unweighted solve takes 9 major cycles and the reference 6,
    # past the bound above; the point and the minimizers still agree
    F, d, c = _case("logdet+modular", 46969, 11)
    for weights, center in ((None, None), (d, c)):
        x, _ = so.min_norm_point(F, weights=weights, center=center)
        x_ref, _ = min_norm_point_ref(F, weights=weights, center=center)
        assert np.max(np.abs(x - x_ref)) <= 1e-9 * (1.0 + np.max(np.abs(x_ref)))
    res = so.minimize(F)
    assert (res.min_value, res.minimal_minimizer,
            res.maximal_minimizer) == brute_min(F)[:3]


def _stop_case(kind, seed, p):
    """A function that takes min-norm: the cuts and covers are scaled by 1,
    which keeps every value and chain but no closed structure."""
    rng = np.random.default_rng(seed)
    if kind == "energy":
        return so.scale(dyadic_energy(rng, p), 1.0)
    if kind == "cover+modular":
        return so.scale(so.add_modular(so.cover_function(dyadic_cover(rng, p)),
                                       dyadic(rng, -1.0, 0.25, size=p)), 1.0)
    if kind == "logdet+modular":
        return so.random_submodular(seed, p, kind)
    if kind == "explicit":
        return so.explicit_function(so.to_explicit(dyadic_energy(rng, p)))
    # a symmetric cycle cut: the empty set and V both minimize it, and so
    # they do after a zero modular shift
    w = float(dyadic(rng, 2 ** -16, 1.0))
    arcs = [(k, (k + 1) % p, w) for k in range(p) if p > 1]
    cycle = so.cut_function(so.Digraph(p, arcs + [(b, a, w) for a, b, w in arcs]))
    return so.scale(cycle if kind == "cycle" else so.add_modular(cycle, np.zeros(p)), 1.0)


# derandomized: the draw is fixed by the test's source, and no saved
# example of an earlier run is replayed
@settings(max_examples=120, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["energy", "cover+modular", "logdet+modular", "explicit",
                             "cycle", "cycle+zero"]),
       seed=st.integers(0, 2 ** 32 - 1), p=st.integers(1, 12))
def test_certified_stop_matches_brute_force(kind, seed, p):
    F = _stop_case(kind, seed, p)
    res = so.minimize(F)
    check_certified_minimum(F, res)
    if kind.startswith("cycle"):
        assert (res.minimal_minimizer, res.maximal_minimizer) == (0, (1 << p) - 1)


def _flow_case(kind, seed, p, scale):
    """A function with a closed structure at p <= 12, its weights multiples
    of 2**-16 times ``scale``, a power of two, so every sum stays exact."""
    rng = np.random.default_rng(seed)
    if kind == "modular":
        return so.modular_function(dyadic(rng, -1.0, 1.0, size=p) * scale)
    if kind == "cycle":
        # a symmetric cycle cut: the empty set and V both minimize it
        w = float(dyadic(rng, 2 ** -16, 1.0)) * scale
        arcs = [(k, (k + 1) % p, w) for k in range(p) if p > 1]
        return so.cut_function(so.Digraph(p, arcs + [(b, a, w) for a, b, w in arcs]))
    q = p + 2 if kind.endswith("stack") else p
    if kind.startswith("cut"):
        g = dyadic_digraph(rng, q)
        F = so.cut_function(so.Digraph(q, [(u, v, w * scale) for u, v, w in g.arcs]))
    else:  # dyadic_cover adds a singleton group per element
        c = dyadic_cover(rng, q)
        F = so.cover_function(so.CoverSystem(q, [(m, w * scale) for m, w in c.groups]))
    if kind.endswith("stack"):
        # contract by one element and restrict to p of the q - 1 left
        F = so.contract(F, 1 << int(rng.integers(q)))
        F = so.restrict(F, so.subset_of(rng.choice(q - 1, size=p, replace=False).tolist()))
    return so.add_modular(F, dyadic(rng, -1.0, 0.5, size=p) * scale)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["cut", "cover", "modular", "cut+stack", "cover+stack",
                             "cycle"]),
       seed=st.integers(0, 2 ** 32 - 1), p=st.integers(1, 12),
       exponent=st.integers(-50, 20))
def test_flow_route_matches_brute_force(kind, seed, p, exponent):
    F = _flow_case(kind, seed, p, 2.0 ** exponent)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = so.minimize(F)
    ref = so.brute_minimize(F)
    assert (res.minimal_minimizer, res.maximal_minimizer) == (
        ref.minimal_minimizer, ref.maximal_minimizer), (res, ref)
    v = ref.min_value
    assert abs(res.min_value - v) <= 1e-12 * (1.0 + abs(v)), (res, ref)
    assert res.min_value == F(res.minimal_minimizer)
    assert res.certificate is None and res.gap == 0.0
    if kind == "cycle":
        assert (res.minimal_minimizer, res.maximal_minimizer) == (0, (1 << p) - 1)


@pytest.mark.parametrize("groups, m, answer", [
    # the table of this cover reads F({2}) = 0 where F({2}) = 1, so brute
    # force calls {2} a minimizer; the flow reads no table
    ([(0b011, 1e300), (0b100, 1.0)], [0.0, 0.0, 0.0], (0.0, 0, 0)),
    # {0} and {0, 1} tie with the empty set at 0, next to a weight of 1
    ([(0b011, 1e300), (0b100, 1.0)], [-1e300, 0.0, -0.5], (0.0, 0, 0b011)),
    # weights that sum past 1e308: the flow value overflows and the
    # oracle reads F({0, 3}) = 0 as inf - inf, and the answer is exact
    ([(0b0011, 1e308), (0b1100, 1e308), (0b0110, 1e308), (0b0010, 1.0)],
     [-1e308, 0.0, 0.0, -1e308], (0.0, 0, 0b1001)),
])
def test_flow_route_on_covers_with_huge_weights(groups, m, answer):
    F = so.add_modular(so.cover_function(so.CoverSystem(len(m), groups)), m)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = so.minimize(F)
    assert (res.min_value, res.minimal_minimizer, res.maximal_minimizer) == answer


def test_the_function_picks_the_route(monkeypatch):
    # a closed structure takes one max-flow and never runs min-norm; any
    # other function, a closed one scaled by 1 included, runs min-norm and
    # never max-flow; the SFMs inside the recursive prox routes follow F
    from submodopt import _maxflow

    flows, cycles = [], []
    max_flow, major_cycles = _maxflow.max_flow, sfm._major_cycles
    monkeypatch.setattr(_maxflow, "max_flow",
                        lambda *args: flows.append(1) or max_flow(*args))
    monkeypatch.setattr(sfm, "_major_cycles",
                        lambda *args: cycles.append(1) or major_cycles(*args))
    rng = np.random.default_rng(8)
    q = so.Quadratic(dyadic(rng, 0.5, 4.0, size=8), dyadic(rng, -2.0, 2.0, size=8))
    closed = [_flow_case(kind, 8, 8, 1.0) for kind in
              ("cut", "cover", "modular", "cut+stack", "cover+stack", "cycle")]
    others = [so.random_submodular(seed, 8, "logdet+modular") for seed in range(3)]
    others += [so.scale(F, 1.0) for F in closed[:2]]
    for F in closed + others:
        flows.clear()
        cycles.clear()
        res = so.minimize(F)
        if F in closed:
            assert (flows, cycles, res.certificate) == ([1], [], None)
        else:
            assert (flows, cycles) == ([], [1]) and res.certificate is not None
        for route in (so.prox_decomposition, so.prox_homotopy):
            flows.clear()
            cycles.clear()
            route(F, q)
            assert (bool(flows), bool(cycles)) == (F in closed, F not in closed)


def test_non_finite_iterates_never_stop(monkeypatch):
    F = so.random_submodular(3, 6, "cut+modular")
    for bad in (np.inf, -np.inf, np.nan):
        x = so.greedy_base(F, np.arange(6.0))
        x[2] = bad
        assert sfm._certified(F, x, F.chain(np.argsort(x, kind="stable"))) is None
    # a finite iterate whose bound is not finite: F(A) = -inf
    G = so.SetFunction(2, lambda m: -np.inf if m == 0b01 else 0.0)
    assert sfm._certified(G, np.array([-1.0, 1.0]), G.chain([0, 1])) is None
    # a start vertex with an infinite entry is no answer: it fails as a
    # computation before its greedy step, which would refuse it as an input
    greedy = sfm._greedy_chain

    def infinite(F, w):
        s, order, values = greedy(F, w)
        s[0] = np.inf
        return s, order, values

    monkeypatch.setattr(sfm, "_greedy_chain", infinite)
    F = so.scale(F, 1.0)  # min-norm, not the max-flow of the closed structure
    for solve in (so.minimize, so.min_norm_point):
        with pytest.raises(NumericalInconsistency,
                           match="^the iterate overflows at major cycle 0$"):
            solve(F)


def test_certified_stop_on_a_61_element_energy_matches_max_flow(monkeypatch):
    # an s-t energy as the solve benchmark builds them, far above the cap
    rng = np.random.default_rng(61)
    p = 61
    g = dyadic_digraph(rng, p, density=0.1)
    z = dyadic(rng, -3.0, 3.0, size=p)
    s, t = p, p + 1
    arcs = list(g.arcs) + [(s, k, z[k]) if z[k] > 0 else (k, t, -z[k])
                           for k in range(p) if z[k] != 0]
    F = so.restrict(so.contract(so.cut_function(so.Digraph(p + 2, arcs)), 1 << s),
                    (1 << p) - 1)
    F = so.scale(F, 1.0)  # min-norm, not the max-flow of the closed structure
    answers = []
    certified = sfm._certified

    def recorded(F, x, values):
        answers.append(certified(F, x, values))
        return answers[-1]

    monkeypatch.setattr(sfm, "_certified", recorded)
    res = so.minimize(F)
    ref = so.cut_minimize(g, z)
    assert answers[-1] is res  # the answer came from a certified stop
    assert (res.minimal_minimizer, res.maximal_minimizer) == (
        ref.minimal_minimizer, ref.maximal_minimizer)
    assert abs(res.min_value - ref.min_value) <= 1e-12 * (1.0 + abs(ref.min_value))


def test_unstructured_minor_stays_within_two_greedy_steps(monkeypatch):
    # 2**|U| < 2p bounds the oracle calls of the minor's table, F(L)
    # included, for every F that reaches min-norm: one that chains from its
    # structure as well as one that does not
    calls = []
    sizes = []
    minor_extremes = sfm._minor_extremes

    def counted(F, below, open_):
        before = len(calls)
        out = minor_extremes(F, below, open_)
        sizes.append((F.p, len(calls) - before, int(below.any())))
        return out

    monkeypatch.setattr(sfm, "_minor_extremes", counted)
    inners = [so.random_submodular(seed, 3 + seed % 10, "logdet+modular")
              for seed in range(40)]
    # a symmetric cycle on the first k elements, whose optimal x is 0 there,
    # and a modular term of +-1 on the rest: U ends as the k cycle elements,
    # with 2p <= 2**k < 4p, one element too many for the minor
    cycles = []
    for p in range(3, 13):
        k = (2 * p - 1).bit_length()
        if k < p:
            cycle = [(j, (j + 1) % k, 0.5) for j in range(k)]
            signs = [0.0] * k + [(-1.0) ** j for j in range(p - k)]
            cycles.append(so.add_modular(
                so.cut_function(so.Digraph(p, cycle + [(b, a, w) for a, b, w in cycle])),
                signs))
    # structured inputs without a closed structure: explicit tables, a
    # concave family plus a modular term, and those cycles, energies and
    # covers scaled by 1
    rng = np.random.default_rng(12)
    structured = [so.explicit_function(so.to_explicit(dyadic_energy(rng, p)))
                  for p in (5, 9, 12)]
    structured += [so.add_modular(so.concave_cardinality(np.sqrt(np.arange(p + 1.0))),
                                  dyadic(rng, -2.0, 1.0, size=p)) for p in (6, 10, 12)]
    structured += [so.scale(F, 1.0) for F in cycles]
    structured += [so.scale(dyadic_energy(rng, p), 1.0) for p in (7, 11)]
    structured += [so.scale(so.add_modular(so.cover_function(dyadic_cover(rng, p)),
                                           dyadic(rng, -1.0, 0.25, size=p)), 1.0)
                   for p in (8, 12)]
    for inner in inners + cycles + structured:
        if inner is structured[0]:
            unstructured_minors = len(sizes)
        p = inner.p
        oracle = lambda m, inner=inner: calls.append(m) or inner(m)  # noqa: E731
        if inner in structured:
            F = so.SetFunction(p, oracle, builder=inner.tabulate, chainer=inner.chainer)
            assert F.structured and not isinstance(F.chainer, so.core.ClosedStructure)
        else:
            F = so.SetFunction(p, oracle)
        res = so.minimize(F)
        assert (res.min_value, res.minimal_minimizer,
                res.maximal_minimizer) == brute_min(inner)[:3]
    assert sizes and any(low for *_, low in sizes)  # minors above L = {} ran too
    assert len(sizes) > unstructured_minors  # and minors of structured inputs
    assert all(n <= 2 * p for p, n, _ in sizes), sizes


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
    # the negative part of the optimal base lies in P(F) and attains the
    # min; minimize stops before the optimal base, the projection does not
    for seed in range(8):
        F = so.random_submodular(seed, 6, "cut+modular")
        x, _ = so.min_norm_point(F, eps=1e-10)
        s_minus = np.minimum(x, 0.0)
        assert so.in_P(F, s_minus, tol=1e-7)
        vmin = so.brute_minimize(F).min_value
        assert float(np.sum(s_minus)) == pytest.approx(vmin, abs=1e-6)


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
