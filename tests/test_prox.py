"""Proximal solvers, threshold sets, line search, optimality checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import submodopt as so
from submodopt import prox, transforms
from submodopt.errors import (NoConvergence, NumericalInconsistency,
                              RecursionOverflow, Unbounded)
from submodopt.prox import SeparableConvex, solve_increasing

from helpers import (address_space_limit, batch_subset_sums, dyadic,
                     dyadic_cover, dyadic_digraph, dyadic_energy)

F_OR = so.explicit_function([0.0, 1.0, 1.0, 1.0])
SYM_CUT2 = so.explicit_function([0.0, 1.0, 1.0, 0.0])


def quad(p, a=None, z=None):
    a = np.ones(p) if a is None else np.asarray(a, dtype=float)
    z = np.zeros(p) if z is None else np.asarray(z, dtype=float)
    return so.Quadratic(a, z)


def cosh_penalty(p):
    """Non-quadratic strictly convex family: psi(w) = cosh(w) - 1."""
    return SeparableConvex(
        p,
        deriv=lambda w: np.sinh(w),
        inv_deriv=lambda y: np.arcsinh(y),
        value=lambda w: np.cosh(w) - 1.0,
        conj_value=lambda y: y * np.arcsinh(y) - np.sqrt(1.0 + y * y) + 1.0)


def test_solve_increasing():
    assert solve_increasing(lambda x: x ** 3, 8.0) == pytest.approx(2.0, abs=1e-10)
    assert solve_increasing(lambda x: x, 0.0) == 0.0
    assert solve_increasing(np.arcsinh, -2.5, x0=10.0) == pytest.approx(
        np.sinh(-2.5), rel=1e-10)


def test_solve_increasing_raises_on_a_stalled_bracket():
    # the jump at 0.3 keeps the upper end's value near 1e300, so every
    # secant step lands just above the lower end and the bracket never
    # closes within the iteration cap
    with pytest.raises(NoConvergence):
        solve_increasing(lambda x: x - 0.3 + (1e300 if x >= 0.3 else 0.0), 0.0)


def test_separable_convex_validation():
    with pytest.raises(ValueError):
        SeparableConvex(2, deriv=lambda w: np.tanh(w))  # saturates
    with pytest.raises(ValueError):
        SeparableConvex(2, deriv=lambda w: -w)  # decreasing
    pen = cosh_penalty(3)
    y = pen.deriv(np.array([0.3, -1.0, 2.0]))
    assert np.allclose(pen.inv_deriv(y), [0.3, -1.0, 2.0], atol=1e-9)
    assert pen.conj_deriv is pen.inv_deriv


def test_separable_default_inversion():
    pen = SeparableConvex(2, deriv=lambda w: np.sinh(w),
                          value=lambda w: np.cosh(w) - 1.0)
    y = np.array([1.5, -0.25])
    assert np.allclose(pen.inv_deriv(y), np.arcsinh(y), atol=1e-9)
    ref = cosh_penalty(2)
    assert np.allclose(pen.conj_value(y), ref.conj_value(y), atol=1e-9)


def _counting_cubic(a, z, b, **kw):
    """Derivative-only cubic a(w-z) + b(w-z)^3 and a list of its deriv calls."""
    calls = []

    def deriv(w):
        calls.append(len(w))
        return a * (w - z) + b * (w - z) ** 3

    return SeparableConvex(len(a), deriv=deriv, **kw), calls


def test_subsets_lift_the_root_penalty_once():
    rng = np.random.default_rng(20)
    a = rng.uniform(0.5, 8.0, 20)
    z = rng.uniform(-4.0, 4.0, 20)
    b = rng.uniform(0.1, 2.0, 20)
    y = rng.uniform(-5.0, 5.0, 20)
    pen, calls = _counting_cubic(a, z, b)
    outer = np.array([17, 3, 8, 12, 0, 5])
    inner = np.array([4, 1, 2])
    for sub, coords in ((pen.subset([3]), np.array([3])),
                        (pen.subset(outer).subset(inner), outer[inner])):
        alone, alone_calls = _counting_cubic(a[coords], z[coords], b[coords])
        alone_calls.clear()
        want = alone.inv_deriv(y[coords])
        calls.clear()
        got = sub.inv_deriv(y[coords])
        # one root search per own coordinate, each evaluating the root once
        assert 0 < len(calls) <= len(alone_calls)
        assert got.tobytes() == want.tobytes()
        assert got.tobytes() == pen.inv_deriv(y)[coords].tobytes()

    # a conjugate synthesized from the value is synthesized again per subset
    with_value, _ = _counting_cubic(
        a, z, b, value=lambda w: a / 2 * (w - z) ** 2 + b / 4 * (w - z) ** 4)
    nested = with_value.subset(outer).subset(inner)
    assert nested.conj_value(y[outer[inner]]).tobytes() == \
        with_value.conj_value(y)[outer[inner]].tobytes()


def test_prox_minnorm_examples():
    pr = so.prox_minnorm(F_OR, quad(2))
    assert np.allclose(pr.u, [-0.5, -0.5], atol=1e-9)
    assert np.allclose(pr.s, [0.5, 0.5], atol=1e-9)
    assert -1e-9 <= pr.gap <= 1e-6

    t = np.array([0.8, -0.3])
    pr2 = so.prox_minnorm(so.modular_function(t), quad(2))
    assert np.allclose(pr2.u, -t, atol=1e-9)
    assert np.allclose(pr2.s, t, atol=1e-9)

    pr3 = so.prox_minnorm(SYM_CUT2, quad(2, z=[1.0, -1.0]))
    assert np.allclose(pr3.s, [1.0, -1.0], atol=1e-9)
    assert np.allclose(pr3.u, [0.0, 0.0], atol=1e-9)
    # the dual pairing holds coordinatewise
    assert np.allclose(pr3.s, -(pr3.u - np.array([1.0, -1.0])), atol=1e-9)


def test_prox_threshold_examples():
    u = np.array([-0.5, -0.5])
    assert so.prox_threshold_sets(u, -0.6) == (0b11, 0b11)
    assert so.prox_threshold_sets(u, 0.0) == (0, 0)
    assert so.prox_threshold_sets(u, -0.5) == (0, 0b11)


def test_prox_decomposition_examples():
    assert np.allclose(so.prox_decomposition(F_OR, quad(2)), [0.5, 0.5],
                       atol=1e-9)
    t = np.array([1.1, -0.4, 0.2])
    assert np.allclose(so.prox_decomposition(so.modular_function(t),
                                             cosh_penalty(3)), t, atol=1e-9)
    # derivative equalization, not value equalization: the centered case
    s = so.prox_decomposition(SYM_CUT2, quad(2, z=[1.0, -1.0]))
    assert np.allclose(s, [1.0, -1.0], atol=1e-9)


def test_prox_homotopy_examples():
    assert np.allclose(so.prox_homotopy(F_OR, quad(2)), [-0.5, -0.5], atol=1e-9)
    t = np.array([1.0, 2.0])
    assert np.allclose(so.prox_homotopy(so.modular_function(t), quad(2)), -t,
                       atol=1e-9)
    assert np.allclose(so.prox_homotopy(F_OR, quad(2, z=[5.0, 5.0])),
                       [4.5, 4.5], atol=1e-9)


def test_solver_agreement_random():
    rng = np.random.default_rng(0)
    for seed in range(25):
        p = 4 + seed % 4
        F = so.random_submodular(seed, p, ("cut+modular", "cover", "logdet")[seed % 3])
        a = np.exp(rng.uniform(-1, 1, p))
        z = rng.standard_normal(p)
        q = so.Quadratic(a, z)
        pr = so.prox_minnorm(F, q, eps=1e-11)
        s_dec = so.prox_decomposition(F, q)
        u_hom = so.prox_homotopy(F, q)
        assert np.max(np.abs(pr.s - s_dec)) <= 1e-6
        assert np.max(np.abs(pr.u - u_hom)) <= 1e-6
        assert -1e-9 <= pr.gap <= 1e-6
        assert np.allclose(pr.s, -a * (pr.u - z), atol=1e-6)


def test_solvers_accept_brute_backend():
    F = so.random_submodular(11, 5, "cut+modular")
    rng = np.random.default_rng(11)
    q = so.Quadratic(np.exp(rng.uniform(-1, 1, 5)), rng.standard_normal(5))
    pr = so.prox_minnorm(F, q, eps=1e-11)
    s_dec = so.prox_decomposition(F, q, sfm_backend="brute")
    u_hom = so.prox_homotopy(F, q, sfm_backend="brute")
    assert np.max(np.abs(pr.s - s_dec)) <= 1e-6
    assert np.max(np.abs(pr.u - u_hom)) <= 1e-6


def test_generic_penalty_solvers_agree():
    for seed in range(5):
        F = so.random_submodular(seed, 5, "cut+modular")
        pen = cosh_penalty(5)
        s = so.prox_decomposition(F, pen)
        u = so.prox_homotopy(F, pen)
        assert np.allclose(pen.inv_deriv(-s), u, atol=1e-6)
        assert so.in_B(F, s, tol=1e-7)
        assert so.check_separable_optimality(
            F, s, lambda x: -pen.inv_deriv(-x), tol=1e-6, tight_tol=1e-6)


def test_threshold_monotonicity_and_equivalence():
    for seed in range(5):
        p = 5
        F = so.random_submodular(seed, p, "cut+modular")
        q = quad(p)
        pr = so.prox_minnorm(F, q, eps=1e-11)
        table = so.to_explicit(F)
        ones = batch_subset_sums(np.ones((1, p)))[0]
        grid = np.linspace(pr.u.min() - 1.0, pr.u.max() + 1.0, 400)
        prev_max = None
        recon = np.full(p, grid[0] - 1.0)
        for alpha in grid:
            shifted = table + alpha * ones
            vmin = shifted.min()
            argmins = np.nonzero(shifted <= vmin + 1e-12)[0]
            lo = int(np.bitwise_and.reduce(argmins))
            hi = int(np.bitwise_or.reduce(argmins))
            strict, loose = so.prox_threshold_sets(pr.u, alpha, tau=1e-7)
            assert strict & ~hi == 0  # {u > a} inside the maximal minimizer
            assert lo & ~loose == 0   # minimal minimizer inside {u >= a}
            if prev_max is not None:
                assert hi & ~prev_max == 0  # nested as alpha grows
            prev_max = hi
            for k in so.elements_of(hi):
                recon[k] = max(recon[k], alpha)
        # reconstructing u from the grid of maximal minimizers
        step = grid[1] - grid[0]
        assert np.max(np.abs(recon - pr.u)) <= step + 1e-6


def test_line_search_examples():
    assert so.line_search_P(F_OR, np.zeros(2), [1.0, 1.0]) == pytest.approx(
        0.5, abs=1e-9)
    assert so.line_search_P(F_OR, np.zeros(2), [1.0, 0.0]) == pytest.approx(
        1.0, abs=1e-9)
    with pytest.raises(Unbounded):
        so.line_search_P(F_OR, np.zeros(2), [-1.0, -1.0])


def test_line_search_random():
    rng = np.random.default_rng(2)
    for seed in range(20):
        p = 5
        F = so.random_submodular(seed, p, "cover")
        t = rng.standard_normal(p)
        t[rng.integers(0, p)] = abs(rng.standard_normal()) + 0.1
        lam = so.line_search_P(F, np.zeros(p), t)
        table = so.to_explicit(F)
        tsums = batch_subset_sums(t[None, :])[0]
        pos = tsums > 0
        ref = float(np.min(table[pos] / tsums[pos]))
        assert lam == pytest.approx(ref, abs=1e-9)
        assert so.in_P(F, lam * t, tol=1e-9)
        assert not so.in_P(F, (lam + 1e-4 * max(1.0, lam)) * t, tol=1e-9)


def test_line_search_from_interior_point():
    F = so.random_submodular(3, 5, "cover")
    rng = np.random.default_rng(3)
    s0 = so.greedy_base(F, rng.standard_normal(5)) - 0.25
    assert so.in_P(F, s0)
    t = np.abs(rng.standard_normal(5)) + 0.05
    lam = so.line_search_P(F, s0, t)
    assert so.in_P(F, s0 + lam * t, tol=1e-9)
    assert not so.in_P(F, s0 + (lam + 1e-4 * max(1.0, lam)) * t, tol=1e-9)


def test_prox_over_P_examples():
    w, s = so.prox_over_P(F_OR, quad(2))
    assert np.allclose(w, [0.0, 0.0]) and np.allclose(s, [0.0, 0.0])
    w2, s2 = so.prox_over_P(so.modular_function([1.0, -1.0]), quad(2))
    assert np.allclose(w2, [0.0, 1.0]) and np.allclose(s2, [0.0, -1.0])
    w3, s3 = so.prox_over_P(F_OR, quad(2, z=[2.0, 2.0]))
    assert np.allclose(s3, [0.5, 0.5], atol=1e-9)
    assert np.allclose(w3, [1.5, 1.5], atol=1e-9)


def test_prox_over_P_consistency():
    rng = np.random.default_rng(4)
    for seed in range(8):
        p = 5
        F = so.random_submodular(seed, p, "cut+modular")
        q = so.Quadratic(np.exp(rng.uniform(-1, 1, p)), rng.standard_normal(p))
        w, s = so.prox_over_P(F, q, eps=1e-11)
        assert so.in_P(F, s, tol=1e-7)
        assert float(w @ s) == pytest.approx(so.lovasz_extension(F, w), abs=1e-7)
        fenchel = w * s + q.value(w) + q.conj_value(-s)
        assert np.max(np.abs(fenchel)) <= 1e-8


def test_prox_over_P_plus_examples():
    w, s = so.prox_over_P_plus(F_OR, quad(2))
    assert np.allclose(w, [0.0, 0.0]) and np.allclose(s, [0.0, 0.0])
    w2, s2 = so.prox_over_P_plus(F_OR, quad(2, z=[1.0, 1.0]))
    assert np.allclose(s2, [0.5, 0.5], atol=1e-9)
    assert np.allclose(w2, [0.5, 0.5], atol=1e-9)
    one = so.explicit_function([0.0, 1.0])
    w3, s3 = so.prox_over_P_plus(one, quad(1, z=[-3.0]))
    assert np.allclose(s3, [0.0]) and np.allclose(w3, [-3.0])


def test_prox_over_P_plus_objective_on_grid():
    # check against a brute grid search of min f(w_+) + sum psi
    F = so.random_submodular(1, 2, "cover")
    q = quad(2, z=[0.6, 1.4])
    w, s = so.prox_over_P_plus(F, q, eps=1e-11)
    obj = so.lovasz_extension(F, np.maximum(w, 0.0)) + float(np.sum(q.value(w)))
    grid = np.linspace(-2.0, 2.0, 161)
    best = min(
        so.lovasz_extension(F, np.maximum([a, b], 0.0))
        + float(np.sum(q.value(np.array([a, b]))))
        for a in grid for b in grid)
    assert obj <= best + 1e-6


def test_prox_over_P_plus_requires_monotone():
    from submodopt.errors import MonotonicityRequired
    dec = so.explicit_function([0.0, 1.0, -1.0, 0.5])
    with pytest.raises(MonotonicityRequired):
        so.prox_over_P_plus(dec, quad(2))


def test_check_separable_optimality_examples():
    assert so.check_separable_optimality(F_OR, [0.5, 0.5], quad(2))
    assert not so.check_separable_optimality(F_OR, [1.0, 0.0], quad(2))
    t = so.modular_function([0.2, -0.9])
    assert so.check_separable_optimality(t, [0.2, -0.9], cosh_penalty(2))
    # derivative values must have the shape of s
    with pytest.raises(ValueError):
        so.check_separable_optimality(t, [0.2, -0.9], [lambda x: x])
    with pytest.raises(ValueError):
        so.check_separable_optimality(t, [0.2, -0.9], lambda s: s[:1])


def test_lex_compare_examples():
    assert so.lex_compare([0.5, 0.5], [0.5, 0.5]) == 0
    assert so.lex_compare([0.5, 0.5], [1.0, 0.0]) == 1
    assert so.lex_compare([0.0, 1.0], [1.0, 0.0]) == 0
    with pytest.raises(ValueError):
        so.lex_compare([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        so.lex_compare([1, 2], [1, 2], [lambda x: x])


def test_lex_optimality_of_prox_solution():
    rng = np.random.default_rng(5)
    for seed in range(5):
        p = 5
        F = so.random_submodular(seed, p, "cut+modular")
        z = rng.standard_normal(p)
        q = so.Quadratic(np.ones(p), z)
        pr = so.prox_minnorm(F, q, eps=1e-11)
        deriv = lambda s: s - z  # derivative of the dual objective
        for _ in range(100):
            other = so.greedy_base(F, rng.standard_normal(p))
            assert so.lex_compare(pr.s, other, deriv) >= 0


def test_decomposition_depth_guard():
    with pytest.raises(RecursionOverflow):
        so.prox_decomposition(F_OR, quad(2), depth_limit=0)


@pytest.mark.parametrize("kind", ["cover", "energy"])
def test_decomposition_with_derivative_only_penalties(kind):
    # the root search for t(V) = F(V) leaves a rounding error, after which
    # the largest minimizer of F - t can come back empty instead of V
    rng = np.random.default_rng(14 if kind == "cover" else 41)
    p = 14
    F = (so.cover_function(dyadic_cover(rng, p)) if kind == "cover"
         else dyadic_energy(rng, p))
    a = dyadic(rng, 4.0, 16.0, size=p)
    z = dyadic(rng, -1.0, 1.0, size=p)
    b = dyadic(rng, 0.25, 1.0, size=p)

    pr = so.prox_minnorm(F, so.Quadratic(a, z), eps=1e-11)
    quadratic = SeparableConvex(p, deriv=lambda w: a * (w - z))
    s = so.prox_decomposition(F, quadratic)
    assert np.max(np.abs(s - pr.s)) <= 1e-6

    _check_cubic_routes(F, a, z, b)


def _check_cubic_routes(F, a, z, b):
    """prox_minnorm handles quadratics only: the cubic a(w-z) + b(w-z)^3 is
    checked against the homotopy route and for membership in B(F)."""
    table = so.to_explicit(F)
    cubic = SeparableConvex(F.p, deriv=lambda w: a * (w - z) + b * (w - z) ** 3)
    s = so.prox_decomposition(F, cubic)
    u = so.prox_homotopy(F, cubic)
    assert np.max(np.abs(s + cubic.deriv(u))) <= 1e-6
    assert abs(float(np.sum(s)) - table[-1]) <= 1e-6
    assert np.max(batch_subset_sums([s])[0] - table) <= 1e-6


@pytest.mark.parametrize("kind", ["cover", "energy"])
def test_homotopy_never_minimizes_the_same_shifted_function_twice(kind, monkeypatch):
    # the peel reads the secant loop's last minimization of F + psi'(alpha)
    rng = np.random.default_rng(9)
    p = 12
    F = (so.cover_function(dyadic_cover(rng, p)) if kind == "cover"
         else dyadic_energy(rng, p))
    a = dyadic(rng, 0.5, 2.0, size=p)
    z = dyadic(rng, -4.0, 4.0, size=p)
    b = dyadic(rng, 0.25, 1.0, size=p)
    shifts = []
    original = transforms.add_modular

    def recording(G, s):
        shifts.append((G, np.asarray(s, dtype=np.float64).tobytes()))
        return original(G, s)

    monkeypatch.setattr(transforms, "add_modular", recording)
    for psi in (so.Quadratic(a, z),
                SeparableConvex(p, deriv=lambda w: a * (w - z) + b * (w - z) ** 3)):
        shifts.clear()
        u = so.prox_homotopy(F, psi)
        assert len(shifts) > len(np.unique(u))  # some peel took a secant step
        for (f0, s0), (f1, s1) in zip(shifts, shifts[1:]):
            assert not (f0 is f1 and s0 == s1)


def test_homotopy_confirms_each_modular_peel_with_its_first_sfm(monkeypatch):
    # every block of a modular function's solution is one element, whose
    # singleton root is the block value, so no peel takes a secant step
    rng = np.random.default_rng(11)
    p = 10
    t = dyadic(rng, -2.0, 2.0, size=p)
    a = dyadic(rng, 0.5, 2.0, size=p)
    z = dyadic(rng, -1.0, 1.0, size=p)
    b = dyadic(rng, 0.25, 1.0, size=p)
    calls = []
    original = transforms.add_modular

    def recording(G, s):
        calls.append(G)
        return original(G, s)

    monkeypatch.setattr(transforms, "add_modular", recording)
    for psi in (so.Quadratic(a, z),
                SeparableConvex(p, deriv=lambda w: a * (w - z) + b * (w - z) ** 3)):
        calls.clear()
        u = so.prox_homotopy(so.modular_function(t), psi)
        assert len(np.unique(u)) == p
        assert len(calls) == p
        assert np.max(np.abs(psi.deriv(u) + t)) <= 1e-9


def _exponential(a, z, c):
    """Derivative-only a(w-z) + c(exp(w-z) - 1), increasing onto all of R."""
    return SeparableConvex(len(a), deriv=lambda w: a * (w - z) + c * np.expm1(w - z))


@settings(max_examples=60, deadline=None)
@given(p=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1),
       family=st.sampled_from(["cubic", "exponential"]),
       kind=st.sampled_from(["cover", "energy"]))
def test_homotopy_start_is_the_largest_singleton_root(p, seed, family, kind):
    rng = np.random.default_rng(seed)
    a = dyadic(rng, 0.25, 4.0, size=p)
    z = dyadic(rng, -2.0, 2.0, size=p)
    c = dyadic(rng, 0.0, 1.0, size=p)
    psi = (SeparableConvex(p, deriv=lambda w: a * (w - z) + c * (w - z) ** 3)
           if family == "cubic" else _exponential(a, z, c))
    singles = rng.uniform(-4.0, 4.0, size=p)
    alpha, k = prox._largest_singleton_root(singles, psi)
    want = float(np.max(psi.inv_deriv(-singles)))
    assert abs(alpha - want) <= 1e-9 * (1.0 + abs(want))
    assert abs(psi.deriv_at(alpha)[k] + singles[k]) <= 1e-9 * (1.0 + abs(singles[k]))

    # every singleton root lies below the top block value of the solution
    F = (so.cover_function(dyadic_cover(rng, p)) if kind == "cover"
         else dyadic_energy(rng, p))
    singles = np.array([F(1 << j) for j in range(p)])
    alpha, _ = prox._largest_singleton_root(singles, psi)
    assert alpha <= float(np.max(so.prox_homotopy(F, psi))) + 1e-9


@pytest.mark.parametrize("kind", ["cover", "energy"])
def test_homotopy_with_steep_cubic_penalties(kind):
    # centers up to 4 away make the cubic steep at the roots, where a root
    # search whose bracket keeps one end fixed returns a wrong alpha
    for seed in range(6):
        rng = np.random.default_rng(seed)
        p = 12
        F = (so.cover_function(dyadic_cover(rng, p)) if kind == "cover"
             else dyadic_energy(rng, p))
        _check_cubic_routes(F, dyadic(rng, 0.5, 2.0, size=p),
                            dyadic(rng, -4.0, 4.0, size=p),
                            dyadic(rng, 0.25, 1.0, size=p))


def test_decomposition_rejects_an_empty_minimizer_far_from_the_base(monkeypatch):
    # t(V) short of F(V) by more than rounding: F - t is positive off the
    # empty set, whose acceptance would return a point outside B(F)
    s = np.array([0.5, -0.25, 1.0])
    monkeypatch.setattr(prox, "_equalized_start", lambda Fc, pc: s[:Fc.p] - 1e-3)
    with pytest.raises(NumericalInconsistency, match="empty"):
        so.prox_decomposition(so.modular_function(s), quad(3), sfm_backend="brute")


def test_decomposition_above_the_cap_allocates_no_dense_table():
    rng = np.random.default_rng(32)
    c = dyadic_cover(rng, 32)
    q = so.Quadratic(dyadic(rng, 4.0, 16.0, size=32), dyadic(rng, -1.0, 1.0, size=32))
    with address_space_limit():
        s = so.prox_decomposition(so.cover_function(c), q)
        pr = so.prox_minnorm(so.cover_function(c), q, eps=1e-11)
    assert np.max(np.abs(s - pr.s)) <= 1e-6


@pytest.mark.parametrize("p", [40, 63])
def test_decomposition_and_homotopy_on_large_cuts(p):
    # cut + modular chains in one pass at every level of the recursion
    rng = np.random.default_rng(p)
    g = dyadic_digraph(rng, p, density=0.1)
    shift = dyadic(rng, -1.0, 1.0, size=p)
    q = so.Quadratic(dyadic(rng, 1.0, 4.0, size=p), dyadic(rng, -1.0, 1.0, size=p))

    def build():
        return so.add_modular(so.cut_function(g), shift)

    assert build().chainer is not None
    pr = so.prox_minnorm(build(), q, eps=1e-11)
    s = so.prox_decomposition(build(), q)
    u = so.prox_homotopy(build(), q)
    assert np.max(np.abs(s - pr.s)) <= 1e-6
    assert np.max(np.abs(u - pr.u)) <= 1e-6
    assert len(np.unique(np.round(pr.u, 6))) > 5  # several blocks to peel


@pytest.mark.parametrize("p", [40, 63])
def test_decomposition_and_homotopy_on_large_covers(p):
    rng = np.random.default_rng(p)
    c = dyadic_cover(rng, p)
    q = so.Quadratic(dyadic(rng, 1.0, 4.0, size=p), dyadic(rng, -1.0, 1.0, size=p))
    with address_space_limit():
        pr = so.prox_minnorm(so.cover_function(c), q, eps=1e-11)
        s = so.prox_decomposition(so.cover_function(c), q)
        u = so.prox_homotopy(so.cover_function(c), q)
    assert np.max(np.abs(s - pr.s)) <= 1e-6
    assert np.max(np.abs(u - pr.u)) <= 1e-6
    assert len(np.unique(np.round(pr.u, 6))) > 5  # several blocks to peel
