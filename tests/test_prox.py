"""Proximal solvers, threshold sets, line search, optimality checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import submodopt as so
from submodopt import _maxflow, prox, transforms
from submodopt.core import _NetworkMinor
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
    return SeparableConvex(p, deriv=np.sinh)


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


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), p=st.integers(1, 12))
def test_block_value_closed_form_matches_the_root_search(seed, p):
    rng = np.random.default_rng(seed)
    q = so.Quadratic(np.exp(rng.uniform(-2.0, 2.0, p)), rng.uniform(-3.0, 3.0, p))
    idx = rng.choice(p, size=int(rng.integers(1, p + 1)), replace=False)
    total = float(rng.uniform(-10.0, 10.0))
    alpha = prox._block_value(q, idx, total)
    searched = solve_increasing(lambda x: float(np.sum(q.deriv_at(x)[idx])), -total)
    assert abs(alpha - searched) <= 1e-12 * (1.0 + abs(searched))
    general = SeparableConvex(p, deriv=q.deriv)  # the same psi, no closed form
    assert abs(prox._block_value(general, idx, total) - searched) <= (
        1e-12 * (1.0 + abs(searched)))


@pytest.mark.parametrize("p", [6, 9, 12])
def test_quadratic_routes_run_no_root_search(monkeypatch, p):
    # every block value and singleton root of a quadratic has a closed form
    rng = np.random.default_rng(p)
    F = so.add_modular(so.cut_function(dyadic_digraph(rng, p)),
                       dyadic(rng, -1.0, 1.0, size=p))
    q = so.Quadratic(dyadic(rng, 0.5, 4.0, size=p), dyadic(rng, -2.0, 2.0, size=p))
    searches = []

    def counting_search(*args, **kwargs):
        searches.append(args)
        return solve_increasing(*args, **kwargs)

    monkeypatch.setattr(prox, "solve_increasing", counting_search)
    s = so.prox_decomposition(F, q)
    u = so.prox_homotopy(F, q)
    assert searches == []
    assert np.max(np.abs(u - (q.z - s / q.a))) <= 1e-9
    so.prox_homotopy(F, SeparableConvex(p, deriv=q.deriv))
    assert searches  # the counter sees a penalty without closed forms


def test_separable_convex_validation():
    with pytest.raises(ValueError):
        SeparableConvex(2, deriv=lambda w: np.tanh(w))  # saturates
    with pytest.raises(ValueError):
        SeparableConvex(2, deriv=lambda w: -w)  # decreasing
    with pytest.raises(ValueError, match="invert"):
        # mixes coordinates: the per-coordinate inverse misses the probe
        SeparableConvex(3, deriv=lambda w: w + 0.1 * np.sum(w))
    pen = cosh_penalty(3)
    y = pen.deriv(np.array([0.3, -1.0, 2.0]))
    assert np.allclose(pen.inv_deriv(y), [0.3, -1.0, 2.0], atol=1e-9)


def test_separable_default_inversion():
    pen = cosh_penalty(2)
    y = np.array([1.5, -0.25])
    assert np.allclose(pen.inv_deriv(y), np.arcsinh(y), atol=1e-9)


def test_quadratic_validation():
    with pytest.raises(ValueError, match="equal length"):
        so.Quadratic([1.0, 2.0], [0.0])
    with pytest.raises(ValueError, match="equal length"):
        so.Quadratic([[1.0]], [[0.0]])
    with pytest.raises(ValueError, match="positive"):
        so.Quadratic([1.0, 0.0], [0.0, 0.0])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="weights must be finite"):
            so.Quadratic([1.0, bad], [0.0, 0.0])
        with pytest.raises(ValueError, match="centers must be finite"):
            so.Quadratic([1.0, 1.0], [bad, 0.0])
    q = so.Quadratic([2.0, 0.5], [1.0, -1.0])
    assert q.p == 2
    assert q.inv_deriv(q.deriv(np.array([0.25, 3.0]))).tolist() == [0.25, 3.0]


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
    for alpha in (np.nan, np.inf, -np.inf):  # NaN used to give empty sets
        with pytest.raises(ValueError, match="alpha must be finite"):
            so.prox_threshold_sets(u, alpha)


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


def test_generic_penalty_solvers_agree():
    for seed in range(5):
        F = so.random_submodular(seed, 5, "cut+modular")
        pen = cosh_penalty(5)
        s = so.prox_decomposition(F, pen)
        u = so.prox_homotopy(F, pen)
        assert np.allclose(pen.inv_deriv(-s), u, atol=1e-6)
        assert so.in_B(F, s, tol=1e-7)
        assert so.check_separable_optimality(
            F, s, lambda x: -pen.inv_deriv(-x), tol=1e-6)


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
    dec = so.explicit_function([0.0, 1.0, -1.0, 0.5])
    with pytest.raises(ValueError, match="F decreases when adding"):
        so.prox_over_P_plus(dec, quad(2))


@pytest.mark.parametrize("kind", ["cut", "cover"])
def test_prox_over_P_with_a_derivative_only_penalty(kind):
    # a non-quadratic penalty takes the base pair from the decomposition
    # and inverts its derivative by root search
    for seed in range(4):
        rng = np.random.default_rng(seed)
        p = 5 + seed % 3
        F = (so.cut_function(dyadic_digraph(rng, p)) if kind == "cut"
             else so.cover_function(dyadic_cover(rng, p)))
        a = dyadic(rng, 0.5, 2.0, size=p)
        z = dyadic(rng, -2.0, 2.0, size=p)
        b = dyadic(rng, 0.25, 1.0, size=p)
        cubic = SeparableConvex(p, deriv=lambda w: a * (w - z) + b * (w - z) ** 3)
        v = so.prox_homotopy(F, cubic)
        t = -cubic.deriv(v)

        u, s = so.prox_over_P(F, cubic)
        assert np.max(np.abs(u - np.maximum(v, 0.0))) <= 1e-9
        assert np.max(np.abs(s - np.minimum(t, -cubic.deriv_at(0.0)))) <= 1e-9
        if kind == "cover":  # covers are non-decreasing
            w, s = so.prox_over_P_plus(F, cubic)
            assert np.all(s >= 0.0) and np.all(s <= np.maximum(t, 0.0) + 1e-9)
            assert np.max(np.abs(cubic.deriv(w) + s)) <= 1e-9


def test_check_separable_optimality_examples():
    assert so.check_separable_optimality(F_OR, [0.5, 0.5], quad(2))
    assert not so.check_separable_optimality(F_OR, [1.0, 0.0], quad(2))
    # one level, V, which the test skipped, so this non-base passed
    assert not so.check_separable_optimality(F_OR, [0.4, 0.4], quad(2))
    t = so.modular_function([0.2, -0.9])
    assert so.check_separable_optimality(t, [0.2, -0.9], cosh_penalty(2))
    # derivative values must have the shape of s
    with pytest.raises(ValueError):
        so.check_separable_optimality(t, [0.2, -0.9], lambda s: s[:1])


def test_lex_compare_examples():
    assert so.lex_compare([0.5, 0.5], [0.5, 0.5]) == 0
    assert so.lex_compare([0.5, 0.5], [1.0, 0.0]) == 1
    assert so.lex_compare([1.0, 0.0], [0.5, 0.5]) == -1
    assert so.lex_compare([0.0, 1.0], [1.0, 0.0]) == 0
    with pytest.raises(ValueError):
        so.lex_compare([1, 2], [1, 2, 3])


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
    # each SFM is the minimization of a minor plus the shift psi'(alpha)
    shifts = []
    original = _NetworkMinor.minimize

    def recording(G, s):
        shifts.append((G, np.asarray(s, dtype=np.float64).tobytes()))
        return original(G, s)

    monkeypatch.setattr(_NetworkMinor, "minimize", recording)
    for psi in (so.Quadratic(a, z),
                SeparableConvex(p, deriv=lambda w: a * (w - z) + b * (w - z) ** 3)):
        shifts.clear()
        u = so.prox_homotopy(F, psi)
        pairs = list(zip(shifts, shifts[1:]))
        # two shifts of one G in a row: some peel took a secant step
        assert any(f0 is f1 for (f0, _), (f1, _) in pairs)
        for (f0, s0), (f1, s1) in pairs:
            assert not (f0 is f1 and s0 == s1)


def test_homotopy_confirms_each_modular_peel_with_its_first_sfm(monkeypatch):
    # every block of a modular function's solution is one element, whose
    # singleton root is the block value, so no peel takes a secant step,
    # and the last peel, on one element, needs no SFM at all
    rng = np.random.default_rng(11)
    p = 10
    t = dyadic(rng, -2.0, 2.0, size=p)
    a = dyadic(rng, 0.5, 2.0, size=p)
    z = dyadic(rng, -1.0, 1.0, size=p)
    b = dyadic(rng, 0.25, 1.0, size=p)
    calls = []
    original = _maxflow.max_flow
    monkeypatch.setattr(_maxflow, "max_flow",
                        lambda *args: calls.append(1) or original(*args))
    for psi in (so.Quadratic(a, z),
                SeparableConvex(p, deriv=lambda w: a * (w - z) + b * (w - z) ** 3)):
        calls.clear()
        u = so.prox_homotopy(so.modular_function(t), psi)
        assert len(np.unique(u)) == p
        assert len(calls) == p - 1
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
    alpha, k = prox._largest_singleton_root(singles, psi, np.arange(p))
    want = float(np.max(psi.inv_deriv(-singles)))
    assert abs(alpha - want) <= 1e-9 * (1.0 + abs(want))
    assert abs(psi.deriv_at(alpha)[k] + singles[k]) <= 1e-9 * (1.0 + abs(singles[k]))

    # every singleton root lies below the top block value of the solution
    F = (so.cover_function(dyadic_cover(rng, p)) if kind == "cover"
         else dyadic_energy(rng, p))
    singles = np.array([F(1 << j) for j in range(p)])
    alpha, _ = prox._largest_singleton_root(singles, psi, np.arange(p))
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
    monkeypatch.setattr(prox, "_equalized_start",
                        lambda fv, pc, idx: s[idx] - 1e-3)
    with pytest.raises(NumericalInconsistency, match="empty"):
        so.prox_decomposition(so.modular_function(s), quad(3))


def _quadratic_and_cubic(a, z, b):
    return (so.Quadratic(a, z),
            SeparableConvex(a.size, deriv=lambda w: a * (w - z) + b * (w - z) ** 3))


def test_decomposition_leaves_of_one_element_run_no_sfm(monkeypatch):
    # B(F) of a one-element function is the point F(V), which the equalized
    # start already is
    rng = np.random.default_rng(17)
    p = 9
    m = dyadic(rng, -2.0, 2.0, size=p)
    a = dyadic(rng, 0.5, 2.0, size=p)
    z = dyadic(rng, -1.0, 1.0, size=p)
    b = dyadic(rng, 0.25, 1.0, size=p)
    sfm_sizes, starts = [], []
    minimize, start = _NetworkMinor.minimize, prox._equalized_start

    def counting_minimize(G, shift):
        sfm_sizes.append(G.live.shape[0])
        return minimize(G, shift)

    def recording_start(fv, psi, idx):
        t = start(fv, psi, idx)
        starts.append((idx.copy(), t.copy()))
        return t

    monkeypatch.setattr(_NetworkMinor, "minimize", counting_minimize)
    monkeypatch.setattr(prox, "_equalized_start", recording_start)
    F1 = so.modular_function(m[:1])
    for psi in _quadratic_and_cubic(a[:1], z[:1], b[:1]):
        sfm_sizes.clear()
        s = so.prox_decomposition(F1, psi)
        assert sfm_sizes == []
        assert s.tobytes() == start(F1(1), psi, np.arange(1)).tobytes()
    for psi in _quadratic_and_cubic(a, z, b):
        sfm_sizes.clear()
        starts.clear()
        s = so.prox_decomposition(so.modular_function(m), psi)
        assert sfm_sizes and 1 not in sfm_sizes
        leaves = [(idx, t) for idx, t in starts if idx.size == 1]
        assert sorted(int(idx[0]) for idx, _ in leaves) == list(range(p))
        for idx, t in leaves:
            assert s[idx].tobytes() == t.tobytes()
        assert np.max(np.abs(s - m)) <= 1e-9


def test_decomposition_leaf_keeps_the_base_check(monkeypatch):
    # a one-element leaf whose t(V) misses F(V) is a failed root search
    monkeypatch.setattr(prox, "_equalized_start",
                        lambda fv, pc, idx: np.array([fv - 1e-3]))
    with pytest.raises(NumericalInconsistency, match="differs from F"):
        so.prox_decomposition(so.modular_function([0.5]), quad(1))


def test_homotopy_last_element_keeps_the_peel_check(monkeypatch):
    # the closed-form last peel still checks F(V) + psi'(alpha) = 0
    root = prox._largest_singleton_root

    def off_at_the_last_element(singles, psi, idx):
        alpha, k = root(singles, psi, idx)
        return (alpha + 1e-3, k) if singles.size == 1 else (alpha, k)

    monkeypatch.setattr(prox, "_largest_singleton_root", off_at_the_last_element)
    with pytest.raises(NumericalInconsistency, match="peel set value"):
        so.prox_homotopy(so.modular_function([0.5, -1.0]), quad(2))


def test_decomposition_above_the_cap_allocates_no_dense_table():
    rng = np.random.default_rng(32)
    c = dyadic_cover(rng, 32)
    q = so.Quadratic(dyadic(rng, 4.0, 16.0, size=32), dyadic(rng, -1.0, 1.0, size=32))
    with address_space_limit():
        s = so.prox_decomposition(so.cover_function(c), q)
        pr = so.prox_minnorm(so.cover_function(c), q, eps=1e-11)
    assert np.max(np.abs(s - pr.s)) <= 1e-6


def _dual_derivative(q):
    """g' of the dual objective g(s) = sum_j psi*_j(-s_j) of a quadratic."""
    return lambda s: s / q.a - q.z


def _assert_routes_certified(F, q, pr, s_dec, u_hom, tol=1e-6):
    """The level-set test accepts each route's dual base, above the cap too,
    and rejects the min-norm base with mass moved between two coordinates."""
    g = _dual_derivative(q)
    for s in (pr.s, s_dec, q.a * (q.z - u_hom)):
        assert so.check_separable_optimality(F, s, g, tol)
    top, bottom = int(np.argmax(pr.u)), int(np.argmin(pr.u))
    moved = pr.s.copy()
    moved[top] += 1e-3
    moved[bottom] -= 1e-3
    assert not so.check_separable_optimality(F, moved, g, tol)


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
    _assert_routes_certified(build(), q, pr, s, u)


@pytest.mark.parametrize("p", [40, 63])
def test_decomposition_and_homotopy_on_large_covers(p):
    rng = np.random.default_rng(p)
    c = dyadic_cover(rng, p)
    q = so.Quadratic(dyadic(rng, 1.0, 4.0, size=p), dyadic(rng, -1.0, 1.0, size=p))
    with address_space_limit():
        pr = so.prox_minnorm(so.cover_function(c), q, eps=1e-11)
        s = so.prox_decomposition(so.cover_function(c), q)
        u = so.prox_homotopy(so.cover_function(c), q)
        _assert_routes_certified(so.cover_function(c), q, pr, s, u)
    assert np.max(np.abs(s - pr.s)) <= 1e-6
    assert np.max(np.abs(u - pr.u)) <= 1e-6
    assert len(np.unique(np.round(pr.u, 6))) > 5  # several blocks to peel


def test_level_set_test_builds_no_table_and_reads_f_once_per_level(monkeypatch):
    p = 63
    rng = np.random.default_rng(p)
    F = so.add_modular(so.cut_function(dyadic_digraph(rng, p, density=0.1)),
                       dyadic(rng, -1.0, 1.0, size=p))
    q = so.Quadratic(dyadic(rng, 1.0, 4.0, size=p), dyadic(rng, -1.0, 1.0, size=p))
    s = so.prox_decomposition(F, q)
    levels = len(list(so.core.level_sets(s / q.a - q.z, 1e-6)))
    reads = []
    counted = so.SetFunction(p, lambda mask: reads.append(mask) or F(mask))
    reads.clear()  # the constructor reads F(empty set)

    def no_table(self, cap=None):
        raise AssertionError("the level-set test built a table")

    monkeypatch.setattr(so.SetFunction, "tabulate", no_table)
    assert so.check_separable_optimality(counted, s, _dual_derivative(q), 1e-6)
    assert len(reads) == levels > 5


def _check_level_set_test_against_exchange_form(F, s, g, tol=1e-8):
    """The level-set test gives the answer of the exchange form with weights -g'(s)."""
    ok = so.check_separable_optimality(F, s, g, tol)
    assert ok == so.polyhedra.base_maximizer_exchange_check(F, s, -g(s), tol)
    return ok


@settings(max_examples=100, deadline=None)
@given(p=st.integers(1, 10), seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(["cut", "cover"]))
def test_level_set_test_agrees_with_the_exchange_form(p, seed, kind):
    # the exchange form reads all 2**p tight sets, so it is the reference
    # for the level-set test that check_separable_optimality runs alone
    rng = np.random.default_rng(seed)
    base = (so.cut_function(dyadic_digraph(rng, p)) if kind == "cut"
            else so.cover_function(dyadic_cover(rng, p)))
    F = so.add_modular(base, dyadic(rng, -1.0, 1.0, size=p))
    q = so.Quadratic(dyadic(rng, 0.5, 4.0, size=p), dyadic(rng, -2.0, 2.0, size=p))
    g = _dual_derivative(q)
    for _ in range(3):  # greedy bases, optimal or not
        s = so.greedy_base(F, dyadic(rng, -2.0, 2.0, size=p))
        _check_level_set_test_against_exchange_form(F, s, g)
    routes = (so.prox_decomposition(F, q),
              q.a * (q.z - so.prox_homotopy(F, q)))
    for s in routes:
        assert _check_level_set_test_against_exchange_form(F, s, g)
    if p > 1:  # a base with mass moved between two coordinates is not optimal
        i, j = rng.choice(p, size=2, replace=False)
        s = routes[0].copy()
        s[i] += 2.0 ** -4
        s[j] -= 2.0 ** -4
        assert not _check_level_set_test_against_exchange_form(F, s, g)


def _assert_prox_optimal(F, table, u, s, tol=1e-6):
    """s in B(F) and every upper level set of u tight for s: with s = -psi'(u),
    this certifies that u minimizes f(w) + sum_j psi_j(w_j)."""
    assert abs(float(np.sum(s)) - table[-1]) <= tol
    assert np.max(batch_subset_sums([s])[0] - table) <= tol
    for _, mask in so.core.level_sets(-u, 1e-7):
        assert abs(float(np.sum(s[so.elements_of(mask)])) - table[mask]) <= tol


@settings(max_examples=150, deadline=None)
@given(p=st.integers(1, 10), seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(["cut", "cover"]), scaled=st.booleans())
def test_prox_routes_agree_on_shifted_cuts_and_covers(p, seed, kind, scaled):
    # coefficients differ per coordinate, so a reduced problem that reads
    # the penalty at the wrong root coordinates changes the answer; scaled
    # by 1, F keeps its values but no closed structure, so every SFM of the
    # decomposition and the homotopy takes min-norm instead of max-flow
    rng = np.random.default_rng(seed)
    base = (so.cut_function(dyadic_digraph(rng, p)) if kind == "cut"
            else so.cover_function(dyadic_cover(rng, p)))
    F = so.add_modular(base, dyadic(rng, -1.0, 1.0, size=p))
    table = so.to_explicit(F)
    G = so.scale(F, 1.0) if scaled else F
    a = dyadic(rng, 0.5, 4.0, size=p)
    z = dyadic(rng, -2.0, 2.0, size=p)
    b = dyadic(rng, 0.25, 1.0, size=p)

    q = so.Quadratic(a, z)
    pr = so.prox_minnorm(F, q, eps=1e-11)
    s_dec = so.prox_decomposition(G, q)
    u_hom = so.prox_homotopy(G, q)
    for u, s in ((pr.u, pr.s), (z - s_dec / a, s_dec), (u_hom, a * (z - u_hom))):
        assert np.max(np.abs(u - pr.u)) <= 1e-6
        _assert_prox_optimal(F, table, u, s)

    cubic = SeparableConvex(p, deriv=lambda w: a * (w - z) + b * (w - z) ** 3)
    s_dec = so.prox_decomposition(G, cubic)
    u_hom = so.prox_homotopy(G, cubic)
    s_hom = -cubic.deriv(u_hom)
    assert np.max(np.abs(s_dec - s_hom)) <= 1e-6
    _assert_prox_optimal(F, table, u_hom, s_hom)
    _assert_prox_optimal(F, table, cubic.inv_deriv(-s_dec), s_dec)


@pytest.mark.parametrize("kind", ["energy", "cover"])
@pytest.mark.parametrize("p", [18, 19, 20])
def test_default_backend_gives_the_min_norm_answers(monkeypatch, kind, p):
    # the SFMs of both recursive routes go to max-flow on a cut or a cover
    # and return the same lattice extremes as min-norm does on F scaled by
    # 1, which keeps the values but no closed structure, so the answers
    # agree to the bit
    from submodopt import _maxflow

    rng = np.random.default_rng(p)
    F = dyadic_energy(rng, p, 0.15) if kind == "energy" else so.cover_function(
        dyadic_cover(rng, p))
    a = dyadic(rng, 4.0, 16.0, size=p)
    z = dyadic(rng, -1.0, 1.0, size=p)
    b = dyadic(rng, 0.25, 1.0, size=p)
    q = so.Quadratic(a, z)
    cubic = SeparableConvex(p, deriv=lambda w: a * (w - z) + b * (w - z) ** 3)
    flows = []
    max_flow = _maxflow.max_flow
    monkeypatch.setattr(_maxflow, "max_flow", lambda *args: flows.append(1) or max_flow(*args))
    for route, psi in ((so.prox_decomposition, q), (so.prox_homotopy, q),
                       (so.prox_homotopy, cubic)):
        del flows[:]
        got = route(F, psi)
        assert flows
        del flows[:]
        assert np.array_equal(got, route(so.scale(F, 1.0), psi))
        assert not flows


@pytest.mark.parametrize("kind", ["cut", "cover", "modular"])
def test_recursive_routes_lay_out_one_network_and_search_once_per_sfm(kind, monkeypatch):
    # the root's network is laid out once per call; every SFM writes its
    # terminal capacities into a copy and runs one search, and no SFM goes
    # through the transforms
    rng = np.random.default_rng(23)
    p = 12
    base = {"cut": lambda: so.cut_function(dyadic_digraph(rng, p)),
            "cover": lambda: so.cover_function(dyadic_cover(rng, p)),
            "modular": lambda: so.modular_function(np.zeros(p))}[kind]()
    F = so.add_modular(base, dyadic(rng, -1.0, 1.0, size=p))
    a = dyadic(rng, 0.5, 4.0, size=p)
    z = dyadic(rng, -2.0, 2.0, size=p)
    b = dyadic(rng, 0.25, 1.0, size=p)
    counts = {"layout": 0, "search": 0, "sfm": 0, "transform": 0}

    def counting(key, fn):
        def counted(*args):
            counts[key] += 1
            return fn(*args)
        return counted

    monkeypatch.setattr(_maxflow, "residual_network",
                        counting("layout", _maxflow.residual_network))
    monkeypatch.setattr(_maxflow, "max_flow", counting("search", _maxflow.max_flow))
    monkeypatch.setattr(_NetworkMinor, "minimize", counting("sfm", _NetworkMinor.minimize))
    for name in ("restrict", "contract", "add_modular"):
        monkeypatch.setattr(transforms, name, counting("transform", getattr(transforms, name)))
    for route, psi in ((so.prox_decomposition, so.Quadratic(a, z)),
                       (so.prox_homotopy, so.Quadratic(a, z)),
                       (so.prox_decomposition, _quadratic_and_cubic(a, z, b)[1]),
                       (so.prox_homotopy, _quadratic_and_cubic(a, z, b)[1])):
        for key in counts:
            counts[key] = 0
        route(F, psi)
        assert counts["layout"] == 1
        assert counts["search"] == counts["sfm"] > 1
        assert counts["transform"] == 0
