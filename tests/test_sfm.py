"""Minimum-norm-point solver, minimization backends, certificates."""

import numpy as np
import pytest

import submodopt as so
from submodopt.errors import NumericalInconsistency

from helpers import brute_min

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
        assert corral.gram.shape == (len(corral.coeffs), len(corral.coeffs))
        for base in corral.bases:
            assert so.in_B(F, base, tol=1e-9)


def test_corral_gram_is_the_metric_gram_of_the_centered_bases():
    rng = np.random.default_rng(5)
    for seed in range(5):
        F = so.random_submodular(seed, 7, "cover+modular")
        d = rng.uniform(0.5, 4.0, 7)
        c = rng.uniform(-1.0, 1.0, 7)
        _, corral = so.min_norm_point(F, weights=d, center=c)
        centered = corral.bases - c
        assert np.allclose(corral.gram, (centered * d) @ centered.T,
                           rtol=0.0, atol=1e-12)


def test_min_norm_point_makes_one_greedy_call_per_iterate(monkeypatch):
    from submodopt import sfm
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
    from submodopt import sfm

    # B(F) is the segment from (2, 1) to (0, 3); weighting the second vertex
    # too heavily moves the iterate away from the origin
    F = so.explicit_function([0.0, 2.0, 3.0, 3.0])
    monkeypatch.setattr(sfm, "_affine_minimizer", lambda gram: np.array([0.1, 0.9]))
    with pytest.raises(NumericalInconsistency, match="norm increased.*5.0"):
        so.min_norm_point(F)


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
