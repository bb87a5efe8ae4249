"""Extension values, greedy bases, support values, and the conjugate."""

import math

import numpy as np
import pytest

import submodopt as so

from helpers import (all_descending_orders, lovasz_by_breakpoints,
                     lovasz_for_order, lovasz_split_at_zero)

F_OR = so.explicit_function([0.0, 1.0, 1.0, 1.0])
SYM_CUT2 = so.explicit_function([0.0, 1.0, 1.0, 0.0])


def test_extension_examples():
    # modular functions extend linearly
    rng = np.random.default_rng(0)
    s = rng.standard_normal(4)
    F = so.modular_function(s)
    for _ in range(5):
        w = rng.standard_normal(4)
        assert so.lovasz_extension(F, w) == pytest.approx(float(w @ s), abs=1e-12)
    # indicator vectors recover the set values
    G = so.random_submodular(1, 5, "cut")
    for m in range(1 << 5):
        w = np.array([(m >> k) & 1 for k in range(5)], dtype=float)
        assert so.lovasz_extension(G, w) == G(m)
    assert so.lovasz_extension(SYM_CUT2, [2.0, 0.5]) == pytest.approx(1.5, abs=1e-12)


def test_greedy_examples():
    s = so.greedy_base(F_OR, [3.0, 1.0])
    assert np.array_equal(s, [1.0, 0.0])
    assert float(np.dot([3.0, 1.0], s)) == so.lovasz_extension(F_OR, [3.0, 1.0]) == 3.0
    F = so.SetFunction(3, lambda m: float(int(m).bit_count()))
    assert np.array_equal(so.greedy_base(F, [0.3, 2.0, -1.0]), [1.0, 1.0, 1.0])
    assert np.array_equal(so.greedy_base(SYM_CUT2, [0.0, 1.0]), [-1.0, 1.0])


def test_truncated_greedy_examples():
    s = so.truncated_greedy(F_OR, [3.0, -1.0])
    assert np.array_equal(s, [1.0, 0.0])
    assert float(np.dot([3.0, -1.0], s)) == 3.0
    assert np.array_equal(so.truncated_greedy(F_OR, [-1.0, -2.0]), [0.0, 0.0])
    F = so.SetFunction(2, lambda m: float(int(m).bit_count()))
    assert np.array_equal(so.truncated_greedy(F, [2.0, 1.0]), [1.0, 1.0])
    # the value is the extension at the positive part
    w = np.array([3.0, -1.0])
    assert float(w @ s) == so.lovasz_extension(F_OR, np.maximum(w, 0.0))


def test_support_examples():
    assert so.support_P(F_OR, [1.0, 1.0]) == 1.0
    assert so.support_P(F_OR, [1.0, -0.1]) == math.inf
    assert so.support_P(SYM_CUT2, [0.0, 0.0]) == 0.0


def test_conjugate_examples():
    assert so.conjugate(F_OR, [2.0, 0.0]) == (1.0, 0b01)
    F = so.random_submodular(5, 5, "cut+modular")
    value, arg = so.conjugate(F, np.zeros(5))
    vmin = min(F(m) for m in range(1 << 5))
    assert value == -vmin
    t = np.array([0.5, -1.5, 2.0])
    T = so.modular_function(t)
    assert so.conjugate(T, t) == (0.0, 0)


def test_homogeneity_and_shift():
    rng = np.random.default_rng(2)
    F = so.random_submodular(3, 6, "cut+modular")
    full_val = F((1 << 6) - 1)
    for _ in range(20):
        w = rng.standard_normal(6)
        lam = float(rng.random() * 3)
        alpha = float(rng.standard_normal())
        f = so.lovasz_extension(F, w)
        assert so.lovasz_extension(F, lam * w) == pytest.approx(lam * f, abs=1e-10)
        assert (so.lovasz_extension(F, w + alpha)
                == pytest.approx(f + alpha * full_val, abs=1e-10))


def test_tie_break_invariance():
    rng = np.random.default_rng(3)
    F = so.random_submodular(4, 5, "cover")
    for _ in range(10):
        w = rng.integers(-2, 3, size=5).astype(float)  # plenty of ties
        ref = so.lovasz_extension(F, w)
        for order in all_descending_orders(w):
            val = lovasz_for_order(F, w, order)
            assert val == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_extension_identity_exact():
    for seed, family, p in ((0, "cut", 8), (1, "cover", 8),
                            (2, "cut+modular", 8), (3, "cut", 12)):
        F = so.random_submodular(seed, p, family)
        for m in range(1 << p):
            w = np.array([(m >> k) & 1 for k in range(p)], dtype=float)
            assert so.lovasz_extension(F, w) == F(m)


def test_convexity_certificate():
    # f(1_A + 1_B) always equals F(union) + F(intersection); for submodular F
    # that never exceeds f(1_A) + f(1_B), and a non-submodular F violates it
    F = so.random_submodular(6, 6, "cut")
    for a in range(0, 1 << 6, 5):
        for b in range(0, 1 << 6, 7):
            wa = np.array([(a >> k) & 1 for k in range(6)], dtype=float)
            wb = np.array([(b >> k) & 1 for k in range(6)], dtype=float)
            both = so.lovasz_extension(F, wa + wb)
            assert both == pytest.approx(F(a | b) + F(a & b), abs=1e-9)
            assert both <= F(a) + F(b) + 1e-9
    sq = so.explicit_function([0.0, 1.0, 1.0, 4.0])
    w1 = np.array([1.0, 0.0])
    w2 = np.array([0.0, 1.0])
    assert (so.lovasz_extension(sq, w1 + w2)
            > so.lovasz_extension(sq, w1) + so.lovasz_extension(sq, w2))


def test_greedy_base_membership():
    rng = np.random.default_rng(4)
    for seed in range(5):
        F = so.random_submodular(seed, 8, "cut+modular")
        for _ in range(5):
            w = rng.standard_normal(8)
            s = so.greedy_base(F, w)
            assert so.in_B(F, s, tol=1e-9)
            assert float(w @ s) == pytest.approx(so.lovasz_extension(F, w), abs=1e-9)


def test_symmetric_extension_is_even():
    rng = np.random.default_rng(5)
    g = so.Digraph(4, [(i, j, 1.0) for i in range(4) for j in range(4) if i < j]
                   + [(j, i, 1.0) for i in range(4) for j in range(4) if i < j])
    F = so.cut_function(g)
    assert so.is_symmetric(F).holds
    for _ in range(20):
        w = rng.standard_normal(4)
        assert (so.lovasz_extension(F, w)
                == pytest.approx(so.lovasz_extension(F, -w), abs=1e-10))


def test_conjugate_fenchel_identity():
    # the conjugate equals the best gap w^T s - f(w) over binary w
    F = so.random_submodular(7, 5, "cut+modular")
    rng = np.random.default_rng(6)
    for _ in range(5):
        s = rng.standard_normal(5)
        value, _ = so.conjugate(F, s)
        best = max(
            float(np.array([(m >> k) & 1 for k in range(5)], dtype=float) @ s)
            - F(m) for m in range(1 << 5))
        assert value == pytest.approx(best, abs=1e-12)


def test_cube_minimization_equivalence():
    # the extension restricted to the unit cube attains its minimum at a
    # corner, and that corner value is the discrete minimum
    rng = np.random.default_rng(9)
    for seed in range(5):
        F = so.random_submodular(seed, 6, "cut+modular")
        vmin = so.brute_minimize(F).min_value
        corner_min = min(
            so.lovasz_extension(F, np.array([(m >> k) & 1 for k in range(6)],
                                            dtype=float))
            for m in range(1 << 6))
        assert corner_min == vmin
        for _ in range(200):
            w = rng.random(6)
            assert so.lovasz_extension(F, w) >= vmin - 1e-12


def test_integral_formulations_agree():
    rng = np.random.default_rng(8)
    for seed in range(4):
        F = so.random_submodular(seed, 6, "cut+modular")
        for _ in range(10):
            w = rng.standard_normal(6)
            ref = so.lovasz_extension(F, w)
            assert lovasz_by_breakpoints(F, w) == pytest.approx(ref, abs=1e-9)
            assert lovasz_split_at_zero(F, w) == pytest.approx(ref, abs=1e-9)
