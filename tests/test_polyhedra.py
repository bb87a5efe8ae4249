"""Membership, tight-set structure, maximizer certificates, faces."""

import time

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import submodopt as so
from submodopt import _kernels, polyhedra
from submodopt.polyhedra import base_maximizer_exchange_check

from helpers import (close_lattice, closure_violation_ref, dyadic, dyadic_cover,
                     dyadic_digraph, subset_sums_ref)

F_OR = so.explicit_function([0.0, 1.0, 1.0, 1.0])
SYM_CUT2 = so.explicit_function([0.0, 1.0, 1.0, 0.0])


def test_membership_examples():
    assert so.in_B(F_OR, [0.5, 0.5])
    assert not so.in_P(F_OR, [1.0, 1.0])  # s(V) = 2 > 1
    F = so.random_submodular(0, 5, "cut+modular")
    c = min(F(m) / int(m).bit_count() for m in range(1, 1 << 5))
    assert so.in_P(F, np.full(5, c))


def test_in_P_plus():
    assert so.in_P_plus(F_OR, [0.5, 0.5])
    assert not so.in_P_plus(F_OR, [-0.5, 0.5])
    assert so.in_P_plus(F_OR, [0.0, 0.0])


def test_tight_sets_examples():
    assert so.tight_sets(F_OR, [1.0, 0.0]) == [0, 0b01, 0b11]
    assert so.tight_sets(F_OR, [0.5, 0.5]) == [0, 0b11]
    # strictly interior point of P with slack at V: only the empty set
    assert so.tight_sets(F_OR, [0.25, 0.25]) == [0]


def test_tight_family_closure_violation_detected():
    from submodopt.errors import NumericalInconsistency
    import pytest

    # both singletons are tight within tol but their union is not: the
    # family fails the lattice check, so the tolerance straddles a boundary
    zero = so.modular_function([0.0, 0.0])
    message = "tight family not a lattice at tol=1e-09: sets 1 and 2"
    with pytest.raises(NumericalInconsistency, match=f"^{message}$"):
        so.tight_sets(zero, [0.9e-9, 0.9e-9], tol=1e-9)


def _family_function(rng, flags):
    """(F, s) whose tight sets at tol 1e-9 are the masks that flags marks:
    F = s(A) on them and s(A) + 1 elsewhere, with dyadic s."""
    p = flags.shape[0].bit_length() - 1
    s = dyadic(rng, -1.0, 1.0, size=p)
    table = subset_sums_ref(s) + np.where(flags, 0.0, 1.0)
    return so.explicit_function(table), s


def test_tight_sets_agree_with_the_pair_search():
    # the linear lattice test decides; a failure is named by the pair search
    from submodopt.errors import NumericalInconsistency
    import pytest

    rng = np.random.default_rng(7)
    outcomes = set()
    for p in (2, 3, 5, 7):
        for trial in range(30):
            u = (1 << p) - 1 if trial % 3 else int(rng.integers(1 << p))
            flags = np.zeros(1 << p, dtype=bool)
            flags[rng.integers(1 << p, size=int(rng.integers(1, 6))) & u] = True
            flags[0] = True
            if trial % 2:
                close_lattice(flags)
            masks = np.nonzero(flags)[0]
            F, s = _family_function(rng, flags)
            i, l = closure_violation_ref(masks, flags)
            outcomes.add((i < 0, bool(flags[-1])))
            if i < 0:
                assert so.tight_sets(F, s) == masks.tolist()
                continue
            message = (f"tight family not a lattice at tol=1e-09: "
                       f"sets {masks[i]} and {masks[l]}")
            with pytest.raises(NumericalInconsistency, match=f"^{message}$"):
                so.tight_sets(F, s)
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


def test_tight_sets_of_a_modular_function_at_p_16(monkeypatch):
    # every one of the 65 536 sets is tight; the pair search alone would
    # make 2**32 checks (seconds at p = 13 already), the lattice test 16
    # passes over the family
    def pair_search(*args):
        raise AssertionError("a lattice needs no pair search")

    monkeypatch.setattr(_kernels, "closure_violation", pair_search)
    s = dyadic(np.random.default_rng(8), -1.0, 1.0, size=16)
    started = time.perf_counter()
    tight = so.tight_sets(so.modular_function(s), s)
    assert time.perf_counter() - started < 5.0
    assert tight == list(range(1 << 16))


def test_dep_examples():
    assert so.dep(F_OR, [1.0, 0.0], 0) == 0b01
    assert so.dep(F_OR, [1.0, 0.0], 1) == 0b11
    t = np.array([0.3, -0.7, 1.1])
    T = so.modular_function(t)
    for k in range(3):
        assert so.dep(T, t, k) == 1 << k


def test_dep_is_tight_and_contains_element():
    for seed in range(5):
        F = so.random_submodular(seed, 6, "cut+modular")
        rng = np.random.default_rng(seed)
        s = so.greedy_base(F, rng.standard_normal(6))
        tight = set(so.tight_sets(F, s, tol=1e-9))
        for k in range(6):
            d = so.dep(F, s, k)
            assert d & (1 << k)
            assert d in tight


def test_base_maximizer_examples():
    assert so.is_base_maximizer(F_OR, [1.0, 0.0], [3.0, 1.0])
    assert not so.is_base_maximizer(F_OR, [0.0, 1.0], [3.0, 1.0])
    for seed in range(4):
        F = so.random_submodular(seed, 6, "cover")
        rng = np.random.default_rng(seed + 10)
        w = rng.standard_normal(6)
        s = so.greedy_base(F, w)
        assert so.is_base_maximizer(F, s, w)
        assert base_maximizer_exchange_check(F, s, w)


def test_base_maximizer_forms_agree():
    rng = np.random.default_rng(11)
    for seed in range(4):
        F = so.random_submodular(seed, 5, "cut+modular")
        w = rng.standard_normal(5)
        for _ in range(6):
            s = so.greedy_base(F, rng.standard_normal(5))
            assert (so.is_base_maximizer(F, s, w)
                    == base_maximizer_exchange_check(F, s, w))


@settings(max_examples=150, deadline=None)
@given(p=st.integers(1, 10), seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(["cut", "cover"]))
def test_base_maximizer_forms_agree_on_dyadic_bases(p, seed, kind):
    # w on a coarse grid has ties, so some level sets hold several
    # elements; midpoints of two greedy vertices are bases off the vertices
    # with fewer tight sets; dyadic data keeps every sum exact
    rng = np.random.default_rng(seed)
    base = (so.cut_function(dyadic_digraph(rng, p)) if kind == "cut"
            else so.cover_function(dyadic_cover(rng, p)))
    F = so.add_modular(base, dyadic(rng, -1.0, 1.0, size=p))
    w = rng.integers(-2, 3, size=p) / 4.0
    vertex = so.greedy_base(F, rng.integers(-2, 3, size=p) / 4.0)
    for s in (so.greedy_base(F, w), vertex,
              (vertex + so.greedy_base(F, rng.standard_normal(p))) / 2.0):
        assert so.in_B(F, s)
        assert (so.is_base_maximizer(F, s, w)
                == base_maximizer_exchange_check(F, s, w))
    assert so.is_base_maximizer(F, so.greedy_base(F, w), w)


def test_degenerate_constant_w_all_bases_maximize():
    F = so.random_submodular(2, 5, "cut+modular")
    rng = np.random.default_rng(12)
    for _ in range(5):
        s = so.greedy_base(F, rng.standard_normal(5))
        assert so.is_base_maximizer(F, s, np.zeros(5))


def test_p_plus_maximizer_examples():
    assert so.is_P_plus_maximizer(F_OR, [1.0, 0.0], [3.0, -1.0])
    assert not so.is_P_plus_maximizer(F_OR, [1.0, 0.0], [-1.0, -1.0])
    assert so.is_P_plus_maximizer(F_OR, [0.0, 0.0], [-1.0, -2.0])
    # a block where w is zero carries no condition, so its prefix need not be tight
    M = so.modular_function([1.0, 1.0])
    assert so.is_P_plus_maximizer(M, [1.0, 0.0], [1.0, 0.0])
    assert not so.is_P_plus_maximizer(M, [0.5, 0.0], [1.0, 0.0])


def test_separable_witness_examples():
    t = so.modular_function([1.0, 2.0])
    assert so.separable_witness(t, 0b11) == 0b01
    assert so.separable_witness(SYM_CUT2, 0b11) is None
    assert so.separable_witness(F_OR, 0b11) is None


def test_face_check_examples():
    assert so.face_check(F_OR, [0b01, 0b10])
    t = so.modular_function([1.0, 2.0])
    assert not so.face_check(t, [0b11])
    assert so.face_check(SYM_CUT2, [0b11])


def test_down_closure():
    rng = np.random.default_rng(13)
    for seed in range(4):
        F = so.random_submodular(seed, 6, "cut+modular")
        s = so.greedy_base(F, rng.standard_normal(6))
        for _ in range(10):
            t = s - np.abs(rng.standard_normal(6))
            assert so.in_P(F, t)


def test_greedy_bases_bounded():
    for seed in range(4):
        F = so.random_submodular(seed, 6, "cut+modular")
        singles = [F(1 << k) for k in range(6)]
        full = (1 << 6) - 1
        drops = [F(full) - F(full ^ (1 << k)) for k in range(6)]
        rng = np.random.default_rng(seed)
        for _ in range(10):
            s = so.greedy_base(F, rng.standard_normal(6))
            assert so.in_B(F, s)
            assert np.all(s <= np.array(singles) + 1e-9)
            assert np.all(s >= np.array(drops) - 1e-9)


def test_exchangeable_pairs_scan_tight_sets_once(monkeypatch):
    rng = np.random.default_rng(6)
    cases = []
    for seed in range(5):
        F = so.random_submodular(seed, 6, "cut+modular")
        # rounded weights tie, so the tight family is more than a chain
        s = so.greedy_base(F, np.round(rng.standard_normal(6)))
        cases.append((F, s, [(k, q) for k in range(6)
                             for q in so.elements_of(so.dep(F, s, k)) if q != k]))
    scans = []
    tight_sets = polyhedra.tight_sets

    def counted(*args, **kwargs):
        scans.append(args)
        return tight_sets(*args, **kwargs)

    monkeypatch.setattr(polyhedra, "tight_sets", counted)
    for F, s, expected in cases:
        assert so.exchangeable_pairs(F, s) == expected
    assert len(scans) == len(cases)
    assert any(expected for _, _, expected in cases)


def test_exchange_direction_feasible():
    # moving mass from q in dep(s, k) toward k stays inside B(F)
    rng = np.random.default_rng(14)
    for seed in range(4):
        F = so.random_submodular(seed, 5, "cut+modular")
        s = so.greedy_base(F, rng.standard_normal(5))
        for k, q in so.exchangeable_pairs(F, s):
            step = np.zeros(5)
            step[k] += 1.0
            step[q] -= 1.0
            alpha = 1.0
            feasible = so.in_B(F, s + alpha * step)
            while not feasible and alpha > 1e-6:
                alpha *= 0.5
                feasible = so.in_B(F, s + alpha * step)
            assert feasible, (seed, k, q)


def test_tangent_cone_generators():
    # feasible directions at a vertex decompose over exchange-pair generators
    from scipy.optimize import nnls

    rng = np.random.default_rng(15)
    for seed in range(4):
        F = so.random_submodular(seed, 4, "cut+modular")
        s = so.greedy_base(F, rng.standard_normal(4))
        pairs = so.exchangeable_pairs(F, s)
        gens = np.zeros((4, len(pairs)))
        for i, (k, q) in enumerate(pairs):
            gens[k, i] = 1.0
            gens[q, i] = -1.0
        for _ in range(10):
            other = so.greedy_base(F, rng.standard_normal(4))
            direction = other - s
            if not pairs:
                assert np.allclose(direction, 0.0, atol=1e-9)
                continue
            _, residual = nnls(gens, direction)
            assert residual <= 1e-8, (seed, direction)


def test_maximizer_checks_read_F_once_per_level_at_p30():
    # no 2**30 enumeration: one oracle call per distinct value of w
    w = np.arange(30.0)
    F = so.modular_function(w)
    assert so.is_base_maximizer(F, so.greedy_base(F, w), w)

    calls = []
    G = so.random_submodular(4, 30, "cut+modular")
    counted = so.SetFunction(30, lambda m: calls.append(m) or G(m))
    levels = np.arange(30) // 3 - 4.5  # 10 levels of 3 elements, half negative
    calls.clear()
    assert so.is_base_maximizer(counted, so.greedy_base(G, levels), levels)
    assert len(calls) == 10
    assert not so.is_base_maximizer(counted, so.greedy_base(G, -levels), levels)

    H = so.random_submodular(5, 30, "cover")
    assert so.is_P_plus_maximizer(H, so.truncated_greedy(H, levels), levels)
    assert not so.is_P_plus_maximizer(H, so.truncated_greedy(H, -levels), levels)
    # the nonnegative blocks are tight, so only the zero check can fail
    s = so.truncated_greedy(H, levels)
    s[0] = 1e-3
    assert not so.is_P_plus_maximizer(H, s, levels)
    zero_level = np.arange(30) // 3 - 4.0  # elements 12..14 have w = 0
    assert so.is_P_plus_maximizer(H, so.truncated_greedy(H, zero_level), zero_level)
    assert not so.is_P_plus_maximizer(H, so.truncated_greedy(H, -zero_level), zero_level)
