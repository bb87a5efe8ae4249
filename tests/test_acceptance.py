"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Everything is checked
against exhaustive enumeration oracles at small ground-set sizes; random
instances are seeded, so outcomes are reproducible.
"""

import math

import numpy as np
import pytest

import submodopt as so

from helpers import batch_subset_sums, check_certified_minimum

FAMILIES = ("cut", "cover", "logdet", "cut+modular", "cover+modular",
            "logdet+modular")
DYADIC_FAMILIES = ("cut", "cover", "cut+modular", "cover+modular")


def _binary(mask, p):
    return np.array([(mask >> k) & 1 for k in range(p)], dtype=float)


def test_criterion_1_sfm_matches_brute_force():
    checked = 0
    for seed in range(200):
        p = 4 + seed % 7
        family = FAMILIES[seed % len(FAMILIES)]
        F = so.random_submodular(seed, p, family)
        ref = so.brute_minimize(F)
        # scaled by 1, a cut or a cover keeps its values but no closed
        # structure, so it takes min-norm, not max-flow
        res = so.minimize(so.scale(F, 1.0), eps=1e-9)
        assert res.certificate is not None
        assert abs(res.min_value - ref.min_value) <= 1e-6, (seed, family)
        assert abs(F(res.minimal_minimizer) - ref.min_value) <= 1e-6
        assert abs(F(res.maximal_minimizer) - ref.min_value) <= 1e-6
        check_certified_minimum(F, res)
        check_certified_minimum(F, so.minimize(F))
        # minimize stops at a certified answer; the projection converges
        x, _ = so.min_norm_point(F, eps=1e-9)
        gap = so.certificate_gap(F, ref.minimal_minimizer, x)
        assert gap <= 1e-6, (seed, family, gap)
        checked += 1
    assert checked == 200
    print("\nPASS criterion 1: min-norm SFM matches brute force on "
          f"{checked} seeded instances (value 1e-6, gap 1e-6)")


def test_criterion_2_greedy_support_exactness():
    rng = np.random.default_rng(2024)
    for trial in range(100):
        p = 4 + trial % 7
        F = so.random_submodular(trial, p, FAMILIES[trial % len(FAMILIES)])
        w = rng.standard_normal(p)
        s = so.greedy_base(F, w)
        assert so.in_B(F, s, tol=1e-9), trial
        assert abs(float(w @ s) - so.lovasz_extension(F, w)) <= 1e-9
    print("\nPASS criterion 2: greedy bases feasible with exact support "
          "values on 100 instances (1e-9)")


def test_criterion_3_lovasz_identities():
    rng = np.random.default_rng(3)
    # exact extension on indicators, including the union/intersection split
    for seed in range(6):
        p = 5 + seed % 6
        F = so.random_submodular(seed, p, DYADIC_FAMILIES[seed % 4])
        for m in range(1 << p):
            assert so.lovasz_extension(F, _binary(m, p)) == F(m)
        for _ in range(50):
            a = int(rng.integers(0, 1 << p))
            b = int(rng.integers(0, 1 << p))
            got = so.lovasz_extension(F, _binary(a, p) + _binary(b, p))
            assert got == F(a | b) + F(a & b)
        # minimizing over the cube corners equals the brute minimum
        corners = min(so.lovasz_extension(F, _binary(m, p))
                      for m in range(1 << p))
        assert corners == so.brute_minimize(F).min_value
    # homogeneity and shift on random inputs
    for seed in range(6):
        p = 6
        F = so.random_submodular(seed, p, FAMILIES[seed % len(FAMILIES)])
        fv = F((1 << p) - 1)
        for _ in range(20):
            w = rng.standard_normal(p)
            lam = float(rng.random() * 4)
            alpha = float(rng.standard_normal())
            f = so.lovasz_extension(F, w)
            assert abs(so.lovasz_extension(F, lam * w) - lam * f) <= 1e-10
            assert abs(so.lovasz_extension(F, w + alpha) - f
                       - alpha * fv) <= 1e-10
    print("\nPASS criterion 3: extension identities (indicators exact, "
          "homogeneity/shift 1e-10, cube minimum exact)")


def test_criterion_4_prox_solver_agreement():
    rng = np.random.default_rng(4)
    for trial in range(100):
        p = 4 + trial % 5
        F = so.random_submodular(trial, p, FAMILIES[trial % len(FAMILIES)])
        a = np.exp(rng.uniform(-1.0, 1.0, p))
        z = rng.standard_normal(p) * 1.5
        q = so.Quadratic(a, z)
        pr = so.prox_minnorm(F, q, eps=1e-11)
        s_dec = so.prox_decomposition(F, q)
        u_hom = so.prox_homotopy(F, q)
        s_hom = -q.deriv(u_hom)
        assert float(np.max(np.abs(pr.s - s_dec))) <= 1e-6, trial
        assert float(np.max(np.abs(pr.s - s_hom))) <= 1e-6, trial
        assert -1e-9 <= pr.gap <= 1e-6, (trial, pr.gap)
        assert float(np.max(np.abs(pr.s + q.deriv(pr.u)))) <= 1e-6
    print("\nPASS criterion 4: minnorm/decomposition/homotopy agree on 100 "
          "quadratic instances (1e-6), primal-dual consistent")


def test_criterion_5_threshold_equivalence():
    rng = np.random.default_rng(5)
    for trial in range(20):
        p = 4 + trial % 5
        F = so.random_submodular(trial, p, FAMILIES[trial % len(FAMILIES)])
        a = np.exp(rng.uniform(-0.5, 0.5, p))
        z = rng.standard_normal(p)
        q = so.Quadratic(a, z)
        pr = so.prox_minnorm(F, q, eps=1e-11)
        table = so.to_explicit(F)
        asums = batch_subset_sums(a[None, :])[0]
        azsums = batch_subset_sums((a * z)[None, :])[0]
        grid = np.linspace(pr.u.min() - 1.0, pr.u.max() + 1.0, 400)
        prev_lo = prev_hi = None
        for alpha in grid:
            # psi'(alpha) is the modular vector a * (alpha - z)
            shifted = table + alpha * asums - azsums
            vmin = shifted.min()
            argmins = np.nonzero(shifted <= vmin + 1e-9)[0]
            lo = int(np.bitwise_and.reduce(argmins))
            hi = int(np.bitwise_or.reduce(argmins))
            strict = so.subset_of(np.nonzero(pr.u > alpha + 1e-7)[0])
            loose = so.subset_of(np.nonzero(pr.u >= alpha - 1e-7)[0])
            assert strict & ~lo == 0, trial   # {u > a} inside every minimizer
            assert hi & ~loose == 0, trial    # every minimizer inside {u >= a}
            if prev_lo is not None:
                assert lo & ~prev_lo == 0     # exact nesting along the grid
                assert hi & ~prev_hi == 0
            prev_lo, prev_hi = lo, hi
    print("\nPASS criterion 5: threshold sets sandwich the prox solution on "
          "a 400-point grid with exact nesting (20 instances)")


def test_criterion_6_transform_polyhedra_memberships():
    rng = np.random.default_rng(6)
    disagreements = 0
    total = 0
    for trial in range(8):
        p = 5 + trial % 4
        # convolution: P(G) = P(F) & {s <= z}
        F = so.random_submodular(trial, p, "cut+modular")
        z = rng.integers(-(1 << 14), 1 << 14, size=p) / float(1 << 16)
        G = so.convolve_modular(F, z)
        table_f = so.to_explicit(F)
        table_g = so.to_explicit(G)
        scale = max(1.0, np.max(np.abs(table_f)))
        samples = rng.uniform(-2.0 * scale, 2.0 * scale, size=(1000, p))
        sums = batch_subset_sums(samples)
        in_g = np.max(sums - table_g, axis=1) <= 1e-9
        in_f = np.max(sums - table_f, axis=1) <= 1e-9
        below = np.all(samples <= z + 1e-9, axis=1)
        disagreements += int(np.sum(in_g != (in_f & below)))
        total += 1000

        # monotonization of a nonnegative function: B(G) = B(F) & {s >= 0}
        C = so.random_submodular(trial, p, "cut")
        M = so.monotonize(C)
        table_c = so.to_explicit(C)
        table_m = so.to_explicit(M)
        full = (1 << p) - 1
        bases = np.array([so.greedy_base(M, rng.standard_normal(p))
                          for _ in range(500)])
        noise = rng.uniform(-0.25, 0.25, size=(500, p))
        samples = np.vstack([bases, bases + noise])
        sums = batch_subset_sums(samples)
        in_bm = ((np.max(sums - table_m, axis=1) <= 1e-9)
                 & (np.abs(sums[:, full] - table_m[full]) <= 1e-9))
        in_bc = ((np.max(sums - table_c, axis=1) <= 1e-9)
                 & (np.abs(sums[:, full] - table_c[full]) <= 1e-9))
        nonneg = np.all(samples >= -1e-9, axis=1)
        disagreements += int(np.sum(in_bm != (in_bc & nonneg)))
        total += 1000
    assert disagreements == 0
    print(f"\nPASS criterion 6: polyhedron identities for convolution and "
          f"monotonization, {total} membership queries, 0 disagreements")


def test_criterion_7_cut_minimize_matches_brute():
    for trial in range(100):
        p = 4 + trial % 7
        rng = np.random.default_rng(10_000 + trial)
        arcs = [(i, j, float(rng.integers(1, 1 << 12)) / 4096.0)
                for i in range(p) for j in range(p)
                if i != j and rng.random() < 0.4]
        g = so.Digraph(p, arcs)
        z = rng.integers(-(1 << 12), 1 << 12, size=p) / 4096.0
        res = so.cut_minimize(g, z)
        shifted = so.add_modular(so.cut_function(g), -z)
        ref = so.brute_minimize(shifted)
        assert abs(res.min_value - ref.min_value) <= 1e-9, trial
        assert res.maximal_minimizer == ref.maximal_minimizer, trial
    print("\nPASS criterion 7: max-flow cut minimization matches brute force "
          "on 100 digraphs (1e-9, identical maximal minimizers)")


def test_criterion_8_mobius_round_trip():
    for seed in range(50):
        F = so.random_submodular(seed, 4 + seed % 5,
                                 DYADIC_FAMILIES[seed % 4])
        table = so.to_explicit(F)
        rec = so.mobius_reconstruct(so.mobius(F))
        assert np.array_equal(so.to_explicit(rec), table), seed
    # recovered weights of cover-built functions match the construction
    rng = np.random.default_rng(8)
    for trial in range(10):
        p = 5
        weights = np.zeros(1 << p)
        for _ in range(8):
            weights[int(rng.integers(1, 1 << p))] += float(rng.random())
        groups = [(m, weights[m]) for m in range(1, 1 << p) if weights[m] > 0]
        F = so.cover_function(so.CoverSystem(p, groups))
        D = so.mobius(F)
        assert np.max(np.abs(D - weights)) <= 1e-9
    print("\nPASS criterion 8: Moebius round trip float-exact on 50 "
          "instances; cover weights recovered to 1e-9")


def test_criterion_9_line_search():
    rng = np.random.default_rng(9)
    for trial in range(100):
        p = 4 + trial % 6
        F = so.random_submodular(trial, p, "cover")  # nonnegative, F({k}) > 0
        t = rng.standard_normal(p)
        t[int(rng.integers(0, p))] = float(np.abs(rng.standard_normal())) + 0.2
        lam = so.line_search_P(F, np.zeros(p), t)
        table = so.to_explicit(F)
        tsums = batch_subset_sums(t[None, :])[0]
        pos = tsums > 0.0
        ref = float(np.min(table[pos] / tsums[pos]))
        assert abs(lam - ref) <= 1e-9, trial
        assert so.in_P(F, lam * t, tol=1e-9)
        assert not so.in_P(F, lam * (1.0 + 1e-4) * t, tol=1e-9), trial
    print("\nPASS criterion 9: line search matches ratio enumeration on 100 "
          "instances (1e-9); step is maximal")


def test_criterion_10_worked_micro_examples():
    f_or = so.explicit_function([0.0, 1.0, 1.0, 1.0])
    graph2 = so.Digraph(2, [(0, 1, 1.0), (1, 0, 1.0)])
    cut2 = so.cut_function(graph2)

    # property checks
    sq = so.explicit_function([0.0, 1.0, 1.0, 4.0])
    assert not so.is_submodular(sq).holds
    assert so.is_submodular(cut2).holds
    assert so.is_symmetric(cut2).holds and so.is_posimodular(cut2).holds
    assert np.array_equal(so.to_explicit(cut2), [0.0, 1.0, 1.0, 0.0])
    assert so.is_monotone(so.random_submodular(2, 5, "cover")).holds

    # extension / greedy / support / conjugate
    assert so.lovasz_extension(cut2, [2.0, 0.5]) == 1.5
    assert np.array_equal(so.greedy_base(f_or, [3.0, 1.0]), [1.0, 0.0])
    assert np.array_equal(so.greedy_base(cut2, [0.0, 1.0]), [-1.0, 1.0])
    assert np.array_equal(so.truncated_greedy(f_or, [3.0, -1.0]), [1.0, 0.0])
    assert so.support_P(f_or, [1.0, 1.0]) == 1.0
    assert so.support_P(f_or, [1.0, -0.1]) == math.inf
    assert so.conjugate(f_or, [2.0, 0.0]) == (1.0, 0b01)

    # polyhedra
    assert so.in_B(f_or, [0.5, 0.5])
    assert not so.in_P(f_or, [1.0, 1.0])
    assert so.tight_sets(f_or, [1.0, 0.0]) == [0, 1, 3]
    assert so.tight_sets(f_or, [0.5, 0.5]) == [0, 3]
    assert so.dep(f_or, [1.0, 0.0], 0) == 0b01
    assert so.dep(f_or, [1.0, 0.0], 1) == 0b11
    assert so.is_base_maximizer(f_or, [1.0, 0.0], [3.0, 1.0])
    assert not so.is_base_maximizer(f_or, [0.0, 1.0], [3.0, 1.0])
    assert so.is_P_plus_maximizer(f_or, [1.0, 0.0], [3.0, -1.0])
    assert not so.is_P_plus_maximizer(f_or, [1.0, 0.0], [-1.0, -1.0])
    assert so.separable_witness(cut2, 0b11) is None
    assert so.separable_witness(f_or, 0b11) is None
    assert so.face_check(cut2, [0b11])

    # sfm
    x, _ = so.min_norm_point(f_or)
    assert np.allclose(x, [0.5, 0.5], atol=1e-9)
    x2, _ = so.min_norm_point(cut2)
    assert np.allclose(x2, [0.0, 0.0], atol=1e-9)
    res = so.minimize(cut2)
    assert (res.min_value, res.minimal_minimizer, res.maximal_minimizer) == \
        (0.0, 0, 0b11)
    assert so.certificate_gap(f_or, 0, [0.5, 0.5]) == 0.0
    assert so.certificate_gap(f_or, 0b01, [0.5, 0.5]) == 1.0
    assert so.recover_level_values(f_or, [0.5, 0.5]) == [(0b11, 0.5)]

    # prox family
    q = so.Quadratic(np.ones(2), np.zeros(2))
    pr = so.prox_minnorm(f_or, q)
    assert np.allclose(pr.u, [-0.5, -0.5], atol=1e-9)
    assert so.prox_threshold_sets(pr.u, -0.6) == (0b11, 0b11)
    assert so.prox_threshold_sets(pr.u, -0.5) == (0, 0b11)
    qc = so.Quadratic(np.ones(2), np.array([1.0, -1.0]))
    assert np.allclose(so.prox_decomposition(cut2, qc), [1.0, -1.0], atol=1e-9)
    assert np.allclose(so.prox_homotopy(f_or, so.Quadratic(np.ones(2),
                                                           np.full(2, 5.0))),
                       [4.5, 4.5], atol=1e-9)
    assert so.line_search_P(f_or, np.zeros(2), [1.0, 1.0]) == \
        pytest.approx(0.5, abs=1e-9)
    w_p, s_p = so.prox_over_P(so.modular_function([1.0, -1.0]), q)
    assert np.array_equal(w_p, [0.0, 1.0]) and np.array_equal(s_p, [0.0, -1.0])
    assert so.check_separable_optimality(f_or, [0.5, 0.5], q)
    assert not so.check_separable_optimality(f_or, [1.0, 0.0], q)
    assert so.lex_compare([0.5, 0.5], [1.0, 0.0]) == 1

    # transforms
    assert so.restrict(f_or, 0b01)(1) == 1.0
    assert so.contract(f_or, 0b01)(1) == 0.0
    C = so.convolve_modular(f_or, [0.5, 0.5])
    assert [C(m) for m in range(4)] == [0.0, 0.5, 0.5, 1.0]
    assert np.array_equal(so.to_explicit(so.monotonize(cut2)), np.zeros(4))
    assert np.array_equal(so.mobius(f_or), [0.0, 0.0, 0.0, 1.0])

    # zoo: the stated enumeration oracle for the shifted cut gives the full
    # set at value -2 (the four values are 0, -1, 1, -2)
    res_cut = so.cut_minimize(graph2, [2.0, 0.0])
    assert res_cut.min_value == -2.0
    assert res_cut.maximal_minimizer == 0b11
    tri = so.graphic_matroid_rank(3, [(0, 1), (1, 2), (0, 2)])
    assert tri(0b111) == 2.0
    lin = so.linear_matroid_rank([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    assert lin(0b111) == 2.0
    assert so.lovasz_extension(so.concave_cardinality(
        [0.0, 1.0, math.sqrt(2.0)]), [4.0, 1.0]) == \
        pytest.approx(4.0 + math.sqrt(2.0) - 1.0, abs=1e-9)
    net = so.FlowNetwork(4, (0,), (2, 3), [(0, 1, 1.0), (1, 2, 1.0),
                                           (1, 3, 1.0)])
    assert np.array_equal(so.to_explicit(so.flow_function(net)),
                          [0.0, 1.0, 1.0, 1.0])
    print("\nPASS criterion 10: worked micro-examples verified against their "
          "enumeration oracles")
