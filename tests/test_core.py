"""Oracle construction, exhaustive property checks, random generators."""

import numpy as np
import pytest

import submodopt as so
from submodopt.errors import CapExceeded

from helpers import brute_in_P, brute_min, is_submodular_pairwise

F_OR = so.explicit_function([0.0, 1.0, 1.0, 1.0])
SYM_CUT2 = so.explicit_function([0.0, 1.0, 1.0, 0.0])


def card(p):
    return so.SetFunction(p, lambda m: float(int(m).bit_count()))


def test_empty_set_must_be_zero():
    with pytest.raises(ValueError, match=r"F\(empty\) = 1\.0; must be exactly 0"):
        so.SetFunction(2, lambda m: 1.0)
    shifted = so.shift_to_zero(2, lambda m: 1.0 + int(m).bit_count())
    assert shifted(0) == 0.0
    assert shifted(0b11) == 2.0


def test_shared_vector_and_finiteness_checks():
    v = so.core.check_vector([1, 2, 3], 3)
    assert v.dtype == np.float64 and v.tolist() == [1.0, 2.0, 3.0]
    with pytest.raises(ValueError, match=r"vector has shape \(2,\), expected \(3,\)"):
        so.core.check_vector([1.0, 2.0], 3)
    assert so.core.check_finite([[0.5, -2.0]], "x").shape == (1, 2)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="values must be finite"):
            so.core.check_finite([0.0, bad], "values")
        with pytest.raises(ValueError, match="must be finite"):
            so.explicit_function([0.0, bad, 1.0, 0.5])
        with pytest.raises(ValueError, match="must be finite"):
            so.modular_function([1.0, bad])


def test_evaluate_examples():
    assert card(3)(0) == 0.0
    assert card(3)(0b101) == 2.0
    assert F_OR(0b10) == 1.0


def test_mask_range_checked():
    with pytest.raises(ValueError):
        F_OR(4)
    with pytest.raises(ValueError):
        F_OR(-1)


def test_memoization_opt_in():
    calls = []

    def fn(m):
        calls.append(m)
        return float(int(m).bit_count())

    F = so.SetFunction(3, fn, memoize=True)
    F(0b101)
    F(0b101)
    assert calls.count(0b101) == 1
    G = so.SetFunction(3, fn, memoize=False)
    G(0b011)
    G(0b011)
    assert calls.count(0b011) == 2


def test_is_submodular_examples():
    assert so.is_submodular(card(3)).holds
    sq = so.explicit_function([0.0, 1.0, 1.0, 4.0])  # |A|^2 on p=2
    rep = so.is_submodular(sq)
    assert not rep.holds
    assert rep.witness == {"A": 0, "j": 0, "k": 1, "lhs": 1.0, "rhs": 3.0}
    assert so.is_submodular(SYM_CUT2).holds


def test_monotone_symmetric_posimodular_examples():
    cap1 = so.explicit_function([0.0, 1.0, 1.0, 1.0])  # min(|A|, 1)
    assert so.is_monotone(cap1).holds
    assert so.is_symmetric(SYM_CUT2).holds
    assert so.is_posimodular(SYM_CUT2).holds
    neg = so.SetFunction(2, lambda m: -float(int(m).bit_count()))
    rep = so.is_monotone(neg)
    assert not rep.holds and rep.witness is not None
    assert rep.witness["A"] == 0 and rep.witness["k"] == 0


def test_property_checks_need_a_finite_nonnegative_tolerance():
    and2 = so.explicit_function([0.0, 0.0, 0.0, 1.0])
    assert so.core.check_tolerance(0) == 0.0
    assert so.core.check_tolerance(np.float32(0.5)) == 0.5
    for check in (so.is_submodular, so.is_monotone, so.is_symmetric,
                  so.is_posimodular):
        assert check(and2, tol=0.0).holds == (check in (so.is_monotone,
                                                        so.is_posimodular))
        for bad in (np.nan, np.inf, -1.0, -1e-300):
            with pytest.raises(ValueError, match="tolerance must be finite"):
                check(and2, tol=bad)


_MODULAR12 = so.modular_function([1.0, 2.0])


@pytest.mark.parametrize("call, expected", [
    (lambda tol: so.in_P(F_OR, [0.2, 0.2], tol), True),
    (lambda tol: so.in_B(F_OR, [0.5, 0.5], tol), True),
    (lambda tol: so.in_P_plus(F_OR, [0.2, 0.2], tol), True),
    (lambda tol: so.tight_sets(F_OR, [0.5, 0.5], tol), [0b00, 0b11]),
    (lambda tol: so.dep(F_OR, [0.5, 0.5], 0, tol), 0b11),
    (lambda tol: so.exchangeable_pairs(F_OR, [0.5, 0.5], tol), [(0, 1), (1, 0)]),
    (lambda tol: so.is_base_maximizer(F_OR, [1.0, 0.0], [1.0, 0.0], tol), True),
    (lambda tol: so.polyhedra.base_maximizer_exchange_check(
        F_OR, [1.0, 0.0], [1.0, 0.0], tol), True),
    (lambda tol: so.is_P_plus_maximizer(F_OR, [1.0, 0.0], [1.0, 0.0], tol), True),
    (lambda tol: so.separable_witness(_MODULAR12, 0b11, tol), 0b01),
    (lambda tol: so.face_check(F_OR, [0b01, 0b10], tol), True),
    (lambda tol: so.check_separable_optimality(
        F_OR, [1.0, 0.0], so.Quadratic([1.0, 1.0], [0.0, 0.0]), tol=tol), False),
    (lambda tol: so.prox_threshold_sets([0.5, -0.5], 0.0, tol), (0b01, 0b01)),
    (lambda tol: so.recover_level_values(F_OR, [0.5, 0.5], tol), [(0b11, 0.5)]),
    (lambda tol: so.linear_matroid_rank(np.eye(3), tol)(0b111), 3.0),
], ids=["in_P", "in_B", "in_P_plus", "tight_sets", "dep", "exchangeable_pairs",
        "is_base_maximizer", "base_maximizer_exchange_check",
        "is_P_plus_maximizer", "separable_witness", "face_check",
        "check_separable_optimality", "prox_threshold_sets",
        "recover_level_values", "linear_matroid_rank"])
def test_every_tolerance_is_checked(call, expected):
    # before, tol=nan made in_P(F_OR, [0.2, 0.2]) False, accepted [1, 0] as
    # the separable optimum of F_OR and gave the identity matrix rank 0
    assert call(1e-9) == expected
    for bad in (np.nan, np.inf, -1.0):
        with pytest.raises(ValueError, match="tolerance must be finite and nonnegative"):
            call(bad)


def test_check_indices():
    got = so.core.check_indices([0, 2.0, np.int64(1)], 3, "element")
    assert got.dtype == np.int64 and got.tolist() == [0, 2, 1]
    assert so.core.check_indices([[1, 0]], 2, "arc end").tolist() == [[1, 0]]
    assert so.core.check_indices([], 2, "element").shape == (0,)
    for bad, message in ((0.5, "element 0.5 is not an integer"),
                         (np.nan, "element nan is not an integer"),
                         (3, "element 3 out of range"),
                         (-1.0, "element -1 out of range"),
                         (np.inf, "element inf is not an integer")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            so.core.check_indices([1, bad], 3, "element")


def test_check_integer_and_ground_size():
    assert so.core.check_integer(3.0, "p") == 3
    assert so.core.check_integer(np.int64(2 ** 62 + 1), "seed") == 2 ** 62 + 1
    for bad in (2.5, np.float64(-0.5), "3"):
        with pytest.raises(ValueError, match=f"^p {bad} is not an integer$"):
            so.core.check_integer(bad, "p")
    with pytest.raises(ValueError, match="NaN"):
        so.core.check_integer(np.nan, "p")
    with pytest.raises(OverflowError):
        so.core.check_integer(-np.inf, "p")
    # int() truncated a size of 2.5 to 2
    assert so.core.validate_ground_size(4.0) == 4
    with pytest.raises(ValueError, match="^ground set size 2.5 is not an integer$"):
        so.core.validate_ground_size(2.5)
    with pytest.raises(ValueError, match="^ground set size 2.5 is not an integer$"):
        so.random_submodular(0, 2.5)


def test_to_explicit_examples():
    assert np.array_equal(so.to_explicit(F_OR), [0.0, 1.0, 1.0, 1.0])
    assert np.array_equal(so.to_explicit(SYM_CUT2), [0.0, 1.0, 1.0, 0.0])
    assert np.array_equal(so.to_explicit(so.modular_function([2.0, -1.0])),
                          [0.0, 2.0, -1.0, 1.0])


def test_cap_enforced():
    big = so.SetFunction(30, lambda m: float(int(m).bit_count()))
    with pytest.raises(CapExceeded):
        so.to_explicit(big)
    with pytest.raises(CapExceeded):
        so.is_submodular(big)
    # the cap is a knob, not a hard limit
    small = card(6)
    with pytest.raises(CapExceeded):
        so.to_explicit(small, cap=5)
    assert so.is_submodular(small, cap=6).holds


def test_posimodular_cap_counts_pairs_of_subsets():
    # 4**p pairs: at the default cap of 20, p = 11 is already too many, and
    # the refusal comes before any oracle call or table build
    calls = []
    F = so.SetFunction(11, lambda m: calls.append(m) or float(int(m).bit_count()))
    calls.clear()
    with pytest.raises(CapExceeded, match="2\\*\\*22"):
        so.is_posimodular(F)
    assert calls == []
    assert so.is_posimodular(card(5), cap=10).holds
    with pytest.raises(CapExceeded):
        so.is_posimodular(card(5), cap=9)


def test_level_sets_split_where_consecutive_sorted_values_differ():
    x = [0.3, -1.0, 0.3, 0.31, 2.0, -1.0]

    def walk(values, tol=0.0):
        return [(block.tolist(), mask) for block, mask in so.core.level_sets(values, tol)]

    assert walk(x) == [([1, 5], 0b100010), ([0, 2], 0b100111),
                       ([3], 0b101111), ([4], 0b111111)]
    assert walk(x, 0.05) == [([1, 5], 0b100010), ([0, 2, 3], 0b101111),
                             ([4], 0b111111)]
    # gaps are measured between neighbours, so blocks chain past tol
    assert walk([0.0, 0.08, 0.04], 0.05) == [([0, 2, 1], 0b111)]
    # lazy: the first block comes before the rest are built
    walker = so.core.level_sets(np.arange(63.0))
    assert next(walker)[1] == 1


def test_random_submodular_families():
    for family in ("cut", "cover", "logdet", "cut+modular", "cover+modular",
                   "logdet+modular"):
        F = so.random_submodular(seed=1, p=6, family=family)
        assert so.is_submodular(F, tol=1e-9).holds, family
    assert so.is_monotone(so.random_submodular(2, 5, "cover")).holds


def test_random_submodular_deterministic():
    a = so.to_explicit(so.random_submodular(1, 6, "cut"))
    b = so.to_explicit(so.random_submodular(1, 6, "cut"))
    assert np.array_equal(a, b)
    c = so.to_explicit(so.random_submodular(2, 6, "cut"))
    assert not np.array_equal(a, c)


def test_random_submodular_full_width_ground_set():
    # lazy oracles must work all the way up to the bitmask limit
    for family in ("cut+modular", "cover+modular", "logdet"):
        F = so.random_submodular(3, 63, family)
        full = (1 << 63) - 1
        assert F(full) == F(full)
        assert F(0) == 0.0
        assert isinstance(F(1 << 62), float)


def test_constant_vector_in_polyhedron():
    # the constant vector at the worst per-element average lies in P(F)
    for seed in range(5):
        F = so.random_submodular(seed, 6, "cut+modular")
        c = min(F(m) / int(m).bit_count() for m in range(1, 1 << 6))
        vec = np.full(6, c)
        assert so.in_P(F, vec, tol=1e-9)
        assert brute_in_P(F, vec)


def test_second_order_agrees_with_pairwise_definition():
    rng = np.random.default_rng(7)
    for _ in range(40):
        table = rng.standard_normal(1 << 5)
        table[0] = 0.0
        F = so.explicit_function(table)
        assert so.is_submodular(F).holds == is_submodular_pairwise(F)


def test_zoo_and_transform_functions_pass_checker():
    for seed in range(3):
        F = so.random_submodular(seed, 8, "cover")
        assert so.is_submodular(F, tol=1e-9).holds
        G = so.restrict(F, 0b1111)
        assert so.is_submodular(G, tol=1e-9).holds


def test_brute_min_helper_consistency():
    F = so.random_submodular(3, 6, "cut+modular")
    vmin, amin, omin, _ = brute_min(F)
    res = so.brute_minimize(F)
    assert res.min_value == vmin
    assert res.minimal_minimizer == amin
    assert res.maximal_minimizer == omin


def test_submodularity_check_at_p12():
    F = so.random_submodular(12, 12, "cut+modular")
    assert so.is_submodular(F, tol=1e-9).holds


def test_concurrent_evaluation_is_safe():
    from concurrent.futures import ThreadPoolExecutor

    F = so.random_submodular(21, 10, "cover")
    expected = {m: F(m) for m in range(0, 1 << 10, 7)}
    fresh = so.random_submodular(21, 10, "cover")  # cold cache

    def worker(masks):
        return [fresh(m) for m in masks]

    masks = list(expected)
    with ThreadPoolExecutor(max_workers=8) as pool:
        chunks = [masks[i::8] for i in range(8)]
        results = list(pool.map(worker, chunks))
    for chunk, values in zip(chunks, results):
        for m, v in zip(chunk, values):
            assert v == expected[m]
