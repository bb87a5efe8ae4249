"""The numpy kernels must equal plain-python reference loops bit for bit,
violation witnesses included."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from submodopt import _kernels as K

from helpers import (argmin_extremes_ref, closure_violation_ref,
                     max_margin_ref, mobius_transform_ref, monotone_check_ref,
                     pairwise_check_ref, second_order_check_ref,
                     subset_sums_ref, symmetric_check_ref, zeta_transform_ref)


def bits(x):
    """Exact image of a kernel result: float64 bytes, ints and bools."""
    if isinstance(x, tuple):
        return tuple(bits(e) for e in x)
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    return np.float64(x).tobytes()


def _random_table(rng, p):
    t = rng.standard_normal(1 << p)
    t[0] = 0.0
    return t


def _check_tables(table, p, tol):
    assert (bits(K.second_order_check(table, p, tol))
            == bits(second_order_check_ref(table, p, tol)))
    assert (bits(K.monotone_check(table, p, tol))
            == bits(monotone_check_ref(table, p, tol)))
    assert (bits(K.symmetric_check(table, p, tol))
            == bits(symmetric_check_ref(table, p, tol)))
    for posi in (False, True):
        assert (bits(K.pairwise_check(table, p, tol, posi))
                == bits(pairwise_check_ref(table, p, tol, posi)))


def test_subset_sums_match_reference():
    rng = np.random.default_rng(0)
    for p in (1, 3, 6, 10):
        s = rng.standard_normal(p)
        assert bits(K.subset_sums(s)) == bits(subset_sums_ref(s))


def test_margin_and_argmin_match_reference():
    rng = np.random.default_rng(1)
    for p in (2, 4, 7):
        table = _random_table(rng, p)
        sums = subset_sums_ref(rng.standard_normal(p))
        assert bits(K.max_margin(sums, table)) == bits(max_margin_ref(sums, table))
        assert bits(K.argmin_extremes(table)) == bits(argmin_extremes_ref(table))
        # force ties to exercise the lattice-extreme logic
        quant = np.round(table * 4) / 4 + 0.0
        assert bits(K.argmin_extremes(quant)) == bits(argmin_extremes_ref(quant))


def test_property_checks_match_reference_with_witnesses():
    rng = np.random.default_rng(2)
    for p in (2, 3, 5):
        for _ in range(20):
            _check_tables(_random_table(rng, p), p, 1e-9)


def test_transforms_match_reference():
    rng = np.random.default_rng(3)
    for p in (1, 4, 8):
        h = rng.standard_normal(1 << p)
        assert bits(K.mobius_transform(h)) == bits(mobius_transform_ref(h))
        assert bits(K.zeta_transform(h)) == bits(zeta_transform_ref(h))


def test_closure_matches_reference():
    rng = np.random.default_rng(4)
    for p in (3, 5):
        n = 1 << p
        for _ in range(10):
            flags = rng.random(n) < 0.4
            flags[0] = True
            masks = np.nonzero(flags)[0].astype(np.int64)
            assert (bits(K.closure_violation(masks, flags))
                    == bits(closure_violation_ref(masks, flags)))


@st.composite
def cases(draw):
    """(p, table, s) at p <= 6: uniform noise, quarter-integer values with
    many exact ties, or a concave-of-cardinality table (submodular and
    monotone) with a few quarter-integer dents, whose witnesses sit deep."""
    p = draw(st.integers(1, 6))
    n = 1 << p
    kind = draw(st.sampled_from(["noise", "ties", "dented"]))
    if kind == "noise":
        floats = st.floats(-4.0, 4.0, allow_nan=False, allow_subnormal=False)
        table = np.array(draw(st.lists(floats, min_size=n, max_size=n))) + 0.0
        s = np.array(draw(st.lists(floats, min_size=p, max_size=p))) + 0.0
        return p, table, s
    quarters = st.integers(-8, 8).map(lambda v: v / 4)
    s = np.array(draw(st.lists(quarters, min_size=p, max_size=p)))
    if kind == "ties":
        return p, np.array(draw(st.lists(quarters, min_size=n, max_size=n))), s
    steps = sorted(draw(st.lists(st.integers(0, 8), min_size=p, max_size=p)),
                   reverse=True)
    g = np.concatenate(([0.0], np.cumsum(steps) / 4))
    table = g[[bin(m).count("1") for m in range(n)]]
    for m in draw(st.lists(st.integers(1, n - 1), max_size=3)):
        table[m] += draw(quarters)
    return p, table, s


@settings(max_examples=80, deadline=None)
@given(case=cases(), tol=st.sampled_from([1e-9, 0.3]))
def test_kernels_equal_references(case, tol):
    p, table, s = case
    sums = subset_sums_ref(s)
    assert bits(K.subset_sums(s)) == bits(sums)
    assert bits(K.max_margin(sums, table)) == bits(max_margin_ref(sums, table))
    assert bits(K.argmin_extremes(table)) == bits(argmin_extremes_ref(table))
    _check_tables(table, p, tol)
    assert bits(K.mobius_transform(table)) == bits(mobius_transform_ref(table))
    assert bits(K.zeta_transform(table)) == bits(zeta_transform_ref(table))
    flags = np.abs(sums - table) <= tol
    flags[0] = True
    masks = np.nonzero(flags)[0].astype(np.int64)
    assert (bits(K.closure_violation(masks, flags))
            == bits(closure_violation_ref(masks, flags)))


def test_witnesses_are_lexicographically_minimal():
    # hand case: |A|^2 on p=2 violates second-order differences at (0, 0, 1)
    table = np.array([0.0, 1.0, 1.0, 4.0])
    ok, a, j, k, lhs, rhs = K.second_order_check(table, 2, 1e-9)
    assert not ok and (a, j, k) == (0, 0, 1)
    assert lhs == 1.0 and rhs == 3.0


def test_second_order_reads_both_orientations_of_a_pair():
    # F(A + k) - F(A) against F(A + j + k) - F(A + j) is one inequality for
    # (j, k) and (k, j) on paper, but near 2**53 only one orientation's
    # rounding shows the violation F({0}) + F({1}) < F({}) + F({0, 1})
    big = 2.0 ** 53
    for table, witness in (([0.0, 1.0, big, big + 2.0], (0, 1, 0, 1.0, 2.0)),
                           ([0.0, big, 1.0, big + 2.0], (0, 0, 1, 1.0, 2.0))):
        table = np.array(table)
        assert K.second_order_check(table, 2, 1e-9) == (False,) + witness
        assert second_order_check_ref(table, 2, 1e-9) == (False,) + witness
