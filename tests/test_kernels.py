"""The numpy kernels must equal plain-python reference loops bit for bit,
violation witnesses included."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from submodopt import _kernels as K
from submodopt import zoo

from helpers import (argmin_extremes_ref, close_lattice, closure_violation_ref,
                     cut_table_concat_ref, dyadic, dyadic_cover, max_margin_ref, mobius_transform_ref, monotone_check_ref,
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


def _check_differences(table, p, tol):
    assert (bits(K.second_order_check(table, p, tol))
            == bits(second_order_check_ref(table, p, tol)))
    assert (bits(K.monotone_check(table, p, tol))
            == bits(monotone_check_ref(table, p, tol)))


def _check_tables(table, p, tol):
    _check_differences(table, p, tol)
    assert (bits(K.symmetric_check(table, p, tol))
            == bits(symmetric_check_ref(table, p, tol)))
    assert (bits(K.pairwise_check(table, p, tol))
            == bits(pairwise_check_ref(table, p, tol, True)))


def test_subset_sums_match_reference():
    rng = np.random.default_rng(0)
    for p in (0, 1, 3, 6, 10, 13):
        s = rng.standard_normal(p)
        assert bits(K.subset_sums(s)) == bits(subset_sums_ref(s))


def test_cut_table_matches_the_concatenated_table_and_the_cut_values():
    # dyadic weights: every order of summation gives the same cut values
    rng = np.random.default_rng(4)
    for p in range(14):
        tails, heads = rng.integers(0, max(p, 1), size=(2, 3 * p))
        tails, heads = tails[tails != heads], heads[tails != heads]  # no self-loops
        wts = dyadic(rng, 2 ** -16, 1.0, size=tails.shape[0])
        table = K.cut_table(tails, heads, wts, p)
        assert bits(table) == bits(cut_table_concat_ref(tails, heads, wts, p))
        chain = zoo.CutChain(p, tails, heads, wts, np.zeros(p))
        assert table.tolist() == [chain.value(m) for m in range(1 << p)]


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
    # from p = 2 on the low half of the passes runs on a rotated copy
    rng = np.random.default_rng(3)
    for p in (0, 1, 2, 4, 8, 11, 12):
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


def test_linear_lattice_test_matches_pair_search():
    # lattices and random families (rarely lattices), drawn over V or
    # inside a random U, so that V is often not a member; the empty set
    # always is
    rng = np.random.default_rng(5)
    seen = set()
    for p in (1, 2, 4, 6):
        n = 1 << p
        for trial in range(40):
            u = n - 1 if trial % 4 < 2 else int(rng.integers(n))
            flags = np.zeros(n, dtype=bool)
            flags[rng.integers(n, size=int(rng.integers(1, 5))) & u] = True
            flags[0] = True
            if trial % 2:
                close_lattice(flags)
            masks = np.nonzero(flags)[0].astype(np.int64)
            lattice = closure_violation_ref(masks, flags) == (-1, -1)
            assert K.is_lattice(masks, flags) == lattice
            seen.add((lattice, bool(flags[-1])))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}
    # without the empty set the test declines: {V} is a lattice all the same
    flags = np.array([False, False, False, True])
    assert not K.is_lattice(np.array([3]), flags)


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


@st.composite
def planted(draw):
    """(p, table, tol, expect) at p <= 9: a near-submodular table with one
    planted second-order violation, and the prefix of the check's result
    that the plant fixes (None when only the reference decides).

    * ``quadratic``: g(|A|) with dyadic steps a - b*i, so every second
      difference is exactly -b.  F(C) for C = A + j + k is raised by
      b + tol + extra: with extra = 0 every inequality through C sits
      exactly at rhs - tol and none may be flagged; with extra > 0 the
      smallest witness is C less its two highest bits.
    * ``cover``: a dyadic cover table raised at C the same way, so that
      the drawn (A, j, k) sits at rhs - tol - extra.
    * ``orientation``: elements other than lo < hi are null and the pair
      reads [0, 1, 2**53, 2**53 + 2]; only (j, k) = (hi, lo) shows the
      violation, through rounding.
    At p = 1 there are no pairs and the check holds.
    """
    p = draw(st.integers(1, 9))
    n = 1 << p
    tol = draw(st.sampled_from([0.0, 2.0 ** -10, 0.25]))
    kind = draw(st.sampled_from(["quadratic", "cover", "orientation"]))
    pops = np.array([bin(m).count("1") for m in range(n)])
    if p == 1:
        return p, draw(st.integers(-8, 8)) / 4 * pops, tol, (True,)
    j, k = draw(st.permutations(range(p)))[:2]
    if kind == "orientation":
        lo, hi = min(j, k), max(j, k)
        pair = np.array([0.0, 1.0, 2.0 ** 53, 2.0 ** 53 + 2.0])
        masks = np.arange(n)
        table = pair[(masks >> lo & 1) | (masks >> hi & 1) << 1]
        return p, table, tol, (False, 0, hi, lo, 1.0, 2.0)
    rest = [e for e in range(p) if e not in (j, k)]
    a = sum(1 << e for e in rest if draw(st.booleans()))
    top = a | 1 << j | 1 << k
    extra = draw(st.sampled_from([0.0, 0.25]))
    if kind == "quadratic":
        b = draw(st.integers(0, 4)) / 4
        steps = draw(st.integers(0, 16)) / 4 - b * np.arange(p)
        table = np.concatenate(([0.0], np.cumsum(steps)))[pops]
        table[top] += b + tol + extra
        if extra == 0.0:
            return p, table, tol, (True,)
        hi = top.bit_length() - 1
        mid = (top ^ 1 << hi).bit_length() - 1
        return p, table, tol, (False, top ^ 1 << hi ^ 1 << mid, mid, hi)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    table = zoo.cover_function(dyadic_cover(rng, p)).tabulate()
    lhs = table[a | 1 << k] - table[a]
    rhs = table[top] - table[a | 1 << j]
    table[top] += lhs - rhs + tol + extra
    return p, table, tol, None if extra == 0.0 else (False,)


@settings(max_examples=100, deadline=None)
@given(case=planted())
def test_second_order_witness_on_planted_violations(case):
    p, table, tol, expect = case
    got = K.second_order_check(table, p, tol)
    assert bits(got) == bits(second_order_check_ref(table, p, tol))
    if expect is not None:
        assert got[:len(expect)] == expect


def _concave_table(p):
    """g(|A|) with steps 8 - i/2: every second difference is exactly -1/2."""
    steps = 8.0 - np.arange(p) / 2
    g = np.concatenate(([0.0], np.cumsum(steps)))
    return g[[bin(m).count("1") for m in range(1 << p)]]


def test_rotated_and_in_place_passes_at_p_11():
    # at p = 11 the second-order check rotates the low 5 bits of each D_k
    # and the monotone check the low 5 elements; both also compare in place
    p = 11
    rng = np.random.default_rng(6)
    table = _concave_table(p)
    assert K.second_order_check(table, p, 0.0)[0]
    _check_differences(table, p, 0.0)
    for _ in range(4):
        dented = table.copy()
        dented[rng.integers(1, 1 << p, size=int(rng.integers(1, 6)))] -= 0.75
        for tol in (0.0, 0.5):
            _check_differences(dented, p, tol)
    for h in (rng.standard_normal(1 << p), table):
        assert bits(K.mobius_transform(h)) == bits(mobius_transform_ref(h))
        assert bits(K.zeta_transform(h)) == bits(zeta_transform_ref(h))


def test_second_order_witness_after_rotation_is_the_smallest_A():
    # lowering F(C) makes (C - k, j, k) a violation for k in C and j not in
    # C.  With C1 = {3, 9, 10} and C2 = {8, 9, 10} the pair (j, k) = (0, 10)
    # is violated at A1 = {3, 9} = 520 and A2 = {8, 9} = 768; bit 0 of D_10
    # is compared on the rotated copy, where A2 comes first
    p = 11
    table = _concave_table(p)
    for c in (0b11000001000, 0b11100000000):
        table[c] -= 2.0
    got = K.second_order_check(table, p, 1e-9)
    assert got[:4] == (False, 520, 0, 10)
    assert bits(got) == bits(second_order_check_ref(table, p, 1e-9))


def test_monotone_witness_after_rotation_is_the_smallest_A():
    # raising F(A) makes (A, k) a violation for every k outside A.  Element
    # 0 is compared on the rotated copy, where A2 = {10} = 1024 comes
    # before A1 = {3, 9} = 520
    p = 11
    table = 4.0 * np.array([bin(m).count("1") for m in range(1 << p)])
    for a in (520, 1024):
        table[a] += 8.0
    got = K.monotone_check(table, p, 1e-9)
    assert got == (False, 520, 0, 12.0, 16.0)
    assert bits(got) == bits(monotone_check_ref(table, p, 1e-9))


def test_both_orientations_at_low_and_high_bits():
    # the 2**53 rounding case of the test above, with the pair of elements
    # at low (rotated) and high (in place) bits of p = 11
    p = 11
    pair = np.array([0.0, 1.0, 2.0 ** 53, 2.0 ** 53 + 2.0])
    masks = np.arange(1 << p)
    for lo, hi in ((0, 1), (0, 10), (3, 7), (4, 5), (6, 10), (9, 10)):
        table = pair[(masks >> lo & 1) | (masks >> hi & 1) << 1]
        assert K.second_order_check(table, p, 1e-9) == (False, 0, hi, lo, 1.0, 2.0)
        assert (bits(K.second_order_check(table, p, 1e-9))
                == bits(second_order_check_ref(table, p, 1e-9)))
