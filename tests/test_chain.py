"""Prefix chains: every structural chainer must reproduce the per-mask loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import submodopt as so
from submodopt import sfm, transforms
from submodopt.core import ModularChain, SetFunction
from submodopt.zoo import CoverChain, CutChain

from helpers import dyadic, dyadic_digraph, dyadic_energy


def per_mask_chain(F, order):
    """[F(first k of order)] by one oracle call per prefix."""
    masks = [0]
    for j in order:
        masks.append(masks[-1] | (1 << int(j)))
    return np.array([F(m) for m in masks])


def assert_bitwise_equal(a, b):
    assert a.dtype == np.float64 and a.shape == b.shape
    assert a.tobytes() == b.tobytes(), (a, b)


def check_chain(F, data, exact=True):
    """Compare F.chain with the loop on a drawn full order, as the greedy
    algorithm reads it, and on a drawn prefix of it (possibly empty), as the
    truncated greedy algorithm does."""
    full = data.draw(st.permutations(range(F.p)))
    partial = full[:data.draw(st.integers(0, F.p))]
    for order in (full, partial):
        got, want = F.chain(order), per_mask_chain(F, order)
        if exact:
            assert_bitwise_equal(got, want)
        else:
            scale = 1.0 + float(np.max(np.abs(want)))
            assert np.max(np.abs(got - want)) <= 1e-12 * scale


def transform_stack(F, data, rng, depth, weights=dyadic):
    """Random restrict / contract / add_modular layers over F."""
    for _ in range(depth):
        op = data.draw(st.sampled_from(["restrict", "contract", "add_modular"]))
        full = (1 << F.p) - 1
        if op == "restrict":
            F = transforms.restrict(F, data.draw(st.integers(1, full)))
        elif op == "contract" and F.p > 1:
            F = transforms.contract(F, data.draw(st.integers(0, full - 1)))
        else:
            F = transforms.add_modular(F, weights(rng, -1.0, 1.0, size=F.p))
    return F


@settings(max_examples=150, deadline=None)
@given(data=st.data(), p=st.integers(1, 10), seed=st.integers(0, 2 ** 32 - 1),
       depth=st.integers(0, 4))
def test_cut_stacks_chain_like_the_loop(data, p, seed, depth):
    rng = np.random.default_rng(seed)
    F = so.cut_function(dyadic_digraph(rng, p, density=0.4))
    F = transform_stack(F, data, rng, depth)
    assert F.chainer is not None  # the cut structure survives every layer
    check_chain(F, data)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), p=st.integers(1, 10), seed=st.integers(0, 2 ** 32 - 1),
       depth=st.integers(0, 4), family=st.sampled_from(["cut", "cut+modular"]))
def test_random_cut_stacks_chain_like_the_loop(data, p, seed, depth, family):
    F = so.random_submodular(seed, p, family)
    assert isinstance(F.chainer, CutChain)
    F = transform_stack(F, data, np.random.default_rng(seed), depth)
    assert isinstance(F.chainer, CutChain)
    check_chain(F, data)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), p=st.integers(1, 10), seed=st.integers(0, 2 ** 32 - 1),
       depth=st.integers(0, 4))
def test_non_dyadic_cut_stacks_chain_within_rounding(data, p, seed, depth):
    rng = np.random.default_rng(seed)
    arcs = [(u, v, float(rng.exponential())) for u in range(p) for v in range(p)
            if u != v and rng.random() < 0.4]
    F = so.cut_function(so.Digraph(p, arcs))

    def uniform(rng, low, high, size):
        return rng.uniform(low, high, size=size)

    F = transform_stack(F, data, rng, depth, weights=uniform)
    check_chain(F, data, exact=False)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), p=st.integers(1, 10), seed=st.integers(0, 2 ** 32 - 1))
def test_explicit_tables_chain_like_the_loop(data, p, seed):
    rng = np.random.default_rng(seed)
    table = rng.standard_normal(1 << p)
    table[0] = 0.0
    check_chain(so.explicit_function(table), data)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), p=st.integers(1, 10), seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(["card", "sqrt", "cap"]))
def test_concave_families_chain_like_the_loop(data, p, seed, kind):
    rng = np.random.default_rng(seed)
    if kind == "card":
        inc = np.sort(dyadic(rng, 0.0, 1.0, size=p))[::-1]
        F = so.concave_cardinality(np.concatenate([[0.0], np.cumsum(inc)]))
    else:
        # sqrt is correctly rounded, so dyadic sums give identical values
        F = so.weighted_concave(dyadic(rng, 0.0, 1.0, size=p), kind,
                                1.5 if kind == "cap" else None)
    check_chain(F, data)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), p=st.integers(1, 10), seed=st.integers(0, 2 ** 32 - 1))
def test_log1p_profile_chains_within_rounding(data, p, seed):
    rng = np.random.default_rng(seed)
    F = so.weighted_concave(dyadic(rng, 0.0, 1.0, size=p), "log1p")
    check_chain(F, data, exact=False)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), p=st.integers(1, 10), seed=st.integers(0, 2 ** 32 - 1))
def test_arithmetic_transforms_chain_like_the_loop(data, p, seed):
    rng = np.random.default_rng(seed)
    cut = so.cut_function(dyadic_digraph(rng, p))
    concave = so.weighted_concave(dyadic(rng, 0.0, 1.0, size=p), "sqrt")
    s = dyadic(rng, -1.0, 1.0, size=p)
    for F in (so.add(cut, concave), so.scale(concave, 0.75),
              so.add_modular(concave, s), so.add_modular(so.scale(cut, 1.5), s),
              so.modular_function(s)):
        assert F.chainer is not None
        check_chain(F, data)


def test_chains_follow_the_structure_of_their_inputs():
    rng = np.random.default_rng(0)
    cut = so.cut_function(dyadic_digraph(rng, 6))
    concave = so.concave_cardinality([0.0, 3.0, 5.0, 6.0, 6.5, 6.75, 7.0])
    oracle = SetFunction(6, cut, memoize=True)
    assert so.restrict(so.contract(so.add_modular(cut, np.ones(6)), 1), 6).chainer
    # restrictions and contractions chain structurally only over closed
    # structures: cuts, covers and modular functions
    assert so.restrict(concave, 7).chainer is None
    assert so.contract(concave, 1).chainer is None
    assert so.add(cut, oracle).chainer is None
    assert so.add_modular(oracle, np.ones(6)).chainer is None
    # a modular function is a closed structure at every p, above the cap too
    for p in (6, 40):
        modular = so.modular_function(np.ones(p))
        assert isinstance(modular.chainer, ModularChain)
        assert isinstance(so.add_modular(modular, np.ones(p)).chainer, ModularChain)
        assert isinstance(so.restrict(modular, 7).chainer, ModularChain)
        assert isinstance(so.contract(modular, 1).chainer, ModularChain)
    # the random families chain exactly as the constructors they are built by
    for family in ("cut", "cut+modular"):
        assert isinstance(so.random_submodular(0, 6, family).chainer, CutChain)
    for family in ("cover", "cover+modular"):
        assert isinstance(so.random_submodular(0, 6, family).chainer, CoverChain)
    for family in ("logdet", "logdet+modular"):
        assert so.random_submodular(0, 6, family).chainer is None


def test_unstructured_chain_fills_the_memo_as_the_loop_did():
    rng = np.random.default_rng(1)
    graph = dyadic_digraph(rng, 7)
    cut = so.cut_function(graph)
    order = [4, 0, 6, 2]

    F = SetFunction(7, cut, memoize=True)
    values = F.chain(order)
    G = SetFunction(7, cut, memoize=True)
    mask = 0
    expected = [0.0]
    for j in order:
        mask |= 1 << j
        expected.append(G(mask))
    assert_bitwise_equal(values, np.array(expected))
    assert list(F._memo.items()) == list(G._memo.items())

    # a structural chain neither reads nor fills the memo
    fresh = so.cut_function(graph)
    assert_bitwise_equal(fresh.chain(order), values)
    assert fresh._memo == {0: 0.0}


def test_unstructured_chain_calls_the_oracle_once_per_prefix():
    calls = []

    def fn(mask):
        calls.append(mask)
        return float(bin(mask).count("1") ** 0.5)

    F = SetFunction(5, fn)
    calls.clear()
    F.chain([3, 1, 4])
    assert calls == [0b1000, 0b1010, 0b11010]  # the empty set is never queried


@pytest.mark.parametrize("order", [[0, 0], [5], [-1], [[0, 1]]])
def test_chain_rejects_bad_orders(order):
    F = so.cut_function(so.Digraph(5, [(0, 1, 1.0)]))
    with pytest.raises(ValueError):
        F.chain(order)


def test_empty_order_gives_the_empty_set_value():
    rng = np.random.default_rng(2)
    F = dyadic_energy(rng, 8)
    assert F.chain([]).tolist() == [0.0]
    assert F.chain(np.array([], dtype=np.int64)).tolist() == [0.0]


def assert_constant_oracle_calls(F, rng, monkeypatch, chain_calls=2):
    """greedy_base and lovasz_extension on a structurally chained F make at
    most ``chain_calls`` per-mask calls, and sfm.minimize at most 2; the same
    function behind a plain oracle needs one call per prefix, and gives the
    same answers."""
    p = F.p
    oracle = SetFunction(p, F, memoize=True)
    ws = [rng.standard_normal(p) for _ in range(3)]

    calls = [0]
    original = SetFunction.__call__

    def counting(self, mask):
        calls[0] += 1
        return original(self, mask)

    monkeypatch.setattr(SetFunction, "__call__", counting)

    def count(fn, *args):
        calls[0] = 0
        out = fn(*args)
        return out, calls[0]

    for w in ws:
        s, n = count(so.greedy_base, F, w)
        s_ref, n_ref = count(so.greedy_base, oracle, w)
        assert n <= chain_calls and n_ref >= p
        assert_bitwise_equal(s, s_ref)
        v, n = count(so.lovasz_extension, F, w)
        assert n <= chain_calls and v == so.lovasz_extension(oracle, w)
    res, n = count(sfm.minimize, F)
    assert n <= 2
    res_ref = sfm.minimize(oracle)
    assert (res.min_value, res.minimal_minimizer, res.maximal_minimizer) == \
        (res_ref.min_value, res_ref.minimal_minimizer, res_ref.maximal_minimizer)


def test_energy_chains_make_constant_oracle_calls(monkeypatch):
    # an s-t energy restrict(contract(cut)) chains in one pass
    rng = np.random.default_rng(56)
    assert_constant_oracle_calls(dyadic_energy(rng, 56, density=0.1), rng, monkeypatch)


@pytest.mark.parametrize("family", ["cut", "cut+modular"])
def test_random_cuts_chain_with_constant_oracle_calls(family, monkeypatch):
    rng = np.random.default_rng(40)
    assert_constant_oracle_calls(so.random_submodular(40, 40, family), rng,
                                 monkeypatch)


def test_modular_chains_make_no_oracle_calls(monkeypatch):
    rng = np.random.default_rng(41)
    F = so.modular_function(dyadic(rng, -1.0, 1.0, size=40))
    assert_constant_oracle_calls(F, rng, monkeypatch, chain_calls=0)
