"""Structured table builders: every one must reproduce the per-mask loop."""

import time

import numpy as np
import pytest

import submodopt as so
from submodopt.errors import CapExceeded

from helpers import (address_space_limit, dyadic, dyadic_cover, dyadic_digraph,
                     dyadic_energy)


def per_mask(F):
    return np.array([F(m) for m in range(1 << F.p)])


def _cut(rng):
    return so.cut_function(dyadic_digraph(rng, 9))


def _cover(rng):
    return so.cover_function(dyadic_cover(rng, 9))


def _concave_cardinality(rng):
    inc = np.sort(dyadic(rng, 0.0, 1.0, size=8))[::-1]
    return so.concave_cardinality(np.concatenate([[0.0], np.cumsum(inc)]))


def _weighted_sqrt(rng):
    return so.weighted_concave(dyadic(rng, 0.0, 1.0, size=8), "sqrt")


def _weighted_cap(rng):
    return so.weighted_concave(dyadic(rng, 0.0, 1.0, size=8), "cap", 1.5)


def _modular(rng):
    return so.modular_function(dyadic(rng, -1.0, 1.0, size=8))


def _transform(build):
    """Apply a transform to a fresh dyadic cut plus a cover on 8 elements."""
    def make(rng):
        inner = so.add(so.cut_function(dyadic_digraph(rng, 8)),
                       so.cover_function(dyadic_cover(rng, 8)))
        return build(inner, rng)
    return make


BUILDERS = {
    "cut": _cut,
    "cover": _cover,
    "concave_cardinality": _concave_cardinality,
    "weighted_concave_sqrt": _weighted_sqrt,
    "weighted_concave_cap": _weighted_cap,
    "modular_function": _modular,
    "random_cut": lambda rng: so.random_submodular(3, 9, "cut"),
    "random_cover": lambda rng: so.random_submodular(3, 9, "cover"),
    "random_cut+modular": lambda rng: so.random_submodular(3, 9, "cut+modular"),
    "random_cover+modular": lambda rng: so.random_submodular(3, 9, "cover+modular"),
    "energy": lambda rng: dyadic_energy(rng, 8),
    "restrict": _transform(lambda F, rng: so.restrict(F, 0b10110101)),
    "contract": _transform(lambda F, rng: so.contract(F, 0b01001010)),
    "partial_min": _transform(lambda F, rng: so.partial_min(F, 0b01100010)),
    "monotonize": _transform(lambda F, rng: so.monotonize(F)),
    "convolve_modular": _transform(
        lambda F, rng: so.convolve_modular(F, dyadic(rng, -1.0, 1.0, size=8))),
    "add": _transform(lambda F, rng: so.add(F, so.random_submodular(4, 8, "cut"))),
    "scale": _transform(lambda F, rng: so.scale(F, 0.375)),
    "add_modular": _transform(
        lambda F, rng: so.add_modular(F, dyadic(rng, -1.0, 1.0, size=8))),
    "restrict_of_contract": _transform(
        lambda F, rng: so.restrict(so.contract(F, 0b1), 0b1011010)),
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_table_equals_per_mask_loop(name):
    rng = np.random.default_rng(sorted(BUILDERS).index(name))
    F = BUILDERS[name](rng)
    assert F.structured
    table = so.to_explicit(F)
    assert table.dtype == np.float64 and table.shape == (1 << F.p,)
    assert np.array_equal(table, per_mask(F)), name


def test_weighted_concave_log1p_within_rounding():
    F = so.weighted_concave(dyadic(np.random.default_rng(5), 0.0, 2.0, size=9), "log1p")
    np.testing.assert_allclose(so.to_explicit(F), per_mask(F), rtol=1e-12, atol=0.0)


def test_unstructured_functions_use_the_per_mask_loop():
    Q = np.eye(4) + 0.25
    F = so.logdet_function(Q)
    assert not F.structured
    assert not so.restrict(F, 0b0111).structured
    # a transform of an unstructured function still tabulates correctly
    G = so.add_modular(so.monotonize(F), [0.5, -0.25, 0.0, 1.0])
    assert G.structured  # monotonize tabulates at once
    assert np.array_equal(so.to_explicit(G), per_mask(G))


def test_transforms_of_unstructured_functions_tabulate_no_parent():
    calls = []
    Q = np.eye(16) + 0.125
    logdet = so.logdet_function(Q)

    def counted(mask):
        calls.append(mask)
        return logdet(mask)

    F = so.SetFunction(16, counted)
    cut = so.cut_function(dyadic_digraph(np.random.default_rng(6), 16))
    shift = np.linspace(-1.0, 1.0, 16)
    transforms = [so.add_modular(F, shift), so.scale(F, 0.5), so.add(cut, F),
                  so.add(F, cut), so.convolve_modular(F, shift),
                  so.partial_min(F, 0b11)]
    for G in transforms:
        assert not G.structured
        child = so.restrict(G, 0b111000)
        assert not child.structured
        calls.clear()
        table = so.to_explicit(child)
        # 8 masks, each reading F at no more than 8 masks, where tabulating
        # the parent would read all 2**16
        assert 0 < len(calls) <= 64
        assert np.array_equal(table, per_mask(child))


def test_cap_still_enforced():
    rng = np.random.default_rng(0)
    F = so.cut_function(dyadic_digraph(rng, 22, density=0.1))
    with pytest.raises(CapExceeded):
        so.to_explicit(F)
    with pytest.raises(CapExceeded):
        so.brute_minimize(F)
    with pytest.raises(CapExceeded):
        so.to_explicit(so.cut_function(dyadic_digraph(rng, 8)), cap=7)
    # an explicit table ignores the cap when copied, but not when monotonized
    big = so.explicit_function(np.arange(1 << 8, dtype=np.float64))
    with pytest.raises(CapExceeded):
        so.monotonize(big, cap=7)


def test_modular_function_above_the_cap_is_lazy():
    s = dyadic(np.random.default_rng(4), -1.0, 1.0, size=40)
    with address_space_limit():
        F = so.modular_function(s)
        for mask in (0, 1, (1 << 40) - 1, 0x5a5a5a5a5a):
            assert F(mask) == sum(s[k] for k in range(40) if mask >> k & 1)
    with pytest.raises(CapExceeded):
        so.to_explicit(F)


def test_large_parent_falls_back_to_per_mask_loop():
    rng = np.random.default_rng(1)
    cut = so.cut_function(dyadic_digraph(rng, 24, density=0.1))

    def refuse(cap):
        raise AssertionError("the 2**24 parent table must not be built")

    parent = so.SetFunction(24, cut, builder=refuse)
    for child in (so.restrict(parent, 0x00ff0f), so.contract(parent, 0xff00f0)):
        assert child.p == 12
        table = so.to_explicit(child)
        assert np.array_equal(table, per_mask(child))


def test_structured_tabulation_makes_no_oracle_calls(monkeypatch):
    rng = np.random.default_rng(2)
    F = so.cut_function(dyadic_digraph(rng, 10))
    before = {m: F(m) for m in (0, 3, 517, 1023)}
    calls = []
    original = so.SetFunction.__call__
    monkeypatch.setattr(so.SetFunction, "__call__",
                        lambda self, mask: calls.append(mask) or original(self, mask))
    table = so.to_explicit(F)
    assert calls == []  # the builder made no oracle calls
    monkeypatch.undo()
    for m, v in before.items():
        assert F(m) == v == table[m]
    assert np.array_equal(table, per_mask(F))
    assert np.array_equal(so.to_explicit(F), table)


def test_brute_minimize_p20_cut_is_fast():
    F = so.random_submodular(11, 20, "cut+modular")
    started = time.perf_counter()
    res = so.brute_minimize(F)
    elapsed = time.perf_counter() - started
    assert F(res.minimal_minimizer) == res.min_value == F(res.maximal_minimizer)
    # per-mask tabulation of this function takes about 20 s
    assert elapsed < 5.0
