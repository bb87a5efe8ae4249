"""Closed cut, cover and modular structures: stacks of restrict, contract
and add_modular over a cut, a cover or a modular function must evaluate,
tabulate, chain and list their singletons exactly as the same stack
gathered through its parents."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import submodopt as so
from submodopt import transforms
from submodopt.core import ClosedStructure

from helpers import (address_space_limit, dyadic, dyadic_cover,
                     dyadic_digraph, dyadic_energy, modular_sum)


def embed(mask, elems):
    return sum(1 << e for k, e in enumerate(elems) if (mask >> k) & 1)


def cut_oracle(g):
    return lambda mask: float(sum(w for u, v, w in g.arcs
                                  if (mask >> u) & 1 and not (mask >> v) & 1))


def cover_oracle(c):
    return lambda mask: float(sum(w for m, w in c.groups if m & mask))


def drawn_stack(F, ref, data, rng, depth):
    """The same random restrict / contract / add_modular layers over F and
    over the plain oracle ref, which reads each layer through its parent."""
    for _ in range(depth):
        op = data.draw(st.sampled_from(["restrict", "contract", "add_modular"]))
        full = (1 << F.p) - 1
        if op == "restrict":
            A = data.draw(st.integers(1, full))
            elems = so.elements_of(A)
            F = transforms.restrict(F, A)
            ref = (lambda r, el: lambda m: r(embed(m, el)))(ref, elems)
        elif op == "contract" and F.p > 1:
            A = data.draw(st.integers(0, full - 1))
            elems = so.elements_of(full ^ A)
            F = transforms.contract(F, A)
            ref = (lambda r, el, a: lambda m: r(a | embed(m, el)) - r(a))(ref, elems, A)
        else:
            s = dyadic(rng, -1.0, 1.0, size=F.p)
            F = transforms.add_modular(F, s)
            ref = (lambda r, s: lambda m: r(m) + modular_sum(s, m))(ref, s)
        assert isinstance(F.chainer, ClosedStructure)
    return F, ref


def assert_bitwise_equal(a, b):
    a, b = np.asarray(a), np.asarray(b, dtype=np.float64)
    assert a.dtype == np.float64 and a.shape == b.shape
    assert a.tobytes() == b.tobytes(), (a, b)


def check_against_reference(F, ref, data):
    masks = range(1 << F.p)
    want = [ref(m) for m in masks]
    assert_bitwise_equal([F(m) for m in masks], want)
    assert_bitwise_equal(F.tabulate(), want)
    assert_bitwise_equal(F.singletons(), [ref(1 << k) for k in range(F.p)])
    order = data.draw(st.permutations(range(F.p)))
    for prefix in (order, order[:data.draw(st.integers(0, F.p))]):
        mask, chain = 0, [0.0]
        for j in prefix:
            mask |= 1 << j
            chain.append(ref(mask))
        assert_bitwise_equal(F.chain(prefix), chain)


@settings(max_examples=120, deadline=None)
@given(data=st.data(), p=st.integers(1, 10), seed=st.integers(0, 2 ** 32 - 1),
       depth=st.integers(0, 4),
       family=st.sampled_from(["cut", "cover", "modular"]))
def test_structured_stacks_match_the_parent_gather(data, p, seed, depth, family):
    rng = np.random.default_rng(seed)
    if family == "cut":
        g = dyadic_digraph(rng, p, density=0.4)
        F, ref = so.cut_function(g), cut_oracle(g)
    elif family == "modular":
        m = dyadic(rng, -1.0, 1.0, size=p)
        F, ref = so.modular_function(m), (lambda mask: modular_sum(m, mask))
    else:
        c = dyadic_cover(rng, p)
        F, ref = so.cover_function(c), cover_oracle(c)
    F, ref = drawn_stack(F, ref, data, rng, depth)
    check_against_reference(F, ref, data)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), p=st.integers(1, 10), seed=st.integers(0, 2 ** 32 - 1),
       depth=st.integers(0, 4),
       family=st.sampled_from(["cut+modular", "cover", "cover+modular"]))
def test_random_family_stacks_match_the_parent_gather(data, p, seed, depth, family):
    F = so.random_submodular(seed, p, family)
    plain = so.SetFunction(p, F)  # a memo-free oracle of the same values
    F, ref = drawn_stack(F, plain, data, np.random.default_rng(seed), depth)
    check_against_reference(F, ref, data)


def test_modular_stacks_make_no_oracle_calls(monkeypatch):
    rng = np.random.default_rng(18)
    m = dyadic(rng, -1.0, 1.0, size=12)
    F = so.modular_function(m)
    stack = [F]
    for _ in range(3):
        G = stack[-1]
        G = transforms.add_modular(G, dyadic(rng, -1.0, 1.0, size=G.p))
        G = transforms.contract(G, 0b101)
        stack.append(transforms.restrict(G, (1 << G.p) - 1 - 0b10))
    calls = [0]
    original = so.SetFunction.__call__

    def counting(self, mask):
        calls[0] += 1
        return original(self, mask)

    monkeypatch.setattr(so.SetFunction, "__call__", counting)
    for G in stack:
        assert type(G.chainer) is ClosedStructure and G._memo is None
        table = G.tabulate()
        # on dyadic data the singletons are the table's and the chain is the
        # running sum of them; the hypothesis test above checks the values
        order = rng.permutation(G.p)
        assert_bitwise_equal(G.singletons(), table[1 << np.arange(G.p)])
        assert_bitwise_equal(G.chain(order),
                             np.concatenate(([0.0], np.cumsum(table[1 << order]))))
    assert calls[0] == 0


@pytest.mark.parametrize("family", ["cut", "cover", "modular"])
def test_stacks_keep_their_type_and_leave_their_parents_unchanged(family):
    rng = np.random.default_rng(26)
    p = 10
    if family == "cut":
        F = so.cut_function(so.Digraph(p, [(u, v, float(rng.exponential()))
                                           for u in range(p) for v in range(p)
                                           if u != v and rng.random() < 0.4]))
    elif family == "cover":
        F = so.cover_function(dyadic_cover(rng, p))
    else:
        F = so.modular_function(rng.standard_normal(p))
    S = type(F.chainer)
    stack, tables = [F], [F.tabulate()]
    for op in ("add_modular", "restrict", "add_modular", "contract", "add_modular"):
        G = stack[-1]
        if op == "add_modular":
            G = transforms.add_modular(G, rng.standard_normal(G.p))  # not dyadic
            parent, child = stack[-1].chainer, G.chainer
            assert all(a is b for a, b in zip(child.part, parent.part))
            assert child.m is not parent.m
        elif op == "restrict":
            G = transforms.restrict(G, (1 << G.p) - 1 - 0b100)
        else:
            G = transforms.contract(G, 0b10)
        assert type(G.chainer) is S and G._memo is None
        stack.append(G)
        tables.append(G.tabulate())
    for G, table in zip(stack, tables):
        assert_bitwise_equal(G.tabulate(), table)  # no child changed a parent
        for A in range(1 << G.p):
            value = G(A)
            chain = G.chain(rng.permutation(so.elements_of(A)))
            assert abs(value - chain[-1]) <= 1e-12 * (1.0 + abs(value))


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_dyadic_covers_draw_at_small_ground_sizes(p):
    for seed in range(20):
        c = dyadic_cover(np.random.default_rng(seed), p)
        assert len(c.groups) == 3 * p
        assert all(0 < m < 1 << p for m, _ in c.groups)
        F = so.cover_function(c)
        assert_bitwise_equal(F.tabulate(), [cover_oracle(c)(m) for m in range(1 << p)])


@pytest.mark.parametrize("op", ["restrict", "contract"])
def test_large_cover_reductions_tabulate_above_the_cap(op):
    rng = np.random.default_rng(40)
    c = dyadic_cover(rng, 40)
    F = so.add_modular(so.cover_function(c), dyadic(rng, -1.0, 1.0, size=40))
    keep = so.subset_of(rng.choice(40, size=12, replace=False))
    with address_space_limit():
        G = (transforms.restrict(F, keep) if op == "restrict"
             else transforms.contract(F, ((1 << 40) - 1) ^ keep))
        assert G.p == 12 and F.p > so.EXHAUSTIVE_CAP
        table = G.tabulate()
    assert_bitwise_equal(table, [G(m) for m in range(1 << 12)])
    parent = so.SetFunction(40, F)
    elems = so.elements_of(keep)
    base = 0 if op == "restrict" else ((1 << 40) - 1) ^ keep
    want = [parent(base | embed(m, elems)) - parent(base) for m in range(0, 1 << 12, 37)]
    assert_bitwise_equal(table[::37], want)


def _refuse(*args):
    raise AssertionError("a structured transform called embed_mask")


@pytest.mark.parametrize("kind", ["energy", "cover", "cover+modular"])
def test_structured_prox_routes_never_embed_masks(kind, monkeypatch):
    rng = np.random.default_rng(12)
    p = 12
    if kind == "energy":
        F = dyadic_energy(rng, p)
    else:
        F = so.cover_function(dyadic_cover(rng, p))
        if kind == "cover+modular":
            F = so.add_modular(F, dyadic(rng, -0.5, 0.5, size=p))
    a, z = dyadic(rng, 0.5, 2.0, size=p), dyadic(rng, -4.0, 4.0, size=p)
    b = dyadic(rng, 0.25, 1.0, size=p)
    q = so.Quadratic(a, z)
    cubic = so.SeparableConvex(p, deriv=lambda w: a * (w - z) + b * (w - z) ** 3)
    pr = so.prox_minnorm(F, q, eps=1e-11)
    monkeypatch.setattr(transforms, "embed_mask", _refuse)
    s = so.prox_decomposition(F, q)
    u = so.prox_homotopy(F, q)
    so.prox_homotopy(F, cubic)
    so.prox_decomposition(F, cubic)
    assert np.max(np.abs(s - pr.s)) <= 1e-6
    assert np.max(np.abs(u - pr.u)) <= 1e-6


@pytest.mark.parametrize("build", [
    lambda: so.cut_function(so.Digraph(3, [(0, 1, 1.0)])),
    lambda: so.cover_function(so.CoverSystem(3, [(0b011, 1.0)])),
    lambda: so.concave_cardinality([0.0, 2.0, 3.0, 3.5]),
])
def test_reductions_reject_masks_outside_the_ground_set(build):
    for reduce in (transforms.restrict, transforms.contract):
        with pytest.raises(ValueError, match="out of range"):
            reduce(build(), 0b1001)


def _local_mask(mask, live):
    return sum(1 << i for i, k in enumerate(live) if (mask >> k) & 1)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(), p=st.integers(1, 10), seed=st.integers(0, 2 ** 32 - 1),
       depth=st.integers(0, 4),
       family=st.sampled_from(["cut", "cover", "modular"]))
def test_network_minors_match_the_transform_stack(data, p, seed, depth, family):
    # every minor of the root network, under random nested restrictions and
    # contractions, has the values, the singletons and, plus any shift, the
    # minimum and both lattice extremes of the restrict / contract stack
    # that transforms build, bit for bit on dyadic data
    rng = np.random.default_rng(seed)
    if family == "cut":
        F = so.add_modular(so.cut_function(dyadic_digraph(rng, p, density=0.4)),
                           dyadic(rng, -1.0, 1.0, size=p))
    elif family == "modular":
        F = so.modular_function(dyadic(rng, -1.0, 1.0, size=p))
    else:
        F = so.add_modular(so.cover_function(dyadic_cover(rng, p)),
                           dyadic(rng, -1.0, 1.0, size=p))
    G, H = F.chainer.network(), F
    for level in range(depth + 1):
        live = G.live.tolist()
        assert live == sorted(live) and len(live) == H.p
        assert G.full == so.subset_of(live)
        assert_bitwise_equal(G.singletons(), H.singletons())
        shift = dyadic(rng, -2.0, 2.0, size=H.p)
        shifted = transforms.add_modular(H, shift)
        for mask in data.draw(st.lists(st.integers(0, G.full), max_size=4)) + [G.full]:
            mask &= G.full
            local = _local_mask(mask, live)
            assert_bitwise_equal(G.value(mask), H(local))
            assert_bitwise_equal(G.value(mask, shift), shifted(local))
        best = so.brute_minimize(shifted)
        amin, omin = G.minimize(shift)
        assert (_local_mask(amin, live), _local_mask(omin, live)) == (
            best.minimal_minimizer, best.maximal_minimizer)
        assert_bitwise_equal(G.value(amin, shift), best.min_value)
        if level == depth or H.p == 1:
            break
        A = data.draw(st.integers(1, G.full - 1).filter(lambda m: m & G.full))
        A &= G.full
        local = _local_mask(A, live)
        if data.draw(st.booleans()):
            G, H = G.restrict(A), transforms.restrict(H, local)
        else:
            G, H = G.contract(A), transforms.contract(H, local)
