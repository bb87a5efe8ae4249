"""Submodularity-preserving constructions.

Restriction, contraction, partial minimization, convolution with a modular
function, monotonization, arithmetic combinators, and Moebius inversion of
the cover representation.  All transforms but monotonization are lazy
memoized oracles rather than materialized tables, so they compose freely;
the per-query enumeration cost (where there is one) is guarded by the usual
cap.  A transform of functions that tabulate from their structure carries a
table builder too, so that tabulating it costs array operations on the
tables of its inputs rather than one oracle call per mask; a transform of
any other function keeps the per-mask loop, which never evaluates its
inputs beyond the masks it needs.

Chains (:meth:`SetFunction.chain`) follow the same rule with one
difference.  ``add`` and ``scale`` chain by arithmetic on the chains of
their inputs whenever every input chains from its structure, and so does
``add_modular``, which is ``add`` of a modular function; any other
restriction or contraction chains by one oracle call per prefix.

Modular functions, and cuts and covers each plus a modular term, are
closed under ``restrict``, ``contract`` and ``add_modular``
(:class:`core.ClosedStructure`, the modular base, with its subclasses
``zoo.CutChain`` and ``zoo.CoverChain``).  On such an input these three
transforms build the reduced structure once and take the oracle, the
table, the singleton values and the chain of their result from it alone:
no call into the parent, no memo, and no table over the parent's ground
set.  So any stack of them over a cut or a cover evaluates and
chains in one pass over the remaining arcs or group members, and
tabulates at its own size even when the parent is above the cap.

Restriction, contraction and partial minimization return plain
:class:`core.SetFunction` objects on a compact ground set: local element k
is the k-th smallest element of the set kept, ``elements_of(A)[k]`` for a
restriction to A, so a caller routes results back to the parent
coordinates from the mask it passed.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import _kernels
from .core import (EXHAUSTIVE_CAP, ClosedStructure, ExplicitFunction,
                   SetFunction, check_cap, check_finite, check_vector,
                   ModularSums, complement, elements_of, modular_function,
                   to_explicit)


def embed_mask(mask: int, elements: Sequence[int]) -> int:
    """Map a compact-index bitmask to parent coordinates."""
    out = 0
    k = 0
    while mask:
        if mask & 1:
            out |= 1 << elements[k]
        mask >>= 1
        k += 1
    return out


def _axis_pairs(table: np.ndarray, k: int):
    """Views of the entries without and with bit k, aligned entry by entry."""
    pairs = table.reshape(-1, 2, 1 << k)
    return pairs[:, 0, :], pairs[:, 1, :]


def _if_structured(builder, *inputs):
    """The builder when every input tabulates from its structure, else None.

    Tabulating an input by its own per-mask loop would cost 2**p oracle
    calls, more than the transform's per-mask loop needs when it reads only
    part of the input (a restriction, say).
    """
    return builder if all(F.structured for F in inputs) else None


def _if_chained(chainer, *inputs):
    """The chainer when every input chains from its structure, else None."""
    return chainer if all(F.chainer is not None for F in inputs) else None


def _structure(F: SetFunction):
    """The closed structure F chains by (see core.ClosedStructure), or None."""
    S = F.chainer
    return S if isinstance(S, ClosedStructure) else None


def _gather_builder(F: SetFunction, elems: Sequence[int], A: int = 0,
                    base: float = 0.0):
    """Table builder of B -> F(A | B) - base on the compact ground set elems.

    One gather from the table of F while F.p is within the cap; above it
    the per-mask loop over the 2**|elems| compact masks is the only option.
    """
    def builder(cap: int):
        if F.p > cap:
            return None
        # embed_mask of every compact mask: the subset sums of 2**elems,
        # exact in float64 for elements below 53
        embedded = _kernels.subset_sums(np.exp2(elems)).astype(np.int64)
        return F.tabulate(cap)[A | embedded] - base

    return _if_structured(builder, F)


def restrict(F: SetFunction, A: int) -> SetFunction:
    """Restriction of F to the subsets of A, re-indexed to 0..|A|-1."""
    if A == 0:
        raise ValueError("cannot restrict to the empty set")
    if not 0 < A < (1 << F.p):
        raise ValueError(f"subset mask {A} out of range for p={F.p}")
    elems = elements_of(A)
    S = _structure(F)
    if S is not None:
        return S.restrict(elems).function()
    return SetFunction(len(elems), lambda m: F(embed_mask(m, elems)), memoize=True,
                       builder=_gather_builder(F, elems))


def contract(F: SetFunction, A: int) -> SetFunction:
    """Contraction by A: B -> F(A | B) - F(A) on the complement, re-indexed."""
    if not 0 <= A < (1 << F.p):
        raise ValueError(f"subset mask {A} out of range for p={F.p}")
    rest = complement(A, F.p)
    if rest == 0:
        raise ValueError("contraction by the full ground set leaves nothing")
    elems = elements_of(rest)
    S = _structure(F)
    if S is not None:
        return S.contract(elems).function()
    base = F(A)
    return SetFunction(len(elems), lambda m: F(A | embed_mask(m, elems)) - base,
                       memoize=True, builder=_gather_builder(F, elems, A, base))


def partial_min(G: SetFunction, W: int, cap: int = EXHAUSTIVE_CAP) -> SetFunction:
    """Partial minimum over the W coordinates of a joint submodular G.

    F(A) = min over B subset of W of G(A | B), minus the same minimum at
    A empty (so F(empty) = 0).  Each query enumerates 2**|W| completions;
    the table is the table of G with each W axis folded by a pairwise min.
    """
    q = int(W).bit_count()
    check_cap(q, cap)
    w_elems = elements_of(W)
    v_elems = elements_of(complement(W, G.p))
    if not v_elems:
        raise ValueError("no coordinates left after removing W")
    w_subs = [embed_mask(m, w_elems) for m in range(1 << q)]
    offset = min(G(b) for b in w_subs)

    def fn(mask: int) -> float:
        a = embed_mask(mask, v_elems)
        return min(G(a | b) for b in w_subs) - offset

    def builder(cap: int):
        if G.p > cap:
            return None
        table = G.tabulate(cap)
        # highest axis first, so the V axes below keep their positions
        for k in reversed(w_elems):
            table = np.minimum(*_axis_pairs(table, k)).reshape(-1)
        return table - offset

    return SetFunction(len(v_elems), fn, memoize=True,
                       builder=_if_structured(builder, G))


def convolve_modular(F: SetFunction, z, cap: int = EXHAUSTIVE_CAP) -> SetFunction:
    """Infimal convolution with the modular function z.

    G(A) = min over B subset of A of F(B) + z(A - B); G <= F and G <= z
    pointwise.  Each query enumerates the 2**|A| submasks of A; the table
    takes one pass per element, H[A + k] = min(H[A + k], H[A] + z_k).
    """
    z = check_finite(check_vector(z, F.p), "modular vector")
    zsums = ModularSums(z)

    def fn(mask: int) -> float:
        check_cap(int(mask).bit_count(), cap)
        best = F(mask)  # B = A
        sub = (mask - 1) & mask
        while True:
            v = F(sub) + zsums[mask ^ sub]
            if v < best:
                best = v
            if sub == 0:
                break
            sub = (sub - 1) & mask
        return best

    def builder(cap: int) -> np.ndarray:
        table = F.tabulate(cap)
        for k in range(F.p):
            without, with_k = _axis_pairs(table, k)
            np.minimum(with_k, without + z[k], out=with_k)
        return table

    return SetFunction(F.p, fn, memoize=True, builder=_if_structured(builder, F))


def monotonize(F: SetFunction, cap: int = EXHAUSTIVE_CAP) -> ExplicitFunction:
    """Non-decreasing envelope G(A) = min over supersets B of A of F(B), shifted to 0.

    The shift is the global minimum of F, so G(empty) = 0 and G stays
    submodular; its base polytope is the nonnegative part of the one of F.
    The shift needs every value of F, so G is tabulated at once: one
    superset-min pass per element over the table of F.
    """
    check_cap(F.p, cap)
    table = F.tabulate(cap)
    for k in range(F.p):
        without, with_k = _axis_pairs(table, k)
        np.minimum(without, with_k, out=without)
    return ExplicitFunction(table - table[0])


def add(F: SetFunction, G: SetFunction) -> SetFunction:
    if F.p != G.p:
        raise ValueError("ground sets differ")
    builder = _if_structured(lambda cap: F.tabulate(cap) + G.tabulate(cap), F, G)
    chainer = _if_chained(lambda order: F.chainer(order) + G.chainer(order), F, G)
    return SetFunction(F.p, lambda m: F(m) + G(m), memoize=True, builder=builder,
                       chainer=chainer)


def scale(F: SetFunction, lam: float) -> SetFunction:
    lam = float(check_finite(lam, "scale factor"))
    if lam < 0.0:
        raise ValueError(f"scale factor must be nonnegative, got {lam}")
    builder = _if_structured(lambda cap: lam * F.tabulate(cap), F)
    chainer = _if_chained(lambda order: lam * F.chainer(order), F)
    return SetFunction(F.p, lambda m: lam * F(m), memoize=True, builder=builder,
                       chainer=chainer)


def add_modular(F: SetFunction, s) -> SetFunction:
    """F + s.

    A cut, a cover or a modular function adds s to the modular vector of
    its structure, and the result is built from that structure without
    wrapping F.  Any other F is ``add(F, modular_function(s))``: it
    tabulates and chains from s whenever F does.
    """
    s = check_finite(check_vector(s, F.p), "modular vector")
    S = _structure(F)
    if S is not None:
        return S.add_modular(s).function()
    return add(F, modular_function(s))


def mobius(F: SetFunction, cap: int = EXHAUSTIVE_CAP) -> np.ndarray:
    """Group weights D of the cover representation of F.

    F(A) = sum of D(G) over groups G meeting A, equivalently
    F(A) = sum_G D(G) - sum over G inside V-A of D(G).  Inverting that
    identity gives D(G) as the alternating-sign subset sum of the values
    F(V) - F(V - A) over A inside G; D[0] is always zero.  Nonnegative D
    happens exactly for cover-type functions, but the inversion itself is
    defined for any F.
    """
    table = to_explicit(F, cap)
    # V - A is the bitwise complement full ^ A = full - A: the reversed table
    h = table[-1] - table[::-1]
    return _kernels.mobius_transform(h)


def mobius_reconstruct(D) -> ExplicitFunction:
    """Rebuild the set-function from group weights (inverse of :func:`mobius`)."""
    D = np.ascontiguousarray(D, dtype=np.float64)
    z = _kernels.zeta_transform(D)
    table = z[-1] - z[::-1]
    table[0] = 0.0
    return ExplicitFunction(table)
