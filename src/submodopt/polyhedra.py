"""Membership, tight sets, dependence structure, and optimality certificates
for the polyhedra attached to a submodular function.

Membership and tight-set tests are exhaustive over the 2**p constraints
s(A) <= F(A), so they live under the same cap as the other
enumeration-based operations.  The maximizer certificates read F once per
level set of the weight vector (:func:`core.level_sets`) and need no cap.
Tolerances are additive and shared through the ``tol`` argument; a NaN,
infinite or negative one raises ValueError (:func:`core.check_tolerance`).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from . import _kernels
from .core import (DEFAULT_TOL, EXHAUSTIVE_CAP, SetFunction, check_cap,
                   check_indices, check_tolerance, check_vector, elements_of,
                   level_sets, to_explicit)
from .errors import NumericalInconsistency
from .lovasz import conjugate


def in_P(F: SetFunction, s, tol: float = DEFAULT_TOL, cap: int = EXHAUSTIVE_CAP) -> bool:
    """Whether s(A) <= F(A) + tol for every A: the conjugate at s is at most tol."""
    tol = check_tolerance(tol)
    margin, _ = conjugate(F, s, cap)
    return margin <= tol


def in_B(F: SetFunction, s, tol: float = DEFAULT_TOL, cap: int = EXHAUSTIVE_CAP) -> bool:
    tol = check_tolerance(tol)
    s = check_vector(s, F.p)
    if abs(float(np.sum(s)) - F((1 << F.p) - 1)) > tol:
        return False
    return in_P(F, s, tol, cap)


def in_P_plus(F: SetFunction, s, tol: float = DEFAULT_TOL, cap: int = EXHAUSTIVE_CAP) -> bool:
    tol = check_tolerance(tol)
    s = check_vector(s, F.p)
    if np.any(s < -tol):
        return False
    return in_P(F, s, tol, cap)


def tight_sets(F: SetFunction, s, tol: float = DEFAULT_TOL,
               cap: int = EXHAUSTIVE_CAP) -> list[int]:
    """All A with |s(A) - F(A)| <= tol, for s in P(F).

    The family T of tight sets of a point of P(F) is closed under union and
    intersection; the computed family is verified against that closure and
    a violation raises NumericalInconsistency (the tolerance straddles a
    constraint boundary).  The check is linear, O(p * |T|)
    (:func:`_kernels.is_lattice`): with D_k the intersection of the tight
    sets that contain k, T is a lattice iff the empty set is tight and so
    is A | D_k for every tight A and every k in some tight set.  Only when
    that fails does the quadratic pair search name the two sets.
    """
    tol = check_tolerance(tol)
    s = check_vector(s, F.p)
    table = to_explicit(F, cap)
    sums = _kernels.subset_sums(s)
    flags = np.abs(sums - table) <= tol
    masks = np.nonzero(flags)[0].astype(np.int64)
    if not _kernels.is_lattice(masks, flags):
        i, l = _kernels.closure_violation(masks, flags)
        if i >= 0:
            raise NumericalInconsistency(
                f"tight family not a lattice at tol={tol}: "
                f"sets {int(masks[i])} and {int(masks[l])}")
    return [int(m) for m in masks]


def _smallest_containing(tight: np.ndarray, k: int, p: int) -> int:
    """Intersection of the tight masks containing element k (V when none does)."""
    return int(np.bitwise_and.reduce(tight[(tight >> k) & 1 == 1],
                                     initial=(1 << p) - 1))


def dep(F: SetFunction, s, k: int, tol: float = DEFAULT_TOL,
        cap: int = EXHAUSTIVE_CAP) -> int:
    """Smallest tight set containing element k, for a base s.

    Well defined because tight sets form a lattice and the full ground set
    is tight for any base; computed as the intersection of all tight sets
    containing k.
    """
    k = int(check_indices(k, F.p, "element"))
    tight = np.array(tight_sets(F, s, tol, cap), dtype=np.int64)
    return _smallest_containing(tight, k, F.p)


def exchangeable_pairs(F: SetFunction, s, tol: float = DEFAULT_TOL,
                       cap: int = EXHAUSTIVE_CAP) -> list[tuple[int, int]]:
    """All pairs (k, q) with q in dep(s, k), q != k, from one tight-set scan."""
    tight = np.array(tight_sets(F, s, tol, cap), dtype=np.int64)
    return [(k, q) for k in range(F.p)
            for q in elements_of(_smallest_containing(tight, k, F.p)) if q != k]


def _prefix_gap(F: SetFunction, s: np.ndarray, mask: int) -> float:
    """|s(A) - F(A)| for A = mask, with s(A) summed in ascending element order."""
    return abs(float(np.sum(s[elements_of(mask)])) - F(mask))


def is_base_maximizer(F: SetFunction, s, w, tol: float = DEFAULT_TOL) -> bool:
    """Whether a base s maximizes w^T s over the base polytope.

    Primary criterion: every upper level set of w must be tight for s, one
    oracle call per distinct value of w.  The exchangeable-pair form is
    available separately as :func:`base_maximizer_exchange_check` for
    cross-checking.
    """
    tol = check_tolerance(tol)
    s = check_vector(s, F.p)
    w = check_vector(w, F.p)
    # the upper level sets of w are the lower level sets of -w
    return not any(_prefix_gap(F, s, mask) > tol for _, mask in level_sets(-w))


def base_maximizer_exchange_check(F: SetFunction, s, w, tol: float = DEFAULT_TOL,
                                  cap: int = EXHAUSTIVE_CAP) -> bool:
    """Exchange form of the maximizer test: w_k <= w_q for all q in dep(s, k)."""
    w = check_vector(w, F.p)
    for k, q in exchangeable_pairs(F, s, tol, cap):
        if w[k] > w[q] + tol:
            return False
    return True


def is_P_plus_maximizer(F: SetFunction, s, w, tol: float = DEFAULT_TOL) -> bool:
    """Whether s maximizes w^T s over P(F) & positive orthant (F non-decreasing).

    Blocks of w with negative value must carry s identically zero; prefixes
    of positive-value blocks must be tight; a block where w is zero carries
    no condition.
    """
    tol = check_tolerance(tol)
    s = check_vector(s, F.p)
    w = check_vector(w, F.p)
    for block, mask in level_sets(-w):
        if w[block[0]] < 0.0:
            if np.any(np.abs(s[block]) > tol):
                return False
        elif w[block[0]] > 0.0 and _prefix_gap(F, s, mask) > tol:
            return False
    return True


def _proper_submasks(mask: int):
    """Nonempty proper submasks of a bitmask, ascending."""
    sub = (mask - 1) & mask
    seen = []
    while sub:
        seen.append(sub)
        sub = (sub - 1) & mask
    return sorted(seen)


def separable_witness(F: SetFunction, A: int, tol: float = DEFAULT_TOL,
                      cap: int = EXHAUSTIVE_CAP) -> Optional[int]:
    """A nonempty proper part B of A with F(A) = F(B) + F(A - B), if any.

    Returns the smallest such bitmask, or None when A is inseparable.
    """
    tol = check_tolerance(tol)
    if A == 0:
        raise ValueError("separability is defined for nonempty sets")
    check_cap(int(A).bit_count(), cap)
    fa = F(A)
    for b in _proper_submasks(A):
        if abs(F(b) + F(A ^ b) - fa) <= tol:
            return b
    return None


def face_check(F: SetFunction, partition: Sequence[int], tol: float = DEFAULT_TOL,
               cap: int = EXHAUSTIVE_CAP) -> bool:
    """Whether an ordered partition of V picks out a face with relative interior.

    Each block must be inseparable for the contraction of F by the union of
    the preceding blocks.
    """
    full = (1 << F.p) - 1
    union = 0
    for block in partition:
        if block == 0 or (block & union):
            raise ValueError("partition blocks must be nonempty and disjoint")
        prefix = union
        base_val = F(prefix)
        contracted = SetFunction(
            F.p, lambda m, pre=prefix, bv=base_val: F(pre | m) - bv)
        if separable_witness(contracted, block, tol, cap) is not None:
            return False
        union |= block
    if union != full:
        raise ValueError("partition does not cover the ground set")
    return True
