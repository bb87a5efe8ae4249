"""Lovász extension, greedy linear optimization, support values, conjugate.

The extension of a set-function F to real vectors sorts the coordinates in
descending order and telescopes F along the prefix chain.  For submodular
F the same chain yields a maximizer of w^T s over the base polytope (the
greedy algorithm); sorting is stable with ascending-index tie-break so all
outputs are deterministic even when maximizers are not unique.

Each chain is one :meth:`SetFunction.chain` call, so functions with a
structural chainer (cuts, covers and their restrictions, contractions and
modular shifts, explicit tables, the concave families) cost a few array
operations per chain instead of one oracle call per prefix.
"""

from __future__ import annotations

import math

import numpy as np

from . import _kernels
from .core import EXHAUSTIVE_CAP, SetFunction, check_vector, to_explicit


def descending_order(w) -> np.ndarray:
    """Indices sorting w descending, ties broken by ascending index."""
    w = np.asarray(w, dtype=np.float64)
    if not np.all(np.isfinite(w)):
        raise ValueError("weight vector must be finite")
    return np.argsort(-w, kind="stable")


def lovasz_extension(F: SetFunction, w) -> float:
    """Extension value f(w) via the sorted-prefix telescoping sum."""
    w = check_vector(w, F.p)
    order = descending_order(w)
    total = 0.0
    values = F.chain(order)
    for term in (w[order] * (values[1:] - values[:-1])).tolist():
        total += term  # left to right, not pairwise, as the telescoping sum reads
    return total


def greedy_base(F: SetFunction, w) -> np.ndarray:
    """Vertex of the base polytope maximizing w^T s (F submodular).

    Assigns each element its marginal gain along the descending-w prefix
    chain; w may have negative entries.  Satisfies w^T s == f(w).
    """
    w = check_vector(w, F.p)
    order = descending_order(w)
    values = F.chain(order)
    s = np.empty(F.p, dtype=np.float64)
    s[order] = values[1:] - values[:-1]
    return s


def truncated_greedy(F: SetFunction, w) -> np.ndarray:
    """Maximizer of w^T s over P(F) intersected with the positive orthant.

    Requires F submodular and non-decreasing.  Only strictly positive
    coordinates of w receive marginal gains; the rest are zero.  The value
    w^T s equals f(max(w, 0)).
    """
    w = check_vector(w, F.p)
    order = descending_order(w)
    order = order[w[order] > 0.0]
    values = F.chain(order)
    s = np.zeros(F.p, dtype=np.float64)
    s[order] = values[1:] - values[:-1]
    return s


def support_P(F: SetFunction, w) -> float:
    """sup of w^T s over the unbounded polyhedron P(F).

    Finite (equal to f(w)) only for entrywise nonnegative w; any negative
    coordinate makes the value +inf, returned as ``math.inf`` rather than
    raised, since it is a legitimate answer.
    """
    w = check_vector(w, F.p)
    if np.any(w < 0.0):
        return math.inf
    return lovasz_extension(F, w)


def conjugate(F: SetFunction, s, cap: int = EXHAUSTIVE_CAP) -> tuple[float, int]:
    """Discrete conjugate max_A s(A) - F(A) by exhaustive scan.

    Returns ``(value, argmax_mask)`` with the smallest bitmask among tied
    maximizers.  A nonpositive value means s lies in P(F).
    """
    s = check_vector(s, F.p)
    table = to_explicit(F, cap)
    sums = _kernels.subset_sums(s)
    value, arg = _kernels.max_margin(sums, table)
    return float(value), int(arg)
