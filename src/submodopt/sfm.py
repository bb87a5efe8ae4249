"""Submodular function minimization.

The workhorse is Wolfe's minimum-norm-point method over the base polytope,
generalized to a diagonal metric and center so the proximal solvers can
reuse it: it minimizes sum_j d_j (s_j - c_j)^2 over s in B(F), using the
greedy algorithm as the linear minimization oracle.  The sign pattern of
the Euclidean solution yields every minimizer of F, but minimization stops
sooner: every iterate lies in B(F), and once one fixes all but a few
elements of every minimizer, the minor on those few is minimized exactly.
That stop and the final reading of the minimizers read F off the chain of
the greedy step at the iterate, its ascending sort: one chain per iterate.

:func:`minimize` picks its route from F alone: a function that chains by
a closed structure (a cut or a cover plus a modular term, any
restriction, contraction or shift of one, or a modular function) is
minimized by one s-t max-flow, any other by min-norm.
:func:`brute_minimize` is the exhaustive reference for small ground sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from .core import (EXHAUSTIVE_CAP, ClosedStructure, SetFunction, check_finite,
                   check_tolerance, check_vector, level_sets, subset_of,
                   to_explicit)
from .errors import NoConvergence, NumericalInconsistency
from .lovasz import _greedy_chain

_DROP_COEFF = 1e-12


@dataclass
class Corral:
    """State of the minimum-norm-point solver.

    ``bases`` rows are vertices of the base polytope produced by the greedy
    oracle, copied from the active rows of the solver's buffers in the
    order they entered the corral; ``coeffs`` are their convex weights
    (nonnegative, summing to one within 1e-12); the current iterate is
    coeffs @ bases.  ``gap`` is the linearization gap at the iterate, and
    ``major_cycles`` counts the vertices added to the corral after the
    starting one.
    """

    bases: np.ndarray
    coeffs: np.ndarray
    gap: float
    converged: bool
    major_cycles: int


@dataclass(frozen=True)
class SfmResult:
    """Minimization outcome with lattice extremes and a duality certificate.

    ``certificate`` is a point x of the base polytope, so its negative part
    x_-(V) bounds the minimum from below, and ``gap`` is ``min_value``
    minus that bound (clamped at zero).  Every minimizer contains the k
    with x_k < -gap and avoids the k with x_k > gap, up to the rounding of
    the p-term sum x_-(V); min-norm minimization
    stops at the first iterate for which that, and an exact minimization
    of F over the elements left, settles both extremes, so the gap need
    not be small.  ``certificate`` is None for the routes that are exact
    by construction, max-flow and enumeration, and ``gap`` is then zero.
    """

    min_value: float
    minimal_minimizer: int
    maximal_minimizer: int
    certificate: Optional[np.ndarray]
    gap: float


def _affine_minimizer(M: np.ndarray) -> np.ndarray:
    """Coefficients of the norm minimizer over the affine hull of the corral.

    M is Wolfe's bordered Gram matrix G + 11^T of the corral, where
    G_ij = <s_i - c, s_j - c>_d.  The minimizer's coefficients y solve
    G y = mu 1 with sum(y) = 1, so M y is a multiple of 1 as well: one
    LAPACK solve of M y = 1 and a normalization give them.  Since
    y^T M y = |sum_i y_i (s_i - c)|_d^2 + sum(y)^2, M is positive definite
    whenever the corral is affinely independent, also when its affine hull
    passes through c and G is singular.  An exactly singular M
    (LinAlgError) or a zero or non-finite sum(y) falls back to a
    least-squares solve.
    """
    ones = np.ones(M.shape[0])
    try:
        y = np.linalg.solve(M, ones)
    except np.linalg.LinAlgError:
        pass
    else:
        total = float(y.sum())
        if total != 0.0 and math.isfinite(total):
            return y / total
    y, *_ = np.linalg.lstsq(M, ones, rcond=None)
    return y / float(y.sum())


def min_norm_point(F: SetFunction, weights=None, center=None, eps: float = 1e-9,
                   max_major: Optional[int] = None) -> tuple[np.ndarray, Corral]:
    """Minimize sum_j d_j (s_j - c_j)^2 over the base polytope of F.

    ``weights`` is the positive diagonal metric d (default all ones) and
    ``center`` is c (default zero); the plain Euclidean projection of the
    origin is the default call.  Terminates when the linearization gap
    <x - c, x>_d - min_s <x - c, s>_d drops below eps * (1 + |x|_d^2).

    The first vertex is ``greedy_base(F, d * (c - F.singletons()))``.  For
    the quadratic prox (d = 1/a, c = a * z) its order is the descending
    order of the singleton roots z_k - F({k}) / a_k; for minimization
    (d = 1, c = 0) the elements with the smallest F({k}) come first, and
    when every singleton ties the order is the identity.  Closed structures
    list their singletons without oracle calls; any other F pays p of them.
    The start and each major cycle cost one greedy step, one chain of F.

    The corral lives in buffers made once per call, with room for p + 1
    vertices (p affinely independent ones on s(V) = F(V) plus the one just
    added; a numerically degenerate corral that needs more grows them by a
    copy).  They hold the vertices, their rows d * (s - c), and the
    bordered Gram matrix M of ``_affine_minimizer``, kept across cycles:
    an added vertex costs one matrix-vector product for its row of M, a
    minor cycle one solve on M, and a dropped vertex a shift of the rows
    and columns after it in place.

    Returns the optimal point and the final corral.  Raises NoConvergence
    (with the best iterate attached) after ``max_major`` cycles, default
    100 * p, and NumericalInconsistency if the norm grows across a major
    cycle or the start's weights, an iterate or a row of M overflow.  The
    solve runs with numpy's overflow and invalid-value warnings off, and
    so do the evaluations of F it makes; a non-finite M never reaches
    LAPACK.  Non-finite or misshapen weights or center, nonpositive
    weights, and an eps that is not a finite positive number raise
    ValueError.
    """
    p = F.p
    d = (np.ones(p) if weights is None
         else check_finite(check_vector(weights, p), "metric weights"))
    c = (np.zeros(p) if center is None
         else check_finite(check_vector(center, p), "center"))
    if np.any(d <= 0.0):
        raise ValueError("metric weights must be positive")
    cycles = _major_cycles(F, d, c, eps, 100 * p if max_major is None else max_major)
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            try:
                next(cycles)
            except StopIteration as done:
                return done.value


def _major_cycles(F: SetFunction, d: np.ndarray, c: np.ndarray, eps: float,
                  max_major: int):
    """The major cycles of :func:`min_norm_point`, one iterate at a time.

    Yields ``(x, order, values)`` for the start vertex, then for the point
    each major cycle ends at, every x in B(F): ``values`` is the chain of F
    along the ``order`` of the greedy step at x, for minimization (d = 1,
    c = 0) the ascending sort of x.  Returns ``(x, corral)`` as
    :func:`min_norm_point` does and raises what it raises.  The caller runs
    it with numpy's overflow warnings off, and may drop it after any iterate.
    """
    _check_eps(eps)
    p = F.p
    size = p + 1
    bases = np.empty((size, p))     # the corral's vertices s_i, rows 0..m-1
    scaled = np.empty((size, p))    # d * (s_i - c)
    M = np.empty((size, size))      # <s_i - c, s_j - c>_d + 1
    coeffs = np.empty(size)         # convex weights
    # an overflow shows as an inf or nan gap, which does not converge, or
    # as a non-finite row of M, which is refused before any solve
    w = d * (c - F.singletons())
    if not np.isfinite(w).all():  # the greedy step would call it a bad input
        raise NumericalInconsistency("the weights of the start vertex overflow")
    x = _greedy_chain(F, w)[0]
    bases[0] = x
    coeffs[0] = 1.0
    m = 1
    prev_norm = np.inf
    majors = 0

    while True:
        g = x - c
        if not np.isfinite(g).all():  # the greedy step would call it a bad input
            raise NumericalInconsistency(f"the iterate overflows at major cycle {majors}")
        q, order, values = _greedy_chain(F, -d * g)
        yield x, order, values
        norm = float(d @ (g * g))
        if norm > prev_norm + 1e-9 * (1.0 + prev_norm):
            raise NumericalInconsistency(
                f"norm increased across major cycle {majors}: "
                f"{prev_norm!r} -> {norm!r}")
        prev_norm = norm
        gap = float(d @ (g * x)) - float(d @ (g * q))
        converged = gap <= eps * (1.0 + float(d @ (x * x)))
        # stop on convergence, at the cap, or when the oracle repeats a vertex
        if (converged or majors == max_major
                or (np.abs(bases[:m] - q) <= 1e-12).all(axis=1).any()):
            break
        majors += 1
        if majors == 1:  # the start's own row, from this cycle's g and norm
            if not math.isfinite(norm):
                raise NumericalInconsistency(
                    f"the Gram matrix of the corral overflows at major cycle {majors}")
            np.multiply(d, g, out=scaled[0])
            M[0, 0] = norm + 1.0
        if m == size:
            size *= 2
            bases, scaled, coeffs = (np.concatenate((a, np.empty_like(a)))
                                     for a in (bases, scaled, coeffs))
            grown = np.empty((size, size))
            grown[:m, :m] = M
            M = grown
        qc = q - c
        row = M[m, :m + 1]
        np.add(scaled[:m] @ qc, 1.0, out=row[:m])
        row[m] = float(d @ (qc * qc)) + 1.0
        if not np.isfinite(row).all():
            raise NumericalInconsistency(
                f"the Gram matrix of the corral overflows at major cycle {majors}")
        M[:m, m] = row[:m]
        bases[m] = q
        np.multiply(d, qc, out=scaled[m])
        coeffs[m] = 0.0
        m += 1

        # minor cycles: step toward the affine minimizer, dropping vertices
        # whose convex coefficient hits zero, until it is a convex minimizer
        while True:
            y = _affine_minimizer(M[:m, :m])
            if y.min() >= _DROP_COEFF:
                coeffs[:m] = y
                break
            lam = coeffs[:m]
            shrink = lam - y
            move = shrink > _DROP_COEFF
            theta = float((lam[move] / shrink[move]).min())
            theta = min(max(theta, 0.0), 1.0)
            lam = (1.0 - theta) * lam + theta * y
            keep = lam > _DROP_COEFF
            if keep.all():
                # numerical stall: keep the smallest coefficient anyway
                keep[int(np.argmin(lam))] = False
            lam = lam[keep]
            # shift the rows and columns after each dropped vertex up in
            # place, the last one first
            for i in np.flatnonzero(~keep)[::-1].tolist():
                bases[i:m - 1] = bases[i + 1:m]
                scaled[i:m - 1] = scaled[i + 1:m]
                M[i:m - 1, :m] = M[i + 1:m, :m]
                M[:m - 1, i:m - 1] = M[:m - 1, i + 1:m]
                m -= 1
            coeffs[:m] = lam / float(lam.sum())
            if m == 1:
                coeffs[0] = 1.0
                break
        x = coeffs[:m] @ bases[:m]

    corral = Corral(bases=bases[:m].copy(), coeffs=coeffs[:m].copy(), gap=gap,
                    converged=converged, major_cycles=majors)
    if not converged:
        raise NoConvergence(
            f"minimum-norm point stalled after {majors} major cycles "
            f"with gap {gap:.3e}", result=(x, corral))
    return x, corral


def _check_eps(eps: float) -> None:
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValueError(f"eps must be finite and positive, got {eps!r}")


def brute_minimize(F: SetFunction, cap: int = EXHAUSTIVE_CAP) -> SfmResult:
    """Exhaustive minimization returning the exact lattice extremes.

    The minimal (maximal) minimizer is the intersection (union) of all
    argmin subsets; for submodular F the minimizers form a lattice so both
    extremes are themselves minimizers, which is verified.
    """
    table = to_explicit(F, cap)
    vmin, amin, omin = _kernels.argmin_extremes(table)
    if table[amin] != vmin or table[omin] != vmin:
        raise NumericalInconsistency(
            "argmin intersection/union do not minimize; input not submodular?")
    return SfmResult(min_value=float(vmin), minimal_minimizer=int(amin),
                     maximal_minimizer=int(omin), certificate=None, gap=0.0)


def minimize(F: SetFunction, eps: float = 1e-9) -> SfmResult:
    """Minimize a submodular function; F picks the route.

    When F chains by a closed structure (a cut or a cover plus a modular
    term, any restriction, contraction or shift of one, or a modular
    function; see :meth:`core.ClosedStructure.network`), one max-flow
    solves it.  The minimal and maximal minimizers are the elements
    reachable from the source in the residual network and those that
    cannot reach the sink, exact up to the flow's scaled saturation
    threshold (see ``_maxflow``); ``min_value`` is F(minimal), read by the
    oracle, ``certificate`` is None and ``gap`` is zero.

    Any other F runs the major cycles of :func:`min_norm_point` and checks
    each iterate x, the start vertex included, for a certified answer: x
    lies in B(F), so its negative part bounds min F from below, and once
    that bound decides all but a few elements of every minimizer, the
    minor on those few is minimized exactly and the solve stops.  A solve
    that no iterate settles runs to the gap ``eps``, and the minimizers are
    the shortest and longest tied prefixes of the solution's ascending
    sort, read off its greedy step's chain.  Either way ``certificate`` is
    the last iterate and ``gap`` is the minimum minus its negative part
    (see :class:`SfmResult`).  An ``eps`` that is not a finite positive
    number raises ValueError on either route.
    """
    _check_eps(eps)
    S = F.chainer
    if isinstance(S, ClosedStructure):
        return _flow_minimize(F, S)
    p = F.p
    cycles = _major_cycles(F, np.ones(p), np.zeros(p), eps, 100 * p)
    with np.errstate(over="ignore", invalid="ignore"):
        for x, order, values in cycles:
            res = _certified(F, x, values)
            if res is not None:
                return res
    vmin = float(values[np.argmin(values)])  # the first of tied minima: 0.0 before -0.0
    hits = np.flatnonzero(values <= vmin + 1e-12 * (1.0 + abs(vmin))).tolist()
    order = order.tolist()
    return _with_gap(vmin, subset_of(order[:hits[0]]), subset_of(order[:hits[-1]]), x)


def _flow_minimize(F: SetFunction, S: ClosedStructure) -> SfmResult:
    """The lattice extremes of the minimizers of F = S by one max-flow: the
    minimization of its minor on the whole ground set."""
    amin, omin = S.network().minimize(np.zeros(S.p))
    return SfmResult(min_value=F(amin), minimal_minimizer=amin,
                     maximal_minimizer=omin, certificate=None, gap=0.0)


def _certified(F: SetFunction, x: np.ndarray, values: np.ndarray) -> Optional[SfmResult]:
    """The minimization answer the base point x certifies, or None.

    ``values`` is the chain of F along the ascending sort of x, which the
    greedy step at x read.  With A its best prefix and g = F(A) - x_-(V),
    every minimizer B of F has x(B) <= F(B) <= F(A), so B contains every k
    with x_k < -g and no k with x_k > g.  That leaves U, the k with
    |x_k| <= g plus a rounding margin, open; while its 2**|U| masks are
    fewer than the 2p oracle calls of two more major cycles, one greedy
    step each, the minor C -> F(L | C) - F(L) on U, L the elements below,
    is tabulated and its lattice extremes are read under the tie threshold
    1e-12 (1 + |min|).  A non-finite x or bound, and extremes above the
    threshold, give None.
    """
    value = float(values.min())  # F(A)
    x_minus = float(np.sum(np.minimum(x, 0.0)))
    bound = value - x_minus + 1e-9 * (1.0 + abs(value) + float(np.max(np.abs(x))))
    if not math.isfinite(bound):
        return None
    open_ = np.abs(x) <= bound
    n = int(np.count_nonzero(open_))
    if (1 << n) >= 2 * F.p:
        return None
    below = x < -bound
    if n:
        extremes = _minor_extremes(F, below, open_)
        if extremes is None:
            return None
        amin, omin = extremes
    else:
        amin = omin = subset_of(np.flatnonzero(below).tolist())
    # the oracle confirms what the table read: a table that rounds away a
    # small value next to a huge one makes a false tie
    vmin = F(amin)
    tol = 1e-12 * (1.0 + abs(vmin))
    if vmin > value + tol or (omin != amin and F(omin) > vmin + tol):
        return None
    return _with_gap(vmin, amin, omin, x)


def _minor_extremes(F: SetFunction, below: np.ndarray,
                    open_: np.ndarray) -> Optional[tuple[int, int]]:
    """L | C for the lattice extremes C of the minor C -> F(L | C) - F(L)
    on U, or None.

    L and U are the elements flagged in ``below`` and ``open_``.  The minor
    is tabulated by one call of F at L | C for each of the 2**|U| subsets
    C of U, F(L) included.  Its extremes are the intersection and union of
    the C within 1e-12 (1 + |min|) of the minimum; None when the minimum is
    not finite or an extreme is above that threshold.
    """
    # bit i of an index into masks is the i-th smallest element of U
    masks = [subset_of(np.flatnonzero(below).tolist())]
    for k in np.flatnonzero(open_).tolist():
        masks += [m | 1 << k for m in masks]
    values = np.array([F(m) for m in masks])
    table = values - values[0]
    vmin = float(table.min())
    if not math.isfinite(vmin):
        return None
    thresh = vmin + 1e-12 * (1.0 + abs(vmin))
    hits = np.flatnonzero(table <= thresh)
    first = int(np.bitwise_and.reduce(hits))
    last = int(np.bitwise_or.reduce(hits))
    if table[first] > thresh or table[last] > thresh:
        return None
    return masks[first], masks[last]


def _with_gap(vmin: float, amin: int, omin: int, x: np.ndarray) -> SfmResult:
    """The result with certificate x and gap vmin - x_-(V), clamped at zero.

    A gap below -1e-9 (1 + |vmin|) raises NumericalInconsistency: x would
    lie outside B(F).
    """
    gap = vmin - float(np.sum(np.minimum(x, 0.0)))
    if gap < -1e-9 * (1.0 + abs(vmin)):
        raise NumericalInconsistency(
            f"negative duality gap {gap:.3e}; certificate outside B(F)?")
    return SfmResult(min_value=vmin, minimal_minimizer=amin,
                     maximal_minimizer=omin, certificate=x, gap=max(gap, 0.0))


def certificate_gap(F: SetFunction, A: int, s) -> float:
    """F(A) minus the negative part of s; zero iff both are optimal."""
    s = check_vector(s, F.p)
    return float(F(A) - np.sum(np.minimum(s, 0.0)))


def recover_level_values(F: SetFunction, x, group_tol: float = 1e-6) -> list[tuple[int, float]]:
    """Recompute the block values of a minimum-norm solution from F alone.

    Coordinates of x are grouped by value (gaps larger than ``group_tol``
    split blocks); each block value is the mean marginal gain of F along
    the ascending chain of blocks.  Disagreement with x beyond 1e-6 raises
    NumericalInconsistency (the grouping tolerance was misjudged).
    """
    x = np.asarray(x, dtype=np.float64)
    group_tol = check_tolerance(group_tol)
    out = []
    seen = 0
    prev = 0.0
    for block, prefix in level_sets(x, group_tol):
        cur = F(prefix)
        value = (cur - prev) / len(block)
        prev = cur
        for j in block.tolist():
            if abs(value - x[j]) > 1e-6:
                raise NumericalInconsistency(
                    f"recovered block value {value} differs from x[{j}]={x[j]}")
        out.append((prefix ^ seen, value))
        seen = prefix
    return out
