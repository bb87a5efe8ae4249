"""Submodular function minimization.

The workhorse is Wolfe's minimum-norm-point method over the base polytope,
generalized to a diagonal metric and center so the proximal solvers can
reuse it: it minimizes sum_j d_j (s_j - c_j)^2 over s in B(F), using the
greedy algorithm as the linear minimization oracle.  The sign pattern of
the Euclidean solution yields every minimizer of F; an exhaustive backend
provides the exact reference for small ground sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from .core import (EXHAUSTIVE_CAP, SetFunction, check_finite, check_tolerance,
                   check_vector, level_sets, subset_of, to_explicit)
from .errors import NoConvergence, NumericalInconsistency
from .lovasz import greedy_base

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

    ``certificate`` is a base-polytope point whose negative part bounds the
    minimum from below; it is None for backends that are exact by
    enumeration, in which case ``gap`` is zero.
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
    cycle or a row of M overflows.  The solve runs with numpy's overflow
    and invalid-value warnings off, and so do the evaluations of F it
    makes; a non-finite M never reaches LAPACK.  Non-finite or misshapen
    weights or center, nonpositive weights, and an eps that is not a
    finite positive number raise ValueError.
    """
    p = F.p
    d = (np.ones(p) if weights is None
         else check_finite(check_vector(weights, p), "metric weights"))
    c = (np.zeros(p) if center is None
         else check_finite(check_vector(center, p), "center"))
    if np.any(d <= 0.0):
        raise ValueError("metric weights must be positive")
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValueError(f"eps must be finite and positive, got {eps!r}")
    if max_major is None:
        max_major = 100 * p

    size = p + 1
    bases = np.empty((size, p))     # the corral's vertices s_i, rows 0..m-1
    scaled = np.empty((size, p))    # d * (s_i - c)
    M = np.empty((size, size))      # <s_i - c, s_j - c>_d + 1
    coeffs = np.empty(size)         # convex weights
    # an overflow shows as an inf or nan gap, which does not converge, or
    # as a non-finite row of M, which is refused before any solve
    with np.errstate(over="ignore", invalid="ignore"):
        x = greedy_base(F, d * (c - F.singletons()))
        bases[0] = x
        coeffs[0] = 1.0
        m = 1
        prev_norm = np.inf
        majors = 0

        while True:
            g = x - c
            norm = float(d @ (g * g))
            if norm > prev_norm + 1e-9 * (1.0 + prev_norm):
                raise NumericalInconsistency(
                    f"norm increased across major cycle {majors}: "
                    f"{prev_norm!r} -> {norm!r}")
            prev_norm = norm
            q = greedy_base(F, -d * g)
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


def _prefix_extraction(F: SetFunction, x: np.ndarray) -> tuple[float, int, int]:
    """Exact re-optimization over the prefixes of the ascending sort of x.

    Both lattice extremes of the minimizers of F are level sets of the
    exact minimum-norm point, hence prefixes of the sorted order; scanning
    all p+1 prefixes with exact oracle calls makes the extraction robust to
    solver noise.  Returns (min value, shortest argmin prefix, longest).
    """
    order = np.argsort(x, kind="stable")
    values = F.chain(order).tolist()
    vmin = min(values)
    thresh = vmin + 1e-12 * (1.0 + abs(vmin))
    achieving = [k for k, v in enumerate(values) if v <= thresh]
    order = order.tolist()
    return vmin, subset_of(order[:achieving[0]]), subset_of(order[:achieving[-1]])


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


def minimize(F: SetFunction, backend: str = "minnorm", eps: float = 1e-9,
             cap: int = EXHAUSTIVE_CAP) -> SfmResult:
    """Minimize a submodular function.

    ``backend="minnorm"`` runs the minimum-norm-point solver and reads the
    minimizers off the sign pattern of the solution, re-evaluating
    candidate prefixes exactly; its certificate is the solved base point
    and the reported gap is F(argmin) minus the negative part of the
    certificate.  ``backend="brute"`` enumerates all subsets.
    """
    if backend == "brute":
        return brute_minimize(F, cap)
    if backend != "minnorm":
        raise ValueError(f"unknown backend {backend!r}")
    x, _ = min_norm_point(F, eps=eps)
    vmin, amin, omin = _prefix_extraction(F, x)
    s_minus = float(np.sum(np.minimum(x, 0.0)))
    gap = vmin - s_minus
    if gap < -1e-9 * (1.0 + abs(vmin)):
        raise NumericalInconsistency(
            f"negative duality gap {gap:.3e}; certificate outside B(F)?")
    return SfmResult(min_value=vmin, minimal_minimizer=amin,
                     maximal_minimizer=omin, certificate=x,
                     gap=max(gap, 0.0))


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
