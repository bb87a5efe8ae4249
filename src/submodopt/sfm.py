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
_JITTER = 1e-12


@dataclass
class Corral:
    """State of the minimum-norm-point solver.

    ``bases`` rows are vertices of the base polytope produced by the greedy
    oracle; ``coeffs`` are their convex weights (nonnegative, summing to one
    within 1e-12); the current iterate is coeffs @ bases.  ``gap`` is the
    linearization gap at the iterate, and ``major_cycles`` counts the
    vertices added to the corral after the starting one.
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


def _affine_minimizer(gram: np.ndarray) -> np.ndarray:
    """Coefficients of the norm minimizer over the affine hull of the corral.

    Solves (gram + jitter * I) y = 1 with one LAPACK call and normalizes y
    to sum one.  An exactly singular system (LinAlgError) or a zero or
    non-finite sum(y) escalates the diagonal jitter a hundredfold, up to
    six times, before a least-squares solve takes over.
    """
    m = gram.shape[0]
    ones = np.ones(m)
    eye = np.eye(m)
    jitter = _JITTER * max(1.0, float(gram.diagonal().max()))
    for _ in range(6):
        try:
            y = np.linalg.solve(gram + jitter * eye, ones)
        except np.linalg.LinAlgError:
            pass
        else:
            total = float(y.sum())
            if total != 0.0 and math.isfinite(total):
                return y / total
        jitter *= 100.0
    y, *_ = np.linalg.lstsq(gram + jitter * eye, ones, rcond=None)
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

    Returns the optimal point and the final corral.  Raises NoConvergence
    (with the best iterate attached) after ``max_major`` cycles, default
    100 * p, and NumericalInconsistency if the norm grows across a major
    cycle.  Non-finite or misshapen weights or center, nonpositive
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
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValueError(f"eps must be finite and positive, got {eps!r}")
    if max_major is None:
        max_major = 100 * p

    s0 = greedy_base(F, d * (c - F.singletons()))
    bases = s0[np.newaxis, :].copy()
    coeffs = np.array([1.0])
    x = s0
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
                or np.any(np.all(np.abs(bases - q) <= 1e-12, axis=1))):
            break
        majors += 1
        bases = np.vstack([bases, q])
        coeffs = np.append(coeffs, 0.0)

        # minor cycles: step toward the affine minimizer, dropping vertices
        # whose convex coefficient hits zero, until it is a convex minimizer
        while True:
            centered = bases - c
            y = _affine_minimizer((centered * d) @ centered.T)
            if y.min() >= _DROP_COEFF:
                coeffs = y
                break
            shrink = coeffs - y
            move = shrink > _DROP_COEFF
            theta = float((coeffs[move] / shrink[move]).min())
            theta = min(max(theta, 0.0), 1.0)
            coeffs = (1.0 - theta) * coeffs + theta * y
            keep = coeffs > _DROP_COEFF
            if keep.all():
                # numerical stall: keep the smallest coefficient anyway
                keep[int(np.argmin(coeffs))] = False
            bases = bases[keep]
            coeffs = coeffs[keep]
            coeffs = coeffs / float(coeffs.sum())
            if bases.shape[0] == 1:
                coeffs = np.array([1.0])
                break
        x = coeffs @ bases

    corral = Corral(bases=bases, coeffs=coeffs, gap=gap,
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
