"""Separable convex minimization against the Lovász extension.

Solves min_w f(w) + sum_j psi_j(w_j) for strictly convex differentiable
psi_j, equivalently the concave separable maximization of
-sum_j psi*_j(-s_j) over the base polytope.  A penalty is its derivative
(:class:`SeparableConvex`): the solvers read psi only through psi' and its
inverse.  :class:`Quadratic` adds closed forms for the inverse, the value
and the conjugate value.  Three routes are provided:

* ``prox_minnorm``: for quadratics the dual is a diagonal-metric projection
  onto the base polytope, solved by the minimum-norm-point method; it
  reports the primal-dual gap;
* ``prox_decomposition``: splits the ground set by one submodular
  minimization per level and recurses on restriction/contraction;
* ``prox_homotopy``: peels the coordinate blocks of the solution from the
  largest value down, each found by a secant iteration that starts at the
  largest singleton root, a lower bound on the block value.

All three routes run their min-norm solves from the same start, the
greedy vertex of the singleton roots (see :func:`sfm.min_norm_point`): for
``prox_minnorm`` it follows the descending roots z_k - F({k}) / a_k, the
values the homotopy starts each peel from, and for the SFMs inside the
decomposition and the homotopy it takes the smallest singletons first.

Both recursive solvers work on reduced functions over a compact ground set
and carry one int64 array ``idx`` beside each: ``idx[k]`` is the root
coordinate of local element k.  They evaluate the root penalty and take
its ``idx`` entries, so the penalty is never re-indexed itself.

Threshold-set extraction, line search inside P(F), the P(F) and positive
P(F) variants, and separable optimality checks round out the toolbox.
Everything reduces to monotone scalar equations, solved by a safeguarded
bisection/secant iteration (bracket growth factor 2, 200-iteration cap).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from . import _kernels, transforms
from .core import (DEFAULT_TOL, EXHAUSTIVE_CAP, SetFunction, check_finite,
                   check_tolerance, complement, elements_of, level_sets,
                   subset_of, to_explicit)
from .errors import (NoConvergence, NumericalInconsistency, RecursionOverflow,
                     Unbounded)
from .lovasz import lovasz_extension
from .polyhedra import base_maximizer_exchange_check
from .sfm import min_norm_point, minimize

_ROOT_REL_TOL = 1e-12
_ROOT_MAX_ITER = 200


def solve_increasing(fn: Callable[[float], float], target: float,
                     x0: float = 0.0) -> float:
    """Root of fn(x) = target for a strictly increasing scalar fn.

    Brackets by doubling steps from x0, then closes in by regula falsi
    safeguarded by bisection, with the Illinois step: when the same end
    moves twice in a row, the value at the other, stale end is halved, so
    that end moves too.  Raises NoConvergence past 200 iterations of
    either phase.
    """
    lo = hi = float(x0)
    flo = fhi = fn(x0) - target
    step = 1.0
    it = 0
    while flo > 0.0:
        lo -= step
        step *= 2.0
        flo = fn(lo) - target
        it += 1
        if it > _ROOT_MAX_ITER:
            raise NoConvergence(f"no lower bracket for target {target}")
    step = 1.0
    it = 0
    while fhi < 0.0:
        hi += step
        step *= 2.0
        fhi = fn(hi) - target
        it += 1
        if it > _ROOT_MAX_ITER:
            raise NoConvergence(f"no upper bracket for target {target}")
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    side = 0  # -1 after lo moved, +1 after hi moved
    for _ in range(_ROOT_MAX_ITER):
        mid = lo - flo * (hi - lo) / (fhi - flo)  # flo < 0 < fhi
        if not lo < mid < hi:
            mid = 0.5 * (lo + hi)
        fmid = fn(mid) - target
        if fmid == 0.0:
            return mid
        if fmid < 0.0:
            lo, flo = mid, fmid
            if side < 0:
                fhi *= 0.5
            side = -1
        else:
            hi, fhi = mid, fmid
            if side > 0:
                flo *= 0.5
            side = 1
        if hi - lo <= _ROOT_REL_TOL * (1.0 + abs(lo) + abs(hi)):
            return 0.5 * (lo + hi)
    raise NoConvergence(f"bracket for target {target} did not close")


class SeparableConvex:
    """Coordinatewise strictly convex differentiable penalty, given by psi'.

    ``deriv`` is the derivative map, vectorized over the p coordinates; a
    solver that works on some of the coordinates evaluates all p and keeps
    its own.  Every solver and optimality condition reads the penalty
    through psi' and its inverse (psi*)' = (psi')^{-1}, which
    :meth:`inv_deriv` computes by scalar root searches.  Derivatives must
    be strictly increasing with full range, so every conjugate is finite on
    all of R; a grid check rejects obviously flat or saturating derivatives
    at construction.  A round-trip probe at 0.7 also rejects a ``deriv``
    that mixes coordinates, such as w + 0.1 * sum(w): ``inv_deriv`` reads
    each coordinate with the others at zero, so it misses 0.7 there.
    """

    def __init__(self, p: int, deriv: Callable[[np.ndarray], np.ndarray]):
        self.p = int(p)
        self.deriv = deriv
        self._validate()

    def deriv_at(self, alpha: float) -> np.ndarray:
        """Vector of per-coordinate derivatives at the common point alpha."""
        return np.asarray(self.deriv(np.full(self.p, float(alpha))),
                          dtype=np.float64)

    def inv_deriv(self, y) -> np.ndarray:
        """The x with psi'_j(x_j) = y_j for every j: one root search per coordinate."""
        y = np.asarray(y, dtype=np.float64)
        out = np.empty(self.p)
        for j in range(self.p):
            def fj(x, j=j):
                w = np.zeros(self.p)
                w[j] = x
                return float(self.deriv(w)[j])
            out[j] = solve_increasing(fj, float(y[j]))
        return out

    def _validate(self) -> None:
        grid = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        prev = None
        for x in grid:
            d = self.deriv_at(x)
            if prev is not None and not np.all(d > prev):
                raise ValueError("derivative is not strictly increasing")
            prev = d
        # reject saturating derivatives (conjugate would not be finite);
        # overflow to inf at the outer probes is fine and expected
        with np.errstate(over="ignore"):
            lo2, lo1 = self.deriv_at(-1e4), self.deriv_at(-1e2)
            hi1, hi2 = self.deriv_at(1e2), self.deriv_at(1e4)
        if not (np.all(hi2 > hi1) and np.all(lo2 < lo1)):
            raise ValueError("derivative saturates; range must be all of R")
        probe = self.deriv_at(0.7)
        back = self.inv_deriv(probe)
        if np.any(np.abs(back - 0.7) > 1e-9 * (1.0 + np.abs(back))):
            raise ValueError("inverse derivative does not invert the derivative")


class Quadratic(SeparableConvex):
    """Weighted shifted quadratics psi_j(w) = a_j / 2 * (w - z_j)^2.

    The inverse derivative, the value and the conjugate value have closed
    forms; ``prox_minnorm`` reports its primal-dual gap from the last two.
    """

    def __init__(self, a, z):
        self.a = a = np.asarray(a, dtype=np.float64)
        self.z = z = np.asarray(z, dtype=np.float64)
        super().__init__(a.size,
                         deriv=lambda w: a * (np.asarray(w, dtype=np.float64) - z))

    def inv_deriv(self, y) -> np.ndarray:
        return self.z + np.asarray(y, dtype=np.float64) / self.a

    def value(self, w) -> np.ndarray:
        """psi_j(w_j) for every j."""
        return 0.5 * self.a * (np.asarray(w, dtype=np.float64) - self.z) ** 2

    def conj_value(self, y) -> np.ndarray:
        """psi*_j(y_j) = y_j z_j + y_j^2 / (2 a_j) for every j."""
        y = np.asarray(y, dtype=np.float64)
        return y * self.z + y * y / (2.0 * self.a)

    def _validate(self) -> None:
        """Shapes, finiteness and positive weights; the closed forms need no probe."""
        if self.a.shape != self.z.shape or self.a.ndim != 1:
            raise ValueError("weights and centers must be 1-d of equal length")
        check_finite(self.a, "quadratic weights")
        check_finite(self.z, "quadratic centers")
        if np.any(self.a <= 0.0):
            raise ValueError("quadratic weights must be positive")


@dataclass(frozen=True)
class ProxResult:
    """Primal-dual pair of the separable problem.

    ``u`` minimizes f(w) + sum psi_j(w_j); ``s`` is the matching dual base
    point with s_k = -psi'_k(u_k); the gap is primal minus dual value and
    is nonnegative up to solver accuracy.
    """

    u: np.ndarray
    s: np.ndarray
    primal_value: float
    dual_value: float
    gap: float


def prox_minnorm(F: SetFunction, q: Quadratic, eps: float = 1e-9) -> ProxResult:
    """Quadratic-penalty solve through the minimum-norm-point method.

    The dual becomes min over B(F) of sum (s_j - a_j z_j)^2 / (2 a_j),
    a projection in the diagonal metric 1/a onto the base polytope.
    """
    if q.p != F.p:
        raise ValueError("penalty dimension does not match the ground set")
    s, _ = min_norm_point(F, weights=1.0 / q.a, center=q.a * q.z, eps=eps)
    u = q.z - s / q.a
    primal = lovasz_extension(F, u) + float(np.sum(q.value(u)))
    dual = -float(np.sum(q.conj_value(-s)))
    return ProxResult(u=u, s=s, primal_value=primal, dual_value=dual,
                      gap=primal - dual)


def prox_threshold_sets(u, alpha: float, tau: float = 1e-9) -> tuple[int, int]:
    """Minimal and maximal minimizers of F + psi'(alpha) from the prox solution.

    The exact sets are {u > alpha} and {u >= alpha}; ``tau`` guards against
    solver noise in u.  A NaN or infinite alpha raises ValueError.
    """
    u = np.asarray(u, dtype=np.float64)
    alpha = float(check_finite(alpha, "alpha"))
    tau = check_tolerance(tau)
    minimal = subset_of(np.nonzero(u > alpha + tau)[0])
    maximal = subset_of(np.nonzero(u >= alpha - tau)[0])
    return minimal, maximal


def _equalized_start(fv: float, psi: SeparableConvex,
                     idx: np.ndarray) -> np.ndarray:
    """The sum-constrained minimizer of the dual objective: t with t(V) = fv.

    Minimizing sum_j psi*_j(-t_j) subject to the sum constraint equalizes
    the dual derivatives, i.e. t_j = -psi'_j(nu) for a common scalar nu
    (for uniform quadratic weights this reduces to equal t_j - z_j).  Local
    element j of the reduced function, whose F(V) is fv, is root
    coordinate idx[j] of psi.
    """
    if isinstance(psi, Quadratic):
        a, z = psi.a[idx], psi.z[idx]
        nu = (float(np.sum(a * z)) - fv) / float(np.sum(a))
        return a * z - a * nu
    nu = solve_increasing(lambda m: float(np.sum(psi.deriv_at(m)[idx])), -fv)
    return -psi.deriv_at(nu)[idx]


def prox_decomposition(F: SetFunction, psi: SeparableConvex,
                       sfm_backend: str = "minnorm", eps: float = 1e-9,
                       depth_limit: Optional[int] = None) -> np.ndarray:
    """Dual-optimal base point by recursive ground-set splitting.

    Equalize the derivatives subject to t(V) = F(V); if the largest
    minimizer of F - t is the whole ground set, t is optimal, otherwise
    solve the restriction and the contraction independently and concatenate.
    Each reduced problem is a function on a compact ground set and the
    root coordinates of its elements; psi is always the root penalty.
    A largest minimizer that is empty means min(F - t) = 0 with F(V) - t(V)
    above the SFM tolerance; t is accepted as optimal, being in B(F) up to
    rounding, when that gap is within 1e-9 * (1 + |F(V)|), and otherwise
    the root search went wrong and NumericalInconsistency is raised.  A
    one-element function runs no SFM: its B(F) is the single point F(V),
    so a one-element leaf returns t after the same check.
    Each level removes at least one element, so recursion deeper than p
    levels is an internal bug, reported as RecursionOverflow.
    """
    if psi.p != F.p:
        raise ValueError("penalty dimension does not match the ground set")
    if depth_limit is None:
        depth_limit = F.p + 1

    def solve(Fc: SetFunction, idx: np.ndarray, depth: int) -> np.ndarray:
        if depth > depth_limit:
            raise RecursionOverflow(f"decomposition depth {depth} exceeds limit")
        full = (1 << Fc.p) - 1
        fv = Fc(full)
        t = _equalized_start(fv, psi, idx)
        if Fc.p == 1:  # B(F) is the single point F(V): t needs no SFM
            a_mask = 0
        else:
            a_mask = minimize(transforms.add_modular(Fc, -t),
                              backend=sfm_backend, eps=eps).maximal_minimizer
        if a_mask == full:
            return t
        if a_mask == 0:
            tv = float(np.sum(t))
            if abs(tv - fv) > 1e-9 * (1.0 + abs(fv)):
                raise NumericalInconsistency(
                    f"t(V) = {tv!r} differs from F(V) = {fv!r} while the "
                    f"largest minimizer of F - t is empty")
            return t
        inside = elements_of(a_mask)
        outside = elements_of(complement(a_mask, Fc.p))
        s = np.empty(Fc.p)
        s[inside] = solve(transforms.restrict(Fc, a_mask), idx[inside], depth + 1)
        s[outside] = solve(transforms.contract(Fc, a_mask), idx[outside], depth + 1)
        return s

    return solve(F, np.arange(F.p), 1)


def _largest_singleton_root(singles: np.ndarray, psi: SeparableConvex,
                            idx: np.ndarray) -> tuple[float, int]:
    """Largest alpha_k with F({k}) + psi'_{idx[k]}(alpha_k) = 0, and its k.

    It is the root of the increasing alpha -> min_k psi'_{idx[k]}(alpha) +
    F({k}), found by one scalar root search, and k attains that min there;
    a quadratic inverts its derivative in closed form instead.
    """
    if isinstance(psi, Quadratic):
        roots = psi.z[idx] - singles / psi.a[idx]
        k = int(np.argmax(roots))
        return float(roots[k]), k
    alpha = solve_increasing(
        lambda x: float(np.min(psi.deriv_at(x)[idx] + singles)), 0.0)
    return alpha, int(np.argmin(psi.deriv_at(alpha)[idx] + singles))


def prox_homotopy(F: SetFunction, psi: SeparableConvex,
                  sfm_backend: str = "minnorm", eps: float = 1e-9) -> np.ndarray:
    """Primal prox solution by peeling level sets from the top value down.

    For each remaining block, find the smallest alpha at which
    g(alpha) = min_A F(A) + psi'(alpha)(A) reaches zero (secant iteration on
    the current minimizer), fix u = alpha on the maximal tight set, and
    recurse on the contraction by it; local element k of the contraction
    is root coordinate idx[k], and psi is always the root penalty.  The
    secant starts at the largest singleton root, max_k alpha_k with
    F({k}) + psi'_k(alpha_k) = 0: at the
    block value alpha*, F + psi'(alpha*) is nonnegative on every set,
    singletons included, so every alpha_k <= alpha*, and the singleton
    attaining the max is tight at the start.  When the top block is one
    element, the first SFM confirms it; when one element remains, its block
    value is its singleton root and no SFM runs.  The secant loop stops on a
    minimization of F + psi'(alpha) at the final alpha; its maximal
    minimizer, united with the last tight set, is the peeled block, so no
    SFM is repeated for the peel.
    """
    if psi.p != F.p:
        raise ValueError("penalty dimension does not match the ground set")
    u = np.zeros(F.p)
    idx = np.arange(F.p)
    cur_f = F

    for _ in range(F.p):
        p = cur_f.p
        full = (1 << p) - 1
        singles = cur_f.singletons()
        tol = 1e-9 * (1.0 + float(np.max(np.abs(singles))))
        alpha, k = _largest_singleton_root(singles, psi, idx)
        if p == 1:  # the last block is one element, valued at its root
            value = singles[0] + float(psi.deriv_at(alpha)[idx[0]])
            if not abs(value) <= 10.0 * tol:  # NaN fails too
                raise NumericalInconsistency(
                    f"peel set value {value:.3e} exceeds tolerance "
                    f"{10.0 * tol:.3e}")
            u[idx[0]] = alpha
            return u
        last_tight = 1 << k

        for _ in range(_ROOT_MAX_ITER):
            shifted = transforms.add_modular(cur_f, psi.deriv_at(alpha)[idx])
            res = minimize(shifted, backend=sfm_backend, eps=eps)
            if res.min_value >= -tol:
                break
            a_mask = res.maximal_minimizer
            tight = idx[elements_of(a_mask)]
            target = -cur_f(a_mask)
            alpha = solve_increasing(
                lambda x: float(np.sum(psi.deriv_at(x)[tight])), target,
                x0=alpha)
            last_tight = a_mask
        else:
            raise NoConvergence("homotopy root search exceeded iteration cap")

        peel = res.maximal_minimizer | last_tight
        if shifted(peel) > 10.0 * tol:
            raise NumericalInconsistency(
                f"peel set value {shifted(peel):.3e} exceeds tolerance "
                f"{10.0 * tol:.3e}")
        u[idx[elements_of(peel)]] = alpha
        if peel == full:
            return u
        # the peeled block is tight for the dual base, so the remaining
        # coordinates solve the problem contracted by it
        cur_f = transforms.contract(cur_f, peel)
        idx = idx[elements_of(complement(peel, p))]
    raise RecursionOverflow("homotopy peeled more than p blocks")


def line_search_P(F: SetFunction, s0, t, tol: float = DEFAULT_TOL,
                  cap: int = EXHAUSTIVE_CAP) -> float:
    """Largest lambda >= 0 with s0 + lambda * t inside P(F).

    Reduces to the submodular nonnegative function F - s0 and walks the
    piecewise-affine g(lambda) = min_A F(A) - s0(A) - lambda t(A) down to
    its zero by secant steps on the current minimizer.  Directions without
    a strictly positive coordinate never leave the polyhedron: Unbounded.
    A NaN, infinite or negative tol raises ValueError.
    """
    tol = check_tolerance(tol)
    s0 = np.asarray(s0, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    if s0.shape != (F.p,) or t.shape != (F.p,):
        raise ValueError("start and direction must have length p")
    if not np.any(t > 0.0):
        raise Unbounded("direction has no positive coordinate")
    table = to_explicit(F, cap) - _kernels.subset_sums(s0)
    tsums = _kernels.subset_sums(t)

    pos = t > 0.0
    singles = table[np.left_shift(1, np.nonzero(pos)[0])]
    lam_up = float(np.min(singles / t[pos]))
    if lam_up <= 0.0:
        return 0.0

    lam = (1.0 + 1e-6) * lam_up

    def g(l):
        return _kernels.argmin_extremes(table - l * tsums)

    gval, _, omask = g(lam)
    if gval >= -tol:
        return lam_up
    for _ in range(_ROOT_MAX_ITER):
        # the maximal minimizer keeps t(A) > 0 whenever g < 0
        lam = float(table[omask] / tsums[omask])
        gval, _, omask = g(lam)
        if gval >= -tol:
            return lam
    raise NoConvergence("line search secant exceeded iteration cap")


def _base_pair(F: SetFunction, psi: SeparableConvex, eps: float,
               sfm_backend: str) -> tuple[np.ndarray, np.ndarray]:
    """Primal-dual solution (v, t) of the base-polytope problem."""
    if isinstance(psi, Quadratic):
        pr = prox_minnorm(F, psi, eps=eps)
        return pr.u, pr.s
    t = prox_decomposition(F, psi, sfm_backend=sfm_backend, eps=eps)
    v = psi.inv_deriv(-t)
    return v, t


def prox_over_P(F: SetFunction, psi: SeparableConvex, eps: float = 1e-9,
                sfm_backend: str = "minnorm") -> tuple[np.ndarray, np.ndarray]:
    """Separable minimization with the dual ranging over all of P(F).

    From the base-polytope pair (v, t): the primal is the positive part of
    v, and each dual coordinate is the unconstrained maximizer of
    -psi*_k(-s) capped at t_k.
    """
    v, t = _base_pair(F, psi, eps, sfm_backend)
    unconstrained = -psi.deriv_at(0.0)
    return np.maximum(v, 0.0) + 0.0, np.minimum(t, unconstrained) + 0.0


def prox_over_P_plus(F: SetFunction, psi: SeparableConvex, eps: float = 1e-9,
                     sfm_backend: str = "minnorm") -> tuple[np.ndarray, np.ndarray]:
    """Variant over the positive polyhedron; F must be non-decreasing.

    Dual coordinates clip the unconstrained maximizer into [0, t_k]; the
    primal solves s_k + psi'_k(w_k) = 0.  A sampled monotonicity spot-check
    guards the precondition (not exhaustive) and raises ValueError.
    """
    rng = np.random.default_rng(0)
    full = (1 << F.p) - 1
    for _ in range(min(4 * F.p, 64)):
        m = int(rng.integers(0, full + 1))
        k = int(rng.integers(0, F.p))
        if F(int(m | (1 << k))) < F(m) - 1e-9:
            raise ValueError(
                f"F decreases when adding {k} to mask {m}")
    v, t = _base_pair(F, psi, eps, sfm_backend)
    unconstrained = -psi.deriv_at(0.0)
    s = np.minimum(np.maximum(unconstrained, 0.0), np.maximum(t, 0.0)) + 0.0
    w = psi.inv_deriv(-s)
    return w, s


DerivativeSpec = Union[SeparableConvex, Callable]


def _derivative_values(g: DerivativeSpec, s: np.ndarray) -> np.ndarray:
    deriv = g.deriv if isinstance(g, SeparableConvex) else g
    w = np.asarray(deriv(s), dtype=np.float64)
    if w.shape != s.shape:
        raise ValueError(f"derivative values have shape {w.shape}, "
                         f"expected {s.shape}")
    return w


def check_separable_optimality(F: SetFunction, s, g: DerivativeSpec,
                               tol: float = 1e-8,
                               cap: int = EXHAUSTIVE_CAP) -> bool:
    """Whether a base s minimizes sum_j g_j(s_j) over the base polytope.

    Primary form: g'_k(s_k) >= g'_q(s_q) for every exchangeable pair (k, q),
    the exchange check of :func:`polyhedra.base_maximizer_exchange_check`
    with weights -g'(s).  The equivalent level-set form (every lower level
    set of g'(s) tight) is computed as well; disagreement raises
    NumericalInconsistency.  ``tol`` bounds both the tight sets and the
    derivative comparisons.

    ``g`` is a SeparableConvex or a vectorized derivative callable.
    """
    s = np.asarray(s, dtype=np.float64)
    w = _derivative_values(g, s)
    ok_pairs = base_maximizer_exchange_check(F, s, -w, tol, cap)

    # level-set form: cluster the derivative values, check prefixes tight
    ok_levels = True
    acc = 0.0
    for block, mask in level_sets(w, tol):
        if mask == (1 << F.p) - 1:  # the final prefix is V, always tight for a base
            break
        for j in block.tolist():
            acc += s[j]
        if abs(acc - F(mask)) > tol:
            ok_levels = False
            break

    if ok_pairs != ok_levels:
        raise NumericalInconsistency(
            f"exchange form says {ok_pairs}, level-set form says {ok_levels}")
    return ok_pairs


def lex_compare(s1, s2, g: Optional[DerivativeSpec] = None) -> int:
    """Order two vectors by the sorted sequence of their derivative values.

    Sorts g'(s) increasingly and compares lexicographically; returns -1, 0,
    or 1.  The identity derivative is used when g is None.
    """
    s1 = np.asarray(s1, dtype=np.float64)
    s2 = np.asarray(s2, dtype=np.float64)
    if s1.shape != s2.shape:
        raise ValueError(f"vectors of shapes {s1.shape} and {s2.shape}")
    w1 = s1 if g is None else _derivative_values(g, s1)
    w2 = s2 if g is None else _derivative_values(g, s2)
    t1 = np.sort(w1)
    t2 = np.sort(w2)
    for a, b in zip(t1, t2):
        if a < b:
            return -1
        if a > b:
            return 1
    return 0
