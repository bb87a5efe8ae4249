"""Bitmask-table kernels backing every exhaustive operation.

A set-function on p elements materializes to a float64 table of length
2**p indexed by subset bitmask; everything exhaustive (property checks,
polyhedron membership, brute-force minimization, Moebius transforms) is a
loop over such tables.  Each kernel exists twice: a numba ``@njit`` loop
(``*_nb``) and a vectorized numpy fallback (``*_np``).  The active path is
picked once at import time; set ``SUBMODOPT_DISABLE_NUMBA=1`` to force the
numpy path (it is also used automatically when numba is missing).

Both paths return identical results bit for bit, including violation
witnesses, which are always the lexicographically smallest ones.  See
``benchmarks/bench_kernels.py`` for a speed comparison.  The cut and cover
table builders at the end exist once, composed of dispatched kernels.
"""

from __future__ import annotations

import os

import numpy as np

_env = os.environ.get("SUBMODOPT_DISABLE_NUMBA", "").strip().lower()
_DISABLED = _env not in ("", "0", "false", "no")

if not _DISABLED:
    try:
        from numba import njit

        HAVE_NUMBA = True
    except ImportError:  # pragma: no cover - numba is a declared dependency
        HAVE_NUMBA = False
else:
    HAVE_NUMBA = False

USING_NUMBA = HAVE_NUMBA

if not HAVE_NUMBA:
    def njit(*args, **kwargs):  # no-op decorator so the _nb symbols still exist
        def wrap(fn):
            return fn

        if len(args) == 1 and callable(args[0]):
            return args[0]
        return wrap


# ---------------------------------------------------------------------------
# modular subset sums: sums[mask] = sum of s[k] over bits k of mask
# ---------------------------------------------------------------------------

def _subset_sums_np(s):
    out = np.zeros(1, dtype=np.float64)
    for k in range(s.shape[0]):
        out = np.concatenate((out, out + s[k]))
    return out


@njit(cache=True)
def _subset_sums_nb(s):
    p = s.shape[0]
    out = np.zeros(1 << p, dtype=np.float64)
    for k in range(p):
        bit = 1 << k
        for m in range(bit):
            out[m | bit] = out[m] + s[k]
    return out


# ---------------------------------------------------------------------------
# max of sums[mask] - table[mask]; argmax is the smallest mask among ties
# ---------------------------------------------------------------------------

def _max_margin_np(sums, table):
    diff = sums - table
    arg = int(np.argmax(diff))
    return float(diff[arg]), arg


@njit(cache=True)
def _max_margin_nb(sums, table):
    best = sums[0] - table[0]
    arg = 0
    for m in range(1, table.shape[0]):
        v = sums[m] - table[m]
        if v > best:
            best = v
            arg = m
    return best, arg


# ---------------------------------------------------------------------------
# exact minimum of a table plus intersection/union of all argmin masks
# ---------------------------------------------------------------------------

def _argmin_extremes_np(table):
    vmin = float(np.min(table))
    idx = np.nonzero(table == vmin)[0]
    return vmin, int(np.bitwise_and.reduce(idx)), int(np.bitwise_or.reduce(idx))


@njit(cache=True)
def _argmin_extremes_nb(table):
    vmin = table[0]
    amin = 0
    omin = 0
    for m in range(1, table.shape[0]):
        v = table[m]
        if v < vmin:
            vmin = v
            amin = m
            omin = m
        elif v == vmin:
            amin &= m
            omin |= m
    return vmin, amin, omin


def _argmin_extremes_tol_np(table, atol):
    vmin = float(np.min(table))
    idx = np.nonzero(table <= vmin + atol)[0]
    return vmin, int(np.bitwise_and.reduce(idx)), int(np.bitwise_or.reduce(idx))


@njit(cache=True)
def _argmin_extremes_tol_nb(table, atol):
    vmin = table[0]
    for m in range(1, table.shape[0]):
        if table[m] < vmin:
            vmin = table[m]
    thresh = vmin + atol
    amin = 0
    omin = 0
    first = True
    for m in range(table.shape[0]):
        if table[m] <= thresh:
            if first:
                amin = m
                omin = m
                first = False
            else:
                amin &= m
                omin |= m
    return vmin, amin, omin


# ---------------------------------------------------------------------------
# second-order difference check:
#   F(A + k) - F(A) >= F(A + j + k) - F(A + j) - tol   for all A, j != k not in A
# witness is the smallest violating (A, j, k)
# ---------------------------------------------------------------------------

@njit(cache=True)
def _second_order_nb(table, p, tol):
    n = 1 << p
    for m in range(n):
        for j in range(p):
            if (m >> j) & 1:
                continue
            bj = 1 << j
            for k in range(p):
                if k == j or ((m >> k) & 1):
                    continue
                bk = 1 << k
                lhs = table[m | bk] - table[m]
                rhs = table[m | bj | bk] - table[m | bj]
                if lhs < rhs - tol:
                    return False, m, j, k, lhs, rhs
    return True, -1, -1, -1, 0.0, 0.0


def _second_order_np(table, p, tol):
    n = 1 << p
    masks = np.arange(n, dtype=np.int64)
    best = None
    for j in range(p):
        bj = 1 << j
        for k in range(p):
            if k == j:
                continue
            bk = 1 << k
            sel = masks[(masks & (bj | bk)) == 0]
            lhs = table[sel | bk] - table[sel]
            rhs = table[sel | bj | bk] - table[sel | bj]
            bad = lhs < rhs - tol
            if bad.any():
                i = int(np.argmax(bad))
                cand = (int(sel[i]), j, k, float(lhs[i]), float(rhs[i]))
                if best is None or cand[:3] < best[:3]:
                    best = cand
    if best is None:
        return True, -1, -1, -1, 0.0, 0.0
    return (False,) + best


# ---------------------------------------------------------------------------
# monotonicity check: F(A + k) >= F(A) - tol; witness smallest (A, k)
# ---------------------------------------------------------------------------

@njit(cache=True)
def _monotone_nb(table, p, tol):
    n = 1 << p
    for m in range(n):
        for k in range(p):
            if (m >> k) & 1:
                continue
            lhs = table[m | (1 << k)]
            if lhs < table[m] - tol:
                return False, m, k, lhs, table[m]
    return True, -1, -1, 0.0, 0.0


def _monotone_np(table, p, tol):
    n = 1 << p
    masks = np.arange(n, dtype=np.int64)
    best = None
    for k in range(p):
        bk = 1 << k
        sel = masks[(masks & bk) == 0]
        lhs = table[sel | bk]
        bad = lhs < table[sel] - tol
        if bad.any():
            i = int(np.argmax(bad))
            cand = (int(sel[i]), k, float(lhs[i]), float(table[sel[i]]))
            if best is None or cand[:2] < best[:2]:
                best = cand
    if best is None:
        return True, -1, -1, 0.0, 0.0
    return (False,) + best


# ---------------------------------------------------------------------------
# symmetry check: F(A) == F(V - A) within tol; witness smallest A
# ---------------------------------------------------------------------------

@njit(cache=True)
def _symmetric_nb(table, p, tol):
    n = 1 << p
    full = n - 1
    for m in range(n):
        a = table[m]
        b = table[full ^ m]
        if a - b > tol or b - a > tol:
            return False, m, a, b
    return True, -1, 0.0, 0.0


def _symmetric_np(table, p, tol):
    n = 1 << p
    full = n - 1
    masks = np.arange(n, dtype=np.int64)
    diff = np.abs(table - table[full ^ masks])
    bad = diff > tol
    if bad.any():
        m = int(np.argmax(bad))
        return False, m, float(table[m]), float(table[full ^ m])
    return True, -1, 0.0, 0.0


# ---------------------------------------------------------------------------
# pairwise checks over all (A, B):
#   posi=False:  F(A) + F(B) >= F(A | B) + F(A & B) - tol   (submodularity)
#   posi=True:   F(A) + F(B) >= F(A - B) + F(B - A) - tol   (posimodularity)
# witness smallest (A, B)
# ---------------------------------------------------------------------------

@njit(cache=True)
def _pairwise_nb(table, p, tol, posi):
    n = 1 << p
    for a in range(n):
        fa = table[a]
        for b in range(n):
            if posi:
                x = a & ~b
                y = b & ~a
            else:
                x = a | b
                y = a & b
            lhs = fa + table[b]
            rhs = table[x] + table[y]
            if lhs < rhs - tol:
                return False, a, b, lhs, rhs
    return True, -1, -1, 0.0, 0.0


def _pairwise_np(table, p, tol, posi):
    n = 1 << p
    bs = np.arange(n, dtype=np.int64)
    for a in range(n):
        if posi:
            x = a & ~bs
            y = bs & ~a
        else:
            x = a | bs
            y = a & bs
        lhs = table[a] + table
        rhs = table[x] + table[y]
        bad = lhs < rhs - tol
        if bad.any():
            b = int(np.argmax(bad))
            return False, a, b, float(lhs[b]), float(rhs[b])
    return True, -1, -1, 0.0, 0.0


# ---------------------------------------------------------------------------
# lattice closure of a tight family: union and intersection of any two
# members must again be members; witness smallest (i, l) index pair
# ---------------------------------------------------------------------------

@njit(cache=True)
def _closure_violation_nb(masks, flags):
    m = masks.shape[0]
    for i in range(m):
        a = masks[i]
        for l in range(m):
            b = masks[l]
            if not flags[a | b] or not flags[a & b]:
                return i, l
    return -1, -1


def _closure_violation_np(masks, flags):
    for i in range(masks.shape[0]):
        a = int(masks[i])
        bad = ~(flags[a | masks] & flags[a & masks])
        if bad.any():
            return i, int(np.argmax(bad))
    return -1, -1


# ---------------------------------------------------------------------------
# Moebius / zeta transforms over the subset lattice (in place per bit)
# ---------------------------------------------------------------------------

@njit(cache=True)
def _mobius_nb(h):
    d = h.copy()
    n = d.shape[0]
    p = 0
    while (1 << p) < n:
        p += 1
    for k in range(p):
        bit = 1 << k
        for m in range(n):
            if m & bit:
                d[m] -= d[m ^ bit]
    return d


def _mobius_np(h):
    d = h.copy()
    n = d.shape[0]
    idx = np.arange(n, dtype=np.int64)
    p = (n - 1).bit_length()
    for k in range(p):
        bit = 1 << k
        hi = idx[(idx & bit) != 0]
        d[hi] -= d[hi ^ bit]
    return d


@njit(cache=True)
def _zeta_nb(d):
    z = d.copy()
    n = z.shape[0]
    p = 0
    while (1 << p) < n:
        p += 1
    for k in range(p):
        bit = 1 << k
        for m in range(n):
            if m & bit:
                z[m] += z[m ^ bit]
    return z


def _zeta_np(d):
    z = d.copy()
    n = z.shape[0]
    idx = np.arange(n, dtype=np.int64)
    p = (n - 1).bit_length()
    for k in range(p):
        bit = 1 << k
        hi = idx[(idx & bit) != 0]
        z[hi] += z[hi ^ bit]
    return z


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

if USING_NUMBA:
    subset_sums = _subset_sums_nb
    max_margin = _max_margin_nb
    argmin_extremes = _argmin_extremes_nb
    argmin_extremes_tol = _argmin_extremes_tol_nb
    second_order_check = _second_order_nb
    monotone_check = _monotone_nb
    symmetric_check = _symmetric_nb
    pairwise_check = _pairwise_nb
    closure_violation = _closure_violation_nb
    mobius_transform = _mobius_nb
    zeta_transform = _zeta_nb
else:
    subset_sums = _subset_sums_np
    max_margin = _max_margin_np
    argmin_extremes = _argmin_extremes_np
    argmin_extremes_tol = _argmin_extremes_tol_np
    second_order_check = _second_order_np
    monotone_check = _monotone_np
    symmetric_check = _symmetric_np
    pairwise_check = _pairwise_np
    closure_violation = _closure_violation_np
    mobius_transform = _mobius_np
    zeta_transform = _zeta_np


# ---------------------------------------------------------------------------
# structured tables: whole 2**p tables of cut and cover functions, built
# from the dispatched kernels above instead of one oracle call per mask
# ---------------------------------------------------------------------------

def cut_table(tails, heads, wts, p):
    """Table of the directed cut A -> weight of the arcs leaving A.

    Bit doubling: for A inside {0..k-1}, adding k gains the arcs from k to
    the outside and loses those from A into k, so
    T[A + k] = T[A] + out(k) - c_k(A) with c_k[j] = w(k -> j) + w(j -> k).
    Exact, in any order of summation, when the weights are dyadic.
    """
    w = np.zeros((p, p), dtype=np.float64)
    np.add.at(w, (tails, heads), wts)
    out = w.sum(axis=1)
    both = w + w.T
    table = np.zeros(1, dtype=np.float64)
    for k in range(p):
        table = np.concatenate((table, table + out[k] - subset_sums(both[k, :k])))
    return table


def cover_table(masks, wts, p):
    """Table of the weighted cover A -> weight of the groups meeting A.

    That is the total weight minus the weight of the groups inside V - A;
    the latter is the zeta transform of the group weights D at V - A.
    """
    d = np.zeros(1 << p, dtype=np.float64)
    np.add.at(d, masks, wts)
    inside = zeta_transform(d)
    table = inside[-1] - inside[::-1]  # full ^ m == full - m
    table[0] = 0.0
    return table
