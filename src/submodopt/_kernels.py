"""Bitmask-table kernels backing every exhaustive operation.

A set-function on p elements materializes to a float64 table of length
2**p indexed by subset bitmask; everything exhaustive (property checks,
polyhedron membership, brute-force minimization, Moebius transforms) is a
scan over such tables, written once in numpy.

The per-element kernels read the table through views: reshaped to
``(-1, 2, 2**k)``, axis 1 splits the masks without element k from those
with it, so ``v[:, 0, :]`` and ``v[:, 1, :]`` pair each A with A + k
without any index arrays.  Violation witnesses are always the
lexicographically smallest ones.  The cut and cover table builders at the
end are composed of the kernels above them.
"""

from __future__ import annotations

import numpy as np


def _insert_zero_bits(i: int, *bits: int) -> int:
    """Spread flat index i over a mask with a zero at each given bit, ascending."""
    for b in bits:
        i = (i >> b) << (b + 1) | (i & ((1 << b) - 1))
    return i


def subset_sums(s):
    """sums[mask] = sum of s[k] over the bits k of mask."""
    out = np.zeros(1, dtype=np.float64)
    for k in range(s.shape[0]):
        out = np.concatenate((out, out + s[k]))
    return out


def max_margin(sums, table):
    """Max of sums[mask] - table[mask]; the argmax is the smallest mask among ties."""
    diff = sums - table
    arg = int(np.argmax(diff))
    return float(diff[arg]), arg


def argmin_extremes(table):
    """Exact minimum of a table with the intersection and union of its argmin masks."""
    vmin = float(np.min(table))
    idx = np.nonzero(table == vmin)[0]
    return vmin, int(np.bitwise_and.reduce(idx)), int(np.bitwise_or.reduce(idx))


def second_order_check(table, p, tol):
    """F(A + k) - F(A) >= F(A + j + k) - F(A + j) - tol for all A, j != k not in A.

    Returns ``(True, -1, -1, -1, 0.0, 0.0)`` or ``(False, A, j, k, lhs, rhs)``
    for the smallest violating (A, j, k).  Each pair lo < hi is read through
    one view and checked in both orientations, whose rounding differs.
    """
    best = None
    for hi in range(1, p):
        for lo in range(hi):
            v = table.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
            # F(A), F(A + lo), F(A + hi), F(A + lo + hi) for every A missing both
            fa, flo = v[:, 0, :, 0, :], v[:, 0, :, 1, :]
            fhi, fboth = v[:, 1, :, 0, :], v[:, 1, :, 1, :]
            for j, k, fj, fk in ((lo, hi, flo, fhi), (hi, lo, fhi, flo)):
                lhs = fk - fa
                rhs = fboth - fj
                bad = (lhs < rhs - tol).ravel()
                i = int(np.argmax(bad))
                if bad[i]:
                    cand = (_insert_zero_bits(i, lo, hi), j, k,
                            float(lhs.flat[i]), float(rhs.flat[i]))
                    if best is None or cand[:3] < best[:3]:
                        best = cand
    if best is None:
        return True, -1, -1, -1, 0.0, 0.0
    return (False,) + best


def monotone_check(table, p, tol):
    """F(A + k) >= F(A) - tol for all A, k not in A.

    Returns ``(True, -1, -1, 0.0, 0.0)`` or ``(False, A, k, F(A + k), F(A))``
    for the smallest violating (A, k).
    """
    best = None
    for k in range(p):
        v = table.reshape(-1, 2, 1 << k)
        without, with_k = v[:, 0, :], v[:, 1, :]
        bad = (with_k < without - tol).ravel()
        i = int(np.argmax(bad))
        if bad[i]:
            cand = (_insert_zero_bits(i, k), k,
                    float(with_k.flat[i]), float(without.flat[i]))
            if best is None or cand[:2] < best[:2]:
                best = cand
    if best is None:
        return True, -1, -1, 0.0, 0.0
    return (False,) + best


def symmetric_check(table, p, tol):
    """F(A) == F(V - A) within tol; witness the smallest A."""
    mirror = table[::-1]  # full ^ m == full - m
    bad = np.abs(table - mirror) > tol
    m = int(np.argmax(bad))
    if bad[m]:
        return False, m, float(table[m]), float(mirror[m])
    return True, -1, 0.0, 0.0


def pairwise_check(table, p, tol, posi):
    """Inequalities over all pairs (A, B), witness the smallest (A, B).

    ``posi=False``: F(A) + F(B) >= F(A | B) + F(A & B) - tol (submodularity);
    ``posi=True``: F(A) + F(B) >= F(A - B) + F(B - A) - tol (posimodularity).
    """
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


def closure_violation(masks, flags):
    """First index pair (i, l) whose union or intersection is not flagged, or (-1, -1).

    Checks that a family of masks is a lattice: ``flags[m]`` marks the members.
    """
    for i in range(masks.shape[0]):
        a = int(masks[i])
        bad = ~(flags[a | masks] & flags[a & masks])
        if bad.any():
            return i, int(np.argmax(bad))
    return -1, -1


def mobius_transform(h):
    """d[A] = sum over B inside A of (-1)**|A - B| h[B], one pass per element."""
    d = h.copy()
    for k in range((d.shape[0] - 1).bit_length()):
        v = d.reshape(-1, 2, 1 << k)
        v[:, 1, :] -= v[:, 0, :]
    return d


def zeta_transform(d):
    """z[A] = sum over B inside A of d[B]; inverse of :func:`mobius_transform`."""
    z = d.copy()
    for k in range((z.shape[0] - 1).bit_length()):
        v = z.reshape(-1, 2, 1 << k)
        v[:, 1, :] += v[:, 0, :]
    return z


# ---------------------------------------------------------------------------
# structured tables: whole 2**p tables of cut and cover functions, built
# from the kernels above instead of one oracle call per mask
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
