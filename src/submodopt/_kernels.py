"""Bitmask-table kernels backing every exhaustive operation.

A set-function on p elements materializes to a float64 table of length
2**p indexed by subset bitmask; everything exhaustive (property checks,
polyhedron membership, brute-force minimization, Moebius transforms) is a
scan over such tables, written once in numpy.

The per-element kernels read the table through views: reshaped to
``(-1, 2, 2**k)``, axis 1 splits the masks without element k from those
with it, so ``v[:, 0, :]`` and ``v[:, 1, :]`` pair each A with A + k
without any index arrays.  The second-order check forms each element's
first differences once over such a view, at most p * 2**(p-1)
subtractions, and compares each pair of elements once, on a screen whose
margin covers the rounding of both orientations of the pair: on a table
where no pair is flagged, p * (p-1) / 2 * 2**(p-2) comparisons.  Only a
flagged pair gets the exact test of both orientations.  Violation
witnesses are always the lexicographically smallest ones.

Rotated layout.  numpy runs such a view row by row, and a row is 2**k
entries: for small k it is too short to be fast.  At p = 18 one comparison
of 2**16 pairs takes 0.24 ms at bit 1 and 0.013 ms at bit 12 and above
(numpy 2.4 on one core of a Xeon host).  So the passes over the low half
of the index bits run on a rotated copy: :func:`_rotate` transposes the
``(2**(b-r), 2**r)`` matrix view of b index bits, which moves the low r
bits above the others, so bit k < r sits at k + b - r and every row is at
least 2**(b - r) long.  A rotation costs one blocked transpose, about
0.11 ms for 2**17 floats; in place, the passes it serves would cost 0.03
to 0.24 ms each at that size:

* the second-order check compares the high bits of each D_k in place and
  its low (p-1) // 2 bits on a rotated copy, made only for a k with a
  pass left at those bits, in two 2**(p-1) buffers reused for every k;
* the monotone check compares the low p // 2 elements on a rotated copy
  of the table;
* the Moebius and zeta transforms run their low passes on a rotated copy
  and rotate it back for the high ones, in the plain ascending order, so
  every rounding is unchanged.

A violation found on a rotated copy is mapped back to the unrotated order
(:func:`_first_true`) before the smallest witness is taken, so every
output is bit-identical to that of the plain loops.  The cut and cover
table builders at the end are composed of the kernels above them.
"""

from __future__ import annotations

import numpy as np


def _insert_zero_bits(i: int, *bits: int) -> int:
    """Spread flat index i over a mask with a zero at each given bit, ascending."""
    for b in bits:
        i = (i >> b) << (b + 1) | (i & ((1 << b) - 1))
    return i


def _rotate(x, r, out=None):
    """Copy of x with its r low index bits moved above the others.

    For b index bits, ``out[(a << (b - r)) | h] = x[(h << r) | a]``: one
    transpose of the (2**(b-r), 2**r) matrix view.  Rotating by b - r
    moves the bits back.  The transpose runs in blocks of 32 source rows,
    whose reads and writes stay in cache: 0.33 ms for 2**18 floats against
    0.54 ms for one plain transposed copy.
    """
    if out is None:
        out = np.empty_like(x)
    src, dst = x.reshape(-1, 1 << r), out.reshape(1 << r, -1)
    for h in range(0, src.shape[0], 32):
        np.copyto(dst[:, h:h + 32], src[h:h + 32].T)
    return out


def subset_sums(s):
    """sums[mask] = sum of s[k] over the bits k of mask."""
    out = np.empty(1 << s.shape[0], dtype=np.float64)
    out[0] = 0.0
    for k in range(s.shape[0]):
        np.add(out[:1 << k], s[k], out=out[1 << k:2 << k])
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


def _first_true(bad, low):
    """Index of the first True of bad in unrotated order, or -1.

    ``low`` is how many of the original low index bits bad holds rotated
    above the others (0 when it is in place), so the unrotated order reads
    its ``(2**low, -1)`` matrix view by columns.
    """
    i = int(np.argmax(bad))
    if not bad[i]:
        return -1
    if low:
        i = int(np.argmax(bad.reshape(1 << low, -1).T))
    return i


def _rank_at_most(a, lo, hi):
    """Flat index of the largest mask <= a without bits lo < hi.

    The inverse of _insert_zero_bits on masks without those bits, which it
    maps in ascending order; a mask a with one of the bits set is first
    lowered to the largest mask below it without that bit.
    """
    for b in (hi, lo):
        if a >> b & 1:
            a = (a | ((1 << b) - 1)) ^ (1 << b)
        a = (a >> (b + 1)) << b | (a & ((1 << b) - 1))
    return a


def second_order_check(table, p, tol):
    """F(A + k) - F(A) >= F(A + j + k) - F(A + j) - tol for all A, j != k not in A.

    Returns ``(True, -1, -1, -1, 0.0, 0.0)`` or ``(False, A, j, k, lhs, rhs)``
    for the smallest violating (A, j, k), bit-identical to the plain loop
    over (A, j, k).  Both sides are first differences of k, lhs = D_k[A]
    and rhs = D_k[A + j] with D_k[A] = F(A + k) - F(A), and (j, k) is
    violated where lhs < rhs - tol.  On paper (j, k) and (k, j) are one
    inequality, F(A + j) + F(A + k) < F(A) + F(A + j + k) - tol, but they
    read different differences, whose rounding differs: near 2**53 only
    one of them may show the violation.

    Screen.  Each pair k < j is compared once, on D_k at j's bit, against
    D_k - c with c = tol - m for a margin m >= 0: p * (p-1) / 2 passes of
    2**(p-2) comparisons.  A pair that the screen flags at some A gets the
    exact test of both orientations, (j, k) on D_k - tol right away and
    (k, j) on D_j - tol when the loop reaches j; so D_{p-1} is formed only
    for such a re-check.  Once a witness with mask a* is known, an in-place
    pass reads only the rows up to that of the largest mask <= a* without
    the pass's j and k: the rows that hold every mask <= a*.

    Margin.  Let u = 2**-53, M = max |F| and m = fl(32u *
    max(fl(M + tol), 2**-1022)).  If M + tol < 2**1021, the screen flags
    every A at which either orientation is violated; otherwise, and for a
    table holding an inf or a nan, every pair is flagged.  Below that
    bound nothing overflows, and every rounded subtraction is
    fl(x - y) = (x - y)(1 + d) with |d| <= u, subnormal results included.
    For (j, k) it is immediate: c <= tol, so D_k[A+j] - c rounds to at
    least D_k[A+j] - tol.  For (k, j) let S = F(A + j) + F(A + k) - F(A)
    - F(A + j + k) + tol, exactly.  A difference of two values of F is
    within 2uM of its exact value and at most 2M in size, so subtracting
    tol from it errs by at most u(2M + tol), and subtracting c by at most
    u(2M + tol + m), as |c| <= max(tol, m).  A violation of (k, j),
    fl(D_j[A]) < fl(D_j[A+k] - tol), then gives S < 6uM + u tol, while an
    A left unflagged, fl(D_k[A]) >= fl(D_k[A+j] - c), gives
    S >= (tol - c) - 6uM - u(tol + m) >= (1 - 2u) m - 6uM - 2u tol, since
    c = fl(tol - m) <= tol - m + u(tol + m).  The product in m is exact
    unless it falls below 2**-1022, and then errs by at most
    2**-1075 <= u max(fl(M + tol), 2**-1022), so
    m >= 31u (1 - u)(M + tol) and (1 - 2u) m >= 12uM + 3u tol: the two
    bounds on S contradict each other.

    The high bits of D_k are compared in place and its low r = (p-1) // 2
    bits on a rotated copy that moves them to the top, made only when a
    pass is left at those bits, so no comparison reads rows shorter than
    2**r.  Two 2**(p-1) float buffers serve every k: D_k and its screen or
    exact thresholds, then the rotated pair.
    """
    half = table.shape[0] >> 1
    d, e = np.empty(half), np.empty(half)
    bad = np.empty(half >> 1, dtype=bool)
    r = (p - 1) // 2
    big = max(float(table.max()), -float(table.min()))
    screen = big + tol < 2.0 ** 1021  # false for inf and nan
    c = tol - max(big + tol, 2.0 ** -1022) * 2.0 ** -48  # tol - m, 2**-48 = 32u
    recheck = [[] for _ in range(p)]  # recheck[j]: bits k < j of D_j to test exactly
    best = None

    def first(lhs, thr, jj, rotated):
        # first i with lhs < thr at bit jj, i indexing the masks without j and k
        w = 1 << (jj + p - 1 - r if rotated else jj)
        rows = (half >> 1) // w
        if best is not None and not rotated:  # only masks up to best's A matter
            rows = min(rows, (_rank_at_most(best[0], *sorted((jj + (jj >= k), k))) >> jj) + 1)
        np.less(lhs.reshape(-1, 2, w)[:rows, 0, :], thr.reshape(-1, 2, w)[:rows, 1, :],
                out=bad.reshape(-1, w)[:rows])
        return _first_true(bad[:rows * w], r - 1 if rotated else 0)

    for k in range(p):
        screened = range(k, p - 1)  # the bits of D_k that hold the elements j > k
        if not screened and not recheck[k]:
            continue
        v = table.reshape(-1, 2, 1 << k)
        np.subtract(v[:, 1, :], v[:, 0, :], out=d.reshape(-1, 1 << k))
        for rotated in (False, True):
            f = [jj for jj in screened if (jj < r) == rotated]
            x = [jj for jj in recheck[k] if (jj < r) == rotated]
            if not f and not x:
                continue
            if rotated:
                _rotate(d, r, out=e)
            lhs, thr = (e, d) if rotated else (d, e)
            if f and screen:
                np.subtract(lhs, c, out=thr)
            for jj in f:
                if not screen or first(lhs, thr, jj, rotated) >= 0:
                    x.append(jj)
                    recheck[jj + 1].append(k)
            if not x:
                continue
            np.subtract(lhs, tol, out=thr)
            for jj in x:
                i = first(lhs, thr, jj, rotated)
                if i < 0:
                    continue
                j = jj + (jj >= k)  # element of bit jj of D_k
                a = _insert_zero_bits(i, min(j, k), max(j, k))
                if best is None or (a, j, k) < best[:3]:
                    bj, bk = 1 << j, 1 << k
                    best = (a, j, k, float(table[a | bk] - table[a]),
                            float(table[a | bj | bk] - table[a | bj]))
    if best is None:
        return True, -1, -1, -1, 0.0, 0.0
    return (False,) + best


def monotone_check(table, p, tol):
    """F(A + k) >= F(A) - tol for all A, k not in A.

    Returns ``(True, -1, -1, 0.0, 0.0)`` or ``(False, A, k, F(A + k), F(A))``
    for the smallest violating (A, k).  The low r = p // 2 elements are
    compared on a rotated copy of the table and the others in place.
    """
    r = p // 2
    rot = _rotate(table, r)
    half = table.shape[0] >> 1
    e, bad = np.empty(half), np.empty(half, dtype=bool)
    best = None
    for k in range(p):
        w = 1 << (k + p - r if k < r else k)
        v = (rot if k < r else table).reshape(-1, 2, w)
        np.subtract(v[:, 0, :], tol, out=e.reshape(-1, w))
        np.less(v[:, 1, :], e.reshape(-1, w), out=bad.reshape(-1, w))
        i = _first_true(bad, r - 1 if k < r else 0)
        if i < 0:
            continue
        a = _insert_zero_bits(i, k)
        if best is None or (a, k) < best[:2]:
            best = (a, k, float(table[a | 1 << k]), float(table[a]))
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


def pairwise_check(table, p, tol):
    """F(A) + F(B) >= F(A - B) + F(B - A) - tol (posimodularity) over all
    pairs (A, B); witness the smallest (A, B)."""
    n = 1 << p
    bs = np.arange(n, dtype=np.int64)
    for a in range(n):
        lhs = table[a] + table
        rhs = table[a & ~bs] + table[bs & ~a]
        bad = lhs < rhs - tol
        if bad.any():
            b = int(np.argmax(bad))
            return False, a, b, float(lhs[b]), float(rhs[b])
    return True, -1, -1, 0.0, 0.0


def closure_violation(masks, flags):
    """First index pair (i, l) whose union or intersection is not flagged, or (-1, -1).

    Checks that a family of masks is a lattice: ``flags[m]`` marks the
    members.  Quadratic in their number; :func:`is_lattice` is the linear
    test.
    """
    for i in range(masks.shape[0]):
        a = int(masks[i])
        bad = ~(flags[a | masks] & flags[a & masks])
        if bad.any():
            return i, int(np.argmax(bad))
    return -1, -1


def is_lattice(masks, flags):
    """Whether the family of masks that ``flags[m]`` marks holds the empty
    set and is closed under union and intersection.

    With D_k the intersection of the members that contain k, this holds
    iff the empty set is a member and so is A | D_k for every member A and
    every k that some member contains (Birkhoff): each member A is the
    union of the D_k over k in A, so A | B adds the D_k of B to A one at a
    time and A & B is the union of the D_k over k in A & B, built up from
    the empty set.  Each D_k is then a member too, and every member
    contains the D_k of its elements by construction.  One pass over the
    members per element: O(p * |T|) time and O(|T|) memory.
    """
    if not flags[0]:
        return False
    for k in range(flags.shape[0].bit_length() - 1):
        inside = masks[(masks >> k) & 1 == 1]
        if inside.size and not flags[masks | np.bitwise_and.reduce(inside)].all():
            return False
    return True


def _bit_passes(x, op):
    """x[A + k] = op(x[A + k], x[A]) for each bit k in ascending order, on a
    copy of x: the Moebius (np.subtract) and zeta (np.add) transforms.

    The low half of the bits runs on a rotated copy, where each pass reads
    rows of at least 2**(b - b // 2) entries; the copy is rotated back for
    the high half, so at most two 2**b arrays are held at once.  The order
    of the passes, and so every rounding, is that of the plain loop over k.
    """
    b = (x.shape[0] - 1).bit_length()
    r = b // 2
    y = _rotate(x, r)
    for k in range(b):
        if k == r:
            y = _rotate(y, b - r)
        v = y.reshape(-1, 2, 1 << (k + b - r if k < r else k))
        op(v[:, 1, :], v[:, 0, :], out=v[:, 1, :])
    return y


def mobius_transform(h):
    """d[A] = sum over B inside A of (-1)**|A - B| h[B], one pass per element."""
    return _bit_passes(h, np.subtract)


def zeta_transform(d):
    """z[A] = sum over B inside A of d[B]; inverse of :func:`mobius_transform`."""
    return _bit_passes(d, np.add)


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
    table = np.empty(1 << p, dtype=np.float64)
    table[0] = 0.0
    for k in range(p):
        upper = table[1 << k:2 << k]
        np.add(table[:1 << k], out[k], out=upper)
        upper -= subset_sums(both[k, :k])
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
