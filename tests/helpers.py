"""Shared brute-force oracles for the test suite.

These deliberately avoid the library's kernel code paths wherever they are
used to cross-check them: plain python enumeration only.
"""

import contextlib
import itertools
import os
import resource

import numpy as np

from submodopt import SetFunction, elements_of
from submodopt import lovasz as so_lovasz
from submodopt import transforms as so_transforms
from submodopt import zoo as so_zoo


def powerset_masks(p):
    return range(1 << p)


def brute_min(F: SetFunction):
    """Plain-python exhaustive minimum with lattice extremes."""
    best = None
    mins = []
    for m in powerset_masks(F.p):
        v = F(m)
        if best is None or v < best:
            best = v
            mins = [m]
        elif v == best:
            mins.append(m)
    amin = mins[0]
    omin = 0
    for m in mins:
        amin &= m
        omin |= m
    return best, amin, omin, mins


def modular_sum(s, mask):
    return float(sum(s[k] for k in elements_of(mask)))


def brute_in_P(F: SetFunction, s, tol=1e-9):
    return all(modular_sum(s, m) <= F(m) + tol for m in powerset_masks(F.p))


def lovasz_by_breakpoints(F: SetFunction, w):
    """Extension value by exact integration of the level-set profile.

    Independent of the telescoping implementation: integrates
    z -> F({w >= z}) between consecutive breakpoints and adds the
    F(V) * min(w) tail.
    """
    w = np.asarray(w, dtype=float)
    values = np.unique(w)[::-1]
    total = 0.0
    for i in range(len(values) - 1):
        level = 0
        for k in range(F.p):
            if w[k] >= values[i]:
                level |= 1 << k
        total += F(level) * (values[i] - values[i + 1])
    full = (1 << F.p) - 1
    total += F(full) * values[-1]
    return total


def lovasz_split_at_zero(F: SetFunction, w):
    """Extension via the two-sided integral form, split at zero.

    Integrates F({w >= z}) on (0, inf) and F({w >= z}) - F(V) on (-inf, 0),
    both piecewise constant with breakpoints at the entries of w.
    """
    w = np.asarray(w, dtype=float)
    full = (1 << F.p) - 1
    pts = np.unique(np.concatenate([w, [0.0]]))
    total = 0.0
    # below zero: integrand F({w>=z}) - F(V), zero for z below min(w)
    neg = pts[pts <= 0.0]
    for lo, hi in zip(neg[:-1], neg[1:]):
        mid = 0.5 * (lo + hi)
        level = 0
        for k in range(F.p):
            if w[k] >= mid:
                level |= 1 << k
        total += (F(level) - F(full)) * (hi - lo)
    # above zero: integrand F({w>=z}), zero beyond max(w)
    pos = pts[pts >= 0.0]
    for lo, hi in zip(pos[:-1], pos[1:]):
        mid = 0.5 * (lo + hi)
        level = 0
        for k in range(F.p):
            if w[k] >= mid:
                level |= 1 << k
        total += F(level) * (hi - lo)
    return total


def cut_lovasz_ref(g, w):
    """Closed-form extension of a directed cut: sum of d(k, j) * (w_k - w_j)_+."""
    return float(sum(wt * max(w[u] - w[v], 0.0) for u, v, wt in g.arcs))


def cover_lovasz_ref(c, w):
    """Closed-form extension of a weighted cover: sum of weight * max of w
    over the group."""
    return float(sum(wt * max(w[k] for k in elements_of(mask))
                     for mask, wt in c.groups))


def all_descending_orders(w):
    """Every permutation consistent with a descending sort of w."""
    w = np.asarray(w, dtype=float)
    p = len(w)
    for perm in itertools.permutations(range(p)):
        if all(w[perm[i]] >= w[perm[i + 1]] for i in range(p - 1)):
            yield perm


def lovasz_for_order(F: SetFunction, w, order):
    total = 0.0
    mask = 0
    prev = 0.0
    for j in order:
        mask |= 1 << j
        cur = F(mask)
        total += w[j] * (cur - prev)
        prev = cur
    return total


def batch_subset_sums(vectors):
    """Subset-sum tables for many vectors at once: (n, 2**p) array."""
    vectors = np.asarray(vectors, dtype=float)
    n, p = vectors.shape
    out = np.zeros((n, 1))
    for k in range(p):
        out = np.concatenate([out, out + vectors[:, k:k + 1]], axis=1)
    return out


# ---------------------------------------------------------------------------
# plain-python references for the bitmask kernels: one scalar loop each,
# in the order that makes the first violation found the lexicographically
# smallest witness
# ---------------------------------------------------------------------------

def subset_sums_ref(s):
    p = len(s)
    out = np.zeros(1 << p)
    for k in range(p):
        bit = 1 << k
        for m in range(bit):
            out[m | bit] = out[m] + s[k]
    return out


def cut_table_concat_ref(tails, heads, wts, p):
    """The bit-doubling recurrence of ``_kernels.cut_table``, growing the
    table by one concatenation per element instead of filling one array."""
    w = np.zeros((p, p))
    np.add.at(w, (tails, heads), wts)
    out = w.sum(axis=1)
    both = w + w.T
    table = np.zeros(1)
    for k in range(p):
        table = np.concatenate((table, table + out[k] - subset_sums_ref(both[k, :k])))
    return table


def max_margin_ref(sums, table):
    best = sums[0] - table[0]
    arg = 0
    for m in range(1, len(table)):
        v = sums[m] - table[m]
        if v > best:
            best = v
            arg = m
    return best, arg


def argmin_extremes_ref(table):
    vmin = table[0]
    amin = omin = 0
    for m in range(1, len(table)):
        v = table[m]
        if v < vmin:
            vmin = v
            amin = omin = m
        elif v == vmin:
            amin &= m
            omin |= m
    return vmin, amin, omin


def second_order_check_ref(table, p, tol):
    for m in range(1 << p):
        for j in range(p):
            if (m >> j) & 1:
                continue
            bj = 1 << j
            for k in range(p):
                if k == j or (m >> k) & 1:
                    continue
                bk = 1 << k
                lhs = table[m | bk] - table[m]
                rhs = table[m | bj | bk] - table[m | bj]
                if lhs < rhs - tol:
                    return False, m, j, k, lhs, rhs
    return True, -1, -1, -1, 0.0, 0.0


def monotone_check_ref(table, p, tol):
    for m in range(1 << p):
        for k in range(p):
            if (m >> k) & 1:
                continue
            lhs = table[m | (1 << k)]
            if lhs < table[m] - tol:
                return False, m, k, lhs, table[m]
    return True, -1, -1, 0.0, 0.0


def symmetric_check_ref(table, p, tol):
    full = (1 << p) - 1
    for m in range(1 << p):
        a = table[m]
        b = table[full ^ m]
        if a - b > tol or b - a > tol:
            return False, m, a, b
    return True, -1, 0.0, 0.0


def pairwise_check_ref(table, p, tol, posi):
    n = 1 << p
    for a in range(n):
        for b in range(n):
            x, y = (a & ~b, b & ~a) if posi else (a | b, a & b)
            lhs = table[a] + table[b]
            rhs = table[x] + table[y]
            if lhs < rhs - tol:
                return False, a, b, lhs, rhs
    return True, -1, -1, 0.0, 0.0


def closure_violation_ref(masks, flags):
    for i in range(len(masks)):
        a = int(masks[i])
        for l in range(len(masks)):
            b = int(masks[l])
            if not flags[a | b] or not flags[a & b]:
                return i, l
    return -1, -1


def close_lattice(flags):
    """Flag, in place, the closure of the flagged masks under union and
    intersection."""
    while True:
        m = np.nonzero(flags)[0]
        closed = np.concatenate([np.bitwise_or.outer(m, m).ravel(),
                                 np.bitwise_and.outer(m, m).ravel()])
        if flags[closed].all():
            return flags
        flags[closed] = True


def mobius_transform_ref(h):
    d = np.array(h, dtype=float)
    n = len(d)
    for k in range((n - 1).bit_length()):
        bit = 1 << k
        for m in range(n):
            if m & bit:
                d[m] -= d[m ^ bit]
    return d


def zeta_transform_ref(d):
    z = np.array(d, dtype=float)
    n = len(z)
    for k in range((n - 1).bit_length()):
        bit = 1 << k
        for m in range(n):
            if m & bit:
                z[m] += z[m ^ bit]
    return z


def is_submodular_pairwise(F: SetFunction, tol=1e-9):
    """F(A) + F(B) >= F(A | B) + F(A & B) - tol over all 4**p pairs."""
    table = [F(m) for m in powerset_masks(F.p)]
    return pairwise_check_ref(table, F.p, tol, False)[0]


# ---------------------------------------------------------------------------
# a reference for the kept bordered Gram matrix of sfm.min_norm_point: the
# same loop on the corral's plain Gram matrix, rebuilt every minor cycle, with
# one jittered solve on it
# ---------------------------------------------------------------------------

def affine_minimizer_ref(gram):
    """Solve (gram + jitter * I) y = 1 and normalize; the jitter grows a
    hundredfold, up to six times, while the solve fails or sum(y) is zero
    or not finite, and a least-squares solve takes over after that."""
    m = gram.shape[0]
    ones = np.ones(m)
    jitter = 1e-12 * max(1.0, float(gram.diagonal().max()))
    for _ in range(6):
        try:
            y = np.linalg.solve(gram + jitter * np.eye(m), ones)
        except np.linalg.LinAlgError:
            pass
        else:
            total = float(y.sum())
            if total != 0.0 and np.isfinite(total):
                return y / total
        jitter *= 100.0
    y, *_ = np.linalg.lstsq(gram + jitter * np.eye(m), ones, rcond=None)
    return y / float(y.sum())


def min_norm_point_ref(F: SetFunction, weights=None, center=None, eps=1e-9):
    """Wolfe's loop with the same start, stopping rules and drops as
    ``sfm.min_norm_point``; returns (x, number of major cycles)."""
    p = F.p
    d = np.ones(p) if weights is None else np.asarray(weights, dtype=float)
    c = np.zeros(p) if center is None else np.asarray(center, dtype=float)
    bases = so_lovasz.greedy_base(F, d * (c - F.singletons()))[np.newaxis, :]
    coeffs = np.array([1.0])
    x = bases[0]
    majors = 0
    while True:
        g = x - c
        q = so_lovasz.greedy_base(F, -d * g)
        gap = float(d @ (g * x)) - float(d @ (g * q))
        if (gap <= eps * (1.0 + float(d @ (x * x))) or majors == 100 * p
                or np.any(np.all(np.abs(bases - q) <= 1e-12, axis=1))):
            return x, majors
        majors += 1
        bases = np.vstack([bases, q])
        coeffs = np.append(coeffs, 0.0)
        while True:
            centered = bases - c
            y = affine_minimizer_ref((centered * d) @ centered.T)
            if y.min() >= 1e-12:
                coeffs = y
                break
            shrink = coeffs - y
            move = shrink > 1e-12
            theta = min(max(float((coeffs[move] / shrink[move]).min()), 0.0), 1.0)
            coeffs = (1.0 - theta) * coeffs + theta * y
            keep = coeffs > 1e-12
            if keep.all():
                keep[int(np.argmin(coeffs))] = False
            bases = bases[keep]
            coeffs = coeffs[keep] / float(coeffs[keep].sum())
            if bases.shape[0] == 1:
                coeffs = np.array([1.0])
                break
        x = coeffs @ bases


# ---------------------------------------------------------------------------
# dyadic random instances: weights are multiples of 2**-16, so every sum
# over subsets is exact in float64 whatever the order of summation
# ---------------------------------------------------------------------------

GRID = 1 << 16


def dyadic(rng, low, high, size=None):
    """Uniform multiples of 2**-16 in [low, high)."""
    return rng.integers(int(low * GRID), int(high * GRID), size=size) / GRID


def dyadic_digraph(rng, p, density=0.3):
    arcs = [(u, v, float(dyadic(rng, 2 ** -16, 1.0)))
            for u in range(p) for v in range(p)
            if u != v and rng.random() < density]
    return so_zoo.Digraph(p, arcs)


def dyadic_energy(rng, p, density=0.3):
    """s-t energy cut(A) + c_t(A) - c_s(A) on p elements, built as the
    restriction of a contracted p+2 node cut, as graph-cut callers do."""
    arcs = list(dyadic_digraph(rng, p, density).arcs)
    s, t = p, p + 1
    for v in range(p):
        w = float(dyadic(rng, 2 ** -16, 1.0))
        arcs.append((s, v, w) if rng.random() < 0.5 else (v, t, w))
    cut = so_zoo.cut_function(so_zoo.Digraph(p + 2, arcs))
    return so_transforms.restrict(so_transforms.contract(cut, 1 << p), (1 << p) - 1)


def dyadic_cover(rng, p):
    """Cover with 2p groups of 2 to 5 members (at most p) plus one small
    singleton group per element."""
    groups = []
    for _ in range(2 * p):
        size = min(int(rng.integers(2, 6)), p)
        members = rng.choice(p, size=size, replace=False)
        groups.append((int(np.sum(1 << members.astype(np.int64))),
                       float(dyadic(rng, 2 ** -16, 1.0))))
    groups += [(1 << k, float(dyadic(rng, 2 ** -16, 2 ** -4))) for k in range(p)]
    return so_zoo.CoverSystem(p, groups)


@contextlib.contextmanager
def address_space_limit(extra_bytes=1 << 30):
    """Cap this process's address space at its present size plus extra_bytes.

    Inside, a stray dense 2**p allocation for large p fails at once with
    MemoryError instead of eating the host's memory.  Linux only (reads
    /proc/self/statm); elsewhere no limit is set.
    """
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[0])
    except OSError:
        yield
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = pages * os.sysconf("SC_PAGE_SIZE") + extra_bytes
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
