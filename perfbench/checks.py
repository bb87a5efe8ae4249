"""Reference answers computed apart from the package, and the checks.

Nothing here imports ``submodopt``.  Tables are built from the generated
arcs and groups with numpy; minima of cut energies come from
``scipy.sparse.csgraph.maximum_flow`` on capacities scaled to integers.
scipy is imported inside the functions that need it, so that the import
happens after the timed loop and outside the set-up time.

Every ``check_*`` function raises :class:`CheckFailed` with a short reason
when an output is wrong and returns None otherwise.
"""

from __future__ import annotations

import numpy as np

from inputs import GRID, Cover, Energy

TOL = 1e-9


class CheckFailed(AssertionError):
    """An output of the package disagrees with the reference."""


def expect(ok, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def close(a, b, tol: float) -> bool:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= tol * (1.0 + np.abs(b))))


def mask_of(indices) -> int:
    m = 0
    for k in indices:
        m |= 1 << int(k)
    return m


def elements(mask: int) -> list:
    return [k for k in range(mask.bit_length()) if mask >> k & 1]


# ---------------------------------------------------------------------------
# tables over all 2**p subsets, built with in-place views
# ---------------------------------------------------------------------------

def subset_sums(s) -> np.ndarray:
    s = np.asarray(s, dtype=np.float64)
    out = np.zeros(1 << len(s))
    for k, v in enumerate(s):
        out[1 << k:2 << k] = out[:1 << k] + v
    return out


def bit(p: int, k: int) -> np.ndarray:
    """Boolean table: element k lies in the subset."""
    return (np.arange(1 << p, dtype=np.int64) >> k & 1).astype(bool)


def energy_table(e: Energy) -> np.ndarray:
    """Table of F by adding one element at a time.

    For A inside {0..k-1}, F(A + k) - F(A) is the unary term of k, plus
    the arcs from k to nodes outside A + k, minus the arcs from A into k.
    """
    table = np.zeros(1 << e.p)
    for k in range(e.p):
        n = 1 << k
        delta = np.full(n, e.ct[k] - e.cs[k])
        for v, w in zip(e.heads[e.tails == k], e.wts[e.tails == k]):
            delta += w if v > k else np.where(bit(k, v), 0.0, w)
        for u, w in zip(e.tails[e.heads == k], e.wts[e.heads == k]):
            if u < k:
                delta -= np.where(bit(k, u), w, 0.0)
        table[n:2 * n] = table[:n] + delta
    return table


def zeta(d) -> np.ndarray:
    """z[A] = sum of d[B] over B inside A."""
    z = np.array(d, dtype=np.float64)
    n = len(z)
    k = 1
    while k < n:
        view = z.reshape(-1, 2, k)
        view[:, 1, :] += view[:, 0, :]
        k *= 2
    return z


def mobius_weights(table) -> np.ndarray:
    """Group weights D of F: F(A) = sum of D(G) over the groups G meeting A."""
    h = table[-1] - table[::-1]          # F(V) - F(V - A), since V - A = V ^ A
    d = np.array(h, dtype=np.float64)
    k = 1
    while k < len(d):
        view = d.reshape(-1, 2, k)
        view[:, 1, :] -= view[:, 0, :]
        k *= 2
    return d


def cover_weights(c: Cover) -> np.ndarray:
    d = np.zeros(1 << c.p)
    np.add.at(d, c.masks, c.weights)
    return d


def cover_table(d) -> np.ndarray:
    """Cover table from dense group weights: F(A) = total - weight inside V - A."""
    z = zeta(d)
    return z[-1] - z[::-1]


def popcount_table(p: int) -> np.ndarray:
    return np.bitwise_count(np.arange(1 << p, dtype=np.int64))


# ---------------------------------------------------------------------------
# exhaustive answers on a table
# ---------------------------------------------------------------------------

def argmin_extremes(table) -> tuple:
    vmin = float(table.min())
    idx = np.nonzero(table == vmin)[0]
    return vmin, int(np.bitwise_and.reduce(idx)), int(np.bitwise_or.reduce(idx))


def max_margin(table, s) -> tuple:
    diff = subset_sums(s) - table
    arg = int(np.argmax(diff))
    return float(diff[arg]), arg


def second_order_witness(table, p: int, tol: float = TOL):
    """Smallest (A, j, k) with F(A+k)-F(A) < F(A+j+k)-F(A+j) - tol, or None."""
    best = None
    for k in range(p):
        for j in range(k):
            v = table.reshape(-1, 2, 1 << (k - j - 1), 2, 1 << j)
            lhs = v[:, 1, :, 0, :] - v[:, 0, :, 0, :]   # F(A+k) - F(A)
            rhs = v[:, 1, :, 1, :] - v[:, 0, :, 1, :]   # F(A+j+k) - F(A+j)
            bad = lhs < rhs - tol
            if bad.any():
                hi, mid, lo = np.unravel_index(int(np.argmax(bad)), bad.shape)
                a = int(hi) << (k + 1) | int(mid) << (j + 1) | int(lo)
                cand = (a, j, k, float(lhs[hi, mid, lo]), float(rhs[hi, mid, lo]))
                if best is None or cand[:3] < best[:3]:
                    best = cand
    return best


def monotone_witness(table, p: int, tol: float = TOL):
    """Smallest (A, k) with F(A+k) < F(A) - tol, or None."""
    best = None
    for k in range(p):
        v = table.reshape(-1, 2, 1 << k)
        bad = v[:, 1, :] < v[:, 0, :] - tol
        if bad.any():
            hi, lo = np.unravel_index(int(np.argmax(bad)), bad.shape)
            cand = (int(hi) << (k + 1) | int(lo), k,
                    float(v[hi, 1, lo]), float(v[hi, 0, lo]))
            if best is None or cand[:2] < best[:2]:
                best = cand
    return best


def symmetric_witness(table, tol: float = TOL):
    bad = np.abs(table - table[::-1]) > tol
    if not bad.any():
        return None
    m = int(np.argmax(bad))
    return m, float(table[m]), float(table[-1 - m])


def chain_values(table_or_fn, order) -> np.ndarray:
    """F along the prefix chain of ``order``: values at 0, {o0}, {o0,o1}, ..."""
    masks = [0]
    for j in order:
        masks.append(masks[-1] | 1 << int(j))
    if callable(table_or_fn):
        return np.array([table_or_fn(m) for m in masks])
    return table_or_fn[np.array(masks)]


def greedy_base(table_or_fn, w) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    order = np.argsort(-w, kind="stable")
    vals = chain_values(table_or_fn, order)
    s = np.empty(len(w))
    s[order] = np.diff(vals)
    return s


def line_search(table, s0, t) -> float:
    """Largest lambda with s0 + lambda t in P(F), for s0 inside P(F)."""
    num = table - subset_sums(s0)
    den = subset_sums(t)
    pos = den > 0.0
    return float(np.min(num[pos] / den[pos]))


# ---------------------------------------------------------------------------
# oracle-only answers on cut energies
# ---------------------------------------------------------------------------

def energy_value(e: Energy, mask: int) -> float:
    inside = (mask >> np.arange(e.p)) & 1
    cut = np.sum(e.wts[(inside[e.tails] == 1) & (inside[e.heads] == 0)])
    return float(cut + np.dot(e.ct - e.cs, inside))


def energy_lovasz(e: Energy, w) -> float:
    """Closed form: sum of d_uv (w_u - w_v)_+ minus z.w."""
    w = np.asarray(w, dtype=np.float64)
    return float(np.sum(e.wts * np.maximum(w[e.tails] - w[e.heads], 0.0))
                 - np.dot(e.z, w))


def _flow_network(e: Energy, extra_z=None, scale=None):
    """Integer capacity matrix of the s-t network of F - extra_z.

    scipy's max-flow keeps flows in 32-bit integers and wraps silently, so
    the capacities are scaled to keep their total below 2**30.  Without
    ``scale`` the largest power of two that does so is used.
    """
    from scipy.sparse import csr_matrix

    p = e.p
    z = e.z if extra_z is None else e.z + np.asarray(extra_z)
    src = np.maximum(z, 0.0)
    snk = np.maximum(-z, 0.0)
    rows = np.concatenate([e.tails, np.full(p, p), np.arange(p)])
    cols = np.concatenate([e.heads, np.arange(p), np.full(p, p + 1)])
    real = np.concatenate([e.wts, src, snk])
    if scale is None:
        scale = 2.0 ** np.floor(np.log2(2.0 ** 30 / float(np.sum(real))))
    caps = np.rint(real * scale).astype(np.int64)
    expect(int(caps.sum()) < 2 ** 31, "capacities overflow the integer flow solver")
    return csr_matrix((caps, (rows, cols)), shape=(p + 2, p + 2)), src, scale


def energy_minimum(e: Energy) -> tuple:
    """Exact (min value, minimal minimizer, maximal minimizer) by max-flow.

    min_A cut(A) - z(A) = maxflow - sum of z_+; the minimal minimizer is the
    residual reach of s, the maximal one the complement of what reaches t.
    """
    from scipy.sparse.csgraph import breadth_first_order, maximum_flow

    p = e.p
    cap, src, _ = _flow_network(e, scale=GRID)  # dyadic weights: exact
    flow = maximum_flow(cap, p, p + 1)
    residual = (cap - flow.flow).tocsr()
    residual.data = np.maximum(residual.data, 0)
    residual.eliminate_zeros()
    reach_s = breadth_first_order(residual, p, directed=True,
                                  return_predecessors=False)
    reach_t = breadth_first_order(residual.T.tocsr(), p + 1, directed=True,
                                  return_predecessors=False)
    minimal = mask_of(k for k in reach_s if k < p)
    maximal = mask_of(k for k in range(p) if k not in set(reach_t))
    value = flow.flow_value / GRID - float(np.sum(src))
    return value, minimal, maximal


def energy_margin(e: Energy, s) -> float:
    """max_A s(A) - F(A) by max-flow, capacities rounded to a power-of-two grid.

    The rounding error is below (arcs + 2p) / (2 * scale), returned as the
    second value so that callers can widen their tolerance by it.
    """
    from scipy.sparse.csgraph import maximum_flow

    p = e.p
    cap, src, scale = _flow_network(e, extra_z=s)
    value = maximum_flow(cap, p, p + 1).flow_value / scale
    err = (len(e.wts) + 2 * p) / (2.0 * scale)
    return float(np.sum(np.rint(src * scale)) / scale - value), err


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_minimizers(value, minimal, maximal, ref, F_of) -> None:
    """Minimizers must be true minimizers between the reference extremes."""
    vmin, lo, hi = ref
    expect(abs(value - vmin) <= TOL * (1.0 + abs(vmin)),
           f"minimum {value!r} != reference {vmin!r}")
    for m in (minimal, maximal):
        expect(m & lo == lo and m | hi == hi,
               f"minimizer {m} outside the lattice [{lo}, {hi}]")
        expect(abs(F_of(m) - vmin) <= TOL * (1.0 + abs(vmin)),
               f"set {m} does not reach the minimum")
    expect(minimal & maximal == minimal, "minimal minimizer not inside maximal")


def check_base(s, table_or_fn, p: int, tol: float) -> None:
    """s(V) = F(V) and, with a table, s in P(F)."""
    full = (1 << p) - 1
    fv = table_or_fn[full] if not callable(table_or_fn) else table_or_fn(full)
    expect(abs(float(np.sum(s)) - fv) <= tol * (1.0 + abs(fv)),
           f"s(V) = {float(np.sum(s))!r} != F(V) = {fv!r}")
    if not callable(table_or_fn):
        margin, arg = max_margin(table_or_fn, s)
        expect(margin <= tol * (1.0 + abs(fv)), f"s leaves P(F) at set {arg} by {margin:.3e}")


def upper_level_sets(u, gap: float) -> list:
    """Masks {u >= level} for each distinct level of u, values closer than gap merged."""
    order = np.argsort(-np.asarray(u), kind="stable")
    masks = []
    mask = 0
    for i, j in enumerate(order):
        mask |= 1 << int(j)
        if i + 1 == len(order) or u[j] - u[order[i + 1]] > gap:
            masks.append(mask)
    return masks


def check_level_sets_tight(u, s, F_of, tol: float, gap: float = 1e-6) -> None:
    for m in upper_level_sets(u, gap):
        sm = float(np.sum(s[elements(m)]))
        fm = F_of(m)
        expect(abs(sm - fm) <= tol * (1.0 + abs(fm)),
               f"upper level set {m} not tight: s(A) = {sm!r}, F(A) = {fm!r}")
