"""Concrete submodular functions: cuts, covers, flows, concave-of-modular,
log-determinants, and matroid ranks, plus a max-flow route for cut
minimization.  Cuts, covers and the concave families build their 2**p
tables from their structure (see :meth:`SetFunction.tabulate`) and chain
from it (see :meth:`SetFunction.chain`).

A cut or a cover plus a modular vector is held by :class:`CutChain` or
:class:`CoverChain`, the two :class:`core.ClosedStructure` families: each
is its function's oracle, table builder, singleton values and chainer, and
each is closed under restriction, contraction and modular shifts, so that
``transforms`` rebuilds those three transforms of a cut or a cover from the
reduced structure instead of reading through the parent.

:func:`random_submodular` draws seeded cut, cover and log-determinant
instances, optionally plus a modular shift, and builds them with the
constructors here and ``transforms.add_modular``, so each random family
tabulates and chains exactly as its constructor does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import _kernels, _maxflow
from .core import (ClosedStructure, SetFunction, check_finite, check_indices,
                   check_tolerance, check_vector, elements_of, modular_chain,
                   subset_of, validate_ground_size)
from .sfm import SfmResult
from .transforms import add_modular


# ---------------------------------------------------------------------------
# directed cuts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Digraph:
    """Weighted directed graph on nodes 0..p-1; self-loops are ignored."""

    p: int
    arcs: tuple = ()

    def __post_init__(self):
        validate_ground_size(self.p)
        object.__setattr__(self, "arcs",
                           _checked_arcs(self.arcs, self.p, "arc weight"))


def _checked_arcs(arcs, n: int, what: str) -> tuple:
    """The arcs (u, v, w) as (int, int, float) tuples, self-loops dropped.

    w, named ``what``, must be finite and nonnegative, u and v nodes 0..n-1.
    """
    ends = []
    for u, v, w in arcs:
        if not math.isfinite(w):
            raise ValueError(f"{what} {w} on ({u}, {v}) is not finite")
        if w < 0.0:
            raise ValueError(f"negative {what} on ({u}, {v})")
        ends += (u, v)
    ends = check_indices(ends, n, "arc end").tolist()
    return tuple((u, v, float(a[2]))
                 for u, v, a in zip(ends[::2], ends[1::2], arcs) if u != v)


def _arc_arrays(g: Digraph):
    tails = np.array([a[0] for a in g.arcs], dtype=np.int64)
    heads = np.array([a[1] for a in g.arcs], dtype=np.int64)
    wts = np.array([a[2] for a in g.arcs], dtype=np.float64)
    return tails, heads, wts


def _positions(p: int, order: np.ndarray) -> np.ndarray:
    """The prefix at which each element joins the chain of order (len + 1 if never)."""
    n = order.shape[0]
    pos = np.empty(p, dtype=np.int64)
    pos.fill(n + 1)
    pos[order] = np.arange(1, n + 1)
    return pos


def _local_index(p: int, elems) -> np.ndarray:
    """Index of each element within elems, -1 outside."""
    local = np.full(p, -1, dtype=np.int64)
    local[elems] = np.arange(len(elems))
    return local


_BIT_INDEX = np.arange(63)


def _bits(mask: int, p: int) -> np.ndarray:
    return ((mask >> _BIT_INDEX[:p]) & 1).astype(bool)


def _plus_modular(table: np.ndarray, m: np.ndarray) -> np.ndarray:
    return table + _kernels.subset_sums(m) if np.any(m) else table


class CutChain(ClosedStructure):
    """Structure of F(A) = cut(A) + m(A): arcs on 0..p-1 plus a modular vector.

    A chain gives each element the prefix at which it joins (len(order) + 1
    for one that never does); an arc u -> v is cut at prefix k exactly when
    pos[u] <= k < pos[v].  So one weighted count of m by pos, two over
    the arcs with pos[u] < pos[v] and one cumulative sum give every prefix
    value in O(arcs + p).  Restricting to elems keeps the arcs inside elems
    and turns the arcs leaving it into modular out-weight; contracting by
    the complement of elems keeps the arcs inside elems and subtracts the
    arcs entering from the contracted set.
    """

    __slots__ = ("p", "tails", "heads", "wts", "m", "_ends")

    def __init__(self, p: int, tails, heads, wts, m):
        self.p, self.tails, self.heads, self.wts, self.m = p, tails, heads, wts, m
        self._ends = np.concatenate((tails, heads))

    def __call__(self, order: np.ndarray) -> np.ndarray:
        n = order.shape[0]
        pos = _positions(self.p, order)
        ends = pos[self._ends]
        a = self.wts.shape[0]
        pt, ph = ends[:a], ends[a:]
        cut = pt < ph
        w = self.wts[cut]
        steps = np.bincount(pos, self.m, minlength=n + 2)
        steps += np.bincount(pt[cut], w, minlength=n + 2)
        steps -= np.bincount(ph[cut], w, minlength=n + 2)
        return steps[:n + 1].cumsum()

    def value(self, mask: int) -> float:
        if not mask:
            return 0.0
        bits = _bits(mask, self.p)
        cut = bits[self.tails] & ~bits[self.heads]
        return float(self.wts[cut].sum() + self.m[bits].sum())

    def table(self, cap: int) -> np.ndarray:
        return _plus_modular(_kernels.cut_table(self.tails, self.heads, self.wts,
                                                self.p), self.m)

    def singles(self) -> np.ndarray:
        return np.bincount(self.tails, self.wts, minlength=self.p) + self.m

    def _split(self, elems):
        """Local indices of the tails and heads (-1 outside elems)."""
        local = _local_index(self.p, elems)
        return local[self.tails], local[self.heads]

    def restrict(self, elems) -> "CutChain":
        lt, lh = self._split(elems)
        inside = (lt >= 0) & (lh >= 0)
        leaving = (lt >= 0) & (lh < 0)
        m = self.m[elems] + np.bincount(lt[leaving], self.wts[leaving],
                                        minlength=len(elems))
        return CutChain(len(elems), lt[inside], lh[inside], self.wts[inside], m)

    def contract(self, elems) -> "CutChain":
        lt, lh = self._split(elems)
        inside = (lt >= 0) & (lh >= 0)
        entering = (lt < 0) & (lh >= 0)
        m = self.m[elems] - np.bincount(lh[entering], self.wts[entering],
                                        minlength=len(elems))
        return CutChain(len(elems), lt[inside], lh[inside], self.wts[inside], m)

    def add_modular(self, s: np.ndarray) -> "CutChain":
        return CutChain(self.p, self.tails, self.heads, self.wts, self.m + s)


def cut_function(g: Digraph) -> SetFunction:
    """F(A) = total weight of arcs leaving A."""
    return CutChain(g.p, *_arc_arrays(g), np.zeros(g.p)).function()


def cut_minimize(g: Digraph, z) -> SfmResult:
    """Minimize cut(A) - z(A) through one max-flow computation.

    Source arcs carry the positive parts of z, sink arcs the negative
    parts; min cuts of the augmented network correspond to minimizers, and
    the residual reachability sets give the lattice extremes.
    """
    z = check_finite(check_vector(z, g.p), "z")
    src, snk = g.p, g.p + 1
    arcs = list(g.arcs)
    for k in range(g.p):
        if z[k] > 0.0:
            arcs.append((src, k, float(z[k])))
        elif z[k] < 0.0:
            arcs.append((k, snk, float(-z[k])))
    res = _maxflow.max_flow(g.p + 2, arcs, src, snk)

    minimal = subset_of(k for k in range(g.p) if res.source_side[k])
    maximal = subset_of(k for k in range(g.p) if not res.sink_side[k])
    F = cut_function(g)
    value = F(maximal) - float(sum(z[k] for k in elements_of(maximal)))
    return SfmResult(min_value=value, minimal_minimizer=minimal,
                     maximal_minimizer=maximal, certificate=None, gap=0.0)


# ---------------------------------------------------------------------------
# weighted set covers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoverSystem:
    """Groups with nonnegative weights; F(A) sums the groups meeting A."""

    p: int
    groups: tuple = ()  # (member bitmask, weight) pairs

    def __post_init__(self):
        validate_ground_size(self.p)
        check_finite([wt for _, wt in self.groups], "cover weights")
        clean = []
        for mask, wt in self.groups:
            if wt < 0.0:
                raise ValueError("cover weights must be nonnegative")
            if not 0 < mask < (1 << self.p):
                raise ValueError(f"group mask {mask} out of range")
            clean.append((int(mask), float(wt)))
        object.__setattr__(self, "groups", tuple(clean))


class CoverChain(ClosedStructure):
    """Structure of F(A) = cover(A) + m(A): groups of members plus a modular vector.

    Group g has the weight ``wts[g]`` and ``sizes[g] > 0`` members, listed
    in ``members[starts[g]:starts[g] + sizes[g]]``.  A group joins a chain at the first
    position of its members, so one minimum per group, one weighted count
    of those positions and of m by position, and one cumulative sum give
    every prefix value in O(members + p).  Restricting to elems keeps each
    group's members inside elems and drops the groups left empty;
    contracting by the complement of elems keeps only the groups that miss
    the contracted set, since the weight of the others is already in F(A).
    """

    __slots__ = ("p", "members", "sizes", "wts", "m", "starts", "_masks")

    def __init__(self, p: int, members, sizes, wts, m):
        self.p, self.members, self.sizes, self.wts, self.m = p, members, sizes, wts, m
        self.starts = np.cumsum(sizes) - sizes
        self._masks = np.bitwise_or.reduceat(np.left_shift(1, members), self.starts)

    @classmethod
    def from_masks(cls, p: int, masks: np.ndarray, wts: np.ndarray) -> "CoverChain":
        """The cover of the nonzero int64 group masks, with m = 0."""
        bits = (masks[:, np.newaxis] >> np.arange(p)) & 1
        members = np.nonzero(bits)[1]
        return cls(p, members, np.count_nonzero(bits, axis=1), wts, np.zeros(p))

    def __call__(self, order: np.ndarray) -> np.ndarray:
        n = order.shape[0]
        pos = _positions(self.p, order)
        first = np.minimum.reduceat(pos[self.members], self.starts)
        steps = np.bincount(pos, self.m, minlength=n + 2)
        steps += np.bincount(first, self.wts, minlength=n + 2)
        return steps[:n + 1].cumsum()

    def value(self, mask: int) -> float:
        if not mask:
            return 0.0
        meets = (self._masks & mask) != 0
        return float(self.wts[meets].sum() + self.m[_bits(mask, self.p)].sum())

    def table(self, cap: int) -> np.ndarray:
        return _plus_modular(_kernels.cover_table(self._masks, self.wts, self.p),
                             self.m)

    def singles(self) -> np.ndarray:
        return np.bincount(self.members, np.repeat(self.wts, self.sizes),
                           minlength=self.p) + self.m

    def _kept(self, elems, whole: bool) -> "CoverChain":
        """The groups cut down to elems, in local indices; with ``whole``,
        only the groups that lie inside elems."""
        local = _local_index(self.p, elems)[self.members]
        inside = local >= 0
        if whole:
            inside &= np.repeat(np.logical_and.reduceat(inside, self.starts),
                                self.sizes)
        sizes = np.add.reduceat(inside.astype(np.int64), self.starts)
        nonempty = sizes > 0
        return CoverChain(len(elems), local[inside], sizes[nonempty],
                          self.wts[nonempty], self.m[elems])

    def restrict(self, elems) -> "CoverChain":
        return self._kept(elems, whole=False)

    def contract(self, elems) -> "CoverChain":
        return self._kept(elems, whole=True)

    def add_modular(self, s: np.ndarray) -> "CoverChain":
        return CoverChain(self.p, self.members, self.sizes, self.wts, self.m + s)


def cover_function(c: CoverSystem) -> SetFunction:
    """F(A) = total weight of the groups meeting A."""
    masks = np.array([g[0] for g in c.groups], dtype=np.int64)
    wts = np.array([g[1] for g in c.groups], dtype=np.float64)
    return CoverChain.from_masks(c.p, masks, wts).function()


# ---------------------------------------------------------------------------
# flow functions (polymatroids from multi-source networks)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlowNetwork:
    """Capacitated network with source nodes and a sink ground set.

    ``sinks[k]`` is the node playing ground element k; sources and sinks
    must be disjoint.
    """

    n_nodes: int
    sources: tuple
    sinks: tuple
    arcs: tuple = ()

    def __post_init__(self):
        for name, what in (("sources", "source"), ("sinks", "sink")):
            nodes = check_indices(tuple(getattr(self, name)), self.n_nodes, what)
            object.__setattr__(self, name, tuple(nodes.tolist()))
        if set(self.sources) & set(self.sinks):
            raise ValueError("sources and sinks must be disjoint")
        validate_ground_size(len(self.sinks))
        object.__setattr__(self, "arcs",
                           _checked_arcs(self.arcs, self.n_nodes, "capacity"))


def flow_function(net: FlowNetwork) -> SetFunction:
    """F(A) = max flow from the sources into the sink nodes of A.

    Equivalently the minimum capacity of a cut separating the sources from
    A; non-decreasing and submodular.  Attachment arcs get a safe big-M
    capacity (1 + total finite capacity) so all arithmetic stays finite.
    The max-flow runs on the nodes that a source, a sink or an arc names,
    numbered in that order, so ``n_nodes`` sizes no allocation.
    """
    p = len(net.sinks)
    big = 1.0 + sum(c for _, _, c in net.arcs)
    ids = {}
    for node in (*net.sources, *net.sinks, *(v for a in net.arcs for v in a[:2])):
        ids.setdefault(node, len(ids))
    n = len(ids)
    src, snk = n, n + 1
    base = ([(ids[u], ids[v], c) for u, v, c in net.arcs]
            + [(src, ids[s], big) for s in net.sources])
    sinks = [ids[t] for t in net.sinks]

    def fn(mask: int) -> float:
        if mask == 0:
            return 0.0
        arcs = base + [(sinks[k], snk, big) for k in elements_of(mask)]
        return _maxflow.max_flow(n + 2, arcs, src, snk).value

    return SetFunction(p, fn, memoize=True)


# ---------------------------------------------------------------------------
# concave functions of cardinality or of a nonnegative modular sum
# ---------------------------------------------------------------------------

def _check_concave_table(g_table: np.ndarray) -> None:
    if g_table[0] != 0.0:
        raise ValueError(f"g(0) = {g_table[0]}, must be 0")
    inc = np.diff(g_table)
    if np.any(np.diff(inc) > 1e-12):
        raise ValueError("increments of g must be non-increasing")


def concave_cardinality(g_table) -> SetFunction:
    """F(A) = g(|A|) for a concave profile g given at 0..p."""
    g_table = check_finite(g_table, "profile values")
    _check_concave_table(g_table)
    p = len(g_table) - 1

    def builder(cap: int) -> np.ndarray:
        counts = _kernels.subset_sums(np.ones(p)).astype(np.int64)
        return g_table[counts]

    return SetFunction(p, lambda mask: float(g_table[int(mask).bit_count()]),
                       memoize=False, builder=builder,
                       chainer=lambda order: g_table[:order.shape[0] + 1].copy())


_ANALYTIC = {
    "sqrt": np.sqrt,
    "log1p": np.log1p,
}


def _profile(kind: str, cap_value: Optional[float]):
    if kind == "cap":
        if cap_value is None or check_finite(cap_value, "cap value") < 0.0:
            raise ValueError("the 'cap' profile needs a nonnegative cap value")
        return lambda x: np.minimum(x, cap_value)
    if kind not in _ANALYTIC:
        raise ValueError(f"unknown profile {kind!r}; pick sqrt, log1p, or cap")
    if cap_value is not None:
        raise ValueError(f"the {kind!r} profile takes no cap value, got {cap_value}")
    return _ANALYTIC[kind]


def weighted_concave(s, kind: str, cap_value: Optional[float] = None) -> SetFunction:
    """F(A) = g(s(A)) for nonnegative weights s and a concave analytic g.

    Profiles: ``sqrt``, ``log1p``, or ``cap`` (min with a constant); all
    satisfy g(0) = 0.
    """
    s = check_finite(s, "weights")
    if np.any(s < 0.0):
        raise ValueError("weights must be nonnegative")
    g = _profile(kind, cap_value)

    def fn(mask: int) -> float:
        total = 0.0
        for k in elements_of(mask):
            total += s[k]
        return float(g(total))

    return SetFunction(len(s), fn, memoize=True,
                       builder=lambda cap: g(_kernels.subset_sums(s)),
                       chainer=lambda order: g(modular_chain(s, order)))


# ---------------------------------------------------------------------------
# Gaussian log-determinant
# ---------------------------------------------------------------------------

def logdet_function(Q) -> SetFunction:
    """F(A) = log det of the principal submatrix of a positive definite Q."""
    Q = check_finite(Q, "Q")
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ValueError("Q must be square")
    if np.max(np.abs(Q - Q.T)) > 1e-12:
        raise ValueError("Q must be symmetric (within 1e-12)")
    try:
        np.linalg.cholesky(Q)
    except np.linalg.LinAlgError:
        raise ValueError("Q is not positive definite")
    p = Q.shape[0]

    def fn(mask: int) -> float:
        if mask == 0:
            return 0.0
        idx = elements_of(mask)
        chol = np.linalg.cholesky(Q[np.ix_(idx, idx)])
        return float(2.0 * np.sum(np.log(np.diag(chol))))

    return SetFunction(p, fn, memoize=True)


# ---------------------------------------------------------------------------
# matroid ranks
# ---------------------------------------------------------------------------

def graphic_matroid_rank(n_vertices: int, edges: Sequence[tuple]) -> SetFunction:
    """Rank of an edge subset: touched vertices minus connected components.

    Union-find over the selected edges; equals the size of a spanning
    forest of the selected subgraph.
    """
    edges = check_indices([(u, v) for u, v in edges], n_vertices,
                          "edge end").reshape(-1, 2).tolist()

    def fn(mask: int) -> float:
        parent: dict[int, int] = {}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        rank = 0
        for k in elements_of(mask):
            u, v = edges[k]
            for w in (u, v):
                if w not in parent:
                    parent[w] = w
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                rank += 1
        return float(rank)

    return SetFunction(len(edges), fn, memoize=True)


def linear_matroid_rank(matrix, tol: Optional[float] = None) -> SetFunction:
    """Rank of selected columns by elimination with a pivot threshold.

    The threshold defaults to 1e-9 relative to the largest column norm; it
    is the sole source of rank ambiguity for nearly dependent columns.
    """
    matrix = check_finite(matrix, "matrix")
    if matrix.ndim != 2:
        raise ValueError("matrix must be 2-d")
    p = matrix.shape[1]
    norms = np.linalg.norm(matrix, axis=0)
    tol = 1e-9 if tol is None else check_tolerance(tol)
    pivot_tol = tol * max(1.0, float(np.max(norms, initial=0.0)))

    def fn(mask: int) -> float:
        idx = elements_of(mask)
        if not idx:
            return 0.0
        cols = matrix[:, idx].copy()
        rank = 0
        for j in range(cols.shape[1]):
            col = cols[:, j]
            if np.linalg.norm(col) > pivot_tol:
                rank += 1
                col = col / np.linalg.norm(col)
                cols -= np.outer(col, col @ cols)
        return float(rank)

    return SetFunction(p, fn, memoize=True)


# ---------------------------------------------------------------------------
# seeded random instances for tests and demos
# ---------------------------------------------------------------------------

_WEIGHT_GRID = 1 << 16  # weights are multiples of 2**-16 so sums stay exact


def _dyadic(rng, low: int, high: int, size=None):
    return rng.integers(low, high, size=size).astype(np.float64) / _WEIGHT_GRID


def random_submodular(seed: int, p: int, family: str = "cut") -> SetFunction:
    """Deterministic random submodular function from a named family.

    Families: ``cut`` (random directed graph cut, a :func:`cut_function`),
    ``cover`` (weighted set cover, a :func:`cover_function`), ``logdet``
    (log-determinant of principal submatrices of a random positive definite
    matrix, a :func:`logdet_function`).  Append ``+modular`` to any of them
    to add a random modular shift through ``transforms.add_modular``, e.g.
    ``"cut+modular"``.

    Cut and cover weights live on a dyadic grid (multiples of 2**-16) so
    that table arithmetic downstream is exact in float64; logdet values are
    irrational by nature.
    """
    p = validate_ground_size(p)
    base, _, suffix = family.partition("+")
    if suffix not in ("", "modular"):
        raise ValueError(f"unknown family suffix {suffix!r}")
    rng = np.random.default_rng(seed)

    if base == "cut":
        pairs = [(i, j) for i in range(p) for j in range(p)
                 if i != j and rng.random() < 0.4]
        wts = _dyadic(rng, 1, _WEIGHT_GRID, size=len(pairs)).tolist()
        F = cut_function(Digraph(p, tuple((i, j, w) for (i, j), w in zip(pairs, wts))))
    elif base == "cover":
        masks = rng.integers(1, 1 << p, size=2 * p, dtype=np.uint64).tolist()
        gw = _dyadic(rng, 0, _WEIGHT_GRID, size=2 * p).tolist()
        # singleton groups with positive weight keep F({k}) > 0 for every k
        singles = _dyadic(rng, 1, 1 << 12, size=p).tolist()
        groups = list(zip(masks, gw)) + [(1 << k, w) for k, w in enumerate(singles)]
        F = cover_function(CoverSystem(p, tuple(groups)))
    elif base == "logdet":
        r = rng.standard_normal((p, p)) * 0.5
        F = logdet_function(r @ r.T + np.eye(p))
    else:
        raise ValueError(f"unknown family {base!r}")

    if suffix == "modular":
        F = add_modular(F, _dyadic(rng, -_WEIGHT_GRID, _WEIGHT_GRID, size=p))
    return F
