"""Concrete submodular functions: cuts, covers, flows, concave-of-modular,
log-determinants, and matroid ranks, plus :func:`cut_minimize`, the
max-flow route for cut minimization.  Cuts, covers and the concave
families build their 2**p tables from their structure (see
:meth:`SetFunction.tabulate`) and chain from it (see
:meth:`SetFunction.chain`).

A cut or a cover plus a modular vector is held by :class:`CutChain` or
:class:`CoverChain`, the two families over the modular base
:class:`core.ClosedStructure`: each adds the arrays of its arcs or groups
to the modular vector, reads its oracle and its chain through one step
routine, and builds its table and singleton values.  Both are closed under
restriction, contraction and modular shifts, so ``transforms`` rebuilds
those three transforms of a cut or a cover from the reduced structure
instead of reading through the parent.  Each also lays out the arcs of its
part for an s-t network, so ``sfm.minimize`` solves every function with
such a structure by one max-flow, and any other by min-norm.

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
                   check_tolerance, check_vector, elements_of,
                   validate_ground_size)
from .sfm import SfmResult, minimize
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
    """Tails over heads as one (2, arcs) int64 array, and the arc weights."""
    ends = np.array([[a[0] for a in g.arcs], [a[1] for a in g.arcs]], dtype=np.int64)
    return ends, np.array([a[2] for a in g.arcs], dtype=np.float64)


def _local_index(p: int, elems) -> np.ndarray:
    """Index of each element within elems, -1 outside."""
    local = np.full(p, -1, dtype=np.int64)
    local[elems] = np.arange(len(elems))
    return local


def _plus_modular(table: np.ndarray, m: np.ndarray) -> np.ndarray:
    return table + _kernels.subset_sums(m) if np.any(m) else table


class CutChain(ClosedStructure):
    """Structure of F(A) = cut(A) + m(A); ``part`` is (ends, wts).

    Arc i runs from ``ends[0, i]`` to ``ends[1, i]`` with weight ``wts[i]``.
    An arc u -> v is cut after step k exactly when pos[u] <= k < pos[v], so
    its weight is a step up at pos[u] and a step down at pos[v]: one
    weighted count of m by pos and two over the arcs with pos[u] < pos[v]
    give every step in O(arcs + p).  Restricting to elems keeps the arcs
    inside elems and turns the arcs leaving it into modular out-weight;
    contracting by the complement of elems keeps the arcs inside elems and
    subtracts the arcs entering from the contracted set.
    """

    __slots__ = ()

    def _steps(self, pos: np.ndarray, n: int) -> np.ndarray:
        ends, wts = self.part
        steps = np.bincount(pos, self.m, minlength=n + 2)
        at = pos[ends]
        pt, ph = at[0], at[1]  # by index: unpacking a 2-d array iterates, slower
        cut = pt < ph
        w = wts[cut]
        steps += np.bincount(pt[cut], w, minlength=n + 2)
        steps -= np.bincount(ph[cut], w, minlength=n + 2)
        return steps

    def table(self, cap: int) -> np.ndarray:
        ends, wts = self.part
        return _plus_modular(_kernels.cut_table(*ends, wts, self.p), self.m)

    def singles(self) -> np.ndarray:
        ends, wts = self.part
        return np.bincount(ends[0], wts, minlength=self.p) + self.m

    def _reduced(self, elems, sign: int, side: int) -> "CutChain":
        """The arcs inside elems, in local indices, with m[elems] plus ``sign``
        times the weight of the arcs that cross with end ``side`` inside."""
        ends, wts = self.part
        local = _local_index(self.p, elems)[ends]
        kept = local >= 0
        inside = kept[0] & kept[1]
        crossing = kept[side] & ~kept[1 - side]
        m = self.m[elems] + sign * np.bincount(local[side][crossing], wts[crossing],
                                               minlength=len(elems))
        # compress keeps the rows contiguous, where local[:, inside] would not
        return CutChain(m, local.compress(inside, axis=1), wts[inside])

    def restrict(self, elems) -> "CutChain":
        return self._reduced(elems, 1, 0)  # arcs leaving elems

    def contract(self, elems) -> "CutChain":
        return self._reduced(elems, -1, 1)  # arcs entering elems

    def _part_arcs(self):
        ends, wts = self.part
        return np.zeros(self.p), self.p + 2, (ends[0],), (ends[1],), (wts,)


def cut_function(g: Digraph) -> SetFunction:
    """F(A) = total weight of arcs leaving A."""
    return CutChain(np.zeros(g.p), *_arc_arrays(g)).function()


def cut_minimize(g: Digraph, z) -> SfmResult:
    """Minimize cut(A) - z(A) through one max-flow computation.

    ``sfm.minimize`` of ``add_modular(cut_function(g), -z)``, a closed
    structure, so one max-flow: source arcs carry the positive parts of
    z, sink arcs the negative parts, min cuts of the augmented network
    correspond to minimizers, and the residual reachability sets give the
    lattice extremes (see :meth:`core.ClosedStructure.network`).
    """
    z = check_finite(check_vector(z, g.p), "z")
    return minimize(add_modular(cut_function(g), -z))


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
    """Structure of F(A) = cover(A) + m(A); ``part`` is (members, starts, sizes, wts).

    Group g has the weight ``wts[g]`` and ``sizes[g] > 0`` members, listed
    in ``members[starts[g]:starts[g] + sizes[g]]``.  A group adds its
    weight at the first step of its members, so one minimum per group and
    one weighted count of those steps and of m by step give every step in
    O(members + p).  Restricting to elems keeps each group's members inside
    elems and drops the groups left empty; contracting by the complement of
    elems keeps only the groups that miss the contracted set, since the
    weight of the others is already in F(A).
    """

    __slots__ = ()

    @classmethod
    def from_masks(cls, p: int, masks: np.ndarray, wts: np.ndarray) -> "CoverChain":
        """The cover of the nonzero int64 group masks, with m = 0."""
        bits = (masks[:, np.newaxis] >> np.arange(p)) & 1
        sizes = np.count_nonzero(bits, axis=1)
        return cls(np.zeros(p), np.nonzero(bits)[1], np.cumsum(sizes) - sizes, sizes, wts)

    def _steps(self, pos: np.ndarray, n: int) -> np.ndarray:
        members, starts, _, wts = self.part
        steps = np.bincount(pos, self.m, minlength=n + 2)
        steps += np.bincount(np.minimum.reduceat(pos[members], starts), wts,
                             minlength=n + 2)
        return steps

    def table(self, cap: int) -> np.ndarray:
        members, starts, _, wts = self.part
        masks = np.bitwise_or.reduceat(np.left_shift(1, members), starts)
        return _plus_modular(_kernels.cover_table(masks, wts, self.p), self.m)

    def singles(self) -> np.ndarray:
        members, _, sizes, wts = self.part
        return np.bincount(members, np.repeat(wts, sizes), minlength=self.p) + self.m

    def _kept(self, elems, whole: bool) -> "CoverChain":
        """The groups cut down to elems, in local indices; with ``whole``,
        only the groups that lie inside elems."""
        members, starts, sizes, wts = self.part
        local = _local_index(self.p, elems)[members]
        inside = local >= 0
        if whole:
            inside &= np.repeat(np.logical_and.reduceat(inside, starts), sizes)
        sizes = np.add.reduceat(inside.astype(np.int64), starts)
        nonempty = sizes > 0
        sizes = sizes[nonempty]
        return CoverChain(self.m[elems], local[inside], np.cumsum(sizes) - sizes,
                          sizes, wts[nonempty])

    def restrict(self, elems) -> "CoverChain":
        return self._kept(elems, whole=False)

    def contract(self, elems) -> "CoverChain":
        return self._kept(elems, whole=True)

    def _part_arcs(self):
        """One node per group of two or more members, with an arc of its
        weight from each member and one to the sink: a cut pays the weight
        once if the group meets the source side, by the node's arc to the
        sink or by the arcs of its members.  A group of one member is a
        modular term: the fold, which ``network`` adds into m once."""
        members, starts, sizes, wts = self.part
        multi = sizes > 1
        single = ~multi
        fold = np.bincount(members[starts[single]], wts[single], minlength=self.p)
        tails = members[np.repeat(multi, sizes)]
        sizes, wts = sizes[multi], wts[multi]
        sink = self.p + 1
        nodes = np.arange(sink + 1, sink + 1 + sizes.shape[0])
        return (fold, sink + 1 + sizes.shape[0], (tails, nodes),
                (np.repeat(nodes, sizes), np.full(sizes.shape[0], sink)),
                (np.repeat(wts, sizes), wts))


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
    A; non-decreasing and submodular.  Each max-flow merges the sources
    into one terminal and the sink nodes of A into the other, dropping the
    arcs inside either, so no attachment arc carries a big-M capacity that
    could overflow.  It runs on the nodes that a source, a sink or an arc
    names, numbered in that order, so ``n_nodes`` sizes no allocation.
    """
    p = len(net.sinks)
    ids = {}
    for node in (*net.sources, *net.sinks, *(v for a in net.arcs for v in a[:2])):
        ids.setdefault(node, len(ids))
    n = len(ids)
    tails = np.array([ids[u] for u, _, _ in net.arcs], dtype=np.int64)
    heads = np.array([ids[v] for _, v, _ in net.arcs], dtype=np.int64)
    caps = np.array([c for _, _, c in net.arcs], dtype=np.float64)
    sources = np.array([ids[s] for s in net.sources], dtype=np.int64)
    sinks = np.array([ids[t] for t in net.sinks], dtype=np.int64)

    def fn(mask: int) -> float:
        if mask == 0:
            return 0.0
        # the source terminal is node n and the sink terminal node n + 1
        label = np.arange(n + 2)
        label[sources] = n
        label[sinks[elements_of(mask)]] = n + 1
        t, h = label[tails], label[heads]
        keep = t != h
        network = _maxflow.residual_network(n + 2, t[keep], h[keep], caps[keep])
        return _maxflow.max_flow(*network, n, n + 1).value

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
    S = ClosedStructure(s)
    return SetFunction(len(s), lambda mask: g(S.value(mask)), memoize=True,
                       builder=lambda cap: g(S.table(cap)),
                       chainer=lambda order: g(S(order)))


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
