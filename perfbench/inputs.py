"""Seeded instance generators for the benchmark.

Everything here is plain numpy: the generated arcs, groups and vectors are
the single source from which both the package inputs (built in
``workloads``) and the independent reference answers (``checks``) derive.

All weights are multiples of 2**-16 and small enough that every subset sum
is exact in float64, so package tables and reference tables agree bit for
bit wherever the arithmetic is a plain sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GRID = 1 << 16


def dyadic(rng, low: int, high: int, size=None):
    """Uniform multiples of 2**-16 in [low, high) / 2**16."""
    return rng.integers(low, high, size=size).astype(np.float64) / GRID


@dataclass
class Energy:
    """s-t cut energy F(A) = cut(A) + ct(A) - cs(A) on V = {0..p-1}.

    ``tails``, ``heads`` and ``wts`` are the arcs inside V; ``cs`` and
    ``ct`` are the capacities of the arcs s -> v and v -> t.  In the p+2
    node digraph the source is node p and the sink node p+1.
    """

    p: int
    tails: np.ndarray
    heads: np.ndarray
    wts: np.ndarray
    cs: np.ndarray
    ct: np.ndarray

    @property
    def z(self) -> np.ndarray:
        return self.cs - self.ct

    def digraph_arcs(self) -> list:
        """Arcs of the p+2 node digraph whose contraction by s is F."""
        s, t = self.p, self.p + 1
        arcs = [(int(u), int(v), float(w))
                for u, v, w in zip(self.tails, self.heads, self.wts)]
        arcs += [(s, v, float(c)) for v, c in enumerate(self.cs) if c > 0.0]
        arcs += [(v, t, float(c)) for v, c in enumerate(self.ct) if c > 0.0]
        return arcs

    def inner_arcs(self) -> list:
        return [(int(u), int(v), float(w))
                for u, v, w in zip(self.tails, self.heads, self.wts)]


def energy(rng, p: int, density: float, unary_scale: float) -> Energy:
    """Random s-t energy whose minimizers are neither empty nor V.

    Each ordered pair inside V carries an arc with probability ``density``.
    Every node gets one unary arc, to s or to t, of weight up to
    ``unary_scale`` times the mean arc weight leaving a node.  Two anchor nodes settle the extremes: the
    first gets a source capacity above its whole out-weight, so it lies in
    every minimizer; the second a sink capacity above its whole in-weight,
    so it lies in none.
    """
    pick = rng.random((p, p)) < density
    np.fill_diagonal(pick, False)
    tails, heads = np.nonzero(pick)
    wts = dyadic(rng, 1, GRID, size=len(tails))
    out_w = np.bincount(tails, weights=wts, minlength=p)
    in_w = np.bincount(heads, weights=wts, minlength=p)
    top = max(2, int(unary_scale * float(np.mean(out_w)) * GRID))
    unary = dyadic(rng, 1, top, size=p)
    to_source = rng.random(p) < 0.5
    cs = np.where(to_source, unary, 0.0)
    ct = np.where(to_source, 0.0, unary)
    a_in, a_out = rng.choice(p, size=2, replace=False)
    cs[a_in] += np.ceil(out_w[a_in] + 1.0)
    ct[a_out] += np.ceil(in_w[a_out] + 1.0)
    return Energy(p, tails.astype(np.int64), heads.astype(np.int64), wts, cs, ct)


@dataclass
class Cover:
    """Weighted cover F(A) = sum of weights of the groups meeting A."""

    p: int
    masks: np.ndarray   # int64 member bitmasks, one per group
    weights: np.ndarray

    def groups(self) -> list:
        return [(int(m), float(w)) for m, w in zip(self.masks, self.weights)]


def cover(rng, p: int, n_groups: int) -> Cover:
    """Groups of 2 to 5 random members plus one singleton group per element."""
    masks = []
    for _ in range(n_groups):
        size = int(rng.integers(2, 6))
        members = rng.choice(p, size=size, replace=False)
        masks.append(int(np.sum(1 << members.astype(np.int64))))
    masks += [1 << k for k in range(p)]
    weights = np.concatenate([dyadic(rng, 1, GRID, size=n_groups),
                              dyadic(rng, 1, 1 << 12, size=p)])
    return Cover(p, np.array(masks, dtype=np.int64), weights)


def concave_profile(rng, p: int) -> np.ndarray:
    """g(0..p) with g(0) = 0 and strictly decreasing positive increments."""
    inc = np.sort(rng.integers(1, GRID, size=p))[::-1].astype(np.float64)
    inc += np.arange(p, 0, -1)  # strictly decreasing even on ties
    return np.concatenate([[0.0], np.cumsum(inc / GRID)])


def vector(rng, p: int, low: float, high: float) -> np.ndarray:
    """Dyadic vector with entries in [low, high)."""
    return dyadic(rng, int(low * GRID), int(high * GRID), size=p)
