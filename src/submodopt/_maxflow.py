"""Max-flow by Dinic's blocking flows (Dinic, 1970), in O(n^2 m) time.

Each phase runs one breadth-first search from the source to label every
node with its residual distance (its level), then finds augmenting paths
by depth-first search along arcs that go up exactly one level, with one
current-arc pointer per node; a node that dead-ends is dropped from its
level for the rest of the phase.  A phase ends when no path is left in
its level graph, so the source-sink distance grows with every phase and
there are at most n - 1 of them.

Deterministic: arcs are explored in insertion order, so the flow and the
counts are reproducible.  Both min-cut sides are the canonical residual
reachability sets, which are the same for every maximum flow; so they do
not depend on the algorithm, only on the arithmetic.  Residual capacities
at or below 1e-12 count as saturated.

:class:`MaxFlowResult` carries the value, both sides, and two counts of
the work done: ``phases`` (level graphs that reached the sink) and
``augmentations`` (paths pushed).

All state lives in flat Python lists (``to``, ``cap``, ``adj``, ``level``,
``it``): at the sizes the package meets, element-wise access to numpy
arrays costs more than the search itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_RESIDUAL_EPS = 1e-12


@dataclass
class MaxFlowResult:
    value: float
    source_side: np.ndarray   # bool per node: reachable from source in residual
    sink_side: np.ndarray     # bool per node: can reach sink in residual
    phases: int               # level graphs built with a path to the sink
    augmentations: int        # augmenting paths pushed


def _levels(adj, to, cap, start: int, flip: int) -> list[int]:
    """Residual breadth-first distances from start (-1 where unreachable).

    flip = 0 follows arcs out of start, reading each arc's own residual;
    flip = 1 follows them into start, reading the partner's ``cap[a ^ 1]``.
    """
    level = [-1] * len(adj)
    level[start] = 0
    queue = [start]
    for u in queue:  # the loop visits what it appends
        d = level[u] + 1
        for a in adj[u]:
            v = to[a]
            if level[v] < 0 and cap[a ^ flip] > _RESIDUAL_EPS:
                level[v] = d
                queue.append(v)
    return level


def max_flow(n: int, arcs, source: int, sink: int) -> MaxFlowResult:
    """Maximum s-t flow on a directed graph given as (tail, head, capacity).

    Returns the flow value together with both canonical min-cut sides: the
    residual-reachable set from the source (the inclusion-minimal source
    side) and the set of nodes that can still reach the sink (whose
    complement is the inclusion-maximal source side), and the number of
    phases and augmenting paths it took.  Raises ValueError when source
    equals sink, a node lies outside 0..n-1, or a capacity is negative or
    not finite.
    """
    if not (0 <= source < n and 0 <= sink < n):
        raise ValueError(f"source {source} or sink {sink} out of range for n={n}")
    if source == sink:
        raise ValueError(f"source and sink are the same node {source}")
    to: list[int] = []
    cap: list[float] = []
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v, c in arcs:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"arc ({u}, {v}) out of range for n={n}")
        c = float(c)
        if not math.isfinite(c):
            raise ValueError(f"capacity {c} on arc ({u}, {v}) is not finite")
        if c < 0.0:
            raise ValueError(f"negative capacity on arc ({u}, {v})")
        if u == v:
            continue
        adj[u].append(len(to))
        to.append(v)
        cap.append(c)
        adj[v].append(len(to))
        to.append(u)
        cap.append(0.0)

    total = 0.0
    phases = augmentations = 0
    while True:
        level = _levels(adj, to, cap, source, 0)
        if level[sink] < 0:
            break
        phases += 1
        it = [0] * n
        path: list[int] = []  # arcs from the source to u
        u = source
        while True:
            if u == sink:
                push = min([cap[a] for a in path])
                for a in path:
                    cap[a] -= push
                    cap[a ^ 1] += push
                total += push
                augmentations += 1
                # retreat to the tail of the first arc the push saturated
                for j, a in enumerate(path):
                    if cap[a] <= _RESIDUAL_EPS:
                        u = to[a ^ 1]
                        del path[j:]
                        break
                continue
            out = adj[u]
            up = level[u] + 1
            for i in range(it[u], len(out)):
                a = out[i]
                if cap[a] > _RESIDUAL_EPS and level[to[a]] == up:
                    it[u] = i
                    path.append(a)
                    u = to[a]
                    break
            else:
                if u == source:
                    break
                # dead end: drop u from its level and step back
                level[u] = -1
                u = to[path.pop() ^ 1]
                it[u] += 1

    source_side = np.array(level) >= 0
    sink_side = np.array(_levels(adj, to, cap, sink, 1)) >= 0
    return MaxFlowResult(value=total, source_side=source_side, sink_side=sink_side,
                         phases=phases, augmentations=augmentations)
