"""Max-flow by Dinic's blocking flows (Dinic, 1970), in O(n^2 m) time.

Each phase runs one breadth-first search from the source to label every
node with its residual distance (its level), then finds augmenting paths
by depth-first search along arcs that go up exactly one level, with one
current-arc pointer per node; a node that dead-ends is dropped from its
level for the rest of the phase.  A phase ends when no path is left in
its level graph, so the source-sink distance grows with every phase and
there are at most n - 1 of them.

Deterministic: arcs are explored in the order given, so the flow and the
counts are reproducible.  Both min-cut sides are the canonical residual
reachability sets, which are the same for every maximum flow; so they do
not depend on the algorithm, only on the arithmetic.

The saturation threshold scales with the network.  An arc's threshold is
1e-12 times the smaller of its capacity and a bound on the flow value (the
total capacity out of the source or into the sink, whichever is smaller):
every residual of the arc and every push through it is at most that
large, so rounding stays far below it, while a capacity of any size, 1e-13
next to 1 or 1 next to 1e300, still counts.  A push that leaves a residual
at or below its threshold sets it to exactly 0, so the searches test
residuals against 0.

Layout and search are two steps.  :func:`residual_network` checks arcs
given as arrays and lays them out, by numpy, as the flat Python lists the
search reads (``to``, ``cap``, ``adj``): at the sizes the package meets,
element-wise access to numpy arrays costs more than the search itself.
:func:`max_flow` is the search on such lists.  A caller that solves many
networks on one set of arcs lays them out once and passes each search a
fresh capacity list and, if it drops nodes, adjacency lists without them
(see :class:`core._NetworkMinor`); ``zoo.flow_function`` lays out one
network per mask.

:class:`MaxFlowResult` carries the value, the residual distances that
give both sides, and two counts of the work done: ``phases`` (level graphs
that reached the sink) and ``augmentations`` (paths pushed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_RESIDUAL_REL = 1e-12


@dataclass
class MaxFlowResult:
    value: float
    source_level: list  # residual distance from the source per node, -1 if unreachable
    sink_level: list    # residual distance to the sink per node, -1 if it cannot reach it
    phases: int         # level graphs built with a path to the sink
    augmentations: int  # augmenting paths pushed

    @property
    def source_side(self) -> np.ndarray:
        """bool per node: reachable from the source in the residual network."""
        return np.array(self.source_level) >= 0

    @property
    def sink_side(self) -> np.ndarray:
        """bool per node: can reach the sink in the residual network."""
        return np.array(self.sink_level) >= 0


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
            if level[v] < 0 and cap[a ^ flip] > 0.0:
                level[v] = d
                queue.append(v)
    return level


def _bad_arc(n: int, tails, heads, caps) -> ValueError:
    """The error for the first arc out of range, else for the first
    capacity that is not finite, else for the first negative one."""
    bad, what = next(check for check in (
        ((tails < 0) | (tails >= n) | (heads < 0) | (heads >= n),
         "arc ({u}, {v}) out of range for n={n}"),
        (~np.isfinite(caps), "capacity {c} on arc ({u}, {v}) is not finite"),
        (caps < 0.0, "negative capacity on arc ({u}, {v})")) if check[0].any())
    i = int(np.argmax(bad))
    return ValueError(what.format(u=tails[i], v=heads[i], c=caps[i], n=n))


def residual_network(n: int, tails, heads, caps):
    """The arcs as the search's lists (to, cap, adj) over nodes 0..n-1.

    Arc i runs from ``tails[i]`` to ``heads[i]`` (int64 arrays) with
    capacity ``caps[i]`` (a float64 array).  It is entry 2i (forward,
    residual c_i) and its partner 2i + 1 (residual 0) of ``to`` and
    ``cap``, and ``adj[u]`` lists the entries leaving u in increasing
    order, as if the arcs were added one at a time.  Self-loops and zero
    capacities stay: no search ever moves along one.  Raises ValueError
    when a node lies outside 0..n-1, a capacity is negative or not finite,
    or the arrays differ in length, and TypeError when an arc end is not
    an integer.
    """
    tails = np.asarray(tails)
    heads = np.asarray(heads)
    caps = np.asarray(caps, dtype=np.float64)
    if not (tails.shape == heads.shape == caps.shape and caps.ndim == 1):
        raise ValueError("tails, heads and capacities must be 1-d and of one length")
    k = caps.shape[0]
    if k and (tails.dtype.kind not in "iu" or heads.dtype.kind not in "iu"):
        raise TypeError("arc ends must be integers")
    ends = np.empty((k, 2), dtype=np.int64)  # row i: the tail and head of arc i
    ends[:, 0] = tails
    ends[:, 1] = heads
    frm = ends.ravel()  # the node each entry leaves
    if k and not (frm.min() >= 0 and frm.max() < n
                  and caps.min() >= 0.0 and caps.max() < np.inf):  # NaN fails too
        raise _bad_arc(n, tails, heads, caps)
    cap = np.zeros(2 * k)
    cap[0::2] = caps
    ids = np.argsort(frm, kind="stable").tolist()
    cuts = np.cumsum(np.bincount(frm, minlength=n)).tolist()
    adj = [ids[a:b] for a, b in zip([0] + cuts[:-1], cuts)]
    return ends[:, ::-1].ravel().tolist(), cap.tolist(), adj


def max_flow(to, cap, adj, source: int, sink: int) -> MaxFlowResult:
    """Maximum source-sink flow on lists laid out by :func:`residual_network`.

    ``cap`` is consumed: the search leaves the residual capacities in it.
    The nodes are 0..len(adj) - 1, and the search follows only the entries
    listed in ``adj``: a caller drops a node, without laying the arcs out
    again, by emptying its list and leaving every entry into it out of the
    others, and may leave out entries that no augmenting path uses, such as
    the partners of the arcs out of the source.  Returns the flow value
    together with the residual distances from the source (the reachable
    nodes are the inclusion-minimal source side of a minimum cut) and to
    the sink (the nodes that cannot reach it are the inclusion-maximal
    source side), and the number of phases and augmenting paths it took.
    Raises ValueError when source equals sink or either lies outside the
    nodes.
    """
    n = len(adj)
    if not (0 <= source < n and 0 <= sink < n):
        raise ValueError(f"source {source} or sink {sink} out of range for n={n}")
    if source == sink:
        raise ValueError(f"source and sink are the same node {source}")
    # the flow bound: what leaves the source and what enters the sink,
    # summed in arc order (past 1e308 to inf); partner entries add 0
    leaving = entering = 0.0
    for a in adj[source]:
        leaving += cap[a]
    for a in adj[sink]:
        entering += cap[a ^ 1]
    bound = leaving if leaving < entering else entering
    given = cap[:]  # the capacities, for the saturation thresholds

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
                    c = given[a & -2]
                    r = cap[a] - push
                    cap[a] = r if r > _RESIDUAL_REL * (c if c < bound else bound) else 0.0
                    cap[a ^ 1] += push
                total += push
                augmentations += 1
                # retreat to the tail of the first arc the push saturated
                for j, a in enumerate(path):
                    if cap[a] == 0.0:
                        u = to[a ^ 1]
                        del path[j:]
                        break
                continue
            out = adj[u]
            up = level[u] + 1
            for i in range(it[u], len(out)):
                a = out[i]
                if cap[a] > 0.0 and level[to[a]] == up:
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

    return MaxFlowResult(value=total, source_level=level,
                         sink_level=_levels(adj, to, cap, sink, 1),
                         phases=phases, augmentations=augmentations)
