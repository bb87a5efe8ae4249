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

:class:`MaxFlowResult` carries the value, both sides, and two counts of
the work done: ``phases`` (level graphs that reached the sink) and
``augmentations`` (paths pushed).

The arcs come in as arrays and are checked and laid out by numpy, but the
search state lives in flat Python lists (``to``, ``cap``, ``adj``,
``level``, ``it``): at the sizes the package meets, element-wise access
to numpy arrays costs more than the search itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_RESIDUAL_REL = 1e-12


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


def _residual_network(n: int, tails, heads, caps, source: int, sink: int):
    """The checked arcs as the search's lists (to, cap, lim, adj).

    Arc i is entry 2i (forward, residual c_i) and its partner 2i + 1
    (residual 0) of ``to`` and ``cap``, ``lim[i]`` is the saturation
    threshold of both, and ``adj[u]`` lists the entries leaving u in
    increasing order, as if the arcs were added one at a time.  Self-loops
    and zero capacities stay: no search ever moves along one.
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
    # bincount sums past 1e308 to inf without a warning; min(c, inf) is c
    bound = min(np.bincount(ends[:, 0], caps, minlength=n)[source],
                np.bincount(ends[:, 1], caps, minlength=n)[sink])
    cap = np.zeros(2 * k)
    cap[0::2] = caps
    ids = np.argsort(frm, kind="stable").tolist()
    cuts = np.cumsum(np.bincount(frm, minlength=n)).tolist()
    adj = [ids[a:b] for a, b in zip([0] + cuts[:-1], cuts)]
    return (ends[:, ::-1].ravel().tolist(), cap.tolist(),
            (_RESIDUAL_REL * np.minimum(caps, bound)).tolist(), adj)


def max_flow(n: int, tails, heads, caps, source: int, sink: int) -> MaxFlowResult:
    """Maximum s-t flow on a directed graph given as arrays of arcs.

    Arc i runs from ``tails[i]`` to ``heads[i]`` (int64 arrays) with
    capacity ``caps[i]`` (a float64 array).  Returns the flow value
    together with both canonical min-cut sides: the residual-reachable set
    from the source (the inclusion-minimal source side) and the set of
    nodes that can still reach the sink (whose complement is the
    inclusion-maximal source side), and the number of phases and
    augmenting paths it took.  Raises ValueError when source equals sink,
    a node lies outside 0..n-1, a capacity is negative or not finite, or
    the arrays differ in length, and TypeError when an arc end is not an
    integer.
    """
    if not (0 <= source < n and 0 <= sink < n):
        raise ValueError(f"source {source} or sink {sink} out of range for n={n}")
    if source == sink:
        raise ValueError(f"source and sink are the same node {source}")
    to, cap, lim, adj = _residual_network(n, tails, heads, caps, source, sink)

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
                    r = cap[a] - push
                    cap[a] = r if r > lim[a >> 1] else 0.0
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

    source_side = np.array(level) >= 0
    sink_side = np.array(_levels(adj, to, cap, sink, 1)) >= 0
    return MaxFlowResult(value=total, source_side=source_side, sink_side=sink_side,
                         phases=phases, augmentations=augmentations)
