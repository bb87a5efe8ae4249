"""Ground-set machinery, the set-function oracle type, and exhaustive checks.

Subsets of the ground set {0, ..., p-1} are plain int bitmasks: bit k set
means element k is in the subset.  Exhaustive operations materialize the
function as a table of 2**p values (see :func:`to_explicit`) and run the
bitmask kernels from ``_kernels`` over it; they refuse to run for p above
an explicit cap instead of silently enumerating forever.

Materialization goes through :meth:`SetFunction.tabulate`.  Functions with
known structure (cuts, covers, concave and modular families, and the
transforms built on them) pass a vectorized table builder at construction;
every other function is tabulated by one oracle call per mask.

The greedy algorithm, the Lovász extension and the minimizer extraction read
F along the prefixes of one ordering through :meth:`SetFunction.chain`.
Cuts, covers, explicit tables, the concave families and some transforms of
these pass a chainer that computes the whole chain in array operations;
every other function is chained by one oracle call per prefix.  Certificates
that read F once per level set of a vector (block-value recovery, the
level-set optimality and maximizer checks) walk those sets through
:func:`level_sets`.

Modular functions are :class:`ClosedStructure` objects, and cuts and
covers, each plus a modular term, are its two subclasses in ``zoo``.  A
closed structure evaluates, chains, tabulates and lists the singleton
values of its function, and it is closed under restriction, contraction
and modular shifts, so ``transforms`` rebuilds the oracle, the table and
the chain of such a transform from the reduced structure.  Whether F has
one is decided in one place, :func:`_structure`, which ``transforms``,
``sfm.minimize`` and the prox solvers ask too.  Its
:meth:`ClosedStructure.network` lays out its s-t network once and returns
F as a :class:`_NetworkMinor`, which evaluates and minimizes F, and every
restriction, contraction and shift of F reached from it, off that one
layout: the network is the only copy of the arcs a minor reads.

Concrete families, the seeded random instances included, live in ``zoo``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from . import _kernels, _maxflow
from .errors import CapExceeded, NumericalInconsistency

MAX_GROUND_SIZE = 63
EXHAUSTIVE_CAP = 20
DEFAULT_TOL = 1e-9


def check_integer(value, what: str) -> int:
    """value as an int, which must be a whole number.

    int() alone would truncate 2.5 to 2; here that raises ValueError
    "<what> 2.5 is not an integer".  int() would also read "2" as 2 and True
    as 1, so a string, a boolean or None raises TypeError "<what> must be
    numeric".  What else int() rejects raises as it does.
    """
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise TypeError(f"{what} must be numeric")
    n = int(value)
    if n != value:
        raise ValueError(f"{what} {value} is not an integer")
    return n


def validate_ground_size(p: int) -> int:
    p = check_integer(p, "ground set size")
    if not 1 <= p <= MAX_GROUND_SIZE:
        raise ValueError(f"ground set size must be in [1, {MAX_GROUND_SIZE}], got {p}")
    return p


def check_cap(p: int, cap: int = EXHAUSTIVE_CAP) -> None:
    """Refuse exhaustive 2**p work beyond the cap."""
    if p > cap:
        raise CapExceeded(f"enumeration over 2**{p} subsets exceeds cap {cap}")


def _numbers(values, what: str) -> np.ndarray:
    """values as float64; the cast would read "1" as 1.0 and True as 1, so a
    string, a boolean or None raises TypeError naming ``what``."""
    arr = np.asarray(values)  # an int beyond int64 makes an object array
    if arr.dtype.kind not in "iuf" and not (arr.dtype.kind == "O" and all(
            isinstance(v, numbers.Real) and not isinstance(v, bool) for v in arr.flat)):
        raise TypeError(f"{what} must be numeric")
    return arr.astype(np.float64, copy=False)


def check_vector(x, p: int) -> np.ndarray:
    """x as a float64 array, which must have shape (p,)."""
    x = _numbers(x, "vector")
    if x.shape != (p,):
        raise ValueError(f"vector has shape {x.shape}, expected ({p},)")
    return x


def check_finite(values, what: str) -> np.ndarray:
    """values as a float64 array, every entry of which must be finite.

    NaN and infinities raise ValueError naming ``what``, so the CLI reports
    them as input errors instead of computing with them.
    """
    values = _numbers(values, what)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what} must be finite")
    return values


def check_tolerance(tol) -> float:
    """tol as a float, which must be finite and nonnegative.

    A NaN tolerance would make every comparison against it false, so a
    property check would pass everything; a negative one would report
    equal sides as a violation.
    """
    tol = float(tol)
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tolerance must be finite and nonnegative, got {tol!r}")
    return tol


def check_indices(values, n: int, what: str) -> np.ndarray:
    """values as an int64 array of the same shape, every entry in 0..n-1.

    int() would truncate 0.5 to 0, so the first entry that is not a whole
    number (NaN and infinities too) raises ValueError "<what> <v> is not an
    integer", and the first outside 0..n-1 "<what> <v> out of range".
    """
    values = _numbers(values, what)
    bad = (values != np.floor(values)) | (values < 0) | (values >= n)
    if bad.any():
        v = float(values[bad][0])
        if not v.is_integer():
            raise ValueError(f"{what} {v} is not an integer")
        raise ValueError(f"{what} {int(v)} out of range")
    return values.astype(np.int64)


def subset_of(indices: Iterable[int]) -> int:
    """Bitmask of the given element indices."""
    mask = 0
    for k in indices:
        mask |= 1 << int(k)
    return mask


def elements_of(mask: int) -> list[int]:
    """Sorted element indices of a bitmask."""
    out = []
    k = 0
    while mask:
        if mask & 1:
            out.append(k)
        mask >>= 1
        k += 1
    return out


def _submasks(mask: int) -> list[int]:
    """Every submask of mask by compact index, ascending: bit i of the
    index is the i-th smallest element of mask."""
    subs = [0]
    for k in elements_of(mask):
        subs += [sub | 1 << k for sub in subs]
    return subs


def level_sets(values, tol: float = 0.0):
    """Lazy (block, prefix_mask) pairs over the level sets of values, ascending.

    A stable argsort of values, cut into a new block wherever consecutive
    sorted values differ by more than tol (tol=0 gives exact level sets).
    ``block`` is the int64 array of its elements in sorted order and
    ``prefix_mask`` the bitmask of it and every block before it, so a caller
    that reads F at each prefix can stop at the first failing level.
    """
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    prefix = 0
    for block in np.split(order, np.nonzero(np.diff(values[order]) > tol)[0] + 1):
        for j in block.tolist():
            prefix |= 1 << j
        yield block, prefix


def complement(mask: int, p: int) -> int:
    return ((1 << p) - 1) ^ mask


class SetFunction:
    """Evaluation oracle A -> F(A) over bitmask subsets, with F(empty) = 0.

    The oracle must be deterministic: repeated calls on the same mask return
    bit-identical values.  A nonzero value on the empty set is a construction
    error (wrap the raw oracle with :func:`shift_to_zero` if it needs
    normalizing); silent normalization would hide bugs in callers.

    Memoization is opt-in and keyed by the raw bitmask.  Instances are
    immutable after construction, so concurrent evaluation is safe: cache
    writes are idempotent because the oracle is deterministic.

    ``builder``, when given, maps a cap to the full table of 2**p values
    computed from the function's structure, or to None when it cannot do
    better than the per-mask loop under that cap; see :meth:`tabulate`.

    ``chainer``, when given, maps an order to the values of F along its
    prefix chain, computed from the structure; see :meth:`chain`.
    """

    __slots__ = ("p", "_fn", "_memo", "_builder", "_chainer")

    def __init__(self, p: int, fn: Callable[[int], float], memoize: bool = False,
                 builder: Optional[Callable[[int], Optional[np.ndarray]]] = None,
                 chainer: Optional[Callable[[np.ndarray], np.ndarray]] = None):
        self.p = validate_ground_size(p)
        self._fn = fn
        v0 = float(fn(0))
        if v0 != 0.0:
            raise ValueError(
                f"F(empty) = {v0!r}; must be exactly 0 (see shift_to_zero)")
        self._memo: Optional[dict] = {0: 0.0} if memoize else None
        self._builder = builder
        self._chainer = chainer

    def __call__(self, mask: int) -> float:
        if not 0 <= mask < (1 << self.p):
            raise ValueError(f"subset mask {mask} out of range for p={self.p}")
        memo = self._memo
        if memo is None:
            return float(self._fn(mask))
        v = memo.get(mask)
        if v is None:
            v = float(self._fn(mask))
            memo[mask] = v
        return v

    @property
    def structured(self) -> bool:
        """Whether :meth:`tabulate` may build the table without per-mask calls."""
        return self._builder is not None

    def tabulate(self, cap: int = EXHAUSTIVE_CAP) -> np.ndarray:
        """A fresh float64 table of F over all 2**p masks; table[0] == 0.

        Raises CapExceeded for p above the cap, and NumericalInconsistency
        when a value is not finite, as a sum of finite weights past the
        float maximum is.  The table equals the per-mask loop
        ``[F(m) for m in range(2**p)]``; builders whose arithmetic is
        reordered agree with it exactly on dyadic data.  A builder neither
        reads nor fills the memo of F.
        """
        check_cap(self.p, cap)
        with np.errstate(over="ignore", invalid="ignore"):
            table = None if self._builder is None else self._builder(cap)
            if table is None:
                n = 1 << self.p
                table = np.empty(n, dtype=np.float64)
                for m in range(n):
                    table[m] = self(m)
        finite = np.isfinite(table)
        if not finite.all():
            m = int(np.argmin(finite))  # the first mask whose value is not
            raise NumericalInconsistency(
                f"F at mask {m} is {float(table[m])!r}, not a finite value")
        return table

    @property
    def chainer(self):
        """The structural chainer passed at construction, or None."""
        return self._chainer

    def singletons(self) -> np.ndarray:
        """F({k}) for k = 0..p-1, float64.

        Read from the closed structure when F chains by one (see
        :class:`ClosedStructure`), which neither reads nor fills the memo;
        otherwise one oracle call per element.
        """
        S = _structure(self)
        if S is not None:
            return S.singles()
        return np.array([self(1 << k) for k in range(self.p)], dtype=np.float64)

    def chain(self, order) -> np.ndarray:
        """F(first k elements of order) for k = 0..len(order), float64.

        ``order`` lists distinct elements; it may be a partial order or
        empty.  Without a chainer this is the per-mask loop through
        ``__call__``, which reads and fills the memo (the empty set is never
        queried).  A chainer neither reads nor fills the memo, and its
        values equal the loop's exactly on dyadic data; the order is checked
        before a chainer sees it, since a repeated element would make its
        arrays wrong where the loop just takes unions.
        """
        order = np.asarray(order, dtype=np.int64)
        if self._chainer is not None:
            _check_chain(order, self.p)
            return self._chainer(order)
        mask = 0
        values = [0.0]
        for j in order.tolist():
            mask |= 1 << j
            values.append(self(mask))
        return np.array(values, dtype=np.float64)


class ClosedStructure:
    """A modular vector ``m`` plus the arrays ``part`` of a cut or a cover.

    A cut or a cover plus a modular vector stays one under restriction,
    contraction and modular shifts (``zoo.CutChain``, ``zoo.CoverChain``).
    This base class, with an empty ``part``, is the modular function
    A -> m(A), which stays one too.

    Every value is read through :meth:`_steps`: given the step ``pos[k]`` at
    which each element k joins (n + 1 if it never does), entry i of its
    result is the increase of F at step i.  The chain of an order is the
    cumulative sum of its steps, and the oracle at a mask is one step that
    adds the whole mask.  A family provides ``_steps``, ``table(cap)``,
    ``singles()`` (F({k}) for every k) and ``restrict(elems)`` and
    ``contract(elems)``, the structure of the transformed function on the
    sorted ``elems``.  ``transforms`` builds the transformed function from
    the returned structure alone, so a stack of transforms never calls back
    into its parents; ``part`` is shared down the stack, ``m`` is not.

    :meth:`network` lays out the s-t network whose minimum cuts are the
    minimizers of F once, and returns F as a :class:`_NetworkMinor`: the
    modular vector gives the terminal arcs, and a family adds the arcs of
    its part through ``_part_arcs``.  ``sfm.minimize`` solves F by one
    max-flow on it, and the recursive prox solvers reach every reduced
    problem as a minor of it, without a new structure or a new layout.
    """

    __slots__ = ("p", "m", "part")

    def __init__(self, m: np.ndarray, *part):
        self.p, self.m, self.part = m.shape[0], m, part

    def _steps(self, pos: np.ndarray, n: int) -> np.ndarray:
        return np.bincount(pos, self.m, minlength=n + 2)

    def __call__(self, order: np.ndarray) -> np.ndarray:
        """F(first k of order) for k = 0..len(order)."""
        n = order.shape[0]
        pos = np.empty(self.p, dtype=np.int64)
        pos.fill(n + 1)  # faster than np.full for the short arrays here
        pos[order] = np.arange(1, n + 1)
        return self._steps(pos, n)[:n + 1].cumsum()

    def value(self, mask: int) -> float:
        if not mask:  # F(empty) = 0, which SetFunction reads at construction
            return 0.0
        return self._steps(2 - ((mask >> _BITS[:self.p]) & 1), 1)[1]

    def table(self, cap: int) -> np.ndarray:
        return _kernels.subset_sums(self.m)

    def singles(self) -> np.ndarray:
        return self.m.copy()

    def restrict(self, elems) -> "ClosedStructure":
        return ClosedStructure(self.m[elems])

    contract = restrict  # of a modular function: m on the elements kept

    def add_modular(self, s: np.ndarray) -> "ClosedStructure":
        return type(self)(self.m + s, *self.part)

    def function(self) -> "SetFunction":
        """The function whose oracle, table and chain are this structure."""
        return SetFunction(self.p, self.value, builder=self.table, chainer=self)

    def _part_arcs(self):
        """(fold, n, tails, heads, caps): the modular term the part folds
        into m, and the arcs of the part over the elements 0..p-1, the sink
        p + 1 and n - p - 2 nodes of its own from p + 2 on, each of tails,
        heads and caps a tuple of arrays to be joined.  An arc between two
        elements is an arc of a cut; a node of its own is a group, with an
        arc of its weight from each member and one to the sink.  A modular
        function has no arcs."""
        return np.zeros(self.p), self.p + 2, (), (), ()

    def network(self) -> "_NetworkMinor":
        """F as a minor on its whole ground set, with its s-t network laid
        out once; see :class:`_NetworkMinor`.

        The network has the source p and the sink p + 1.  The part adds its
        arcs first (see ``_part_arcs``), and then each element k two
        terminal arcs, source -> k and k -> sink, both of capacity 0 here.
        The fold of the part is added into m once, here, to give the
        minor's modular vector c; a minimization writes |c_k + d_k| into one
        of the two arcs.
        """
        fold, n, tails, heads, caps = self._part_arcs()
        p = self.p
        terminals = np.empty((p, 4), dtype=np.int64)  # row k: s, k, k, t
        terminals[:, 0] = p
        terminals[:, 1] = terminals[:, 2] = _BITS[:p]
        terminals[:, 3] = p + 1
        ends = terminals.reshape(-1, 2)
        tails = np.concatenate((*tails, ends[:, 0]))
        heads = np.concatenate((*heads, ends[:, 1]))
        caps = np.concatenate((*caps, np.zeros(2 * p)))
        to, cap, adj = _maxflow.residual_network(n, tails, heads, caps)
        term = 2 * (caps.shape[0] - 2 * p)  # the entries of the part's arcs
        # a minimization lists the terminal entries of the source and the
        # sink it uses; an element keeps its arc to the sink but not the
        # partner of the arc from the source, which no search follows
        for j in range(p):
            del adj[j][-2]
        adj[p] = []
        adj[p + 1] = [a for a in adj[p + 1] if a < term]
        return _NetworkMinor((p, to, cap, term), adj, (self.m + fold).tolist())


def _structure(F: SetFunction) -> Optional[ClosedStructure]:
    """The closed structure F chains by, or None: the one test of whether
    F is a cut, a cover or a modular function, each plus a modular term,
    or a restriction, contraction or shift of one."""
    S = F.chainer
    return S if isinstance(S, ClosedStructure) else None


class _NetworkMinor:
    """The minor C -> F(L | C) - F(L) of a closed structure F on its live
    elements U, over the residual network of F laid out once.

    Sets are bitmasks in the coordinates of F, and ``live`` lists U in
    increasing order.  The elements outside L and U are deleted.  The minor
    is a cut or a cover on U plus the modular vector c, which starts as m
    plus the layout's fold of one-member groups and takes in the cut arcs
    between U and the rest.  A group node stays live while it misses L,
    however few of its members are live: its arcs from deleted members are
    never searched, so it costs its weight once when it meets the taken
    set.  A group that meets L is dead, since its weight is in F(L).

    ``_net`` is (p, to, cap, term): the lists of F's residual network, laid
    out by :func:`_maxflow.residual_network` and shared by all of its
    minors, which read the arcs of the part off them.  The entries of
    element k below ``term`` are its arcs, in arc order: an even entry a is
    an arc k -> v of weight ``cap[a]``, v an element of a cut or a group
    node of a cover, and an odd one the partner of a cut arc u -> k, of
    weight ``cap[a ^ 1]``; from ``term`` on, element j has source -> j at
    ``term + 4j`` and j -> sink at ``term + 4j + 2``.  ``restrict`` (delete
    the live elements outside a set) and ``contract`` (move a set into L)
    return a new minor and update c and the dead group nodes by a loop
    over the entries of the moved elements.

    :meth:`minimize` solves the minor plus a modular shift d by one
    :func:`_maxflow.max_flow`: it copies the capacities of F's network,
    writes c_k + d_k as the terminal arc of each live k, source -> k of
    capacity minus it if it is negative, else k -> sink, and searches
    adjacency lists that keep only the arcs between live nodes.  A cut with
    A on the source side costs F(L | A) - F(L) + d(A) minus the sum of the
    negative terminal values; each capacity is one weight or one terminal
    value, never a big-M total, so none overflows where a singleton value
    does not.  The lists of a minor are filtered from those of the nearest
    minor above it that searched, ``_base``, once per minor; the loops over
    the arcs of the part read ``_base`` too.
    """

    __slots__ = ("live", "full", "_net", "_elems", "_c", "_alive", "_adj", "_base")

    def __init__(self, net: tuple, adj: list, c: list):
        p = net[0]
        self._net = net
        self._elems = list(range(p))
        self.live = _BITS[:p].copy()
        self.full = (1 << p) - 1
        self._c = c
        self._alive = [True] * len(adj)
        self._adj = self._base = adj

    def value(self, mask: int, shift: Optional[np.ndarray] = None) -> float:
        """The minor at the subset ``mask`` of U, plus the shift d there
        (d lists one entry per live element)."""
        p, to, cap, term = self._net
        c, alive, base = self._c, self._alive, self._base
        shift = [0.0] * len(self._elems) if shift is None else shift.tolist()
        modular = part = 0.0
        taken = mask  # the taken elements and the group nodes already paid
        for k, d in zip(self._elems, shift):
            if mask >> k & 1:
                modular += c[k] + d
                for a in base[k]:
                    if a >= term:
                        break
                    v = to[a]
                    if not a & 1 and alive[v] and not taken >> v & 1:
                        if v > p:
                            taken |= 1 << v
                        part += cap[a]
        return modular + part

    def singletons(self) -> np.ndarray:
        """The minor at {k} for every live k, in the order of ``live``."""
        _, to, cap, term = self._net
        c, alive, base = self._c, self._alive, self._base
        values = []
        for k in self._elems:
            part = 0.0
            for a in base[k]:
                if a >= term:
                    break
                if not a & 1 and alive[to[a]]:
                    part += cap[a]
            values.append(c[k] + part)
        return np.array(values)

    def minimize(self, shift: np.ndarray) -> tuple[int, int]:
        """The minimal and maximal minimizers of the minor plus the shift d
        (one entry per live element), by one max-flow.

        Raises NumericalInconsistency when a terminal value is not finite.
        """
        p, to, cap, term = self._net
        cap = cap[:]
        adj = self._adjacency()[:]
        out, into = [], adj[p + 1][:]
        c = self._c
        for k, d in zip(self._elems, shift.tolist()):
            v = c[k] + d
            a = term + 4 * k
            if 0.0 < v < _INF:
                cap[a + 2] = v
                into.append(a + 3)
            elif -_INF < v < 0.0:
                cap[a] = -v
                out.append(a)
            elif v != 0.0:
                raise NumericalInconsistency(
                    f"terminal capacity {v!r} of element {k} is not finite")
        adj[p], adj[p + 1] = out, into
        res = _maxflow.max_flow(to, cap, adj, p, p + 1)
        src, snk = res.source_level, res.sink_level
        amin = omin = 0
        for k in self._elems:
            if src[k] >= 0:
                amin |= 1 << k
            if snk[k] < 0:
                omin |= 1 << k
        return amin, omin

    def _adjacency(self) -> list:
        if self._adj is None:
            alive, to = self._alive, self._net[1]
            self._adj = [[a for a in out if alive[to[a]]] if live else []
                         for out, live in zip(self._base, alive)]
        return self._adj

    def _child(self, keep: int) -> "_NetworkMinor":
        child = object.__new__(_NetworkMinor)
        child._net = self._net
        child._elems = [k for k in self._elems if keep >> k & 1]
        child.live = np.array(child._elems, dtype=np.int64)
        child.full = keep & self.full
        child._c, child._alive = self._c[:], self._alive[:]
        child._adj = None
        child._base = self._base if self._adj is None else self._adj
        return child

    def restrict(self, mask: int) -> "_NetworkMinor":
        """The minor on the live elements in ``mask``; the others are deleted.

        A cut arc from a kept element u into a deleted one is cut whenever
        u is taken, so its weight moves into c_u.
        """
        child = self._child(mask)
        _, to, cap, term = self._net
        c, alive, base = child._c, child._alive, child._base
        gone = [k for k in self._elems if not mask >> k & 1]
        for k in gone:
            alive[k] = False
        for k in gone:
            for a in base[k]:
                if a >= term:
                    break
                if a & 1 and alive[to[a]]:
                    c[to[a]] += cap[a ^ 1]
        return child

    def contract(self, mask: int) -> "_NetworkMinor":
        """The minor on the live elements outside ``mask``, with mask moved
        into L.

        A cut arc from a contracted element into a live v is cut whenever v
        is left out, so its weight leaves c_v; every group that meets the
        contracted set dies.
        """
        child = self._child(self.full & ~mask)
        p, to, cap, term = self._net
        c, alive, base = child._c, child._alive, child._base
        moved = [k for k in self._elems if mask >> k & 1]
        for k in moved:
            alive[k] = False
        for k in moved:
            for a in base[k]:
                if a >= term:
                    break
                v = to[a]
                if not a & 1 and alive[v]:
                    if v > p:
                        alive[v] = False
                    else:
                        c[v] -= cap[a]
        return child


_INF = float("inf")


_BITS = np.arange(MAX_GROUND_SIZE)


def _check_chain(order: np.ndarray, p: int) -> None:
    if order.ndim != 1:
        raise ValueError("chain order must be one-dimensional")
    # bincount rejects negative elements itself
    hits = np.bincount(order, minlength=p)
    if hits.shape[0] > p or np.count_nonzero(hits) != order.shape[0]:
        raise ValueError(f"chain order leaves 0..{p - 1} or repeats an element")


def _prefix_masks(order: np.ndarray) -> np.ndarray:
    """int64 masks of the first k of order, k = 0..len(order), for p < 63."""
    masks = np.zeros(order.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.left_shift(1, order), out=masks[1:])
    return masks


class ExplicitFunction(SetFunction):
    """Set-function backed by a full table of 2**p values."""

    __slots__ = ("table",)

    def __init__(self, values):
        table = np.ascontiguousarray(check_finite(values, "table values"))
        n = table.shape[0]
        p = (n - 1).bit_length()
        if n != (1 << p) or n < 2:
            raise ValueError(f"table length {n} is not a power of two >= 2")
        self.table = table
        super().__init__(p, lambda m: table[m], memoize=False,
                         chainer=lambda order: table[_prefix_masks(order)])

    structured = True  # tabulate copies the stored table

    def tabulate(self, cap: int = EXHAUSTIVE_CAP) -> np.ndarray:
        """A copy of the stored table; the cap does not apply to it."""
        return self.table.copy()


def explicit_function(values) -> ExplicitFunction:
    return ExplicitFunction(values)


def modular_function(s) -> SetFunction:
    """Modular function A -> sum of s[k] over k in A.

    A closed structure with no cut or cover part (:class:`ClosedStructure`)
    at every p: it evaluates, tabulates, chains and lists its singletons
    from s.
    """
    return ClosedStructure(check_finite(s, "modular vector")).function()


def shift_to_zero(p: int, fn: Callable[[int], float], memoize: bool = False) -> SetFunction:
    """Wrap a raw oracle so the empty set maps to exactly zero."""
    off = float(fn(0))
    return SetFunction(p, lambda m: 0.0 if m == 0 else float(fn(m)) - off, memoize=memoize)


def to_explicit(F: SetFunction, cap: int = EXHAUSTIVE_CAP) -> np.ndarray:
    """Materialize F as a table indexed by bitmask; table[0] == 0."""
    return F.tabulate(cap)


# ---------------------------------------------------------------------------
# property checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PropertyReport:
    """Outcome of an exhaustive property check.

    ``witness`` is None when the property holds; otherwise it is a dict
    locating one violation (inequality sides included) beyond tolerance.
    """

    holds: bool
    witness: Optional[dict] = None

    def __bool__(self) -> bool:
        return self.holds


def is_submodular(F: SetFunction, tol: float = DEFAULT_TOL,
                  cap: int = EXHAUSTIVE_CAP) -> PropertyReport:
    """Check all second-order differences F(A+k)-F(A) >= F(A+j+k)-F(A+j)."""
    tol = check_tolerance(tol)
    table = to_explicit(F, cap)
    ok, m, j, k, lhs, rhs = _kernels.second_order_check(table, F.p, tol)
    if ok:
        return PropertyReport(True)
    return PropertyReport(False, {"A": int(m), "j": int(j), "k": int(k),
                                  "lhs": float(lhs), "rhs": float(rhs)})


def is_monotone(F: SetFunction, tol: float = DEFAULT_TOL,
                cap: int = EXHAUSTIVE_CAP) -> PropertyReport:
    """Check F(A+k) >= F(A) for every one-element addition."""
    tol = check_tolerance(tol)
    table = to_explicit(F, cap)
    ok, m, k, lhs, rhs = _kernels.monotone_check(table, F.p, tol)
    if ok:
        return PropertyReport(True)
    return PropertyReport(False, {"A": int(m), "k": int(k),
                                  "lhs": float(lhs), "rhs": float(rhs)})


def is_symmetric(F: SetFunction, tol: float = DEFAULT_TOL,
                 cap: int = EXHAUSTIVE_CAP) -> PropertyReport:
    """Check F(A) == F(V - A) for every subset."""
    tol = check_tolerance(tol)
    table = to_explicit(F, cap)
    ok, m, lhs, rhs = _kernels.symmetric_check(table, F.p, tol)
    if ok:
        return PropertyReport(True)
    return PropertyReport(False, {"A": int(m), "lhs": float(lhs), "rhs": float(rhs)})


def is_posimodular(F: SetFunction, tol: float = DEFAULT_TOL,
                   cap: int = EXHAUSTIVE_CAP) -> PropertyReport:
    """Check F(A)+F(B) >= F(A-B)+F(B-A) over all pairs.

    The scan covers 4**p = 2**(2p) pairs, so the cap applies to 2p: at the
    default cap, p above 10 raises CapExceeded before any table is built.
    """
    tol = check_tolerance(tol)
    check_cap(2 * F.p, cap)
    table = to_explicit(F, cap)
    ok, a, b, lhs, rhs = _kernels.pairwise_check(table, F.p, tol)
    if ok:
        return PropertyReport(True)
    return PropertyReport(False, {"A": int(a), "B": int(b),
                                  "lhs": float(lhs), "rhs": float(rhs)})
