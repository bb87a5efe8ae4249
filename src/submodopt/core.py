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

Cuts and covers, each plus a modular term, and modular functions chain
by a :class:`ClosedStructure`: it also evaluates, tabulates and lists the
singleton values of its function, and it is closed under restriction,
contraction and modular shifts, so ``transforms`` rebuilds the oracle, the
table and the chain of such a transform from the reduced structure.

Concrete families, the seeded random instances included, live in ``zoo``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from . import _kernels
from .errors import CapExceeded

MAX_GROUND_SIZE = 63
EXHAUSTIVE_CAP = 20
DEFAULT_TOL = 1e-9


def check_integer(value, what: str) -> int:
    """value as an int, which must be a whole number.

    int() alone would truncate 2.5 to 2; here that raises ValueError
    "<what> 2.5 is not an integer".  What int() rejects raises as it does.
    """
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


def check_vector(x, p: int) -> np.ndarray:
    """x as a float64 array, which must have shape (p,)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (p,):
        raise ValueError(f"vector has shape {x.shape}, expected ({p},)")
    return x


def check_finite(values, what: str) -> np.ndarray:
    """values as a float64 array, every entry of which must be finite.

    NaN and infinities raise ValueError naming ``what``, so the CLI reports
    them as input errors instead of computing with them.
    """
    values = np.asarray(values, dtype=np.float64)
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
    values = np.asarray(values, dtype=np.float64)
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

        Raises CapExceeded for p above the cap.  The table equals the
        per-mask loop ``[F(m) for m in range(2**p)]``; builders whose
        arithmetic is reordered agree with it exactly on dyadic data.  A
        builder neither reads nor fills the memo of F.
        """
        check_cap(self.p, cap)
        table = None if self._builder is None else self._builder(cap)
        if table is None:
            n = 1 << self.p
            table = np.empty(n, dtype=np.float64)
            for m in range(n):
                table[m] = self(m)
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
        if isinstance(self._chainer, ClosedStructure):
            return self._chainer.singles()
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
    """Chainer of a family closed under restrict, contract and add_modular.

    A cut or a cover plus a modular vector ``m`` stays one under these
    transforms (``zoo.CutChain``, ``zoo.CoverChain``), and so does a
    modular function (:class:`ModularChain`).  A subclass has the
    ground size ``p`` and provides:

    - ``__call__(order)``, the chain;
    - ``value(mask)``, the oracle;
    - ``table(cap)``, the table builder;
    - ``singles()``, F({k}) for every k;
    - ``restrict(elems)``, ``contract(elems)`` and ``add_modular(s)``, the
      structure of the transformed function on the sorted ``elems``.

    ``transforms`` builds the transformed function from the returned
    structure alone, so a stack of transforms never calls back into its
    parents.
    """

    __slots__ = ()

    def function(self) -> "SetFunction":
        """The memoized function whose oracle, table and chain are this structure."""
        return SetFunction(self.p, self.value, memoize=True, builder=self.table,
                           chainer=self)


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


class ModularSums:
    """Lazy subset sums: ``sums[mask]`` is s(mask) for p up to 63.

    One table of at most 256 partial sums per byte of the mask, so a query
    costs p/8 lookups and memory stays at 2**11 floats where the dense
    table would need 8 * 2**p bytes.
    """

    __slots__ = ("_bytes",)

    def __init__(self, s: np.ndarray):
        self._bytes = [_kernels.subset_sums(s[i:i + 8]).tolist()
                       for i in range(0, s.shape[0], 8)]

    def __getitem__(self, mask: int) -> float:
        total = 0.0
        for part in self._bytes:
            total += part[mask & 255]
            mask >>= 8
        return total


def modular_chain(s: np.ndarray, order: np.ndarray) -> np.ndarray:
    """s(first k of order) for k = 0..len(order): one cumulative sum."""
    out = np.zeros(order.shape[0] + 1, dtype=np.float64)
    np.cumsum(s[order], out=out[1:])
    return out


class ModularChain(ClosedStructure):
    """Structure of the modular function A -> m(A).

    The chain is one cumulative sum, the oracle reads :class:`ModularSums`
    and the table is the subset sums of m.  Restricting or contracting to
    elems keeps m[elems], and a modular shift by s gives m + s.
    """

    __slots__ = ("p", "m", "_sums")

    def __init__(self, m: np.ndarray):
        self.p, self.m = m.shape[0], m
        self._sums = ModularSums(m)

    def __call__(self, order: np.ndarray) -> np.ndarray:
        return modular_chain(self.m, order)

    def value(self, mask: int) -> float:
        return self._sums[mask]

    def table(self, cap: int) -> np.ndarray:
        return _kernels.subset_sums(self.m)

    def singles(self) -> np.ndarray:
        return self.m.copy()

    def restrict(self, elems) -> "ModularChain":
        return ModularChain(self.m[elems])

    def contract(self, elems) -> "ModularChain":
        return ModularChain(self.m[elems])

    def add_modular(self, s: np.ndarray) -> "ModularChain":
        return ModularChain(self.m + s)

    def function(self) -> SetFunction:
        """The function of this structure, unmemoized: a lookup costs p/8 reads."""
        return SetFunction(self.p, self.value, builder=self.table, chainer=self)


def modular_function(s) -> SetFunction:
    """Modular function A -> sum of s[k] over k in A.

    A lazy oracle over byte tables (see :class:`ModularSums`) at every p;
    it tabulates, chains and lists its singletons from s, and it is a
    closed structure (:class:`ModularChain`).
    """
    return ModularChain(check_finite(s, "modular vector")).function()


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
