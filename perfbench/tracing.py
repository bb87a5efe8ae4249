"""Traced mode: spans around every call into the package's public functions.

No package file changes.  :meth:`Tracer.install` replaces each public
function at every module attribute through which the package reaches it
(``sfm.greedy_base`` as well as ``lovasz.greedy_base``, ``prox.minimize``
as well as ``sfm.minimize``) and ``SetFunction.__call__`` on the class;
:meth:`Tracer.uninstall` puts the originals back.

A span records its name, start, end, parent span and operation id, in
flat arrays kept in memory and written out once, at the end of the run.
A span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import time
import types
from array import array

import numpy as np

import submodopt
from submodopt import (_kernels, _maxflow, cli, core, lovasz, polyhedra, prox,
                       sfm, transforms, zoo)

MODULES = (core, _kernels, lovasz, polyhedra, sfm, prox, transforms, zoo,
           _maxflow, cli)
LAYER = {"_kernels": "kernels", "_maxflow": "maxflow"}
CALL = "core.SetFunction.__call__"
CHAINS = ("lovasz.greedy_base", "lovasz.lovasz_extension", "lovasz.truncated_greedy")
SOLVES = ("prox.prox_minnorm", "prox.prox_decomposition", "prox.prox_homotopy")
REINDEX = ("transforms.restrict", "transforms.contract", "transforms.embed_mask",
           "transforms.project_mask")
BUILDERS = ("zoo.cut_function", "zoo.cover_function", "zoo.flow_function",
            "zoo.concave_cardinality", "zoo.weighted_concave", "zoo.logdet_function",
            "zoo.graphic_matroid_rank", "zoo.linear_matroid_rank")
SCANS = ("kernels.argmin_extremes", "kernels.argmin_extremes_tol", "kernels.max_margin")


def _table_bytes(name: str, args) -> int:
    """Bytes of float64 table entries a kernel reads or writes, computed from p."""
    if name == "subset_sums":
        return 8 << len(args[0])
    if name == "closure_violation":
        m = len(args[0])
        return 18 * m * m            # two int64 index ops and two bool gathers per pair
    n = len(args[0])
    p = n.bit_length() - 1
    if name == "second_order_check":
        return 8 * p * (p - 1) * n   # four gathers of n/4 per ordered pair
    if name in ("monotone_check", "mobius_transform", "zeta_transform"):
        return 8 * p * n
    if name == "pairwise_check":
        return 32 * n * n
    return 16 * n if name in ("max_margin", "symmetric_check") else 8 * n


class Tracer:
    def __init__(self):
        self.labels: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.current_op = -1
        self.counts = {"oracle_evals": 0, "table_builds": 0, "kernel_bytes": 0,
                       "major_cycles": 0, "corral_max": 0, "root_evals": 0,
                       "add_modular_bytes": 0, "tight_sets": 0}
        self._patches: list = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, label: str, fn, before=None, after=None):
        nid = len(self.labels)
        self.labels.append(label)
        name, parent, op, start, end = self.name, self.parent, self.op, self.start, self.end
        stack = self.stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                args = before(args)
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1])
            op.append(tracer.current_op)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _hooks(self, label: str):
        c = self.counts
        short = label.split(".", 1)[1]
        if label.startswith("kernels."):
            def after(args, out):
                c["kernel_bytes"] += _table_bytes(short, args)
            return None, after
        if label == "core.to_explicit":
            def after(args, out):
                if not isinstance(args[0], core.ExplicitFunction):
                    c["table_builds"] += 1
            return None, after
        if label == "sfm.min_norm_point":
            def after(args, out):
                c["major_cycles"] += out[1].major_cycles
                c["corral_max"] = max(c["corral_max"], out[1].bases.shape[0])
            return None, after
        if label == "transforms.add_modular":
            def after(args, out):
                c["add_modular_bytes"] += 8 << args[0].p
            return None, after
        if label == "polyhedra.tight_sets":
            def after(args, out):
                c["tight_sets"] += len(out)
            return None, after
        if label == "prox.solve_increasing":
            def before(args):
                fn = args[0]

                def counted(x):
                    c["root_evals"] += 1
                    return fn(x)
                return (counted,) + args[1:]
            return before, None
        return None, None

    def install(self) -> None:
        targets = {}
        for mod in MODULES:
            short = mod.__name__.split(".")[-1]
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    targets[obj] = f"{LAYER.get(short, short)}.{attr}"
        wrapped = {fn: self._wrap(label, fn, *self._hooks(label))
                   for fn, label in targets.items()}
        for mod in MODULES + (submodopt,):
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrapped:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])

        original = core.SetFunction.__call__
        c = self.counts

        def count_raw(args):
            memo = args[0]._memo
            if memo is None or args[1] not in memo:
                c["oracle_evals"] += 1
            return args

        self._patches.append((core.SetFunction, "__call__", original))
        core.SetFunction.__call__ = self._wrap(CALL, original, before=count_raw)

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._patches):
            setattr(owner, attr, obj)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict:
        return {"labels": np.array(self.labels),
                "name": np.frombuffer(self.name, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "op": np.frombuffer(self.op, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64)}

    def save(self, path: str) -> None:
        np.savez(path, **self.arrays())

    def layer_metrics(self, n_ops: int) -> dict:
        """Per-layer metrics as {name: (value, unit)}, per operation but for corral_max."""
        a = self.arrays()
        labels = list(a["labels"])
        name, parent = a["name"], a["parent"]
        dur = a["end"] - a["start"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_t = dur - child
        layer_of = np.array([lab.split(".", 1)[0] for lab in labels] or [""])
        span_layer = layer_of[name] if len(name) else np.array([], dtype=str)
        parent_layer = np.where(has_parent, span_layer[np.maximum(parent, 0)], "")

        def sel(*names):
            ids = [labels.index(n) for n in names if n in labels]
            return np.isin(name, ids)

        def in_layer(layer):
            return span_layer == layer

        def ms(values, mask):
            return float(np.sum(values[mask])) * 1e3 / n_ops, "ms/op"

        def count(mask):
            return float(np.count_nonzero(mask)) / n_ops, "count/op"

        def per_op(value, unit="count/op"):
            return float(value) / n_ops, unit

        sfm_entry = np.nonzero(in_layer("sfm") & (parent_layer != "sfm"))[0]
        from_prox = 0
        for i in sfm_entry:
            j = parent[i]
            while j >= 0 and span_layer[j] != "prox":
                j = parent[j]
            from_prox += j >= 0

        c = self.counts
        return {
            "cli.commands": count(sel("cli.main")),
            "cli.self_ms": ms(self_t, in_layer("cli")),
            "core.oracle_calls": count(sel(CALL)),
            "core.oracle_evals": per_op(c["oracle_evals"]),
            "core.oracle_ms": ms(self_t, sel(CALL)),
            "core.table_builds": per_op(c["table_builds"]),
            "core.to_explicit_self_ms": ms(self_t, sel("core.to_explicit")),
            "kernels.calls": count(in_layer("kernels")),
            "kernels.ms": ms(dur, in_layer("kernels")),
            "kernels.second_order_ms": ms(dur, sel("kernels.second_order_check")),
            "kernels.monotone_ms": ms(dur, sel("kernels.monotone_check")),
            "kernels.mobius_ms": ms(dur, sel("kernels.mobius_transform",
                                             "kernels.zeta_transform")),
            "kernels.subset_sums_ms": ms(dur, sel("kernels.subset_sums")),
            "kernels.scan_ms": ms(dur, sel(*SCANS)),
            "kernels.closure_ms": ms(dur, sel("kernels.closure_violation")),
            "kernels.bytes": per_op(c["kernel_bytes"], "B/op"),
            "lovasz.chains": count(sel(*CHAINS)),
            "lovasz.chain_self_ms": ms(self_t, sel(*CHAINS)),
            "sfm.calls": per_op(len(sfm_entry)),
            "sfm.major_cycles": per_op(c["major_cycles"]),
            "sfm.corral_max": (float(c["corral_max"]), "count"),
            "sfm.min_norm_self_ms": ms(self_t, sel("sfm.min_norm_point")),
            "sfm.brute_self_ms": ms(self_t, sel("sfm.brute_minimize")),
            "prox.solves": count(sel(*SOLVES) & (parent_layer != "prox")),
            "prox.sfm_calls": per_op(from_prox),
            "prox.root_searches": count(sel("prox.solve_increasing")),
            "prox.root_evals": per_op(c["root_evals"]),
            "prox.self_ms": ms(self_t, in_layer("prox")),
            "prox.line_search_ms": ms(dur, sel("prox.line_search_P")),
            "transforms.add_modular_calls": count(sel("transforms.add_modular")),
            "transforms.add_modular_bytes": per_op(c["add_modular_bytes"], "B/op"),
            "transforms.add_modular_ms": ms(dur, sel("transforms.add_modular")),
            "transforms.reindex_self_ms": ms(self_t, sel(*REINDEX)),
            "transforms.mobius_self_ms": ms(self_t, sel("transforms.mobius",
                                                        "transforms.mobius_reconstruct")),
            "polyhedra.calls": count(in_layer("polyhedra") & (parent_layer != "polyhedra")),
            "polyhedra.tight_sets": per_op(c["tight_sets"]),
            "polyhedra.self_ms": ms(self_t, in_layer("polyhedra")),
            "zoo.build_ms": ms(dur, sel(*BUILDERS)),
            "zoo.cut_minimize_self_ms": ms(self_t, sel("zoo.cut_minimize")),
            "maxflow.calls": count(sel("maxflow.max_flow")),
            "maxflow.ms": ms(dur, sel("maxflow.max_flow")),
            "trace.spans": per_op(len(name)),
        }
