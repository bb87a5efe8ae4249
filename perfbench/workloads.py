"""The four workloads: inputs built through the package, timed operations,
and the checks that judge their outputs.

A workload is a list of :class:`Instance` objects.  ``run`` is the timed
operation and returns the package's output; ``check`` receives that output
and raises ``checks.CheckFailed`` when it is wrong.  References are computed
lazily, on the first check, so that they are built after the timed loop.

The package is reached only through module attributes looked up at call
time (``sfm.minimize``, not a name bound at import), so that the traced
mode's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks as ck
import inputs
from submodopt import (cli, core, lovasz, polyhedra, prox, sfm, transforms,
                       zoo)

# Default seeds, one per workload; the README records them.
DEFAULT_SEEDS = {"exhaustive": 1401, "tables": 1702, "solve": 4803, "prox": 1804}


@dataclass
class Instance:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class Workload:
    instances: list
    workdir: str | None = None

    def close(self) -> None:
        if self.workdir is not None:
            for f in os.listdir(self.workdir):
                os.remove(os.path.join(self.workdir, f))
            os.rmdir(self.workdir)
            self.workdir = None


def energy_function(graph: zoo.Digraph, p: int) -> core.SetFunction:
    """F = restrict(contract(cut(G), {s}), V), built afresh so no memo carries over."""
    cut = zoo.cut_function(graph)
    return transforms.restrict(transforms.contract(cut, 1 << p), (1 << p) - 1)


def fmt(v) -> str:
    return ",".join(repr(float(x)) for x in v)


# ---------------------------------------------------------------------------
# exhaustive: the CLI on spec files, every command rebuilding the 2**p table
# ---------------------------------------------------------------------------

_TIMING = re.compile(r'"timing": [^,]*, ')


def run_cli(argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, _TIMING.sub("", out.getvalue()), err.getvalue()


def energy_spec(e: inputs.Energy) -> dict:
    full = list(range(e.p))
    return {"kind": "transform", "op": "restrict", "subset": full,
            "inner": {"kind": "transform", "op": "contract", "subset": [e.p],
                      "inner": {"kind": "cut", "p": e.p + 2,
                                "arcs": [list(a) for a in e.digraph_arcs()]}}}


def cover_spec(c: inputs.Cover) -> dict:
    return {"kind": "cover", "p": c.p,
            "groups": [{"members": ck.elements(m), "weight": w}
                       for m, w in c.groups()]}


def cli_results(out, name: str) -> dict:
    code, text, err = out
    ck.expect(code == 0, f"{name} exited {code}: {err.strip()}")
    return json.loads(text)["results"]


def exhaustive(seed: int, root: str) -> Workload:
    rng = np.random.default_rng([seed, 0])
    workdir = os.path.join(root, "out", f"specs-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    wl = Workload([], workdir)
    sources = [("energy14", inputs.energy(rng, 14, 0.3, 0.5)),
               ("energy15", inputs.energy(rng, 15, 0.3, 0.5)),
               ("cover15", inputs.cover(rng, 15, 30))]
    for label, src in sources:
        is_cover = isinstance(src, inputs.Cover)
        spec = cover_spec(src) if is_cover else energy_spec(src)
        path = os.path.join(workdir, f"{label}.json")
        with open(path, "w") as fh:
            json.dump(spec, fh)
        cli.build_function(spec)  # the spec parses and builds through the package
        p = src.p
        table = functools.cache(lambda src=src, is_cover=is_cover:
                     ck.cover_table(ck.cover_weights(src)) if is_cover
                     else ck.energy_table(src))
        s_vec = inputs.vector(rng, p, -1.0, 1.0)
        w0 = inputs.vector(rng, p, -1.0, 1.0)
        direction = inputs.vector(rng, p, -0.5, 1.0)
        direction[int(rng.integers(p))] = 0.75  # at least one positive entry
        # a start inside P(F): covers are nonnegative and cut(A) >= 0
        start = np.full(p, -0.25) if is_cover else -src.z - 0.25
        commands = {
            "explicit": ["explicit", path],
            "minimize": ["minimize", path, "--algo", "brute", "--verify"],
            "conjugate": ["conjugate", path, f"--s={fmt(s_vec)}"],
            "linesearch": ["linesearch", path, f"--direction={fmt(direction)}",
                           f"--s={fmt(start)}"],
        }
        if is_cover:
            commands["greedy"] = ["greedy", path, "--truncated", "--verify",
                                  f"--w={fmt(w0)}"]
        for cmd, argv in commands.items():
            name = f"{label}/{cmd}"
            wl.instances.append(Instance(
                name, functools.partial(run_cli, argv),
                functools.partial(_check_exhaustive, cmd, name, table, p,
                                  s_vec, w0, direction, start)))
    return wl


def _check_exhaustive(cmd, name, table, p, s_vec, w0, direction, start,
                      out) -> None:
    res = cli_results(out, name)
    tab = table()
    if cmd == "explicit":
        ck.expect(ck.close(res["spec"]["values"], tab, 0.0), "table entries differ")
    elif cmd == "minimize":
        vmin, lo, hi = ck.argmin_extremes(tab)
        ck.expect(res["min_value"] == vmin, f"min {res['min_value']} != {vmin}")
        ck.expect(ck.mask_of(res["minimal_minimizer"]) == lo, "minimal minimizer differs")
        ck.expect(ck.mask_of(res["maximal_minimizer"]) == hi, "maximal minimizer differs")
    elif cmd == "conjugate":
        value, arg = ck.max_margin(tab, s_vec)
        ck.expect(res["value"] == value, f"conjugate {res['value']} != {value}")
        ck.expect(ck.mask_of(res["argmax"]) == arg, "conjugate argmax differs")
    elif cmd == "linesearch":
        lam = ck.line_search(tab, start, direction)
        ck.expect(abs(res["lambda"] - lam) <= 1e-6 * (1.0 + lam),
                  f"step {res['lambda']!r} != {lam!r}")
    elif cmd == "greedy":
        w_pos = np.where(w0 > 0.0, w0, 0.0)
        order = [j for j in np.argsort(-w0, kind="stable") if w0[j] > 0.0]
        ref = np.zeros(p)
        ref[order] = np.diff(ck.chain_values(tab, order))
        ck.expect(ck.close(res["base"], ref, 0.0), "truncated greedy base differs")
        ck.expect(abs(res["value"] - float(np.dot(w_pos, ref))) <= 1e-9,
                  "greedy value differs")


# ---------------------------------------------------------------------------
# tables: every exhaustive analysis through the API on explicit 2**p tables
# ---------------------------------------------------------------------------

def tables(seed: int, root: str) -> Workload:
    rng = np.random.default_rng([seed, 1])
    wl = Workload([])
    sources = []

    c = inputs.cover(rng, 18, 36)
    d = ck.cover_weights(c)
    sources.append(("cover18", ck.cover_table(d), d, np.full(18, -0.25)))

    c = inputs.cover(rng, 17, 34)
    d = ck.cover_weights(c)
    m = inputs.vector(rng, 17, 0.0, 0.5)
    d[1 << np.arange(17)] -= m          # the modular part as negative singletons
    sources.append(("cover-modular17", ck.cover_table(d), d, -m - 0.25))

    g = inputs.concave_profile(rng, 18)
    sources.append(("concave18", g[ck.popcount_table(18)], None, np.full(18, -0.25)))

    c = inputs.cover(rng, 17, 34)
    sources.append(("planted17", ck.cover_table(ck.cover_weights(c)), None,
                    np.full(17, -0.25)))

    for label, table, weights, start in sources:
        p = len(table).bit_length() - 1
        w = inputs.vector(rng, p, -1.0, 1.0)
        if label == "planted17":
            table = plant_violation(table, w)
        F = core.ExplicitFunction(table)
        s_vec = inputs.vector(rng, p, -1.0, 1.0)
        direction = inputs.vector(rng, p, -0.5, 1.0)
        direction[int(rng.integers(p))] = 0.75
        wl.instances.append(Instance(
            label, functools.partial(_tables_op, F, w, s_vec, start, direction),
            functools.partial(_check_tables, table, weights, w, s_vec, start,
                              direction)))
    return wl


def plant_violation(table, w):
    """Raise F on the lower half of the order of w far above F(V).

    That set is never a prefix of the greedy chain of w, so the greedy base
    and its tight sets stay those of the submodular table.
    """
    p = len(table).bit_length() - 1
    planted = table.copy()
    planted[ck.mask_of(np.argsort(w, kind="stable")[:p // 2])] += float(table[-1]) + 1.0
    return planted


def _report(rep) -> tuple:
    return rep.holds, None if rep.witness is None else dict(rep.witness)


def _tables_op(F, w, s_vec, start, direction) -> dict:
    res = sfm.brute_minimize(F)
    base = lovasz.greedy_base(F, w)
    mob = transforms.mobius(F)
    return {
        "submodular": _report(core.is_submodular(F)),
        "monotone": _report(core.is_monotone(F)),
        "symmetric": _report(core.is_symmetric(F)),
        "minimum": (res.min_value, res.minimal_minimizer, res.maximal_minimizer),
        "conjugate": lovasz.conjugate(F, s_vec),
        "base": base,
        "in_B": polyhedra.in_B(F, base),
        "tight": np.array(polyhedra.tight_sets(F, base), dtype=np.int64),
        "step": prox.line_search_P(F, start, direction),
        "mobius": mob,
        "rebuilt": transforms.mobius_reconstruct(mob).table,
    }


def _witness_matches(got, ref, keys) -> bool:
    holds, wit = got
    if ref is None:
        return holds and wit is None
    return (not holds and tuple(wit[k] for k in keys) == ref[:len(keys)]
            and ck.close([wit["lhs"], wit["rhs"]], ref[len(keys):], 1e-12))


def _check_tables(table, weights, w, s_vec, start, direction, out) -> None:
    p = len(table).bit_length() - 1
    ck.expect(_witness_matches(out["submodular"], ck.second_order_witness(table, p),
                               ("A", "j", "k")), "is_submodular report differs")
    ck.expect(_witness_matches(out["monotone"], ck.monotone_witness(table, p),
                               ("A", "k")), "is_monotone report differs")
    ck.expect(_witness_matches(out["symmetric"], ck.symmetric_witness(table),
                               ("A",)), "is_symmetric report differs")
    ck.expect(out["minimum"] == ck.argmin_extremes(table), "brute minimum differs")
    ck.expect(out["conjugate"] == ck.max_margin(table, s_vec), "conjugate differs")
    base = ck.greedy_base(table, w)
    ck.expect(ck.close(out["base"], base, 0.0), "greedy base differs")
    margin, _ = ck.max_margin(table, base)
    in_b = abs(float(np.sum(base)) - table[-1]) <= ck.TOL and margin <= ck.TOL
    ck.expect(out["in_B"] == in_b, "in_B differs")
    tight = np.nonzero(np.abs(ck.subset_sums(base) - table) <= ck.TOL)[0]
    ck.expect(np.array_equal(out["tight"], tight), "tight sets differ")
    lam = ck.line_search(table, start, direction)
    ck.expect(abs(out["step"] - lam) <= 1e-6 * (1.0 + lam), "line-search step differs")
    ck.expect(ck.close(out["mobius"], ck.mobius_weights(table), 1e-9), "mobius differs")
    if weights is not None:
        ck.expect(ck.close(out["mobius"], weights, 1e-9),
                  "mobius does not return the generated group weights")
    ck.expect(ck.close(out["rebuilt"], table, 1e-9), "mobius_reconstruct differs")


# ---------------------------------------------------------------------------
# solve: oracle-only minimization and chains at p = 48..61, no 2**p table
# ---------------------------------------------------------------------------

def solve(seed: int, root: str) -> Workload:
    rng = np.random.default_rng([seed, 2])
    wl = Workload([])
    # unary arcs as heavy as the cut split V near the middle, so the
    # minimizers are large and the cost per instance varies little
    for p in (48, 52, 56, 61) * 10:
        e = inputs.energy(rng, p, 0.1, 1.0)
        graph = zoo.Digraph(p + 2, e.digraph_arcs())
        inner = zoo.Digraph(p, e.inner_arcs())
        ws = [inputs.vector(rng, p, -1.0, 1.0) for _ in range(3)]
        q = prox.Quadratic(inputs.vector(rng, p, 2.0, 8.0),
                           inputs.vector(rng, p, -1.0, 1.0))
        name = f"energy{p}-{len(wl.instances) // 4}"
        wl.instances.append(Instance(
            name, functools.partial(_solve_op, graph, inner, e.z, ws, q, p),
            functools.partial(_check_solve, e, ws, q,
                              functools.cache(functools.partial(ck.energy_minimum, e)))))
    return wl


def _solve_op(graph, inner, z, ws, q, p) -> dict:
    F = energy_function(graph, p)
    mn = sfm.minimize(F)
    mc = zoo.cut_minimize(inner, z)
    pr = prox.prox_minnorm(F, q, eps=1e-11)
    return {
        "minnorm": (mn.min_value, mn.minimal_minimizer, mn.maximal_minimizer),
        "maxflow": (mc.min_value, mc.minimal_minimizer, mc.maximal_minimizer),
        "bases": [lovasz.greedy_base(F, w) for w in ws],
        "values": [lovasz.lovasz_extension(F, w) for w in ws],
        "u": pr.u,
        "s": pr.s,
    }


def _check_solve(e, ws, q, reference, out) -> None:
    ref = reference()
    F_of = functools.partial(ck.energy_value, e)
    ck.check_minimizers(*out["minnorm"], ref, F_of)
    value, lo, hi = out["maxflow"]
    ck.expect(abs(value - ref[0]) <= ck.TOL * (1.0 + abs(ref[0])),
              f"cut_minimize value {value!r} != max-flow {ref[0]!r}")
    ck.expect((lo, hi) == ref[1:], "cut_minimize lattice extremes differ from max-flow")
    for w, base, val in zip(ws, out["bases"], out["values"]):
        ck.expect(ck.close(base, ck.greedy_base(F_of, w), 1e-12), "greedy base differs")
        ck.expect(abs(val - ck.energy_lovasz(e, w)) <= 1e-9 * (1.0 + abs(val)),
                  "Lovasz value differs from the closed form")
    check_prox_solution(out["u"], out["s"], q.a * (q.z - out["u"]), F_of, None,
                        functools.partial(ck.energy_margin, e))


def check_prox_solution(u, s, s_of_u, F_of, table, margin_of) -> None:
    """s = -psi'(u), s(V) = F(V), s in P(F), every upper level set of u tight."""
    ck.expect(ck.close(s, s_of_u, 1e-9), "s and -psi'(u) disagree")
    ck.check_base(s, F_of if table is None else table, len(u), 1e-6)
    if margin_of is not None:
        margin, err = margin_of(s)
        ck.expect(margin <= 1e-6 + err, f"s leaves P(F) by {margin:.3e}")
    ck.check_level_sets_tight(u, s, F_of, 1e-6)


# ---------------------------------------------------------------------------
# prox: quadratic and non-quadratic separable problems at p = 18..22
# ---------------------------------------------------------------------------

def cubic(a, z, b) -> prox.SeparableConvex:
    """psi'(w) = a (w - z) + b (w - z)^3, given by its derivative alone, so the
    package inverts it by its own root search."""
    return prox.SeparableConvex(len(a), deriv=lambda w: a * (w - z) + b * (w - z) ** 3)


def prox_workload(seed: int, root: str) -> Workload:
    rng = np.random.default_rng([seed, 3])
    wl = Workload([])
    for p in (18, 19, 20) * 3 + (22,):
        for kind in ("energy", "cover"):
            src = (inputs.energy(rng, p, 0.15, 0.5) if kind == "energy"
                   else inputs.cover(rng, p, 2 * p))
            wl.instances.append(_prox_instance(rng, f"{kind}{p}-{len(wl.instances)}", src))
    return wl


def _prox_instance(rng, name: str, src) -> Instance:
    p = src.p
    if isinstance(src, inputs.Energy):
        graph = zoo.Digraph(p + 2, src.digraph_arcs())
        build = functools.partial(energy_function, graph, p)
        table = functools.cache(functools.partial(ck.energy_table, src))
    else:
        system = zoo.CoverSystem(p, src.groups())
        build = functools.partial(zoo.cover_function, system)
        table = functools.cache(lambda: ck.cover_table(ck.cover_weights(src)))
    # weights well above the arc weights keep u near z, so most blocks of
    # the solution are single elements and the work per instance varies
    # little between seeds
    a = inputs.vector(rng, p, 4.0, 16.0)
    z = inputs.vector(rng, p, -1.0, 1.0)
    b = inputs.vector(rng, p, 0.25, 1.0)
    q = prox.Quadratic(a, z)
    psi = cubic(a, z, b)
    return Instance(name, functools.partial(_prox_op, build, q, psi),
                    functools.partial(_check_prox, table, q, psi))


def _prox_op(build, q, psi) -> dict:
    pr = prox.prox_minnorm(build(), q, eps=1e-11)
    return {
        "minnorm": (pr.u, pr.s),
        "decomposition": prox.prox_decomposition(build(), q),
        "homotopy": prox.prox_homotopy(build(), q),
        "homotopy_cubic": prox.prox_homotopy(build(), psi),
    }


def _check_prox(table, q, psi, out) -> None:
    tab = table()
    F_of = tab.__getitem__
    u, s = out["minnorm"]
    s_dec = out["decomposition"]
    u_hom = out["homotopy"]
    ck.expect(ck.close(s_dec, s, 1e-6), "decomposition and min-norm disagree")
    ck.expect(ck.close(u_hom, u, 1e-6), "homotopy and min-norm disagree")
    for uu, ss in ((u, s), (q.z - s_dec / q.a, s_dec), (u_hom, q.a * (q.z - u_hom))):
        check_prox_solution(uu, ss, q.a * (q.z - uu), F_of, tab, None)
    u_c = out["homotopy_cubic"]
    s_c = -psi.deriv(u_c)
    check_prox_solution(u_c, s_c, s_c, F_of, tab, None)


BUILDERS = {"exhaustive": exhaustive, "tables": tables, "solve": solve,
            "prox": prox_workload}
