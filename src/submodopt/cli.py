"""Command-line front end.

Function specs are JSON documents (one object per file); reports are
single-line JSON objects on stdout with sorted keys, so identical
invocations produce byte-identical output apart from the timing field.
Log and error text goes to stderr.

Exit codes: 0 ok, 1 input or parse error (a ``ValueError``), 2 numerical or
cap error (a ``SubmodoptError`` or numpy's ``LinAlgError``), out of memory or
any other failure, 3 precondition violation detected by --verify.  A usage
error (missing, unknown or mistyped flag) exits 1.  Every failure is one
``error:`` line on stderr, never a traceback.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

import numpy as np

from . import __version__, core, lovasz, prox, sfm, transforms, zoo
from .errors import SubmodoptError


def _need(obj: dict, key: str):
    if key not in obj:
        raise ValueError(f"spec is missing required field {key!r}")
    return obj[key]


def _need_int(obj: dict, key: str) -> int:
    return core.check_integer(_need(obj, key), key)


def _masks_from_indices(lists, p: int) -> list[int]:
    """The bitmask of each list of element indices, all checked in one call."""
    lists = [list(indices) for indices in lists]
    flat = iter(core.check_indices([k for ks in lists for k in ks], p,
                                   "element").tolist())
    return [core.subset_of(next(flat) for _ in ks) for ks in lists]


def _mask_from_indices(indices, p: int) -> int:
    return _masks_from_indices([indices], p)[0]


def build_function(spec: dict, seed: int = 0) -> core.SetFunction:
    """Instantiate a SetFunction from a parsed spec document."""
    kind = _need(spec, "kind")
    if kind == "explicit":
        return core.explicit_function(_need(spec, "values"))
    if kind == "cut":
        g = zoo.Digraph(p=_need_int(spec, "p"),
                        arcs=[tuple(a) for a in _need(spec, "arcs")])
        return zoo.cut_function(g)
    if kind == "cover":
        p = _need_int(spec, "p")
        groups = _need(spec, "groups")
        masks = _masks_from_indices([g["members"] for g in groups], p)
        groups = [(m, float(g["weight"])) for m, g in zip(masks, groups)]
        return zoo.cover_function(zoo.CoverSystem(p=p, groups=groups))
    if kind == "card_concave":
        return zoo.concave_cardinality(_need(spec, "g"))
    if kind == "weighted_concave":
        return zoo.weighted_concave(_need(spec, "weights"), _need(spec, "profile"),
                                    spec.get("cap"))
    if kind == "logdet":
        return zoo.logdet_function(np.asarray(_need(spec, "q"), dtype=np.float64))
    if kind == "flow":
        net = zoo.FlowNetwork(n_nodes=_need_int(spec, "n_nodes"),
                              sources=_need(spec, "sources"),
                              sinks=_need(spec, "sinks"),
                              arcs=[tuple(a) for a in _need(spec, "arcs")])
        return zoo.flow_function(net)
    if kind == "graphic_matroid":
        return zoo.graphic_matroid_rank(_need_int(spec, "n_vertices"),
                                        [tuple(e) for e in _need(spec, "edges")])
    if kind == "linear_matroid":
        return zoo.linear_matroid_rank(np.asarray(_need(spec, "matrix"),
                                                  dtype=np.float64),
                                       spec.get("tol"))
    if kind == "random":
        return zoo.random_submodular(core.check_integer(spec.get("seed", seed), "seed"),
                                     _need_int(spec, "p"), spec.get("family", "cut"))
    if kind == "transform":
        return _build_transform(spec, seed)
    raise ValueError(f"unknown spec kind {kind!r}")


def _build_transform(spec: dict, seed: int) -> core.SetFunction:
    op = _need(spec, "op")
    if op == "sum":
        inners = [build_function(s, seed) for s in _need(spec, "inners")]
        if len(inners) < 1:
            raise ValueError("sum needs at least one inner spec")
        out = inners[0]
        for g in inners[1:]:
            out = transforms.add(out, g)
        return out
    inner = build_function(_need(spec, "inner"), seed)
    if op == "restrict":
        return transforms.restrict(inner, _mask_from_indices(_need(spec, "subset"),
                                                             inner.p))
    if op == "contract":
        return transforms.contract(inner, _mask_from_indices(_need(spec, "subset"),
                                                             inner.p))
    if op == "partial_min":
        return transforms.partial_min(inner, _mask_from_indices(_need(spec, "w_set"),
                                                                inner.p))
    if op == "monotonize":
        return transforms.monotonize(inner)
    if op == "convolve_modular":
        return transforms.convolve_modular(inner, _need(spec, "vector"))
    if op == "add_modular":
        return transforms.add_modular(inner, _need(spec, "vector"))
    if op == "scale":
        return transforms.scale(inner, float(_need(spec, "factor")))
    raise ValueError(f"unknown transform op {op!r}")


def _load_spec(path: str) -> dict:
    try:
        with open(path) as fh:
            text = fh.read()
        spec = json.loads(text)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ValueError(f"cannot parse {path}: {exc}")
    if not isinstance(spec, dict):
        raise ValueError("spec document must be a JSON object")
    return spec


def _digest(spec: dict) -> str:
    canon = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _parse_vector(text: str, p: int, flag: str) -> np.ndarray:
    try:
        vec = np.array([float(x) for x in text.split(",")], dtype=np.float64)
    except ValueError:
        raise ValueError(f"{flag} must be a comma-separated list of numbers")
    if vec.shape != (p,):
        raise ValueError(f"{flag} has {vec.shape[0]} entries, expected {p}")
    return vec


def _report(command: str, spec: dict, results: dict, started: float) -> None:
    doc = {
        "command": command,
        "inputs": _digest(spec),
        "results": results,
        "timing": round(time.perf_counter() - started, 6),
        "version": __version__,
    }
    sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")


def _verify_submodular(F, args) -> None:
    if not args.verify:
        return
    rep = core.is_submodular(F, tol=args.tol, cap=args.max_exhaustive)
    if not rep.holds:
        raise PreconditionFailed(f"spec is not submodular: witness {rep.witness}")


class PreconditionFailed(SubmodoptError):
    pass


def cmd_check(F, args) -> dict:
    # every cap before any work: p above the cap reports the table's cap,
    # p up to it but 2p above it posimodularity's; then one table for all
    core.check_cap(F.p, args.max_exhaustive)
    core.check_cap(2 * F.p, args.max_exhaustive)
    F = core.ExplicitFunction(core.to_explicit(F, cap=args.max_exhaustive))
    results = {}
    for name, checker in (("submodular", core.is_submodular),
                          ("monotone", core.is_monotone),
                          ("symmetric", core.is_symmetric),
                          ("posimodular", core.is_posimodular)):
        rep = checker(F, tol=args.tol, cap=args.max_exhaustive)
        results[name] = {"holds": rep.holds, "witness": rep.witness}
    return results


def cmd_minimize(F, args) -> dict:
    if args.verify and args.algo == "brute":  # one table for the check and the scan
        F = core.ExplicitFunction(core.to_explicit(F, cap=args.max_exhaustive))
    _verify_submodular(F, args)
    res = sfm.minimize(F, backend=args.algo, eps=args.eps, cap=args.max_exhaustive)
    return {
        "min_value": res.min_value,
        "minimal_minimizer": core.elements_of(res.minimal_minimizer),
        "maximal_minimizer": core.elements_of(res.maximal_minimizer),
        "certificate": None if res.certificate is None else list(res.certificate),
        "gap": res.gap,
    }


def cmd_eval(F, args) -> dict:
    w = _parse_vector(args.w, F.p, "--w")
    return {"value": lovasz.lovasz_extension(F, w)}


def cmd_greedy(F, args) -> dict:
    w = _parse_vector(args.w, F.p, "--w")
    if args.truncated:
        if args.verify:
            rep = core.is_monotone(F, tol=args.tol, cap=args.max_exhaustive)
            if not rep.holds:
                raise PreconditionFailed(
                    f"truncated greedy needs a non-decreasing spec: {rep.witness}")
        s = lovasz.truncated_greedy(F, w)
    else:
        s = lovasz.greedy_base(F, w)
    return {"base": list(s), "value": float(np.dot(w, s)),
            "truncated": bool(args.truncated)}


def cmd_conjugate(F, args) -> dict:
    s = _parse_vector(args.s, F.p, "--s")
    value, arg = lovasz.conjugate(F, s, cap=args.max_exhaustive)
    return {"value": value, "argmax": core.elements_of(arg)}


def cmd_prox(F, args) -> dict:
    _verify_submodular(F, args)
    a = (_parse_vector(args.weights, F.p, "--weights")
         if args.weights else np.ones(F.p))
    z = (_parse_vector(args.centers, F.p, "--centers")
         if args.centers else np.zeros(F.p))
    quad = prox.Quadratic(a, z)
    if args.algo == "minnorm":
        pr = prox.prox_minnorm(F, quad, eps=args.eps)
        u, s = pr.u, pr.s
        extra = {"primal_value": pr.primal_value, "dual_value": pr.dual_value,
                 "gap": pr.gap}
    elif args.algo == "decomposition":
        s = prox.prox_decomposition(F, quad, eps=args.eps)
        u = z - s / a
        extra = {}
    else:
        u = prox.prox_homotopy(F, quad, eps=args.eps)
        s = a * (z - u)
        extra = {}
    results = {"u": list(u), "s": list(s), **extra}
    if args.alpha:
        thresholds = []
        for text in args.alpha.split(","):
            alpha = float(text)
            lo, hi = prox.prox_threshold_sets(u, alpha)
            thresholds.append({"alpha": alpha,
                               "minimal": core.elements_of(lo),
                               "maximal": core.elements_of(hi)})
        results["thresholds"] = thresholds
    return results


def cmd_linesearch(F, args) -> dict:
    t = _parse_vector(args.direction, F.p, "--direction")
    s0 = (_parse_vector(args.s, F.p, "--s") if args.s else np.zeros(F.p))
    lam = prox.line_search_P(F, s0, t, tol=args.tol, cap=args.max_exhaustive)
    return {"lambda": lam}


def cmd_explicit(F, args) -> dict:
    table = core.to_explicit(F, cap=args.max_exhaustive)
    return {"spec": {"kind": "explicit", "values": list(table)}}


class _Parser(argparse.ArgumentParser):
    """Raises ValueError (exit 1) on a usage error, named by the parser's prog."""

    def parse_known_args(self, args=None, namespace=None):
        args, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments: " + " ".join(extras))
        return args, extras

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


_TOL = ("--tol", {"type": float, "default": 1e-9,
                  "help": "additive tolerance for checks and memberships"})
_EPS = ("--eps", {"type": float, "default": 1e-9,
                  "help": "solver convergence tolerance"})
_CAP = ("--max-exhaustive", {"type": int, "default": core.EXHAUSTIVE_CAP,
                             "help": "cap on p for 2**p enumerations"})
_VERIFY = ("--verify", {"action": "store_true",
                        "help": "check preconditions (exponential) before solving"})
_W = ("--w", {"required": True, "help": "comma-separated weight vector"})

# command -> (help, the options its handler reads).  Every command also takes
# the spec path and --seed, which main reads.  main looks the handler
# cmd_<command> up when it runs, so a handler patched into the module runs.
COMMANDS = {
    "check": ("run the exhaustive property checks", (_TOL, _CAP)),
    "minimize": ("minimize the function", (
        _TOL, _EPS, _CAP, _VERIFY,
        ("--algo", {"choices": ("minnorm", "brute"), "default": "minnorm"}))),
    "eval": ("evaluate the Lovász extension", (_W,)),
    "greedy": ("greedy base for a weight vector", (
        _TOL, _CAP, _VERIFY, _W,
        ("--truncated", {"action": "store_true",
                         "help": "positive-part variant over P(F) (needs monotone F)"}))),
    "conjugate": ("discrete conjugate at a vector", (
        _CAP, ("--s", {"required": True, "help": "comma-separated vector"}))),
    "prox": ("separable quadratic prox solve", (
        _TOL, _EPS, _CAP, _VERIFY,
        ("--weights", {"help": "quadratic weights a (default ones)"}),
        ("--centers", {"help": "quadratic centers z (default zeros)"}),
        ("--algo", {"choices": ("minnorm", "decomposition", "homotopy"),
                    "default": "minnorm"}),
        ("--alpha", {"help": "comma-separated thresholds to report"}))),
    "linesearch": ("max step inside P(F) along a direction", (
        _TOL, _CAP,
        ("--direction", {"required": True, "help": "comma-separated direction"}),
        ("--s", {"help": "start point in P(F), default zero"}))),
    "explicit": ("dump the function as an explicit spec", (_CAP,)),
}


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="submodopt",
        description="Analyze and optimize submodular set-functions from spec files.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, options) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("spec", help="path to a JSON function-spec file")
        sp.add_argument("--seed", type=int, default=0,
                        help="seed for 'random' spec kinds")
        for flag, kwargs in options:
            sp.add_argument(flag, **kwargs)
    return parser


def _fail(message: str, code: int) -> int:
    """Report a failure as one ``error:`` line on stderr and return its exit code."""
    print("error: " + " ".join(message.split()), file=sys.stderr)
    return code


def main(argv=None) -> int:
    try:
        args = make_parser().parse_args(argv)
        started = time.perf_counter()
        spec = _load_spec(args.spec)
        try:
            F = build_function(spec, args.seed)
        except (AttributeError, KeyError, OverflowError, TypeError) as exc:
            # a missing, mistyped or unrepresentable nested field
            raise ValueError(f"malformed spec: {type(exc).__name__}: {exc}")
        results = globals()["cmd_" + args.command](F, args)
        _report(args.command, spec, results, started)
    except PreconditionFailed as exc:
        return _fail(str(exc), 3)
    except SubmodoptError as exc:  # cap, convergence and other numerical errors
        return _fail(str(exc), 2)
    except np.linalg.LinAlgError as exc:  # a ValueError, but no input error
        return _fail(f"LinAlgError: {exc}", 2)
    except ValueError as exc:
        return _fail(str(exc), 1)
    except Exception as exc:  # the exit-code contract admits no traceback
        return _fail(f"{type(exc).__name__}: {exc}", 2)
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
