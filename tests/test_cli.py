"""Command-line interface: parsing, reports, exit codes, determinism."""

import argparse
import importlib
import inspect
import json
import math
import pkgutil
import re
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

import submodopt
from submodopt import cli, core, sfm, transforms
from submodopt.cli import main
from submodopt.errors import SubmodoptError

from helpers import address_space_limit, check_certified_minimum

ROOT = Path(__file__).parent.parent
DATA = ROOT / "tests" / "data"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    doc = json.loads(out)
    return doc


def test_eval(capsys):
    doc = run_json(capsys, "eval", DATA / "f_or.json", "--w", "3,1")
    assert doc["results"]["value"] == 3.0
    assert doc["command"] == "eval"


def test_check(capsys):
    doc = run_json(capsys, "check", DATA / "f_or.json")
    r = doc["results"]
    assert r["submodular"]["holds"] and r["monotone"]["holds"]
    doc2 = run_json(capsys, "check", DATA / "bad_submodular.json")
    sub = doc2["results"]["submodular"]
    assert not sub["holds"]
    assert sub["witness"] == {"A": 0, "j": 0, "k": 1, "lhs": 1.0, "rhs": 3.0}
    doc3 = run_json(capsys, "check", DATA / "sym_cut2.json")
    assert doc3["results"]["symmetric"]["holds"]
    assert doc3["results"]["posimodular"]["holds"]


def check_minimize_report(path, r):
    """The report's fields satisfy the contract of sfm.minimize."""
    F = cli.build_function(json.loads(path.read_text()))
    x = None if r["certificate"] is None else np.array(r["certificate"])
    res = sfm.SfmResult(r["min_value"], core.subset_of(r["minimal_minimizer"]),
                        core.subset_of(r["maximal_minimizer"]), x, r["gap"])
    check_certified_minimum(F, res)


def test_minimize(capsys):
    doc = run_json(capsys, "minimize", DATA / "f_or.json")
    r = doc["results"]
    assert r["min_value"] == 0.0
    assert r["minimal_minimizer"] == [] and r["maximal_minimizer"] == []
    check_minimize_report(DATA / "f_or.json", r)
    # minimize stops at a certified answer; the projection converges
    F = cli.build_function(json.loads((DATA / "f_or.json").read_text()))
    x, _ = sfm.min_norm_point(F)
    assert sfm.certificate_gap(F, 0, x) <= 1e-9

    # a cut takes one max-flow: no certificate and a zero gap
    doc2 = run_json(capsys, "minimize", DATA / "sym_cut2.json")
    r2 = doc2["results"]
    assert r2["minimal_minimizer"] == [] and r2["maximal_minimizer"] == [0, 1]
    assert (r2["certificate"], r2["gap"]) == (None, 0.0)
    check_minimize_report(DATA / "sym_cut2.json", r2)

    # shifted cut: subtracting (2, 0) makes the full set the unique minimizer
    doc3 = run_json(capsys, "minimize", DATA / "shifted_cut.json")
    r3 = doc3["results"]
    assert r3["min_value"] == -2.0
    assert r3["maximal_minimizer"] == [0, 1]
    assert (r3["certificate"], r3["gap"]) == (None, 0.0)
    check_minimize_report(DATA / "shifted_cut.json", r3)


def test_greedy_and_conjugate(capsys):
    doc = run_json(capsys, "greedy", DATA / "f_or.json", "--w", "3,1")
    assert doc["results"]["base"] == [1.0, 0.0]
    assert doc["results"]["value"] == 3.0
    doc2 = run_json(capsys, "conjugate", DATA / "f_or.json", "--s", "2,0")
    assert doc2["results"] == {"argmax": [0], "value": 1.0}


def test_truncated_greedy_precondition(capsys):
    code, _, err = run(capsys, "greedy", DATA / "shifted_cut.json",
                       "--w", "1,1", "--truncated", "--verify")
    assert code == 3 and "non-decreasing" in err
    doc = run_json(capsys, "greedy", DATA / "cover3.json", "--w", "3,-1,2",
                   "--truncated", "--verify")
    assert doc["results"]["base"][1] == 0.0


def test_greedy_verify_checks_submodularity(capsys):
    # plain greedy needs a submodular spec: on any other its "base" is no
    # vertex of B(F); --truncated checks monotonicity instead (above)
    code, out, err = run(capsys, "greedy", DATA / "bad_submodular.json",
                         "--w", "1,2", "--verify")
    assert (code, out) == (3, "")
    assert err == ("error: spec is not submodular: witness "
                   "{'A': 0, 'j': 0, 'k': 1, 'lhs': 1.0, 'rhs': 3.0}\n")
    doc = run_json(capsys, "greedy", DATA / "bad_submodular.json", "--w", "1,2")
    assert doc["results"]["base"] == [3.0, 1.0]
    argv = ("greedy", DATA / "random_cut6.json", "--w", "6,5,4,3,2,1")
    verified = run_json(capsys, *argv, "--verify")
    assert verified["results"] == run_json(capsys, *argv)["results"]


def test_prox(capsys):
    doc = run_json(capsys, "prox", DATA / "f_or.json",
                   "--weights", "1,1", "--centers", "0,0", "--alpha=-0.6,0")
    r = doc["results"]
    assert r["u"] == pytest.approx([-0.5, -0.5], abs=1e-9)
    assert r["s"] == pytest.approx([0.5, 0.5], abs=1e-9)
    assert r["thresholds"][0]["minimal"] == [0, 1]
    assert r["thresholds"][1]["minimal"] == []
    for algo in ("decomposition", "homotopy"):
        doc2 = run_json(capsys, "prox", DATA / "f_or.json", "--algo", algo)
        assert doc2["results"]["u"] == pytest.approx([-0.5, -0.5], abs=1e-8)


def test_linesearch(capsys):
    doc = run_json(capsys, "linesearch", DATA / "f_or.json",
                   "--direction", "1,1")
    assert doc["results"]["lambda"] == pytest.approx(0.5, abs=1e-9)


def test_exit_codes(capsys, tmp_path):
    code, _, err = run(capsys, "eval", tmp_path / "missing.json", "--w", "1")
    assert code == 1 and "cannot read" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = run(capsys, "check", bad)
    assert code == 1 and "cannot parse" in err

    code, _, err = run(capsys, "eval", DATA / "f_or.json", "--w", "1,2,3")
    assert code == 1 and "entries" in err

    code, _, err = run(capsys, "check", DATA / "random_cut6.json",
                       "--max-exhaustive", "3")
    assert code == 2 and "cap" in err

    # the posimodularity scan covers 4**p pairs, so check refuses p = 11
    spec = tmp_path / "cut11.json"
    spec.write_text(json.dumps({"kind": "random", "p": 11, "family": "cut"}))
    code, out, err = run(capsys, "check", spec)
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.startswith("error: ") and "cap" in err
    assert run_json(capsys, "check", spec, "--max-exhaustive", "22")["results"]

    code, _, err = run(capsys, "linesearch", DATA / "f_or.json",
                       "--direction=-1,-1")
    assert code == 2 and "positive" in err

    code, _, err = run(capsys, "minimize", DATA / "bad_submodular.json",
                       "--verify")
    assert code == 3


@pytest.mark.parametrize("spec", [
    {"kind": "cut", "p": 2, "arcs": [[0, 1, math.nan], [1, 0, 1.0]]},
    {"kind": "flow", "n_nodes": 4, "sources": [0], "sinks": [2, 3],
     "arcs": [[0, 1, 1.0], [1, 2, math.nan], [1, 3, 1.0]]},
])
def test_non_finite_weights_exit_1(capsys, tmp_path, spec):
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(spec))  # json writes the bare token NaN
    code, out, err = run(capsys, "minimize", path, "--algo", "brute")
    assert code == 1 and out == "" and "not finite" in err


_EXPLICIT = {"kind": "explicit", "values": [0.0, 1.0, 1.0, 0.5]}


@pytest.mark.parametrize("spec", [
    {"kind": "explicit", "values": [0.0, math.nan, 1.0, 0.5]},
    {"kind": "explicit", "values": [0.0, 1.0, math.inf, 0.5]},
    {"kind": "cover", "p": 2, "groups": [{"members": [0, 1], "weight": math.nan}]},
    {"kind": "weighted_concave", "weights": [1.0, math.nan], "profile": "sqrt"},
    {"kind": "card_concave", "g": [0.0, 1.0, -math.inf]},
    {"kind": "logdet", "q": [[2.0, math.nan], [math.nan, 2.0]]},
    {"kind": "linear_matroid", "matrix": [[1.0, math.inf], [0.0, 1.0]]},
    {"kind": "transform", "op": "add_modular", "vector": [math.nan, 0.0],
     "inner": _EXPLICIT},
    {"kind": "transform", "op": "convolve_modular", "vector": [0.0, math.inf],
     "inner": _EXPLICIT},
    {"kind": "transform", "op": "scale", "factor": 1e400, "inner": _EXPLICIT},
    {"kind": "transform", "op": "scale", "factor": math.nan, "inner": _EXPLICIT},
])
def test_non_finite_numbers_exit_1(capsys, tmp_path, spec):
    # before, check reported NaN tables as submodular and exited 0
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(spec))
    for argv in (("check",), ("minimize", "--algo", "brute")):
        code, out, err = run(capsys, *argv[:1], path, *argv[1:])
        assert code == 1 and out == "" and "must be finite" in err


def test_non_finite_prox_weights_exit_1(capsys):
    for flag in ("--weights=1,nan,1,1,1,1", "--centers=0,0,inf,0,0,0"):
        code, out, err = run(capsys, "prox", DATA / "random_cut6.json", flag)
        assert code == 1 and out == "" and "must be finite" in err


def test_bad_tolerances_exit_1(capsys, tmp_path):
    # before, --tol nan passed every property check and skipped the --verify
    # precondition, --tol -1 reported equal sides as a violation, --tol inf
    # let the line search stop outside P(F), and --eps nan stalled the
    # solver with exit 2
    path = tmp_path / "or_and.json"
    path.write_text(json.dumps({"kind": "explicit", "values": [0, 0, 0, 1]}))
    for tol in ("nan", "-1", "inf"):
        for argv in (("check", path),
                     ("minimize", path, "--algo", "brute", "--verify"),
                     ("linesearch", DATA / "f_or.json", "--direction=1,2")):
            code, out, err = run(capsys, *argv, f"--tol={tol}")
            assert code == 1 and out == "" and err.count("\n") == 1
            assert err.startswith("error: tolerance must be finite and nonnegative")
    for eps in ("nan", "0", "-1", "inf"):
        code, out, err = run(capsys, "minimize", DATA / "random_cut6.json",
                             f"--eps={eps}")
        assert code == 1 and out == "" and err.count("\n") == 1
        assert err.startswith("error: eps must be finite and positive")


_COVER = {"kind": "cover", "p": 3, "groups": [
    {"members": [0, 1], "weight": 1.0}, {"members": [1, 2], "weight": 0.5},
    {"members": [2], "weight": 0.25}]}
_CUT = {"kind": "cut", "p": 3, "arcs": [[0, 1, 1.0], [1, 2, 0.5], [2, 0, 0.75]]}


@pytest.mark.parametrize("spec", [
    {"kind": "cover", "p": 2, "groups": [{"weight": 1.0}]},
    {"kind": "cover", "p": 2, "groups": [{"members": [0]}]},
    {"kind": "cover", "p": 2, "groups": [[[0], 1.0]]},
    {"kind": "cut", "p": 2, "arcs": 5},
    {"kind": "cut", "p": 2, "arcs": [[0, 1, "x"]]},
    {"kind": "cut", "p": None, "arcs": []},
    {"kind": "cover", "p": [3], "groups": []},
    {"kind": "cover", "p": 2, "groups": [{"members": 1, "weight": 1.0}]},
    {"kind": "cover", "p": 2, "groups": [{"members": [0], "weight": None}]},
    {"kind": "transform", "op": "scale", "factor": 2.0, "inner": "kind"},
    {"kind": "transform", "op": "sum", "inners": 3},
    {"kind": "transform", "op": "restrict", "subset": 1, "inner": _EXPLICIT},
    {"kind": "flow", "n_nodes": 3, "sources": 0, "sinks": [2],
     "arcs": [[0, 1, 1.0], [1, 2, 1.0]]},
    {"kind": "random", "p": 3, "family": 5},
    {"kind": "cut", "p": 1e400, "arcs": []},
])
def test_malformed_spec_fields_exit_1(capsys, tmp_path, spec):
    # an AttributeError, KeyError, OverflowError or TypeError while building
    # from the spec is an input error
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "minimize", path, "--algo", "brute")
    assert code == 1 and out == ""
    assert err.startswith("error: malformed spec") and err.count("\n") == 1


@pytest.mark.parametrize("op, fields, build", [
    ("sum", {"inners": [_COVER, _CUT]},
     lambda: transforms.add(cli.build_function(_COVER), cli.build_function(_CUT))),
    ("restrict", {"inner": _CUT, "subset": [0, 2]},
     lambda: transforms.restrict(cli.build_function(_CUT), 0b101)),
    ("contract", {"inner": _COVER, "subset": [1]},
     lambda: transforms.contract(cli.build_function(_COVER), 0b010)),
    ("partial_min", {"inner": _CUT, "w_set": [2]},
     lambda: transforms.partial_min(cli.build_function(_CUT), 0b100)),
    ("monotonize", {"inner": _CUT},
     lambda: transforms.monotonize(cli.build_function(_CUT))),
    ("scale", {"inner": {"kind": "transform", "op": "sum",
                         "inners": [_COVER, _CUT]}, "factor": 1.5},
     lambda: transforms.scale(transforms.add(cli.build_function(_COVER),
                                             cli.build_function(_CUT)), 1.5)),
])
def test_transform_specs_match_the_api(capsys, tmp_path, op, fields, build):
    path = tmp_path / f"{op}.json"
    path.write_text(json.dumps({"kind": "transform", "op": op, **fields}))
    doc = run_json(capsys, "explicit", path)
    assert doc["results"]["spec"]["values"] == core.to_explicit(build()).tolist()


@pytest.mark.parametrize("doc, argv, message", [
    ({"kind": "cut", "p": 2}, (), "missing required field 'arcs'"),
    ({"kind": "transform", "op": "restrict", "subset": [3], "inner": _EXPLICIT},
     (), "element 3 out of range"),
    ({"kind": "zigzag"}, (), "unknown spec kind"),
    ({"kind": "transform", "op": "twist", "inner": _EXPLICIT}, (),
     "unknown transform op"),
    ({"kind": "transform", "op": "sum", "inners": []}, (), "at least one"),
    ([0.0, 1.0], (), "must be a JSON object"),
    (_EXPLICIT, ("--w", "1,x"), "comma-separated list of numbers"),
    ({"kind": "cover", "p": 2, "groups": [{"members": [0.5], "weight": 1.0}]},
     (), "element 0.5 is not an integer"),
])
def test_spec_errors_exit_1(capsys, tmp_path, doc, argv, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "eval" if argv else "explicit", path, *argv)
    assert code == 1 and out == "" and message in err


@pytest.mark.parametrize("spec, message", [
    ({"kind": "card_concave", "g": [0, 1, 3]},
     "increments of g must be non-increasing"),
    ({"kind": "card_concave", "g": [1, 1, 1]}, "g(0) = 1.0, must be 0"),
    ({"kind": "logdet", "q": [[1.0, 2.0], [2.0, 1.0]]}, "Q is not positive definite"),
    ({"kind": "transform", "op": "scale", "factor": -1, "inner": _EXPLICIT},
     "scale factor must be nonnegative, got -1.0"),
    ({"kind": "weighted_concave", "weights": [1, 2], "profile": "cap",
      "cap": math.nan}, "cap value must be finite"),
    ({"kind": "cut", "p": 2, "arcs": [[0.5, 1, 1.0]]},
     "arc end 0.5 is not an integer"),
    ({"kind": "graphic_matroid", "n_vertices": 3, "edges": [[0, 1.5]]},
     "edge end 1.5 is not an integer"),
    ({"kind": "flow", "n_nodes": 3, "sources": [0], "sinks": [1.5],
      "arcs": [[0, 1, 1.0]]}, "sink 1.5 is not an integer"),
])
def test_invalid_inputs_exit_1(capsys, tmp_path, spec, message):
    # before, the first five exited 2, since their errors were package errors
    # too, and the last three exited 0 for another function: int() truncated
    # the node index
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "minimize", path, "--algo", "brute")
    assert code == 1 and out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize("spec, message", [
    ({"kind": "cut", "p": 2.5, "arcs": [[0, 1, 1.0]]}, "p 2.5 is not an integer"),
    ({"kind": "cover", "p": 2.5, "groups": [{"members": [0], "weight": 1.0}]},
     "p 2.5 is not an integer"),
    ({"kind": "flow", "n_nodes": 3.5, "sources": [0], "sinks": [1],
      "arcs": [[0, 1, 1.0]]}, "n_nodes 3.5 is not an integer"),
    ({"kind": "graphic_matroid", "n_vertices": 2.5, "edges": [[0, 1]]},
     "n_vertices 2.5 is not an integer"),
    ({"kind": "random", "p": 4.5}, "p 4.5 is not an integer"),
    ({"kind": "random", "p": 4, "seed": 1.5}, "seed 1.5 is not an integer"),
    ({"kind": "weighted_concave", "weights": [1, 2], "profile": "sqrt", "cap": -5},
     "the 'sqrt' profile takes no cap value, got -5"),
])
def test_non_integral_sizes_and_unused_caps_exit_1(capsys, tmp_path, spec, message):
    # before, each exited 0: int() truncated the size or seed, and a cap
    # given to another profile than cap went unread
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "explicit", path)
    assert code == 1 and out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize("spec, message", [
    ({"kind": "cover", "p": 2, "groups": [{"members": [0], "weight": "1"}]},
     "malformed spec: TypeError: cover weights must be numeric"),
    ({"kind": "cover", "p": 2, "groups": [{"members": [True], "weight": 1.0}]},
     "spec holds true; no field takes a boolean"),
    ({"kind": "explicit", "values": [0, "1", True, 1]},
     "spec holds true; no field takes a boolean"),
    ({"kind": "explicit", "values": [0, "1", 1, 1]},
     "malformed spec: TypeError: table values must be numeric"),
    ({"kind": "flow", "n_nodes": 3, "sources": [True], "sinks": [2],
      "arcs": [[0, 2, 1.0]]}, "spec holds true; no field takes a boolean"),
    ({"kind": "transform", "op": "add_modular", "vector": ["1", 2],
      "inner": _EXPLICIT}, "malformed spec: TypeError: vector must be numeric"),
    ({"kind": "transform", "op": "scale", "factor": "2", "inner": _EXPLICIT},
     "malformed spec: TypeError: scale factor must be numeric"),
    ({"kind": "logdet", "q": [[1.0, False], [False, 1.0]]},
     "spec holds false; no field takes a boolean"),
    # int() read "2" as 2, so this said "p 2 is not an integer"
    ({"kind": "cut", "p": "2", "arcs": []}, "malformed spec: TypeError: p must be numeric"),
    ({"kind": "random", "p": 4, "seed": "3"},
     "malformed spec: TypeError: seed must be numeric"),
])
def test_spec_numbers_must_be_json_numbers(capsys, tmp_path, spec, message):
    # before, each exited 0: numpy read "1" as 1.0 and true as 1
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "explicit", path)
    assert code == 1 and out == "" and err == f"error: {message}\n"


def test_whole_number_sizes_are_accepted(capsys, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"kind": "random", "p": 4.0, "seed": 3.0}))
    doc = run_json(capsys, "explicit", path)
    path.write_text(json.dumps({"kind": "random", "p": 4, "seed": 3}))
    assert run_json(capsys, "explicit", path)["results"] == doc["results"]


def test_no_error_class_is_both_an_input_and_a_computation_error():
    # main catches SubmodoptError (exit 2) before ValueError (exit 1), so a
    # class that were both would report a bad input as a failed computation
    for info in pkgutil.iter_modules(submodopt.__path__):
        module = importlib.import_module(f"submodopt.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            assert not (issubclass(cls, SubmodoptError)
                        and issubclass(cls, ValueError)), cls


def test_non_finite_alpha_exits_1(capsys):
    # before, --alpha nan exited 0 and wrote a bare NaN into the report
    for alpha in ("nan", "inf", "0,-inf"):
        code, out, err = run(capsys, "prox", DATA / "f_or.json", f"--alpha={alpha}")
        assert code == 1 and out == "" and err == "error: alpha must be finite\n"


@pytest.mark.parametrize("exc", [MemoryError("Unable to allocate 32.0 GiB"),
                                 RuntimeError("line one\nline two"),
                                 KeyError("k")])
def test_unexpected_errors_exit_2_with_one_line(capsys, monkeypatch, exc):
    def boom(F, args):
        raise exc

    monkeypatch.setattr(cli, "cmd_minimize", boom)
    code, out, err = run(capsys, "minimize", DATA / "f_or.json")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def run_quietly(capfd, tmp_path, spec, *argv):
    """Run main on a spec file; return the exit code, the captured file
    descriptors 1 and 2 (LAPACK writes to C stdout) and the warnings."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([*argv, str(path)])
    out, err = capfd.readouterr()
    return code, out, err, [str(w.message) for w in caught]


@pytest.mark.parametrize("value, message", [
    (1e300, "error: the Gram matrix of the corral overflows at major cycle 1\n"),
    (-1e300, "error: minimum-norm point stalled after 0 major cycles with gap nan\n")])
def test_overflow_in_min_norm_exits_2_with_one_line(capfd, tmp_path, value, message):
    # the overflow is refused before LAPACK, which prints to C stdout, and
    # it is a failed computation, not a bad input; prox projects onto B(F)
    # to the end, where minimize stops at the start vertex
    spec = {"kind": "explicit", "values": [0, value, 1, 1]}
    assert run_quietly(capfd, tmp_path, spec, "prox") == (2, "", message, [])


@pytest.mark.parametrize("command", ["minimize", "prox"])
def test_overflowing_start_vertex_exits_2_with_one_line(capfd, tmp_path, command):
    # the start vertex is (-inf, 1e308): its greedy step used to refuse the
    # weights as a bad input and exit 1
    spec = {"kind": "explicit", "values": [0, 1.5e308, 1e308, -1.5e308]}
    message = "error: the iterate overflows at major cycle 0\n"
    assert run_quietly(capfd, tmp_path, spec, command) == (2, "", message, [])


def test_minimize_certifies_the_start_vertex_before_any_overflow(capfd, tmp_path):
    # the start vertex (0, 1) leaves only element 0 open, whose minor is
    # minimized from its table: no Gram row overflows
    spec = {"kind": "explicit", "values": [0, 1e300, 1, 1]}
    code, out, err, caught = run_quietly(capfd, tmp_path, spec, "minimize")
    assert (code, err, caught) == (0, "", [])
    assert json.loads(out)["results"] == {
        "certificate": [0.0, 1.0], "gap": 0.0, "maximal_minimizer": [],
        "min_value": 0.0, "minimal_minimizer": []}


@pytest.mark.parametrize("argv, message", [
    (("conjugate", "--s=nan,1"), "error: s must be finite\n"),
    (("conjugate", "--s=inf,1"), "error: s must be finite\n"),
    (("linesearch", "--direction=nan,1"), "error: direction must be finite\n"),
    (("linesearch", "--direction=inf,1"), "error: direction must be finite\n"),
    (("linesearch", "--direction=1,1", "--s=nan,0"), "error: start must be finite\n"),
])
def test_non_finite_vectors_exit_1_with_one_line(capfd, tmp_path, argv, message):
    # before, conjugate printed a bare NaN or Infinity and exited 0, and
    # linesearch warned and exited 2 on a NaN and gave lambda 0.0 on an inf
    spec = json.loads((DATA / "f_or.json").read_text())
    assert run_quietly(capfd, tmp_path, spec, *argv) == (1, "", message, [])


def test_overflowing_cover_weight_minimizes_without_warnings(capfd, tmp_path):
    # by max-flow, and by min-norm when scaled by 1
    spec = {"kind": "cover", "p": 3, "groups": [{"members": [0, 1], "weight": 1e300},
                                                {"members": [2], "weight": 1.0}]}
    answer = {"maximal_minimizer": [], "min_value": 0.0, "minimal_minimizer": []}
    code, out, err, caught = run_quietly(capfd, tmp_path, spec, "minimize")
    assert (code, err, caught) == (0, "", [])
    assert json.loads(out)["results"] == {"certificate": None, "gap": 0.0, **answer}
    scaled = {"kind": "transform", "op": "scale", "factor": 1.0, "inner": spec}
    code, out, err, caught = run_quietly(capfd, tmp_path, scaled, "minimize")
    assert (code, err, caught) == (0, "", [])
    assert json.loads(out)["results"] == {
        "certificate": [1e300, 0.0, 1.0], "gap": 0.0, **answer}


def test_cover_with_a_huge_weight_by_its_table(capfd, tmp_path):
    # the table sums the weights that A covers, so F({2}) = 1 next to the
    # 1e300 of {0, 1} is not read as 0: brute force finds the empty set
    # alone, as the flow does, and check runs on the same table
    spec = {"kind": "cover", "p": 3, "groups": [{"members": [0, 1], "weight": 1e300},
                                                {"members": [2], "weight": 1.0}]}
    code, out, err, caught = run_quietly(capfd, tmp_path, spec, "explicit")
    assert (code, err, caught) == (0, "", [])
    assert json.loads(out)["results"]["spec"]["values"] == [
        0.0, 1e300, 1e300, 1e300, 1.0, 1e300, 1e300, 1e300]
    answer = {"certificate": None, "gap": 0.0, "maximal_minimizer": [],
              "min_value": 0.0, "minimal_minimizer": []}
    for verify in ((), ("--verify",)):
        code, out, err, caught = run_quietly(capfd, tmp_path, spec, "minimize", "--algo",
                                             "brute", *verify)
        assert (code, err, caught) == (0, "", [])
        assert json.loads(out)["results"] == answer
    code, out, err, caught = run_quietly(capfd, tmp_path, spec, "check")
    assert (code, err, caught) == (0, "", [])
    results = json.loads(out)["results"]
    assert [results[k]["holds"] for k in ("monotone", "posimodular", "submodular")] == [
        True, True, True]


_FLOW_1E308 = {"kind": "flow", "n_nodes": 3, "sources": [0], "sinks": [1, 2],
               "arcs": [[0, 1, 1e308], [0, 2, 1e308]]}
_CUT_1E308 = {"kind": "cut", "p": 3, "arcs": [[0, 1, 1e308], [0, 2, 1e308]]}


def test_flow_capacities_near_the_float_maximum(capfd, tmp_path):
    # two arcs of 1e308 out of one source: no arc of the max-flow may carry
    # their sum, which overflows, so the spec is valid input; only the value
    # F({1, 2}) = 2e308 overflows, and a table that holds it is a failed
    # computation, where explicit printed Infinity and brute exited 0
    spec = _FLOW_1E308
    message = "error: F at mask 3 is inf, not a finite value\n"
    assert run_quietly(capfd, tmp_path, spec, "explicit") == (2, "", message, [])
    assert run_quietly(capfd, tmp_path, spec, "minimize", "--algo", "brute") == (
        2, "", message, [])
    # min-norm meets the infinite value at its start vertex: a failed
    # computation, not an input error
    assert run_quietly(capfd, tmp_path, spec, "minimize") == (
        2, "", "error: the iterate overflows at major cycle 0\n", [])


@pytest.mark.parametrize("spec, argv, message", [
    (_CUT_1E308, ("check",), "F at mask 1 is inf, not a finite value"),
    (_CUT_1E308, ("explicit",), "F at mask 1 is inf, not a finite value"),
    (_CUT_1E308, ("minimize", "--algo", "brute"), "F at mask 1 is inf, not a finite value"),
    (_CUT_1E308, ("eval", "--w=1,0,0"), "the eval report holds a value that is not finite"),
    (_CUT_1E308, ("greedy", "--w=1,0,0"), "the greedy report holds a value that is not finite"),
    (_CUT_1E308, ("prox",), "the weights of the start vertex overflow"),
    ({"kind": "transform", "op": "scale", "factor": 1.0, "inner": _CUT_1E308},
     ("minimize",), "the weights of the start vertex overflow"),
    (_FLOW_1E308, ("check",), "F at mask 3 is inf, not a finite value"),
    (_FLOW_1E308, ("eval", "--w=1,0"), "the eval report holds a value that is not finite"),
    (_FLOW_1E308, ("greedy", "--w=1,0"), "the greedy report holds a value that is not finite"),
])
def test_overflowing_values_exit_2_with_one_line(capfd, tmp_path, spec, argv, message):
    # F({0}) of the cut is 2e308: before, check warned and exited 1, explicit
    # printed Infinity, eval NaN and greedy both, brute read F(V) = 0
    # beside inf and exited 0 with the maximal minimizer [1, 2], and
    # min-norm refused the singleton weights of its start as an input
    assert run_quietly(capfd, tmp_path, spec, *argv) == (2, "", f"error: {message}\n", [])


@pytest.mark.parametrize("algo, message", [
    ("minnorm", "the iterate overflows at major cycle 0"),
    ("decomposition", "F(V) = inf of a reduced problem is not finite"),
    ("homotopy", "the iterate overflows at major cycle 0"),
])
def test_overflowing_flow_prox_exits_2(capfd, tmp_path, algo, message):
    # F(V) = F({1, 2}) = 2e308: the decomposition's equalized start read it
    # and exited 1, refusing the shift as a bad input to add_modular
    assert run_quietly(capfd, tmp_path, _FLOW_1E308, "prox", "--algo", algo) == (
        2, "", f"error: {message}\n", [])


@pytest.mark.parametrize("algo", ["decomposition", "homotopy"])
def test_overflowing_cut_prox_by_max_flow(capfd, tmp_path, algo):
    # F(V) = 0 and every terminal capacity is 0: no value or capacity that
    # the recursive routes read overflows, though F({0}) does
    code, out, err, caught = run_quietly(capfd, tmp_path, _CUT_1E308, "prox",
                                         "--algo", algo)
    assert (code, err, caught) == (0, "", [])
    assert json.loads(out)["results"] == {"s": [0.0] * 3, "u": [0.0] * 3}


def test_overflowing_cut_minimizes_by_max_flow(capfd, tmp_path):
    # the max-flow reads no overflowing value: F(V) = 0 is the minimum
    code, out, err, caught = run_quietly(capfd, tmp_path, _CUT_1E308, "minimize")
    assert (code, err, caught) == (0, "", [])
    assert json.loads(out)["results"] == {"certificate": None, "gap": 0.0, **dict(
        maximal_minimizer=[0, 1, 2], min_value=0.0, minimal_minimizer=[])}


def test_linalg_error_is_a_computation_error(capsys, monkeypatch):
    # numpy's LinAlgError subclasses ValueError, yet it is no input error
    def fail(M):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(sfm, "_affine_minimizer", fail)
    code, out, err = run(capsys, "prox", DATA / "random_cut6.json")
    assert (code, out, err) == (2, "", "error: LinAlgError: SVD did not converge\n")


def test_flow_spec_with_10_to_the_8_nodes(capsys, tmp_path):
    # n_nodes only bounds the node indices and sizes no allocation
    spec = {"kind": "flow", "n_nodes": 10 ** 8, "sources": [0], "sinks": [1, 2],
            "arcs": [[0, 1, 1.0], [0, 2, 2.0]]}
    path = tmp_path / "flow.json"
    path.write_text(json.dumps(spec))
    with address_space_limit():
        r = run_json(capsys, "minimize", path)["results"]
    spec["n_nodes"] = 3
    path.write_text(json.dumps(spec))
    assert run_json(capsys, "minimize", path)["results"] == r


def test_add_modular_above_the_cap(capsys, tmp_path):
    # the modular shift of a p=32 spec must not allocate a 2**32 table
    spec = {"kind": "transform", "op": "add_modular",
            "vector": [(-1.0) ** k * (k % 5) / 4.0 for k in range(32)],
            "inner": {"kind": "random", "p": 32, "family": "cover", "seed": 3}}
    path = tmp_path / "shifted32.json"
    path.write_text(json.dumps(spec))
    with address_space_limit():
        r = run_json(capsys, "minimize", path)["results"]
    F = cli.build_function(spec)
    assert r["min_value"] == pytest.approx(
        F(core.subset_of(r["maximal_minimizer"])), abs=1e-9)
    assert r["min_value"] <= min(0.0, F((1 << 32) - 1)) + 1e-9


def test_reports_deterministic(capsys):
    docs = []
    for _ in range(2):
        docs.append(run_json(capsys, "minimize", DATA / "random_cut6.json",
                             "--algo", "brute"))
    a, b = docs
    a.pop("timing"), b.pop("timing")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def count_builds(monkeypatch) -> list:
    """Record the p of every outermost ``SetFunction.tabulate`` call.

    Only outermost builds count: a transform's builder tabulates its input.
    An explicit function's stored table is not a build.
    """
    builds = []
    depth = [0]
    tabulate = core.SetFunction.tabulate

    def counted(F, cap=core.EXHAUSTIVE_CAP):
        if depth[0] == 0:
            builds.append(F.p)
        depth[0] += 1
        try:
            return tabulate(F, cap)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(core.SetFunction, "tabulate", counted)
    return builds


def test_verified_brute_minimize_tabulates_once(capsys, monkeypatch):
    plain = run_json(capsys, "minimize", DATA / "random_cut6.json", "--algo", "brute")
    builds = count_builds(monkeypatch)
    verified = run_json(capsys, "minimize", DATA / "random_cut6.json",
                        "--algo", "brute", "--verify")
    assert builds == [6]
    plain.pop("timing"), verified.pop("timing")
    assert json.dumps(plain, sort_keys=True) == json.dumps(verified, sort_keys=True)


def test_check_tabulates_once_and_caps_before_any_scan(capsys, monkeypatch,
                                                       tmp_path):
    builds = count_builds(monkeypatch)
    for name, p in (("logdet3", 3), ("random_cut6", 6), ("flow_bottleneck", 2)):
        spec = json.loads((DATA / f"{name}.json").read_text())
        F = cli.build_function(spec)
        expected = {}
        for prop, checker in (("submodular", core.is_submodular),
                              ("monotone", core.is_monotone),
                              ("symmetric", core.is_symmetric),
                              ("posimodular", core.is_posimodular)):
            rep = checker(F)
            expected[prop] = {"holds": rep.holds, "witness": rep.witness}
        builds.clear()
        doc = run_json(capsys, "check", DATA / f"{name}.json")
        assert builds == [p]
        assert json.dumps(doc["results"], sort_keys=True) == json.dumps(
            expected, sort_keys=True)

    # p = 11 is within the table cap but not within posimodularity's 2p
    spec = tmp_path / "cover11.json"
    spec.write_text(json.dumps({"kind": "cover", "p": 11, "groups": [
        {"members": [k, (k + 1) % 11], "weight": 1.0} for k in range(11)]}))
    builds.clear()
    code, out, err = run(capsys, "check", spec)
    assert code == 2 and out == "" and "2**22" in err
    assert builds == []


def test_explicit_round_trip(capsys, tmp_path):
    for name in ("sym_cut2", "cover3", "card_sqrt4", "flow_bottleneck",
                 "triangle_matroid", "shifted_cut"):
        doc = run_json(capsys, "explicit", DATA / f"{name}.json")
        redumped = tmp_path / f"{name}_explicit.json"
        redumped.write_text(json.dumps(doc["results"]["spec"]))
        orig = run_json(capsys, "minimize", DATA / f"{name}.json",
                        "--algo", "brute")
        again = run_json(capsys, "minimize", redumped, "--algo", "brute")
        assert orig["results"] == again["results"]


def test_minnorm_brute_agree_on_bundled_specs(capsys, tmp_path):
    # the default route, max-flow on the cuts and covers, and min-norm on
    # every spec scaled by 1, which keeps its values but no closed structure
    for name in ("f_or", "sym_cut2", "path3", "cover3", "card_sqrt4",
                 "shifted_cut", "logdet3", "flow_bottleneck",
                 "triangle_matroid", "random_cut6"):
        spec = json.loads((DATA / f"{name}.json").read_text())
        scaled = tmp_path / f"{name}_scaled.json"
        scaled.write_text(json.dumps({"kind": "transform", "op": "scale",
                                      "factor": 1.0, "inner": spec}))
        brute = run_json(capsys, "minimize", DATA / f"{name}.json",
                         "--algo", "brute")["results"]
        for r in (run_json(capsys, "minimize", DATA / f"{name}.json")["results"],
                  run_json(capsys, "minimize", scaled)["results"]):
            assert math.isclose(brute["min_value"], r["min_value"],
                                rel_tol=0.0, abs_tol=1e-9), name
        assert r["certificate"] is not None, name


def test_random_seed_flag(capsys, tmp_path):
    spec = tmp_path / "rand.json"
    spec.write_text('{"kind": "random", "family": "cover", "p": 5}')
    a = run_json(capsys, "explicit", spec, "--seed", "3")
    b = run_json(capsys, "explicit", spec, "--seed", "3")
    c = run_json(capsys, "explicit", spec, "--seed", "4")
    assert a["results"] == b["results"]
    assert a["results"] != c["results"]


# the options of each command besides spec and --seed, which every command
# takes: 44 in all
OPTIONS = {
    "check": ["--tol", "--max-exhaustive"],
    "minimize": ["--tol", "--eps", "--max-exhaustive", "--verify", "--algo"],
    "eval": ["--w"],
    "greedy": ["--tol", "--max-exhaustive", "--verify", "--w", "--truncated"],
    "conjugate": ["--max-exhaustive", "--s"],
    "prox": ["--tol", "--eps", "--max-exhaustive", "--verify", "--weights",
             "--centers", "--algo", "--alpha"],
    "linesearch": ["--tol", "--max-exhaustive", "--direction", "--s"],
    "explicit": ["--max-exhaustive"],
}


@pytest.mark.parametrize("command", OPTIONS)
def test_help_lists_exactly_the_options_of_the_command(capsys, command):
    assert list(cli.COMMANDS) == list(OPTIONS)
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    out, err = capsys.readouterr()
    assert exc.value.code == 0 and err == ""
    listed = re.findall(r"^  (spec|-h, --help|--[a-z-]+)", out, re.M)
    assert listed == ["spec", "-h, --help", "--seed", *OPTIONS[command]]


def test_help_and_version_exit_0(capsys):
    for argv in (["--help"], ["--version"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert out.endswith(f"\n{submodopt.__version__}\n") and err == ""
    # a run builds only its own command's subparser; the help lists them all
    assert "{" + ",".join(cli.COMMANDS) + "}" in out
    assert re.findall(r"^    ([a-z]+) ", out, re.M) == list(cli.COMMANDS)


F_OR = str(DATA / "f_or.json")


@pytest.mark.parametrize("argv, message", [
    (["explicit", F_OR, "--verify"],
     "submodopt explicit: unrecognized arguments: --verify"),
    (["eval", F_OR, "--w", "3,1", "--tol", "1"],
     "submodopt eval: unrecognized arguments: --tol 1"),
    (["check", F_OR, "--eps", "1e-9"],
     "submodopt check: unrecognized arguments: --eps 1e-9"),
    (["eval", F_OR], "submodopt eval: the following arguments are required: --w"),
    (["minimize", F_OR, "--eps", "abc"],
     "submodopt minimize: argument --eps: invalid float value: 'abc'"),
    (["frobnicate", F_OR],
     "submodopt: argument command: invalid choice: 'frobnicate'"),
    ([], "submodopt: the following arguments are required: command"),
    # a flag before the command was read as a bad command name: "invalid
    # choice: '3'"
    (["--seed", "3", "check", F_OR],
     "submodopt: option --seed must come after the command"),
    (["--tol=1e-6", "check", F_OR],
     "submodopt: option --tol must come after the command"),
    (["-x", "check", F_OR], "submodopt: option -x must come after the command"),
    # no route is named minnorm: min-norm does not run on cuts and covers
    (["minimize", F_OR, "--algo", "minnorm"],
     "submodopt minimize: argument --algo: invalid choice: 'minnorm' "
     "(choose from 'auto', 'brute')"),
])
def test_usage_errors_exit_1_with_one_line(capsys, argv, message):
    # exit 2 means a failed computation, so a usage error must not take it
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_readme_example_reports_are_unchanged(capsys, monkeypatch):
    # readme_reports.json holds each README example's report with its
    # timing field removed
    expected = json.loads((DATA / "readme_reports.json").read_text())
    examples = [line for line in (ROOT / "README.md").read_text().splitlines()
                if line.startswith("submodopt ")]
    assert examples == list(expected)
    monkeypatch.chdir(ROOT)
    for line in examples:
        code, out, err = run(capsys, *shlex.split(line)[1:])
        assert code == 0, err
        assert re.sub(r'"timing": [^,]*, ', "", out) == expected[line], line


def readme_examples() -> list:
    return [shlex.split(line)[1:]
            for line in (ROOT / "README.md").read_text().splitlines()
            if line.startswith("submodopt ")]


@pytest.mark.parametrize("argv", [
    *readme_examples(),
    ["check", "spec.json", "--tol", "1e-6", "--max-exhaustive", "10", "--seed", "2"],
    ["minimize", "spec.json", "--verify", "--algo", "brute"],
    ["minimize", "spec.json", "--eps", "1e-7", "--tol", "0"],
    ["eval", "spec.json", "--w=-3,1", "--seed", "5"],
    ["greedy", "spec.json", "--w", "1,2", "--verify", "--tol", "1e-8"],
    ["greedy", "spec.json", "--w", "1,2", "--truncated", "--verify", "--max-exhaustive", "4"],
    ["conjugate", "spec.json", "--s", "2,0", "--max-exhaustive", "5"],
    ["prox", "spec.json", "--algo", "homotopy", "--alpha=-0.6,0"],
    ["prox", "spec.json", "--algo", "decomposition", "--weights", "1,2", "--centers=-1,0",
     "--verify", "--eps", "1e-8", "--tol", "1e-7", "--max-exhaustive", "3"],
    ["linesearch", "spec.json", "--direction", "1,1", "--s", "0,0", "--tol", "1e-8"],
    ["explicit", "spec.json", "--max-exhaustive", "4", "--seed", "7"],
], ids=" ".join)
def test_command_parser_parses_as_the_full_parser(argv):
    assert vars(cli.make_parser(argv[0]).parse_args(argv)) == vars(
        cli.make_parser().parse_args(argv))


@pytest.mark.parametrize("argv, built", [
    (["conjugate", F_OR, "--s", "2,0"], ["conjugate"]),
    (["frobnicate", F_OR], list(cli.COMMANDS)),
    (["--help"], list(cli.COMMANDS)),
    (["--version"], list(cli.COMMANDS)),
    ([], list(cli.COMMANDS)),
])
def test_main_builds_only_the_subparser_of_its_command(capsys, monkeypatch,
                                                        argv, built):
    names = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        names.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    try:
        main(argv)
    except SystemExit:  # --help and --version
        pass
    assert names == built


def test_explicit_report_matches_boxed_scalars_byte_for_byte(capsys, tmp_path):
    # json writes a numpy float64 with float.__repr__, so reporting
    # table.tolist() prints the same bytes as the boxed list(table)
    values = [0.0, -0.0, 1e-300, 0.1, 2.5e17, 1.0 / 3.0, -7.25, 1e22]
    spec = tmp_path / "odd.json"
    spec.write_text(json.dumps({"kind": "explicit", "values": values}))
    code, out, err = run(capsys, "explicit", spec)
    assert code == 0, err
    table = core.to_explicit(core.explicit_function(values))
    boxed = list(table)
    assert all(type(v) is np.float64 for v in boxed)
    doc = json.loads(out)
    doc["results"] = {"spec": {"kind": "explicit", "values": boxed}}
    assert out == json.dumps(doc, sort_keys=True) + "\n"
    assert "[0.0, -0.0, 1e-300, 0.1, 2.5e+17, 0.3333333333333333, -7.25, 1e+22]" in out
