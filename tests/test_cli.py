"""Command-line interface: parsing, reports, exit codes, determinism."""

import json
import math
from pathlib import Path

import pytest

from submodopt import cli, core
from submodopt.cli import main

from helpers import address_space_limit

DATA = Path(__file__).parent / "data"


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


def test_minimize(capsys):
    doc = run_json(capsys, "minimize", DATA / "f_or.json")
    r = doc["results"]
    assert r["min_value"] == 0.0
    assert r["minimal_minimizer"] == [] and r["maximal_minimizer"] == []
    assert r["gap"] <= 1e-9

    doc2 = run_json(capsys, "minimize", DATA / "sym_cut2.json")
    r2 = doc2["results"]
    assert r2["minimal_minimizer"] == [] and r2["maximal_minimizer"] == [0, 1]

    # shifted cut: subtracting (2, 0) makes the full set the unique minimizer
    doc3 = run_json(capsys, "minimize", DATA / "shifted_cut.json")
    r3 = doc3["results"]
    assert r3["min_value"] == -2.0
    assert r3["maximal_minimizer"] == [0, 1]


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


def test_verified_brute_minimize_tabulates_once(capsys, monkeypatch):
    plain = run_json(capsys, "minimize", DATA / "random_cut6.json", "--algo", "brute")
    builds = []
    depth = [0]
    tabulate = core.SetFunction.tabulate

    def counted(F, cap=core.EXHAUSTIVE_CAP):
        # only outermost builds count: a transform's builder tabulates its input
        if depth[0] == 0:
            builds.append(F.p)
        depth[0] += 1
        try:
            return tabulate(F, cap)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(core.SetFunction, "tabulate", counted)
    verified = run_json(capsys, "minimize", DATA / "random_cut6.json",
                        "--algo", "brute", "--verify")
    assert builds == [6]
    plain.pop("timing"), verified.pop("timing")
    assert json.dumps(plain, sort_keys=True) == json.dumps(verified, sort_keys=True)


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


def test_minnorm_brute_agree_on_bundled_specs(capsys):
    for name in ("f_or", "sym_cut2", "path3", "cover3", "card_sqrt4",
                 "shifted_cut", "logdet3", "flow_bottleneck",
                 "triangle_matroid", "random_cut6"):
        brute = run_json(capsys, "minimize", DATA / f"{name}.json",
                         "--algo", "brute")
        mn = run_json(capsys, "minimize", DATA / f"{name}.json",
                      "--algo", "minnorm")
        assert math.isclose(brute["results"]["min_value"],
                            mn["results"]["min_value"],
                            rel_tol=0.0, abs_tol=1e-9), name


def test_random_seed_flag(capsys, tmp_path):
    spec = tmp_path / "rand.json"
    spec.write_text('{"kind": "random", "family": "cover", "p": 5}')
    a = run_json(capsys, "explicit", spec, "--seed", "3")
    b = run_json(capsys, "explicit", spec, "--seed", "3")
    c = run_json(capsys, "explicit", spec, "--seed", "4")
    assert a["results"] == b["results"]
    assert a["results"] != c["results"]
