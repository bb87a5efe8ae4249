"""Tests of the benchmark's own checks, and a one-round smoke run per workload.

    python -m pytest perfbench -q

Each check must reject a corrupted output: a flipped table entry, a
minimizer off by one element, a perturbed prox solution.
"""

import json
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import checks as ck  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


def instance(workload: str, name: str):
    wl = workloads.BUILDERS[workload](workloads.DEFAULT_SEEDS[workload], HERE)
    try:
        inst = next(i for i in wl.instances if i.name == name)
        return inst, inst.run()
    finally:
        wl.close()


def rejects(inst, out) -> bool:
    try:
        inst.check(out)
    except ck.CheckFailed:
        return True
    return False


def test_explicit_table_with_one_flipped_entry_is_rejected():
    inst, out = instance("exhaustive", "energy14/explicit")
    inst.check(out)
    code, text, err = out
    doc = json.loads(text)
    doc["results"]["spec"]["values"][1234] += 2.0 ** -16
    assert rejects(inst, (code, json.dumps(doc), err))
    assert rejects(inst, (1, text, "error: boom"))


def test_rebuilt_table_with_one_flipped_entry_is_rejected():
    inst, out = instance("tables", "planted17")
    inst.check(out)
    bad = dict(out, rebuilt=out["rebuilt"].copy())
    bad["rebuilt"][99] += 2.0 ** -16
    assert rejects(inst, bad)
    bad = dict(out, submodular=(True, None))
    assert rejects(inst, bad)


def test_minimizer_off_by_one_element_is_rejected():
    inst, out = instance("solve", "energy48-0")
    inst.check(out)
    for route in ("minnorm", "maxflow"):
        value, lo, hi = out[route]
        first = lo & -lo                           # an element of every minimizer
        outside = next(1 << k for k in range(48) if not hi >> k & 1)
        assert rejects(inst, dict(out, **{route: (value, lo ^ first, hi)}))
        assert rejects(inst, dict(out, **{route: (value, lo, hi | outside)}))


def test_perturbed_prox_solution_is_rejected():
    inst, out = instance("prox", "cover18-1")
    inst.check(out)
    q = inst.check.args[1]                  # the quadratic penalty of the check
    u2 = out["minnorm"][0].copy()
    u2[3] += 1e-4
    assert rejects(inst, dict(out, minnorm=(u2, q.a * (q.z - u2))))
    hom = out["homotopy"].copy()
    hom[0] -= 1e-4
    assert rejects(inst, dict(out, homotopy=hom))
    cub = out["homotopy_cubic"].copy()
    cub[5] += 1e-4
    assert rejects(inst, dict(out, homotopy_cubic=cub))


def test_flow_reference_matches_brute_force():
    from inputs import energy

    e = energy(np.random.default_rng(5), 10, 0.3, 1.0)
    table = ck.energy_table(e)
    assert ck.energy_minimum(e) == ck.argmin_extremes(table)
    for m in (0, 5, 1023, 700):
        assert table[m] == ck.energy_value(e, m)


@pytest.mark.parametrize("workload", run.NAMES)
def test_smoke_one_round(workload, capsys):
    assert run.main(["--workload", workload, "--seconds", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    wl = workloads.BUILDERS[workload](workloads.DEFAULT_SEEDS[workload], HERE)
    wl.close()
    assert result["attempted"] == len(wl.instances)     # one whole round
    assert set(result["metrics"]) == {"setup_s", "op_ref", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())
