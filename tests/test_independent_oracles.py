"""Cross-checks against solvers that share no code with the package.

The proximal problem is recast through the dual description of the
extension: f(w) = min over nonnegative multipliers lambda_A (one per
nonempty subset, with the full-set multiplier free) of sum lambda_A F(A)
subject to sum over A containing k of lambda_A equal to w_k.  Joint
minimization over (w, lambda) with the separable penalty is then a plain
convex program a generic solver can handle at tiny p.
"""

import numpy as np
import pytest

import submodopt as so


def _prox_via_generic_qp(F, a, z):
    cp = pytest.importorskip("cvxpy")
    p = F.p
    n = 1 << p
    masks = list(range(1, n))
    lam = cp.Variable(len(masks))
    mu = cp.Variable()
    w = cp.Variable(p)
    cons = [lam >= 0]
    full = n - 1
    for k in range(p):
        incident = [i for i, m in enumerate(masks) if m != full and m & (1 << k)]
        cons.append(cp.sum(lam[incident]) + mu == w[k])
    values = np.array([F(m) for m in masks if m != full])
    keep = [i for i, m in enumerate(masks) if m != full]
    objective = (cp.sum(cp.multiply(values, lam[keep])) + mu * F(full)
                 + 0.5 * cp.sum(cp.multiply(a, cp.square(w - z))))
    prob = cp.Problem(cp.Minimize(objective), cons)
    prob.solve(solver="CLARABEL")
    assert prob.status == "optimal"
    return np.asarray(w.value, dtype=float)


def test_prox_matches_generic_convex_solver():
    rng = np.random.default_rng(0)
    for seed in range(6):
        p = 3 + seed % 2
        F = so.random_submodular(seed, p, ("cut+modular", "cover")[seed % 2])
        a = np.exp(rng.uniform(-0.7, 0.7, p))
        z = rng.standard_normal(p)
        u_ref = _prox_via_generic_qp(F, a, z)
        pr = so.prox_minnorm(F, so.Quadratic(a, z), eps=1e-11)
        assert np.max(np.abs(pr.u - u_ref)) <= 1e-5, seed

