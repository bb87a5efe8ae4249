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

from helpers import lovasz_by_breakpoints


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


def _prox_via_scipy(F, value, grad):
    """The program above, min sum lambda_A F(A) + mu F(V) + sum psi_j(w_j),
    solved by SLSQP over x = (w, mu, lambda) for a penalty with the given
    value and gradient."""
    from scipy.optimize import minimize as sp_minimize

    p = F.p
    full = (1 << p) - 1
    masks = np.arange(1, full)
    values = np.array([F(int(m)) for m in masks])
    incident = ((masks[None, :] >> np.arange(p)[:, None]) & 1).astype(float)
    lin = np.concatenate([np.zeros(p), [F(full)], values])
    # sum over A containing k of lambda_A, plus mu, equals w_k
    eq = np.hstack([-np.eye(p), np.ones((p, 1)), incident])
    x0 = np.zeros(p + 1 + len(masks))
    res = sp_minimize(
        lambda x: lin @ x + float(np.sum(value(x[:p]))),
        x0, jac=lambda x: lin + np.concatenate([grad(x[:p]), np.zeros(len(x) - p)]),
        method="SLSQP",
        bounds=[(None, None)] * (p + 1) + [(0.0, None)] * len(masks),
        constraints=[{"type": "eq", "fun": lambda x: eq @ x, "jac": lambda x: eq}],
        options={"ftol": 1e-15, "maxiter": 1000})
    assert res.success, res.message
    return res.x[:p]


def test_prox_matches_scipy_on_the_same_convex_program():
    rng = np.random.default_rng(1)
    for seed in range(8):
        p = 2 + seed % 3
        F = so.random_submodular(seed, p, ("cut+modular", "cover")[seed % 2])
        a = np.exp(rng.uniform(-0.7, 0.7, p))
        z = rng.standard_normal(p)
        b = rng.uniform(0.25, 1.0, p)

        q = so.Quadratic(a, z)
        u_ref = _prox_via_scipy(F, q.value, q.deriv)
        assert np.max(np.abs(so.prox_minnorm(F, q, eps=1e-11).u - u_ref)) <= 1e-5, seed
        assert np.max(np.abs(so.prox_homotopy(F, q) - u_ref)) <= 1e-5, seed

        def value(w):
            return a / 2 * (w - z) ** 2 + b / 4 * (w - z) ** 4

        def deriv(w):
            return a * (w - z) + b * (w - z) ** 3

        u_ref = _prox_via_scipy(F, value, deriv)
        u = so.prox_homotopy(F, so.SeparableConvex(p, deriv=deriv))
        assert np.max(np.abs(u - u_ref)) <= 1e-5, seed
        # the homotopy's point is no worse than scipy's on the primal objective
        objective = [lovasz_by_breakpoints(F, w) + float(np.sum(value(w)))
                     for w in (u, u_ref)]
        assert objective[0] <= objective[1] + 1e-9, seed
