"""Reference optimum of allocation problem 1 on social68, without netsir.

    python3 perfbench/reference_optimum.py

Regenerates `REFERENCE_LAMBDA_BAR` in perfbench/workloads.py. The plain
allocation problem (acceptance criterion 7: four random infected nodes
drawn with seed 2024, beta in [0.00266, 0.0133], delta in [0.05, 0.1],
budget 68, certificate margin 1e-6) is written here from the model, in
log variables y = log(v, beta, delta, t), and solved by scipy's SLSQP
with analytic Jacobians:

    minimize   t
    subject to sum_{i ~ j, i not infected} v_i beta_i + delta_j + eps
                   <= v_j delta_j                       for every node j
               sum_{i infected} v_i + eps <= t
               sum_i f(beta_i) + g(delta_i) <= budget

with the normalized cost curves f (1 at the low end of the beta box, 0
at the high end, linear in 1/beta) and g (linear in delta). lambda_bar
is t minus the number of initially infected nodes. It takes seconds.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import scipy.optimize

import independent as ref

HERE = Path(__file__).resolve().parent
GRAPH = HERE.parent / "src" / "netsir" / "data" / "social68.txt"
BETA_BOX = (0.00266, 0.0133)
DELTA_BOX = (0.05, 0.1)
BUDGET = 68.0
EPS = 1e-6
WIDE = (np.log(1e-8), np.log(1e8))


def solve():
    n, edges = ref.read_edge_list(GRAPH)
    infected = ref.random_infected(n, 4, 2024)
    sigma = len(infected)
    a = ref.adjacency(n, edges).toarray()
    mask = np.ones(n)
    mask[infected] = 0.0
    ja = mask[:, None] * a          # ja[i, j]: node i can infect node j
    is_inf = 1.0 - mask
    # cost f(b) = f1/b + f0, g(d) = g1*d + g0
    f1 = 1.0 / (1.0 / BETA_BOX[0] - 1.0 / BETA_BOX[1])
    f0 = -f1 / BETA_BOX[1]
    g1 = 1.0 / (DELTA_BOX[1] - DELTA_BOX[0])
    g0 = -g1 * DELTA_BOX[0]
    iv, ib, idl, it = (slice(0, n), slice(n, 2 * n), slice(2 * n, 3 * n),
                       3 * n)

    def split(y):
        return np.exp(y[iv]), np.exp(y[ib]), np.exp(y[idl]), y[it]

    def cons(y):
        v, b, d, logt = split(y)
        rows = (ja * (v * b)[:, None]).sum(axis=0) + d + EPS
        c_rows = y[iv] + y[idl] - np.log(rows)
        c_bound = logt - np.log(v @ is_inf + EPS)
        spend = np.sum(f1 / b + f0 + g1 * d + g0)
        return np.concatenate([c_rows, [c_bound, 1.0 - spend / BUDGET]])

    def cons_jac(y):
        v, b, d, _ = split(y)
        rows = (ja * (v * b)[:, None]).sum(axis=0) + d + EPS
        jac = np.zeros((n + 2, 3 * n + 1))
        share = ja * (v * b)[:, None] / rows[None, :]   # [i, j]
        jac[:n, iv] = np.eye(n) - share.T
        jac[:n, ib] = -share.T
        jac[:n, idl] = np.diag(1.0 - d / rows)
        denom = v @ is_inf + EPS
        jac[n, iv] = -v * is_inf / denom
        jac[n, it] = 1.0
        jac[n + 1, ib] = f1 / b / BUDGET
        jac[n + 1, idl] = -g1 * d / BUDGET
        return jac

    # start from the uniform design with its own certificate
    spend = min(1.0, BUDGET / (2.0 * n))
    b0 = np.full(n, ref.inverse_rate_at(spend, BETA_BOX))
    d0 = np.full(n, ref.linear_rate_at(spend, DELTA_BOX))
    m = (mask * b0)[:, None] * a - np.diag(d0)
    v0 = np.linalg.solve(m.T, -(d0 + 2 * EPS)) * 1.01
    t0 = (v0 @ is_inf + EPS) * 1.01
    y0 = np.concatenate([np.log(v0), np.log(b0), np.log(d0), [np.log(t0)]])
    bounds = ([WIDE] * n + [tuple(np.log(BETA_BOX))] * n
              + [tuple(np.log(DELTA_BOX))] * n + [WIDE])
    grad = np.zeros(3 * n + 1)
    grad[it] = 1.0
    res = scipy.optimize.minimize(
        lambda y: y[it], y0, jac=lambda y: grad, method="SLSQP",
        bounds=bounds,
        constraints=[{"type": "ineq", "fun": cons, "jac": cons_jac}],
        options={"maxiter": 5000, "ftol": 1e-12})
    worst = float(cons(res.x).min())
    return float(np.exp(res.x[it])) - sigma, res, worst


def main():
    lam, res, worst = solve()
    print(f"SLSQP: {res.message} after {res.nit} iterations, "
          f"worst constraint {worst:.2e}")
    print(f"lambda_bar = {lam:.7f}")
    return 0 if res.success else 1


if __name__ == "__main__":
    sys.exit(main())
