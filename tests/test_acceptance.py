"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS line on success (run with -s to see them all;
any failure shows up as a normal pytest failure). The random instances
are seeded, so the whole suite is deterministic.
"""

import json
import math
import time

import numpy as np
import pytest

from netsir import (CostModel, EpidemicParams, ErlangSpec, Graph, cdf,
                    build_isolation_system, build_problem1, build_sir_system,
                    erlang, estimate_lambda, exact_lambda, fit_monomial_bound,
                    lambda_bound, load_edge_list, sample, solve_allocation,
                    verify_certificate)
from netsir import gp
from netsir.simulator import replica_rng
from netsir.cli import main
from conftest import ks_statistic, random_graph
import gp_front as front


def _plain_instances(count=50, seed=11):
    """Seeded instances (n in 2..4, rates in [0.05, 1]) whose comparison
    matrix is Hurwitz."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n = int(rng.integers(2, 5))
        g = random_graph(rng, n, edge_prob=float(rng.uniform(0.3, 0.9)))
        beta = rng.uniform(0.05, 1.0, size=n)
        delta = rng.uniform(0.05, 1.0, size=n)
        k = int(rng.integers(1, n + 1))
        infected = frozenset(int(i) for i in rng.choice(n, k, replace=False))
        params = EpidemicParams(beta=beta, delta=delta,
                                initially_infected=infected)
        sys_ = build_sir_system(g, params)
        if math.isfinite(lambda_bound(sys_)):
            out.append((g, params, sys_))
    return out


def _isolation_instances(count=25, seed=23):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n = int(rng.integers(2, 4))
        g = random_graph(rng, n, edge_prob=float(rng.uniform(0.3, 0.9)))
        p = int(rng.integers(1, 3))
        beta = rng.uniform(0.05, 1.0, size=n)
        delta = rng.uniform(0.05, 1.0, size=n)
        gamma = rng.uniform(0.4, 3.0, size=n)
        k = int(rng.integers(1, n + 1))
        infected = frozenset(int(i) for i in rng.choice(n, k, replace=False))
        iso = tuple(erlang(ErlangSpec(p, float(gm))) for gm in gamma)
        params = EpidemicParams(beta=beta, delta=delta,
                                initially_infected=infected, isolation=iso)
        sys_ = build_isolation_system(g, params)
        if math.isfinite(lambda_bound(sys_)):
            out.append((g, params, gamma, p, sys_))
    return out


def test_criterion_1_oracle_dominance_plain():
    """Prop. 1 dominance: exact lambda never exceeds the certified bound."""
    start = time.perf_counter()
    instances = _plain_instances()
    for g, params, sys_ in instances:
        exact = exact_lambda(g, params)
        bound_val = lambda_bound(sys_)
        assert exact <= bound_val + 1e-9, \
            f"dominance violated: exact={exact} bound={bound_val}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 PASS: exact <= bound on 50 plain instances "
          f"({elapsed:.1f}s)")


def test_criterion_2_oracle_dominance_isolation():
    """Prop. 3 dominance plus exact p=1 reduction to the plain bound."""
    for g, params, gamma, p, sys_ in _isolation_instances():
        exact = exact_lambda(g, params)
        bound_val = lambda_bound(sys_)
        assert exact <= bound_val + 1e-9
        if p == 1:
            merged = EpidemicParams(
                beta=params.beta, delta=params.delta + 1.0 / gamma,
                initially_infected=params.initially_infected)
            plain_val = lambda_bound(build_sir_system(g, merged))
            if math.isfinite(bound_val) or math.isfinite(plain_val):
                assert abs(bound_val - plain_val) < 1e-10
    print("\nACCEPTANCE 2 PASS: exact <= bound on 25 isolation instances, "
          "p=1 reduction exact to 1e-10")


def test_criterion_3_simulator_exactness():
    """Monte Carlo agrees with the exact chain at 4 standard errors."""
    two_node = load_edge_list("0 1")
    race = EpidemicParams.build(2, 0.2, 0.5, [0])
    est = estimate_lambda(two_node, race, replicas=200_000, seed=7)
    assert abs(est.mean - 0.2857142857) <= 4 * est.std_error

    checked = 0
    for g, params, _ in _plain_instances():
        exact = exact_lambda(g, params)
        est = estimate_lambda(g, params, replicas=200_000, seed=101)
        tol = 4 * max(est.std_error, 1e-12)
        assert abs(est.mean - exact) <= tol, \
            f"MC {est.mean} vs exact {exact} (4se={tol})"
        checked += 1
    for g, params, _, _, _ in _isolation_instances():
        exact = exact_lambda(g, params)
        est = estimate_lambda(g, params, replicas=200_000, seed=303)
        tol = 4 * max(est.std_error, 1e-12)
        assert abs(est.mean - exact) <= tol, \
            f"isolation MC {est.mean} vs exact {exact} (4se={tol})"
        checked += 1
    print(f"\nACCEPTANCE 3 PASS: MC within 4 standard errors on "
          f"{checked} instances, two-node closed form reproduced")


@pytest.mark.parametrize("p", [1, 2, 4])
def test_criterion_4_lemma2_law_check(p):
    """min(phase-type draw, exponential draw) follows the shifted law."""
    n = 100_000
    delta = 0.6
    y = erlang(ErlangSpec(p, 1.2))
    from netsir import min_with_exponential
    law = min_with_exponential(y, delta)
    gen = replica_rng(500 + p, 0)
    ys, _ = sample(y, gen, size=n)
    xs = gen.exponential(1.0 / delta, size=n)
    zs = np.sort(np.minimum(ys, xs))
    ks = ks_statistic(zs, cdf(law, zs))
    assert ks < 0.01, f"KS statistic {ks} at p={p}"
    print(f"\nACCEPTANCE 4 PASS (p={p}): KS statistic {ks:.4f} < 0.01")


def test_criterion_5_gp_solver_correctness(rng):
    """AM-GM optimum, gradient checks, and feasible-point dominance."""
    # AM-GM equality case
    am_gm = front.GpProblem(
        objective=front.variable("x") + front.variable("y"),
        ineq_constraints=(front.Monomial(1.0, {"x": -1.0, "y": -1.0}),),
        box={"x": (0.01, 100.0), "y": (0.01, 100.0)})
    sol = front.solve(am_gm, tol=1e-8)
    assert sol.status == "optimal"
    assert abs(sol.objective_value - 2.0) <= 1e-6

    # transformed gradients vs central differences, 1e-6 relative
    two_node = load_edge_list("0 1")
    costs = CostModel(beta_box=(0.05, 0.5), delta_box=(0.2, 1.0), budget=2.0)
    prob = build_problem1(two_node, {0}, costs)
    lcp = prob.gp_problem
    h = 1e-6
    for _ in range(10):
        y = rng.uniform(-0.5, 0.5, size=lcp.dim)
        for k in range(1, len(lcp.system.starts)):
            _, grad = front.segment_value_grad(lcp.system, k, y)
            fd = np.zeros(lcp.dim)
            for i in range(lcp.dim):
                yp, ym = y.copy(), y.copy()
                yp[i] += h
                ym[i] -= h
                fd[i] = (lcp.system.values(yp)[k]
                         - lcp.system.values(ym)[k]) / (2 * h)
            assert np.linalg.norm(grad - fd) <= 1e-6 * max(
                1.0, np.linalg.norm(fd))

    # random-feasible-point dominance on the solved allocation problem:
    # rates and v are rejection-sampled, t is any value clearing the
    # bound row, so every accepted point is feasible for the full GP
    alloc_sol = gp.solve_compiled(lcp, tol=1e-7)
    assert alloc_sol.status == "optimal"
    found = 0
    while found < 1000:
        point = {
            "beta_0": float(rng.uniform(0.05, 0.5)),
            "beta_1": float(rng.uniform(0.05, 0.5)),
            "delta_0": float(rng.uniform(0.2, 1.0)),
            "delta_1": float(rng.uniform(0.2, 1.0)),
            "v_0": float(np.exp(rng.uniform(0.0, 5.0))),
            "v_1": float(np.exp(rng.uniform(0.0, 5.0))),
        }
        point["t"] = (point["v_0"] + 1e-6) * float(rng.uniform(1.0, 3.0)) \
            + 1e-9
        y = np.log([point[name] for name in lcp.variables])
        if all(math.exp(value) <= 1.0
               for value in lcp.system.values(y)[1:1 + lcp.ineq_count]):
            assert alloc_sol.objective_value <= point["t"] + 1e-6
            found += 1
    print("\nACCEPTANCE 5 PASS: AM-GM to 1e-6, gradients to 1e-6, "
          "dominance on 1000 feasible points")


def test_criterion_6_monomial_fit_validity(rng):
    """Fitted kappa x^alpha stays under x + delta and beats the unit fit."""
    for _ in range(20):
        delta = float(rng.uniform(0.0, 2.0))
        lo = float(rng.uniform(0.05, 4.0))
        hi = lo * float(rng.uniform(1.0, 40.0))
        fit = fit_monomial_bound(delta, (lo, hi), grid_size=10_000)
        xs = np.linspace(lo, hi, 10_000)
        vals = fit.kappa * xs ** fit.alpha
        assert np.all(vals <= xs + delta)
        fallback_gap = np.max(xs + delta - xs)  # kappa=1, alpha=1
        assert np.max(xs + delta - vals) <= fallback_gap + 1e-12
    print("\nACCEPTANCE 6 PASS: 20 random fits hold on 10^4-point grids "
          "and beat the unit fallback")


def test_criterion_7_end_to_end_68_nodes(tmp_path):
    """Paper-scale allocation: certificate-verified optimize under 60 s,
    and the optimized allocation beats both baselines in Monte Carlo.

    The paper's own numbers are tied to an unpublished 68-node social
    graph; this checks the qualitative ordering on the bundled synthetic
    stand-in of matching size and spectral radius.
    """
    from importlib import resources
    graph_path = tmp_path / "social68.txt"
    graph_path.write_text(
        (resources.files("netsir") / "data" / "social68.txt").read_text())
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "graph": str(graph_path),
        "initially_infected": {"random": 4, "seed": 2024},
        "beta_box": [0.00266, 0.0133],
        "delta_box": [0.05, 0.1],
        "budget": 68.0,
        "replicas": 10_000,
        "seed": 99,
        "solver_tol": 1e-6,
        "out_dir": str(tmp_path / "out"),
    }))

    start = time.perf_counter()
    assert main(["optimize", "--config", str(cfg_path)]) == 0
    optimize_time = time.perf_counter() - start
    assert optimize_time < 60.0, f"optimize took {optimize_time:.1f}s"

    doc = json.loads((tmp_path / "out" / "allocation.json").read_text())
    assert doc["certificate_v"] is not None
    g = load_edge_list(graph_path.read_text())
    params = EpidemicParams(beta=np.array(doc["beta"]),
                            delta=np.array(doc["delta"]),
                            initially_infected=frozenset(doc["infected"]))
    sys_ = build_sir_system(g, params)
    assert verify_certificate(sys_, np.array(doc["certificate_v"]),
                              doc["lambda_bar"], slack=5e-7)

    assert main(["compare", "--config", str(cfg_path)]) == 0
    rows = {}
    lines = (tmp_path / "out" / "comparison.csv").read_text().splitlines()
    for line in lines[1:]:
        name, mean, se, _ = line.split(",")
        rows[name] = (float(mean), float(se))
    lam_opt, se_opt = rows["optimized"]
    for baseline in ("uniform", "sis_spectral"):
        lam_b, se_b = rows[baseline]
        combined = math.sqrt(se_opt ** 2 + se_b ** 2)
        assert lam_opt <= lam_b + 3 * combined, \
            f"optimized {lam_opt} not <= {baseline} {lam_b} at 3 sigma"
    print(f"\nACCEPTANCE 7 PASS: optimize {optimize_time:.1f}s < 60s, "
          f"certificate verified, MC ordering optimized <= baselines "
          f"(opt={lam_opt:.3f}, uniform={rows['uniform'][0]:.3f}, "
          f"sis={rows['sis_spectral'][0]:.3f})")


def test_criterion_8_budget_monotonicity():
    """More budget never certifies worse: 5-point sweep, 10x solver tol."""
    rng = np.random.default_rng(77)
    n = 20
    edges = set()
    while len(edges) < 45:
        i, j = (int(x) for x in rng.integers(0, n, 2))
        if i != j:
            edges.add((min(i, j), max(i, j)))
    g = Graph(node_count=n, edges=frozenset(edges))
    infected = frozenset({0, 7})
    solver_tol = 1e-7
    lams = []
    for budget in (6.0, 10.0, 16.0, 24.0, 36.0):
        costs = CostModel(beta_box=(0.01, 0.1), delta_box=(0.1, 0.6),
                          budget=budget)
        alloc = solve_allocation(build_problem1(g, infected, costs),
                                 tol=solver_tol)
        lams.append(alloc.lambda_bar)
    for a, b in zip(lams, lams[1:]):
        assert b <= a + 10 * solver_tol, f"sweep not monotone: {lams}"
    print(f"\nACCEPTANCE 8 PASS: budget sweep nonincreasing {lams}")
