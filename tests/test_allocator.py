import math

import numpy as np
import pytest

from netsir import (AllocationInfeasible, BudgetModelError, CostModel,
                    EpidemicParams, Graph, baseline_sis_spectral,
                    baseline_uniform, build_problem1, build_problem2,
                    build_sir_system, exact_lambda, fit_monomial_bound,
                    lambda_bound, load_edge_list, solve_allocation,
                    verify_certificate)
from netsir import allocator, gp

TWO_NODE = load_edge_list("0 1")
PLAIN_COSTS = CostModel(beta_box=(0.05, 0.5), delta_box=(0.2, 1.0), budget=2.0)


class TestCostModel:
    def test_normalized_ends(self):
        c = PLAIN_COSTS
        assert c.prevention_cost(0.05) == pytest.approx(1.0)
        assert c.prevention_cost(0.5) == pytest.approx(0.0)
        assert c.correction_cost(1.0) == pytest.approx(1.0)
        assert c.correction_cost(0.2) == pytest.approx(0.0)

    def test_isolation_ends(self):
        c = CostModel(beta_box=(0.1, 0.2), gamma_box=(0.5, 4.0), budget=1.0)
        assert c.isolation_cost(0.5) == pytest.approx(1.0)
        assert c.isolation_cost(4.0) == pytest.approx(0.0)

    def test_mode_exclusivity(self):
        with pytest.raises(ValueError):
            CostModel(beta_box=(0.1, 0.2), budget=1.0)
        with pytest.raises(ValueError):
            CostModel(beta_box=(0.1, 0.2), delta_box=(0.1, 0.5),
                      gamma_box=(0.5, 1.0), budget=1.0)

    def test_absorbed_budget_positive(self):
        # c2 and c4 are negative, so absorption raises the right-hand side
        c = PLAIN_COSTS
        assert c.absorbed_budget(2) > c.budget

    def test_budget_below_constants_raises(self):
        # constants only become binding with a pathological negative budget
        with pytest.raises(ValueError):
            CostModel(beta_box=(0.05, 0.5), delta_box=(0.2, 1.0), budget=-1.0)


class TestMonomialFit:
    def test_exponent_one_always_feasible(self):
        xs = np.linspace(0.3, 7.0, 1000)
        assert np.all(1.0 * xs ** 1.0 <= xs + 0.25)

    def test_fit_beats_unit_fallback(self):
        delta = 0.1
        fit = fit_monomial_bound(delta, (1.0, 2.0))
        xs = np.linspace(1.0, 2.0, 10_000)
        vals = fit.kappa * xs ** fit.alpha
        assert np.all(vals <= xs + delta)
        assert np.max(xs + delta - vals) <= delta  # unit fit's constant gap

    def test_matches_lattice_search_oracle(self):
        delta, lo, hi = 0.3, 0.4, 3.0
        fit = fit_monomial_bound(delta, (lo, hi))
        xs = np.linspace(lo, hi, 2000)
        fit_gap = np.max(xs + delta - fit.kappa * xs ** fit.alpha)
        best = math.inf
        for alpha in np.linspace(0.01, 1.0, 400):
            kappa = np.min((xs + delta) * xs ** -alpha)
            best = min(best, np.max(xs + delta - kappa * xs ** alpha))
        assert fit_gap <= best + 1e-6

    def test_degenerate_range_exact(self):
        fit = fit_monomial_bound(0.5, (2.0, 2.0))
        assert fit.kappa * 2.0 ** fit.alpha == pytest.approx(2.5, rel=1e-9)

    def test_random_configurations_hold_on_grid(self, rng):
        for _ in range(20):
            delta = float(rng.uniform(0.0, 2.0))
            lo = float(rng.uniform(0.05, 3.0))
            hi = lo * float(rng.uniform(1.0, 30.0))
            fit = fit_monomial_bound(delta, (lo, hi))
            xs = np.linspace(lo, hi, 10_000)
            vals = fit.kappa * xs ** fit.alpha
            assert np.all(vals <= xs + delta)
            assert np.max(xs + delta - vals) <= delta + 1e-12

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError):
            fit_monomial_bound(0.1, (2.0, 1.0))


class TestProblem1:
    def test_variable_and_constraint_structure(self):
        prob = build_problem1(TWO_NODE, {0}, PLAIN_COSTS)
        variables = set(prob.gp_problem.variables)
        assert variables == {"v_0", "v_1", "beta_0", "beta_1",
                             "delta_0", "delta_1", "t"}
        # 2 certificate columns + 1 bound row + 1 budget row
        assert prob.gp_problem.ineq_count == 4

    def test_all_infected_feasible_with_scaled_ones(self):
        prob = build_problem1(TWO_NODE, {0, 1}, PLAIN_COSTS)
        point = {"v_0": 2.0, "v_1": 2.0, "beta_0": 0.4, "beta_1": 0.4,
                 "delta_0": 0.5, "delta_1": 0.5, "t": 5.0}
        lcp = prob.gp_problem
        y = np.log([point[name] for name in lcp.variables])
        for value in lcp.system.values(y)[1:3]:
            assert math.exp(value) < 1.0

    def test_two_node_generous_budget(self):
        alloc = solve_allocation(build_problem1(TWO_NODE, {0}, PLAIN_COSTS))
        # cheapest-spread closed form: beta_lo / delta_hi
        assert alloc.lambda_bar <= 0.05 / 1.0 + 1e-4
        assert alloc.total_cost <= PLAIN_COSTS.budget + 1e-8

    def test_budget_cap_mode(self):
        alloc = solve_allocation(
            build_problem1(TWO_NODE, {0}, PLAIN_COSTS, lambda_cap=0.2),
            tol=1e-6)
        assert alloc.lambda_bar == 0.2
        sys_ = build_sir_system(
            TWO_NODE, EpidemicParams(beta=alloc.beta, delta=alloc.delta,
                                     initially_infected=frozenset({0})))
        assert lambda_bound(sys_) <= 0.2

    def test_cap_infeasible_when_budget_tiny(self):
        tight = CostModel(beta_box=(0.05, 0.5), delta_box=(0.2, 1.0),
                          budget=1e-6)
        with pytest.raises(AllocationInfeasible):
            solve_allocation(build_problem1(TWO_NODE, {0}, tight,
                                            lambda_cap=0.05), tol=1e-6)

    def test_budget_monotonicity_small(self):
        g = load_edge_list("0 1\n1 2\n2 3\n3 0\n0 2")
        lams = []
        for budget in (1.0, 2.0, 4.0):
            costs = CostModel(beta_box=(0.05, 0.5), delta_box=(0.2, 1.0),
                              budget=budget)
            lams.append(solve_allocation(
                build_problem1(g, {0}, costs)).lambda_bar)
        assert lams[1] <= lams[0] + 1e-6
        assert lams[2] <= lams[1] + 1e-6

    def test_social68_reference_optimum(self):
        """The acceptance-7 instance solves to the optimum that SLSQP
        finds apart from netsir.gp (perfbench/reference_optimum.py)."""
        from importlib import resources
        g = load_edge_list((resources.files("netsir") / "data"
                            / "social68.txt").read_text())
        rng = np.random.default_rng(2024)
        infected = frozenset(int(i) for i in
                             rng.choice(g.node_count, size=4, replace=False))
        costs = CostModel(beta_box=(0.00266, 0.0133), delta_box=(0.05, 0.1),
                          budget=68.0)
        sol = gp.solve_compiled(build_problem1(g, infected, costs).gp_problem,
                                tol=1e-6)
        assert sol.status == "optimal"
        assert abs(sol.point["t"] - len(infected) - 1.950556) <= 1e-4
        assert sol.newton_iters <= 150

    def test_one_solve_per_allocation_at_the_requested_tol(self,
                                                           monkeypatch):
        """No solve is retried at a looser tolerance: the budget sweeps of
        test_budget_monotonicity_small and acceptance 8 each take one
        'optimal' gp.solve_compiled call at tol 1e-7 per allocation."""
        calls = []
        solve = gp.solve_compiled

        def counted(problem, tol):
            sol = solve(problem, tol=tol)
            calls.append((tol, sol.status))
            return sol
        monkeypatch.setattr(gp, "solve_compiled", counted)
        small = load_edge_list("0 1\n1 2\n2 3\n3 0\n0 2")
        for budget in (1.0, 2.0, 4.0):
            costs = CostModel(beta_box=(0.05, 0.5), delta_box=(0.2, 1.0),
                              budget=budget)
            solve_allocation(build_problem1(small, {0}, costs), tol=1e-7)
        rng = np.random.default_rng(77)
        edges = set()
        while len(edges) < 45:
            i, j = (int(x) for x in rng.integers(0, 20, 2))
            if i != j:
                edges.add((min(i, j), max(i, j)))
        g = Graph(node_count=20, edges=frozenset(edges))
        for budget in (6.0, 10.0, 16.0, 24.0, 36.0):
            costs = CostModel(beta_box=(0.01, 0.1), delta_box=(0.1, 0.6),
                              budget=budget)
            solve_allocation(build_problem1(g, frozenset({0, 7}), costs),
                             tol=1e-7)
        assert calls == [(1e-7, "optimal")] * 8


class TestProblem2:
    ISO_COSTS = CostModel(beta_box=(0.05, 0.5), gamma_box=(0.5, 4.0),
                          budget=2.0)

    def fits_for(self, delta, p, n):
        x_lo, x_hi = p / self.ISO_COSTS.gamma_box[1], \
            p / self.ISO_COSTS.gamma_box[0]
        return [fit_monomial_bound(delta, (x_lo, x_hi)) for _ in range(n)]

    def test_p1_delta_zero_matches_problem1_correspondence(self):
        # with delta = 0 the unit fit is exact, and Problem 2 with p = 1
        # is Problem 1 under delta' = 1/gamma with affine-translated cost
        fits = [allocator.MonomialBound(kappa=1.0, alpha=1.0, x_lo=0.25,
                                        x_hi=2.0) for _ in range(2)]
        prob2 = build_problem2(TWO_NODE, {0}, self.ISO_COSTS, fits, p=1,
                               delta=0.0)
        a2 = solve_allocation(prob2)
        # corresponding plain problem: delta' = 1/gamma in [1/4, 2],
        # correction cost c5*delta' + c6 matches h(gamma) exactly
        c = self.ISO_COSTS
        corr = CostModel(beta_box=c.beta_box, delta_box=(0.25, 2.0),
                         budget=c.budget)
        # budgets align because the normalizations coincide:
        # h(gamma) = c5/gamma + c6 = c5*delta' + c6 and
        # corr cost = delta'-normalized with identical end values
        assert corr.c3 == pytest.approx(c.c5)
        assert corr.c4 == pytest.approx(c.c6)
        a1 = solve_allocation(build_problem1(TWO_NODE, {0}, corr))
        assert a2.lambda_bar == pytest.approx(a1.lambda_bar, abs=1e-6)
        assert np.allclose(1.0 / a2.gamma, a1.delta, rtol=1e-3)

    def test_p1_with_positive_delta_is_conservative(self):
        delta = 0.3
        fits = self.fits_for(delta, 1, 2)
        a2 = solve_allocation(build_problem2(TWO_NODE, {0}, self.ISO_COSTS,
                                             fits, p=1, delta=delta))
        # reference: plain problem over the merged rate delta + 1/gamma
        c = self.ISO_COSTS
        corr = CostModel(beta_box=c.beta_box,
                         delta_box=(delta + 0.25, delta + 2.0), budget=c.budget)
        a1 = solve_allocation(build_problem1(TWO_NODE, {0}, corr))
        assert a2.lambda_bar >= a1.lambda_bar - 1e-6

    def test_solvable_with_phases(self):
        fits = self.fits_for(0.1, 2, 2)
        alloc = solve_allocation(build_problem2(TWO_NODE, {0}, self.ISO_COSTS,
                                                fits, p=2, delta=0.1))
        assert alloc.mode == "isolation"
        assert np.all(alloc.gamma >= 0.5 - 1e-9)
        assert np.all(alloc.gamma <= 4.0 + 1e-9)
        assert alloc.total_cost <= self.ISO_COSTS.budget + 1e-8

    def test_missing_fits_rejected(self):
        with pytest.raises(ValueError):
            build_problem2(TWO_NODE, {0}, self.ISO_COSTS,
                           self.fits_for(0.1, 2, 1), p=2, delta=0.1)


class TestAllocationInvariants:
    def test_certificate_and_bound_consistency(self):
        prob = build_problem1(TWO_NODE, {0}, PLAIN_COSTS)
        alloc = solve_allocation(prob)
        sys_ = build_sir_system(
            TWO_NODE, EpidemicParams(beta=alloc.beta, delta=alloc.delta,
                                     initially_infected=frozenset({0})))
        assert verify_certificate(sys_, alloc.certificate_v, alloc.lambda_bar,
                                  slack=prob.epsilon / 2)
        assert lambda_bound(sys_) <= alloc.lambda_bar + 1e-6

    def test_rates_inside_boxes(self):
        alloc = solve_allocation(build_problem1(TWO_NODE, {0}, PLAIN_COSTS))
        assert np.all(alloc.beta >= 0.05 - 1e-9)
        assert np.all(alloc.beta <= 0.5 + 1e-9)
        assert np.all(alloc.delta >= 0.2 - 1e-9)
        assert np.all(alloc.delta <= 1.0 + 1e-9)

    def test_json_round_trip_fields(self):
        alloc = solve_allocation(build_problem1(TWO_NODE, {0}, PLAIN_COSTS))
        doc = alloc.to_json_dict()
        assert set(doc) >= {"mode", "strategy", "lambda_bar", "total_cost",
                            "beta", "delta", "certificate_v"}

    def test_csv_rows_layout(self):
        prob = build_problem1(TWO_NODE, {0}, PLAIN_COSTS)
        alloc = solve_allocation(prob)
        rows = allocator.allocation_csv_rows(alloc, TWO_NODE, prob.costs)
        assert len(rows) == 2
        node, degree, prev, corr = rows[0]
        assert node == 0 and degree == 1
        assert 0.0 - 1e-9 <= prev <= 1.0 + 1e-9


class TestBaselines:
    def test_uniform_symmetric_full_budget(self):
        # budget n means half a unit of each resource per node
        alloc = baseline_uniform(TWO_NODE, {0}, PLAIN_COSTS)
        assert np.allclose(alloc.beta, alloc.beta[0])
        assert np.allclose(alloc.delta, alloc.delta[0])
        assert alloc.total_cost == pytest.approx(PLAIN_COSTS.budget, abs=1e-9)

    def test_uniform_zero_budget_sits_at_cheap_ends(self):
        costs = CostModel(beta_box=(0.05, 0.5), delta_box=(0.2, 1.0),
                          budget=1e-12)
        alloc = baseline_uniform(TWO_NODE, {0}, costs)
        assert np.allclose(alloc.beta, 0.5)
        assert np.allclose(alloc.delta, 0.2)
        assert alloc.total_cost == pytest.approx(0.0, abs=1e-9)

    def test_optimizer_dominates_uniform(self):
        opt = solve_allocation(build_problem1(TWO_NODE, {0}, PLAIN_COSTS))
        uni = baseline_uniform(TWO_NODE, {0}, PLAIN_COSTS)
        assert opt.lambda_bar <= uni.lambda_bar + 1e-6

    def test_sis_spends_on_infected_node_prevention(self):
        # node 0 is already infected: the initial-condition-aware design
        # leaves its prevention at the free end, the SIS one pays for it
        opt = solve_allocation(build_problem1(TWO_NODE, {0}, PLAIN_COSTS))
        sis = baseline_sis_spectral(TWO_NODE, {0}, PLAIN_COSTS)
        opt_spend = PLAIN_COSTS.prevention_cost(opt.beta[0])
        sis_spend = PLAIN_COSTS.prevention_cost(sis.beta[0])
        assert opt_spend < 1e-3
        assert sis_spend > 0.05

    def test_sis_requires_plain_mode(self):
        iso = CostModel(beta_box=(0.05, 0.5), gamma_box=(0.5, 4.0), budget=2.0)
        with pytest.raises(ValueError):
            baseline_sis_spectral(TWO_NODE, {0}, iso)

    def test_uniform_isolation_mode(self):
        costs = CostModel(beta_box=(0.05, 0.5), gamma_box=(0.5, 4.0),
                          budget=2.0)
        alloc = baseline_uniform(TWO_NODE, {0}, costs, delta_fixed=0.3, p=2)
        assert alloc.mode == "isolation"
        assert alloc.gamma is not None
        assert alloc.is_certified

    def test_uncertifiable_baseline_reports_unbounded(self):
        # strong contagion, weak cure: the comparison matrix is unstable
        tri = load_edge_list("0 1\n1 2\n0 2")
        costs = CostModel(beta_box=(3.0, 5.0), delta_box=(0.01, 0.02),
                          budget=1e-9)
        alloc = baseline_uniform(tri, {0}, costs)
        assert not alloc.is_certified
        assert alloc.lambda_bar == math.inf


class _Captured(Exception):
    pass


class TestCompiledRows:
    """Every non-box segment of the compiled allocation GPs, at random
    positive points, against the certificate, bound and budget
    inequalities written out here from the dense adjacency. Values are
    compared as the ratios num/den that the segments are the logarithms
    of."""

    PLAIN = CostModel(beta_box=(0.05, 0.5), delta_box=(0.2, 1.0),
                      budget=2.0)
    ISO = CostModel(beta_box=(0.05, 0.5), gamma_box=(0.5, 4.0), budget=2.0)

    @staticmethod
    def instances():
        from importlib import resources
        from conftest import random_graph
        gen = np.random.default_rng(8)
        graphs = [random_graph(gen, int(gen.integers(2, 9)), edge_prob=0.5)
                  for _ in range(5)]
        graphs.append(load_edge_list((resources.files("netsir") / "data"
                                      / "social68.txt").read_text()))
        for g in graphs:
            k = int(gen.integers(1, min(4, g.node_count) + 1))
            yield g, frozenset(int(i) for i in
                               gen.choice(g.node_count, k, replace=False))

    @staticmethod
    def point(lcp, costs, rng):
        """A random positive point: rates inside their boxes, the rest
        log-uniform on [e^-2, e^2]."""
        x = {}
        for name in lcp.variables:
            kind = name.split("_")[0]
            lo, hi = {"beta": costs.beta_box, "delta": costs.delta_box,
                      "gamma": costs.gamma_box}.get(kind, (np.exp(-2.0),
                                                           np.exp(2.0)))
            x[name] = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
        return x

    @staticmethod
    def spend(costs, beta, second, n):
        """The budget row: total cost <= budget, with the constant
        offsets moved to the right-hand side."""
        rhs = costs.absorbed_budget(n)
        return (costs.total_cost(beta, second) - costs.budget + rhs) / rhs

    def check(self, lcp, costs, rng, expected):
        for _ in range(3):
            x = self.point(lcp, costs, rng)
            vals = lcp.system.values(np.log([x[v] for v in lcp.variables]))
            objective, rows = expected(x)
            assert lcp.ineq_count == len(rows)
            np.testing.assert_allclose(np.exp(vals[:1 + len(rows)]),
                                       [objective, *rows], rtol=1e-12)

    def test_problem1(self, rng):
        for g, infected in self.instances():
            a, n = g.adjacency_matrix(), g.node_count
            costs = CostModel(beta_box=self.PLAIN.beta_box,
                              delta_box=self.PLAIN.delta_box, budget=n)
            unmasked = np.ones(n)
            unmasked[list(infected)] = 0.0
            for cap in (None, 0.5):
                prob = build_problem1(g, infected, costs, lambda_cap=cap)
                eps = prob.epsilon

                def expected(x):
                    v, beta, delta = (np.array([x[f"{k}_{i}"]
                                                for i in range(n)])
                                      for k in ("v", "beta", "delta"))
                    cert = ((v * unmasked * beta) @ a + delta + eps) \
                        / (v * delta)
                    heads = sum(v[i] for i in infected) + eps
                    budget = self.spend(costs, beta, delta, n)
                    if cap is None:
                        return x["t"], [*cert, heads / x["t"], budget]
                    return budget, [*cert, heads / (cap + len(infected)),
                                    budget]
                self.check(prob.gp_problem, costs, rng, expected)

    def test_problem2(self, rng):
        for g, infected in self.instances():
            a, n = g.adjacency_matrix(), g.node_count
            costs = CostModel(beta_box=self.ISO.beta_box,
                              gamma_box=self.ISO.gamma_box, budget=n)
            unmasked = np.ones(n)
            unmasked[list(infected)] = 0.0
            for p in (1, 2, 3):
                x_range = (p / costs.gamma_box[1], p / costs.gamma_box[0])
                for delta in (np.zeros(n), rng.uniform(0.01, 0.3, n)):
                    fits = [fit_monomial_bound(d, x_range) for d in delta]
                    kappa = np.array([f.kappa for f in fits])
                    alpha = np.array([f.alpha for f in fits])
                    prob = build_problem2(g, infected, costs, fits, p=p,
                                          delta=delta)
                    eps = prob.epsilon

                    def expected(x):
                        v = np.array([[x[f"v_{i}_{m}"]
                                       for m in range(1, p + 1)]
                                      for i in range(n)])
                        beta, gamma = (np.array([x[f"{k}_{i}"]
                                                 for i in range(n)])
                                       for k in ("beta", "gamma"))
                        rate = p / gamma      # -DPi of every phase
                        inflow = (v[:, 0] * unmasked * beta) @ a
                        onward = np.column_stack([v[:, 1:], np.ones(n)])
                        num = (inflow[:, None] + rate[:, None] * onward
                               + delta[:, None] + eps)
                        den = (kappa * rate ** alpha)[:, None] * v
                        heads = sum(v[i, 0] for i in infected) + eps
                        return x["t"], [*(num / den).ravel(),
                                        heads / x["t"],
                                        self.spend(costs, beta, gamma, n)]
                    self.check(prob.gp_problem, costs, rng, expected)

    def test_sis_baseline(self, rng, monkeypatch):
        def capture(lcp, tol):
            built.append(lcp)
            raise _Captured
        monkeypatch.setattr(gp, "solve_compiled", capture)
        for g, infected in self.instances():
            a, n = g.adjacency_matrix(), g.node_count
            costs = CostModel(beta_box=self.PLAIN.beta_box,
                              delta_box=self.PLAIN.delta_box, budget=n)
            built = []
            with pytest.raises(_Captured):
                baseline_sis_spectral(g, infected, costs)

            def expected(x):
                v, beta, delta = (np.array([x[f"{k}_{i}"] for i in range(n)])
                                  for k in ("v", "beta", "delta"))
                eps = allocator.DEFAULT_EPSILON
                cert = ((v * beta) @ a + x["s"] * v + eps) / (v * delta)
                return 1.0 / x["s"], [*cert,
                                      self.spend(costs, beta, delta, n)]
            self.check(built[0], costs, rng, expected)
