import math
from importlib import resources

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import gp_front as front
from gp_front import GpProblem, Monomial, Posynomial, variable
from netsir import (CostModel, build_problem2, fit_monomial_bound, gp,
                    load_edge_list)


def simple_box(*names, lo=0.01, hi=100.0):
    return {name: (lo, hi) for name in names}


class TestAlgebra:
    def test_monomial_requires_positive_coeff(self):
        with pytest.raises(ValueError):
            Monomial(-2.0, {"x": 1.0})
        with pytest.raises(ValueError):
            Monomial(0.0, {})

    def test_monomial_product_and_power(self):
        m = Monomial(3.0, {"x": 2.0}) * Monomial(2.0, {"x": -1.0, "y": 1.0})
        assert m.coeff == 6.0
        assert m.exponents == {"x": 1.0, "y": 1.0}
        sq = m ** 2
        assert sq.coeff == 36.0 and sq.exponents == {"x": 2.0, "y": 2.0}

    def test_zero_exponents_dropped(self):
        m = Monomial(1.0, {"x": 1.0}) / Monomial(1.0, {"x": 1.0})
        assert m.exponents == {}

    def test_evaluate_monomial(self):
        assert front.evaluate(Monomial(3.0, {"x": 2.0}), {"x": 2.0}) == 12.0

    def test_evaluate_posynomial(self):
        p = variable("x") + Monomial(1.0, {"x": -1.0})
        assert front.evaluate(p, {"x": 1.0}) == 2.0

    def test_evaluate_cost_form(self):
        # c1/beta + c2 shape used by the allocation cost curves
        c1, c2 = 0.4, 0.1
        p = Monomial(c1, {"beta": -1.0}) + Monomial(c2, {})
        beta = 0.025
        assert front.evaluate(p, {"beta": beta}) == pytest.approx(
            c1 / beta + c2)

    def test_missing_variable_raises(self):
        with pytest.raises(KeyError):
            front.evaluate(variable("x"), {"y": 1.0})

    def test_posynomial_needs_terms(self):
        with pytest.raises(ValueError):
            Posynomial(())

    def test_problem_requires_boxes(self):
        with pytest.raises(ValueError):
            GpProblem(objective=variable("x"), box={})


class TestBoxes:
    """The compiled form takes open boxes only, 0 < lo < hi < inf."""

    @pytest.mark.parametrize("lo, hi", [(2.0, 2.0), (3.0, 2.0)],
                             ids=["pinned", "reversed"])
    def test_pinned_or_reversed_box_refused(self, lo, hi):
        objective = sp.csr_matrix(([1.0], ([0], [0])), shape=(1, 1))
        with pytest.raises(ValueError, match="lo < hi"):
            gp.LogConvexProblem(objective, [0.0], [0], [lo], [hi], ["x"])


class TestTransform:
    def test_monomial_becomes_affine(self):
        prob = GpProblem(objective=Monomial(3.0, {"x": 2.0}),
                         box=simple_box("x"))
        lcp = front.lower(prob).lcp
        y = np.array([0.7])
        val, grad = front.segment_value_grad(lcp.system, 0, y)
        assert val == pytest.approx(math.log(3.0) + 2.0 * 0.7)
        assert grad.tolist() == [2.0]

    def test_symmetric_sum_minimized_at_origin(self):
        prob = GpProblem(objective=variable("x") + Monomial(1.0, {"x": -1.0}),
                         box=simple_box("x"))
        lcp = front.lower(prob).lcp
        _, grad = front.segment_value_grad(lcp.system, 0, np.zeros(1))
        assert abs(grad[0]) < 1e-14

    def test_soundness_against_direct_evaluation(self, rng):
        terms = tuple(Monomial(float(rng.uniform(0.1, 5.0)),
                               {"x": float(rng.uniform(-2, 2)),
                                "y": float(rng.uniform(-2, 2))})
                      for _ in range(5))
        posy = Posynomial(terms)
        prob = GpProblem(objective=posy, box=simple_box("x", "y"))
        lcp = front.lower(prob).lcp
        for _ in range(100):
            y = rng.uniform(-2, 2, size=2)
            direct = front.evaluate(posy, {"x": math.exp(y[0]),
                                           "y": math.exp(y[1])})
            assert math.exp(lcp.system.values(y)[0]) == pytest.approx(
                direct, rel=1e-10)

    def test_gradients_match_finite_differences(self, rng):
        terms = tuple(Monomial(float(rng.uniform(0.1, 3.0)),
                               {"x": float(rng.uniform(-2, 2)),
                                "y": float(rng.uniform(-2, 2)),
                                "z": float(rng.uniform(-1, 1))})
                      for _ in range(4))
        prob = GpProblem(objective=variable("x"),
                         ineq_constraints=(Posynomial(terms),),
                         box=simple_box("x", "y", "z"))
        lcp = front.lower(prob).lcp
        h = 1e-6
        for _ in range(10):
            y = rng.uniform(-1, 1, size=3)
            for k in range(1, len(lcp.system.starts)):
                val, grad = front.segment_value_grad(lcp.system, k, y)
                fd = np.zeros(3)
                for i in range(3):
                    yp, ym = y.copy(), y.copy()
                    yp[i] += h
                    ym[i] -= h
                    fd[i] = (lcp.system.values(yp)[k]
                             - lcp.system.values(ym)[k]) / (2 * h)
                denom = max(1.0, np.linalg.norm(fd))
                assert np.linalg.norm(grad - fd) / denom < 1e-6

    def test_midpoint_convexity(self, rng):
        terms = tuple(Monomial(float(rng.uniform(0.1, 3.0)),
                               {"x": float(rng.uniform(-2, 2)),
                                "y": float(rng.uniform(-2, 2))})
                      for _ in range(4))
        prob = GpProblem(objective=Posynomial(terms), box=simple_box("x", "y"))
        lcp = front.lower(prob).lcp

        def f(y):
            return lcp.system.values(y)[0]
        for _ in range(50):
            a = rng.uniform(-2, 2, size=2)
            b = rng.uniform(-2, 2, size=2)
            assert f((a + b) / 2) <= (f(a) + f(b)) / 2 + 1e-12

    def test_compiled_barrier_derivatives(self, rng):
        """Gradient and Hessian of the compiled barrier, before and after
        eliminating a monomial equality and a pinned box, against central
        differences of its value."""
        names = ["a", "b", "c"]

        def posy(scale):
            return Posynomial(tuple(
                Monomial(float(rng.uniform(0.2, 1.0)) * scale,
                         {n: float(rng.uniform(-1, 1)) for n in names})
                for _ in range(2)))
        prob = GpProblem(objective=posy(1.0),
                         ineq_constraints=(posy(0.05), posy(0.05)),
                         eq_constraints=(Monomial(2.0, {"a": 1.0,
                                                        "b": -1.0}),),
                         box={"a": (0.1, 10.0), "b": (0.1, 10.0),
                              "c": (1.5, 1.5)})
        lowered = front.lower(prob)
        reduced = lowered.lcp.system
        assert reduced.dim == 1
        t, h = 3.0, 1e-4
        for system in (lowered.system, reduced):
            n = system.dim

            def f(z):
                return front.barrier_value(t, system.values(z))
            for _ in range(5):
                z = rng.uniform(-0.2, 0.2, size=n)
                _, grad, hess = front.barrier_newton(system, t, z)
                e = np.eye(n) * h
                fd_grad = np.array([(f(z + e[i]) - f(z - e[i])) / (2 * h)
                                    for i in range(n)])
                fd_hess = np.array([[(f(z + e[i] + e[j]) - f(z + e[i] - e[j])
                                      - f(z - e[i] + e[j])
                                      + f(z - e[i] - e[j])) / (4 * h * h)
                                     for j in range(n)] for i in range(n)])
                assert np.allclose(grad, fd_grad, rtol=1e-6, atol=1e-7)
                assert np.allclose(hess, fd_hess, rtol=1e-5, atol=1e-5)


class TestSolve:
    def test_monomial_floor(self):
        prob = GpProblem(objective=variable("x"),
                         ineq_constraints=(Monomial(1.0, {"x": -1.0}),),
                         box={"x": (0.1, 10.0)})
        sol = front.solve(prob)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(1.0, abs=1e-6)
        assert sol.kkt_residual <= 1e-7

    def test_am_gm_equality_case(self):
        prob = GpProblem(objective=variable("x") + variable("y"),
                         ineq_constraints=(Monomial(1.0, {"x": -1.0, "y": -1.0}),),
                         box=simple_box("x", "y"))
        sol = front.solve(prob, tol=1e-8)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(2.0, abs=1e-6)

    def test_box_infeasible(self):
        prob = GpProblem(objective=variable("x"),
                         ineq_constraints=(Monomial(2.0, {"x": -1.0}),),
                         box={"x": (0.1, 1.0)})
        sol = front.solve(prob)
        assert sol.status == "infeasible"
        assert sol.kkt_residual > 1e-7  # phase-I violation certificate

    def test_monomial_equality_constraint(self):
        prob = GpProblem(objective=variable("x") + variable("y"),
                         ineq_constraints=(Monomial(1.0, {"x": -1.0, "y": -1.0}),),
                         eq_constraints=(Monomial(4.0, {"x": 1.0, "y": -1.0}),),
                         box=simple_box("x", "y"))
        # y = 4x and xy >= 1 -> x = 1/2, y = 2
        sol = front.solve(prob)
        assert sol.status == "optimal"
        assert sol.point["x"] == pytest.approx(0.5, rel=1e-5)
        assert sol.point["y"] == pytest.approx(2.0, rel=1e-5)

    def test_inconsistent_equalities_infeasible(self):
        prob = GpProblem(objective=variable("x"),
                         eq_constraints=(Monomial(2.0, {"x": 1.0}),
                                         Monomial(3.0, {"x": 1.0})),
                         box=simple_box("x"))
        assert front.solve(prob).status == "infeasible"

    def test_pinned_box(self):
        prob = GpProblem(objective=variable("x") + variable("y"),
                         box={"x": (2.0, 2.0), "y": (0.5, 8.0)})
        # the pinned column folds into b: only y is left to solve for
        assert front.lower(prob).lcp.variables == ["y"]
        sol = front.solve(prob)
        assert sol.status == "optimal"
        assert sol.point["x"] == pytest.approx(2.0, rel=1e-9)
        assert sol.point["y"] == pytest.approx(0.5, rel=1e-4)

    def test_optimal_point_feasible(self, rng):
        prob = GpProblem(
            objective=variable("x") + 2.0 * variable("y"),
            ineq_constraints=(
                Monomial(1.0, {"x": -1.0, "y": -2.0}),
                Monomial(0.5, {"x": 1.0, "y": -1.0}) + Monomial(0.1, {}),
            ),
            box=simple_box("x", "y", lo=0.05, hi=20.0))
        sol = front.solve(prob)
        assert sol.status == "optimal"
        for c in prob.ineq_constraints:
            assert front.evaluate(c, sol.point) <= 1.0 + 1e-7
        for name, (lo, hi) in prob.box.items():
            assert lo - 1e-9 <= sol.point[name] <= hi + 1e-9

    def test_random_feasible_point_dominance(self, rng):
        prob = GpProblem(
            objective=variable("x") + 2.0 * variable("y"),
            ineq_constraints=(Monomial(1.0, {"x": -1.0, "y": -2.0}),),
            box=simple_box("x", "y", lo=0.05, hi=20.0))
        sol = front.solve(prob)
        assert sol.status == "optimal"
        found = 0
        while found < 1000:
            x = math.exp(rng.uniform(math.log(0.05), math.log(20.0)))
            y = math.exp(rng.uniform(math.log(0.05), math.log(20.0)))
            if front.evaluate(prob.ineq_constraints[0], {"x": x, "y": y}) <= 1.0:
                assert sol.objective_value <= x + 2 * y + 1e-6
                found += 1


def test_scatter_matches_sparse_reference_on_social68(rng):
    """On the social68 Erlang(2) allocation GP, the compiled scatter's
    G^T s and Newton matrix equal a scipy.sparse assembly, for the
    phase-I and the phase-II systems."""
    g = load_edge_list((resources.files("netsir") / "data"
                        / "social68.txt").read_text())
    infected = frozenset(int(i) for i in np.random.default_rng(2024).choice(
        g.node_count, size=4, replace=False))
    costs = CostModel(beta_box=(0.00266, 0.0133), gamma_box=(2.0, 20.0),
                      budget=68.0)
    fits = [fit_monomial_bound(0.05, (2 / 20.0, 2 / 2.0))] * g.node_count
    lcp = build_problem2(g, infected, costs, fits, p=2,
                         delta=0.05).gp_problem
    z0 = lcp.center_point()
    for system, center in ((lcp.system, z0),
                           (lcp.system.phase1(), np.append(z0, 1.0))):
        segments = len(system.starts)
        for _ in range(5):
            y = center + rng.uniform(-1.0, 1.0, size=system.dim)
            s = rng.uniform(0.1, 10.0, size=segments)
            q = rng.uniform(-10.0, 10.0, size=segments)
            _, w = system.lse(y)
            F = system.F
            G = sp.csr_matrix((w, np.arange(len(w)), system.ptr),
                              shape=(segments, len(w))) @ F
            ref = (F.T @ sp.diags(w * s[system.seg]) @ F
                   + G.T @ sp.diags(q) @ G).toarray()
            gd = system.gradients(w)
            hess = system.hessian(w, gd, s, q)
            grad = system.gt(gd, s)
            assert np.abs(hess - ref).max() <= 1e-12 * np.abs(ref).max()
            assert np.abs(grad - G.T @ s).max() <= \
                1e-12 * np.abs(G.T @ s).max()


def _solve_cases():
    """The problems that TestSolve solves to 'optimal', with their tol."""
    box = simple_box("x", "y")
    xy_floor = Monomial(1.0, {"x": -1.0, "y": -1.0})
    return [
        (GpProblem(objective=variable("x"),
                   ineq_constraints=(Monomial(1.0, {"x": -1.0}),),
                   box={"x": (0.1, 10.0)}), 1e-7),
        (GpProblem(objective=variable("x") + variable("y"),
                   ineq_constraints=(xy_floor,), box=box), 1e-8),
        (GpProblem(objective=variable("x") + variable("y"),
                   ineq_constraints=(xy_floor,),
                   eq_constraints=(Monomial(4.0, {"x": 1.0, "y": -1.0}),),
                   box=box), 1e-7),
        (GpProblem(objective=variable("x") + variable("y"),
                   box={"x": (2.0, 2.0), "y": (0.5, 8.0)}), 1e-7),
        (GpProblem(objective=variable("x") + 2.0 * variable("y"),
                   ineq_constraints=(
                       Monomial(1.0, {"x": -1.0, "y": -2.0}),
                       Monomial(0.5, {"x": 1.0, "y": -1.0})
                       + Monomial(0.1, {})),
                   box=simple_box("x", "y", lo=0.05, hi=20.0)), 1e-7),
        (GpProblem(objective=variable("x") + 2.0 * variable("y"),
                   ineq_constraints=(Monomial(1.0, {"x": -1.0, "y": -2.0}),),
                   box=simple_box("x", "y", lo=0.05, hi=20.0)), 1e-7),
    ]


def test_optimal_results_meet_their_tolerance():
    """'optimal' means the dual residual and the surrogate gap are both
    within tol, at a point that satisfies every constraint."""
    for prob, tol in _solve_cases():
        sol = front.solve(prob, tol=tol)
        assert sol.status == "optimal"
        assert sol.kkt_residual <= tol and sol.gap <= tol
        for c in prob.ineq_constraints:
            assert front.evaluate(c, sol.point) <= 1.0 + 1e-12
        for m in prob.eq_constraints:
            assert front.evaluate(m, sol.point) == pytest.approx(1.0, rel=1e-9)
        for name, (lo, hi) in prob.box.items():
            assert lo * (1 - 1e-12) <= sol.point[name] <= hi * (1 + 1e-12)


def test_step_cap_reports_max_iter():
    prob, tol = _solve_cases()[4]
    sol = front.solve(prob, tol=tol, max_newton=3)
    assert sol.status == "max_iter" and sol.newton_iters == 3
    assert sol.kkt_residual > tol or sol.gap > tol


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_transform_soundness_random_posynomials(seed):
    rng = np.random.default_rng(seed)
    names = ["a", "b", "c"]
    terms = tuple(Monomial(float(rng.uniform(0.05, 10.0)),
                           {n: float(rng.uniform(-3, 3)) for n in names})
                  for _ in range(int(rng.integers(1, 6))))
    prob = GpProblem(objective=Posynomial(terms), box=simple_box(*names))
    lcp = front.lower(prob).lcp
    y = rng.uniform(-2, 2, size=3)
    point = {n: math.exp(y[i]) for i, n in enumerate(lcp.variables)}
    assert math.exp(lcp.system.values(y)[0]) == pytest.approx(
        front.evaluate(Posynomial(terms), point), rel=1e-10)
