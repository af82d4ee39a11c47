"""Budgeted resource allocation against the certified infection bounds.

Two problems are assembled as geometric programs over the certificate
vector v and the tunable rates. Without isolation the variables are
per-node infection and recovery rates under prevention/correction cost
curves; with isolation the recovery rates are fixed and the Erlang mean
of each node's removal law is tuned instead, with the diagonal decay
handled through a monomial under-estimator kappa * x^alpha <= x + delta
fitted per node. Baselines (uniform spending and an SIS-style spectral
design that ignores initial conditions) are provided for comparison.

The GPs are built as arrays, in the compiled form gp.LogConvexProblem,
over the column blocks [v | beta | delta or gamma | t or s]. Problems 1
and 2 and the SIS baseline share one certificate-row builder, which
works from the sparse adjacency and the infected mask, and add only
their own per-column terms; solutions are read back by slicing.

Cost curves follow the normalized forms

    prevention  f(beta)  = c1/beta  + c2   (1 at beta_lo, 0 at beta_hi)
    correction  g(delta) = c3*delta + c4   (1 at delta_hi, 0 at delta_lo)
    isolation   h(gamma) = c5/gamma + c6   (1 at gamma_lo, 0 at gamma_hi)

and the constant offsets are absorbed into the budget so every
constraint stays posynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp

from . import bound as bound_mod
from . import gp
from .graph import Graph, degrees
from .phase_type import erlang_laws
from .simulator import EpidemicParams

DEFAULT_EPSILON = 1e-6
_WIDE_BOX = (1e-8, 1e8)


class BudgetModelError(ValueError):
    """Budget cannot cover the fixed cost constants."""


class AllocationInfeasible(RuntimeError):
    """The requested control level is not reachable within the budget."""


class CertificateError(RuntimeError):
    """Solver output failed its own certificate re-validation."""


@dataclass(frozen=True)
class CostModel:
    """Boxes, budget, and the normalized cost constants.

    Exactly one of delta_box (plain mode) and gamma_box (isolation
    mode) must be present.
    """

    beta_box: tuple
    budget: float
    delta_box: Optional[tuple] = None
    gamma_box: Optional[tuple] = None

    def __post_init__(self):
        if (self.delta_box is None) == (self.gamma_box is None):
            raise ValueError("provide exactly one of delta_box and gamma_box")
        for name, box in (("beta", self.beta_box),
                          ("delta", self.delta_box),
                          ("gamma", self.gamma_box)):
            if box is None:
                continue
            lo, hi = box
            if not (0 < lo < hi):
                raise ValueError(f"{name}_box must satisfy 0 < lo < hi")
        if not self.budget > 0:
            raise ValueError("budget must be positive")

    @property
    def mode(self) -> str:
        return "plain" if self.delta_box is not None else "isolation"

    # prevention: f(beta) = c1/beta + c2, f(lo)=1, f(hi)=0
    @property
    def c1(self) -> float:
        lo, hi = self.beta_box
        return lo * hi / (hi - lo)

    @property
    def c2(self) -> float:
        return -self.c1 / self.beta_box[1]

    # correction: g(delta) = c3*delta + c4, g(hi)=1, g(lo)=0
    @property
    def c3(self) -> float:
        lo, hi = self.delta_box
        return 1.0 / (hi - lo)

    @property
    def c4(self) -> float:
        return -self.c3 * self.delta_box[0]

    # isolation: h(gamma) = c5/gamma + c6, h(lo)=1, h(hi)=0
    @property
    def c5(self) -> float:
        lo, hi = self.gamma_box
        return lo * hi / (hi - lo)

    @property
    def c6(self) -> float:
        return -self.c5 / self.gamma_box[1]

    def prevention_cost(self, beta) -> np.ndarray:
        return self.c1 / np.asarray(beta, float) + self.c2

    def correction_cost(self, delta) -> np.ndarray:
        return self.c3 * np.asarray(delta, float) + self.c4

    def isolation_cost(self, gamma) -> np.ndarray:
        return self.c5 / np.asarray(gamma, float) + self.c6

    def absorbed_budget(self, n: int) -> float:
        """Budget left for the variable cost terms after the constant
        offsets of all n nodes are moved to the right-hand side."""
        if self.mode == "plain":
            fixed = n * (self.c2 + self.c4)
        else:
            fixed = n * (self.c2 + self.c6)
        remaining = self.budget - fixed
        if remaining <= 0:
            raise BudgetModelError(
                f"budget {self.budget} cannot cover fixed constants "
                f"(needs > {fixed:.6g})")
        return remaining

    def total_cost(self, beta, second) -> float:
        if self.mode == "plain":
            return float(np.sum(self.prevention_cost(beta)
                                + self.correction_cost(second)))
        return float(np.sum(self.prevention_cost(beta)
                            + self.isolation_cost(second)))


@dataclass(frozen=True)
class MonomialBound:
    """kappa * x^alpha <= x + delta certified on [x_lo, x_hi]."""

    kappa: float
    alpha: float
    x_lo: float
    x_hi: float


def _tightest_kappa(alpha: float, delta: float, x_lo: float,
                    x_hi: float) -> float:
    """min over the range of (x + delta) / x^alpha, attained either at
    the interior stationary point alpha*delta/(1-alpha) or an end."""
    candidates = [x_lo, x_hi]
    if alpha < 1.0:
        x_star = alpha * delta / (1.0 - alpha)
        if x_lo < x_star < x_hi:
            candidates.append(x_star)
    return min((x + delta) * x ** (-alpha) for x in candidates)


def _max_gap(alpha: float, kappa: float, delta: float, x_lo: float,
             x_hi: float) -> float:
    # (x + delta) - kappa x^alpha is convex in x, so ends suffice
    return max((x + delta) - kappa * x ** alpha for x in (x_lo, x_hi))


def fit_monomial_bound(delta: float, x_range, grid_size: int = 10_000
                       ) -> MonomialBound:
    """Fit kappa * x^alpha <= x + delta on x_range, minimizing the
    worst-case slack by golden-section search over alpha in (0, 1],
    with the tightest kappa per alpha in closed form. The result is
    re-verified on a grid of grid_size points.
    """
    x_lo, x_hi = float(x_range[0]), float(x_range[1])
    if not (0 < x_lo <= x_hi):
        raise ValueError("x_range must satisfy 0 < lo <= hi")
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    if x_lo == x_hi:
        alpha = 1.0
        kappa = (x_lo + delta) / x_lo
    else:
        def objective(alpha):
            return _max_gap(alpha, _tightest_kappa(alpha, delta, x_lo, x_hi),
                            delta, x_lo, x_hi)

        lo, hi = 1e-6, 1.0
        inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = lo, hi
        c = b - inv_phi * (b - a)
        d = a + inv_phi * (b - a)
        fc, fd = objective(c), objective(d)
        for _ in range(200):
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - inv_phi * (b - a)
                fc = objective(c)
            else:
                a, c, fc = c, d, fd
                d = a + inv_phi * (b - a)
                fd = objective(d)
            if b - a < 1e-12:
                break
        alpha = 0.5 * (a + b)
        if objective(1.0) <= objective(alpha):
            alpha = 1.0  # never do worse than the exponent-one fit
        kappa = _tightest_kappa(alpha, delta, x_lo, x_hi)
    kappa *= 1.0 - 1e-12  # shave so the grid check is roundoff-proof
    xs = np.linspace(x_lo, x_hi, max(2, grid_size))
    if np.any(kappa * xs ** alpha > xs + delta):
        raise RuntimeError("monomial fit failed its own grid verification")
    return MonomialBound(kappa=kappa, alpha=alpha, x_lo=x_lo, x_hi=x_hi)


@dataclass(frozen=True, eq=False)
class AllocationProblem:
    """A compiled GP plus the instance data needed to rebuild and
    re-verify the comparison system from solver output."""

    gp_problem: gp.LogConvexProblem
    graph: Graph
    infected: frozenset
    costs: CostModel
    mode: str                      # plain | isolation
    lambda_cap: Optional[float]    # None means minimize lambda_bar
    epsilon: float
    p: int = 1
    delta_fixed: Optional[np.ndarray] = None
    fits: Optional[tuple] = None


@dataclass(frozen=True, eq=False)
class Allocation:
    """Solved allocation: rates, spent budget, and the certified bound
    with its witness (certificate_v is None only for uncertifiable
    baseline allocations, in which case lambda_bar is unbounded)."""

    mode: str
    beta: np.ndarray
    delta: Optional[np.ndarray]
    gamma: Optional[np.ndarray]
    total_cost: float
    lambda_bar: float
    certificate_v: Optional[np.ndarray]
    strategy: str = "optimized"

    @property
    def is_certified(self) -> bool:
        return self.certificate_v is not None and math.isfinite(self.lambda_bar)

    def to_json_dict(self) -> dict:
        doc = {"mode": self.mode,
               "strategy": self.strategy,
               "lambda_bar": self.lambda_bar if math.isfinite(self.lambda_bar)
               else "unbounded",
               "total_cost": self.total_cost,
               "beta": self.beta.tolist(),
               "certificate_v": None if self.certificate_v is None
               else self.certificate_v.tolist()}
        if self.delta is not None:
            doc["delta"] = self.delta.tolist()
        if self.gamma is not None:
            doc["gamma"] = self.gamma.tolist()
        return doc


def _compile(families, lo, hi, names) -> gp.LogConvexProblem:
    """Stack term families into a compiled GP. A family (seg, logc,
    entries) holds one monomial term per entry of seg: term k lies in
    segment seg[k] with log-coefficient logc[k], and each (col, exp) of
    entries puts exponent exp[k] on column col[k]. Scalars broadcast;
    the compiled form drops exponents that cancel to zero."""
    seg, logc, rows, cols, exps = [], [], [], [], []
    for s, lc, entries in families:
        s = np.atleast_1d(s)
        rows += [sum(map(len, seg)) + np.arange(len(s))] * len(entries)
        seg.append(s)
        logc.append(np.broadcast_to(lc, s.shape))
        cols += [np.broadcast_to(col, s.shape) for col, _ in entries]
        exps += [np.broadcast_to(exp, s.shape) for _, exp in entries]
    seg = np.concatenate(seg)
    order = np.argsort(seg, kind="stable")
    F = sp.csr_matrix((np.concatenate(exps),
                       (np.argsort(order)[np.concatenate(rows)],
                        np.concatenate(cols))), shape=(len(seg), len(lo)))
    return gp.LogConvexProblem(
        F, np.concatenate(logc)[order],
        np.searchsorted(seg[order], np.arange(seg.max() + 1)), lo, hi, names)


def _certificate_rows(g: Graph, transmit: np.ndarray, p: int,
                      den_logc: np.ndarray, den_exp: np.ndarray,
                      own: list, epsilon: float) -> list:
    """Term families of segments 1..n*p, one per certificate column
    c = j*p + m:

        (sum over neighbours i of j with transmit_i of v_{i,0} beta_i
         + the own terms of c + eps)
            / (exp(den_logc_j) v_c x_j^den_exp_j) <= 1

    with x the second rate block. `own` lists each family of a
    problem's own terms as (columns c, log-coefficients, entries)."""
    n = g.node_count
    a = g.adjacency_sparse()   # symmetric: row j lists j's neighbours
    j = np.repeat(np.arange(n), np.diff(a.indptr))
    i = a.indices
    j, i = j[transmit[i]], i[transmit[i]]
    c = (j * p + np.arange(p)[:, None]).ravel()   # every phase of j
    i = np.tile(i, p)
    families = [(c, 0.0, [(i * p, 1.0), (n * p + i, 1.0)]),
                (np.arange(n * p), math.log(epsilon), [])] + own
    return [(1 + col, logc - den_logc[col // p],
             entries + [(col, -1.0), (n * p + n + col // p,
                                      -den_exp[col // p])])
            for col, logc, entries in families]


def _budget_terms(costs: CostModel, n: int, p: int, seg: int) -> list:
    """The budget as a posynomial <= 1 in segment seg, the constant
    offsets of the cost curves moved to the right-hand side."""
    rhs = costs.absorbed_budget(n)
    coeff, power = ((costs.c3, 1.0) if costs.mode == "plain"
                    else (costs.c5, -1.0))
    nodes = np.arange(n)
    return [(np.full(n, seg), math.log(costs.c1 / rhs),
             [(n * p + nodes, -1.0)]),
            (np.full(n, seg), math.log(coeff / rhs),
             [(n * p + n + nodes, power)])]


def _boxes(costs: CostModel, n: int, p: int, last: dict) -> tuple:
    """lo, hi and names over the blocks: a wide box per certificate
    entry, the rate boxes, and `last` ({name: box}, empty or one entry)
    for the trailing scalar."""
    plain = costs.mode == "plain"
    box = costs.delta_box if plain else costs.gamma_box
    lo, hi = np.array([_WIDE_BOX] * (n * p) + [costs.beta_box] * n
                      + [box] * n + list(last.values()), dtype=float).T
    names = [f"v_{i}" if plain else f"v_{i}_{m}"
             for i in range(n) for m in range(1, p + 1)]
    names += [f"{rate}_{i}" for rate in
              ("beta", "delta" if plain else "gamma") for i in range(n)]
    return lo, hi, names + list(last)


def _allocation_problem(g: Graph, infected, costs: CostModel, p: int,
                        den_logc, den_exp, own: list,
                        lambda_cap: Optional[float], epsilon: float,
                        **fields) -> AllocationProblem:
    """Problems 1 and 2: the certificate rows, the bound row

        (sum of the infected nodes' v_{i,0} + eps) / t <= 1

    and the budget row. Minimizing, t = lambda_bar + sigma_I(0) is the
    last column and the objective; under a cap, t is fixed at
    lambda_cap + sigma_I(0) and the spend is minimized, which picks a
    canonical feasible point."""
    infected = frozenset(int(i) for i in infected)
    if not infected:
        raise ValueError("infected set must be non-empty")
    n = g.node_count
    transmit = np.ones(n, dtype=bool)
    transmit[list(infected)] = False   # J_ii = 0
    families = _certificate_rows(g, transmit, p, den_logc, den_exp, own,
                                 epsilon)
    bound_seg = 1 + n * p
    heads = np.array(sorted(infected)) * p
    if lambda_cap is None:
        t = n * p + 2 * n
        per_t, scale, last = [(t, -1.0)], 0.0, {"t": _WIDE_BOX}
        families.append((0, 0.0, [(t, 1.0)]))
    else:
        if lambda_cap <= 0:
            raise ValueError("lambda cap must be positive")
        per_t, last = [], {}
        scale = -math.log(lambda_cap + len(infected))
        families += _budget_terms(costs, n, p, 0)
    families += [(np.full(len(heads), bound_seg), scale,
                  [(heads, 1.0)] + per_t),
                 (bound_seg, math.log(epsilon) + scale, per_t)]
    families += _budget_terms(costs, n, p, bound_seg + 1)
    return AllocationProblem(
        gp_problem=_compile(families, *_boxes(costs, n, p, last)), graph=g,
        infected=infected, costs=costs, mode=costs.mode,
        lambda_cap=lambda_cap, epsilon=epsilon, p=p, **fields)


def _blocks(x: np.ndarray, n: int, p: int) -> list:
    """The blocks [v | beta | delta or gamma | t or s] of a point."""
    return np.split(x, [n * p, n * p + n, n * p + 2 * n])


def build_problem1(g: Graph, infected, costs: CostModel,
                   lambda_cap: Optional[float] = None,
                   epsilon: float = DEFAULT_EPSILON) -> AllocationProblem:
    """Assemble the plain-mode allocation GP.

    Variables are the certificate entries v_i and the rates beta_i,
    delta_i, plus t = lambda_bar + sigma_I(0) when minimizing. Per
    column j the certificate row inequality becomes the posynomial

        (sum_i v_i J_ii a_ij beta_i + delta_j + eps) / (v_j delta_j) <= 1

    the bound inequality becomes (sum_infected v_i + eps) / t <= 1, and
    the budget uses the constant-absorbed right-hand side. Strictness
    is encoded additively with margin eps so certificates verify at
    absolute slack.
    """
    if costs.mode != "plain":
        raise ValueError("plain-mode cost model required")
    n = g.node_count
    nodes = np.arange(n)
    own = [(nodes, 0.0, [(2 * n + nodes, 1.0)])]    # delta_j
    return _allocation_problem(g, infected, costs, 1, np.zeros(n),
                               np.ones(n), own, lambda_cap, epsilon)


def build_problem2(g: Graph, infected, costs: CostModel,
                   fits: Sequence[MonomialBound], p: int, delta,
                   lambda_cap: Optional[float] = None,
                   epsilon: float = DEFAULT_EPSILON) -> AllocationProblem:
    """Assemble the isolation-mode allocation GP for the Erlang family.

    Each node has one removal law Erlang(p, gamma_i) with -DPi = p/gamma
    identical across phases, so `fits` carries one monomial bound per
    node, reused for every phase. Per phase column (j, m) the
    certificate row inequality is

        (sum_i v_{i,1} J_ii a_ij beta_i + (p/gamma_j) v_{j,m+1}
         + delta_j + eps) / (kappa_j (p/gamma_j)^alpha_j v_{j,m}) <= 1

    with v_{j,p+1} = 1. `delta` is the fixed natural-recovery rate
    vector; zero is allowed, as in `EpidemicParams` under isolation
    laws.
    """
    if costs.mode != "isolation":
        raise ValueError("isolation-mode cost model required")
    n = g.node_count
    if len(fits) != n:
        raise ValueError(f"need one monomial fit per node, got {len(fits)}")
    delta = np.broadcast_to(np.asarray(delta, float), (n,)).copy()
    if np.any(delta < 0):
        raise ValueError("delta must be nonnegative")
    kappa = np.array([f.kappa for f in fits])
    alpha = np.array([f.alpha for f in fits])
    cols = np.arange(n * p)
    node = cols // p
    last = cols % p == p - 1
    recovers = cols[delta[node] > 0]
    own = [(cols, math.log(p),    # on to phase m+1, or out of the last
            [(n * p + n + node, -1.0),
             (np.where(last, cols, cols + 1), np.where(last, 0.0, 1.0))]),
           (recovers, np.log(delta[recovers // p]), [])]
    return _allocation_problem(g, infected, costs, p,
                               np.log(kappa) + alpha * math.log(p), -alpha,
                               own, lambda_cap, epsilon, delta_fixed=delta,
                               fits=tuple(fits))


def allocation_params(infected, mode: str, beta, second, delta_fixed=None,
                      p: int = 1) -> EpidemicParams:
    """The model of one allocation: `second` holds the recovery rates in
    plain mode and the Erlang(p) means in isolation mode, where
    `delta_fixed` holds the fixed recovery rates."""
    plain = mode == "plain"
    return EpidemicParams.build(
        len(beta), beta, second if plain else delta_fixed, infected,
        isolation=None if plain else erlang_laws(p, second))


def solve_allocation(prob: AllocationProblem,
                     tol: float = 1e-7) -> Allocation:
    """Solve the assembled GP and re-verify the result: the extracted
    certificate must pass with slack epsilon/2 and the recomputed
    linear-solve bound must not exceed the reported lambda_bar."""
    sol = gp.solve_compiled(prob.gp_problem, tol=tol)
    if sol.status == "infeasible":
        raise AllocationInfeasible(
            "budget insufficient for the requested control level"
            if prob.lambda_cap is not None else
            "allocation problem infeasible")
    if sol.status != "optimal":
        raise CertificateError(f"solver did not converge: {sol.status}")
    v, beta, second, t = _blocks(sol.x, prob.graph.node_count, prob.p)
    if prob.lambda_cap is None:
        lambda_bar = max(0.0, float(t[0]) - len(prob.infected))
    else:
        lambda_bar = prob.lambda_cap
    sys = bound_mod.build_sir_system(prob.graph, allocation_params(
        prob.infected, prob.mode, beta, second, prob.delta_fixed, prob.p))
    if not bound_mod.verify_certificate(sys, v, lambda_bar,
                                        slack=prob.epsilon / 2):
        raise CertificateError("solver output failed certificate validation")
    lb = bound_mod.lambda_bound(sys)
    if not lb <= lambda_bar + 10 * max(tol, 1e-9) * (1 + abs(lambda_bar)):
        raise CertificateError(
            f"recomputed bound {lb} exceeds certified level {lambda_bar}")
    total = prob.costs.total_cost(beta, second)
    return Allocation(mode=prob.mode, beta=beta,
                      delta=second if prob.mode == "plain" else None,
                      gamma=second if prob.mode == "isolation" else None,
                      total_cost=total, lambda_bar=lambda_bar,
                      certificate_v=v, strategy="optimized")


def _certify(g: Graph, infected, costs: CostModel, beta, second,
             delta_fixed=None, p: int = 1,
             strategy: str = "baseline") -> Allocation:
    """Wrap externally chosen rates into an Allocation, synthesizing a
    certificate when the comparison system is Hurwitz."""
    sys = bound_mod.build_sir_system(g, allocation_params(
        infected, costs.mode, beta, second, delta_fixed, p))
    cert = bound_mod.certificate_for(sys, margin=DEFAULT_EPSILON)
    if cert is None:
        lambda_bar, v = bound_mod.UNBOUNDED, None
    else:
        v, lambda_bar = cert
        lambda_bar = max(0.0, lambda_bar)
    return Allocation(mode=costs.mode, beta=np.asarray(beta, float),
                      delta=np.asarray(second, float)
                      if costs.mode == "plain" else None,
                      gamma=np.asarray(second, float)
                      if costs.mode == "isolation" else None,
                      total_cost=costs.total_cost(beta, second),
                      lambda_bar=lambda_bar, certificate_v=v,
                      strategy=strategy)


def baseline_uniform(g: Graph, infected, costs: CostModel,
                     budget: Optional[float] = None,
                     delta_fixed=None, p: int = 1) -> Allocation:
    """Spend the budget equally per node, split equally between the two
    resource types; rates follow by inverting the cost curves. Spending
    saturates at the expensive ends when the budget exceeds 2n."""
    n = g.node_count
    budget = costs.budget if budget is None else budget
    spend = min(1.0, max(0.0, budget / (2.0 * n)))
    # invert f(beta) = spend
    beta = np.full(n, costs.c1 / (spend - costs.c2))
    beta = np.clip(beta, costs.beta_box[0], costs.beta_box[1])
    if costs.mode == "plain":
        second = np.full(n, (spend - costs.c4) / costs.c3)
        second = np.clip(second, costs.delta_box[0], costs.delta_box[1])
    else:
        second = np.full(n, costs.c5 / (spend - costs.c6))
        second = np.clip(second, costs.gamma_box[0], costs.gamma_box[1])
    return _certify(g, infected, costs, beta, second,
                    delta_fixed=delta_fixed, p=p, strategy="uniform")


def baseline_sis_spectral(g: Graph, infected, costs: CostModel,
                          tol: float = 1e-7) -> Allocation:
    """SIS-style spectral design: maximize the decay certificate s with
    v^T (B A - D) <= -s v^T under the same budget and boxes, with no
    masking of initially infected nodes. The returned rates are then
    evaluated under the SIR comparison bound for comparison."""
    if costs.mode != "plain":
        raise ValueError("the SIS baseline is defined for plain mode")
    n = g.node_count
    nodes = np.arange(n)
    s = 3 * n
    own = [(nodes, 0.0, [(s, 1.0), (nodes, 1.0)])]    # s v_j
    families = _certificate_rows(g, np.ones(n, dtype=bool), 1, np.zeros(n),
                                 np.ones(n), own, DEFAULT_EPSILON)
    families += _budget_terms(costs, n, 1, n + 1)
    families.append((0, 0.0, [(s, -1.0)]))
    sol = gp.solve_compiled(
        _compile(families, *_boxes(costs, n, 1, {"s": (1e-8, 1e4)})),
        tol=tol)
    if sol.status == "infeasible":
        raise AllocationInfeasible("no decay rate is attainable in the boxes")
    if sol.status != "optimal":
        raise CertificateError(f"SIS baseline solve failed: {sol.status}")
    _, beta, delta, _ = _blocks(sol.x, n, 1)
    return _certify(g, infected, costs, beta, delta, strategy="sis_spectral")


def allocation_csv_rows(alloc: Allocation, g: Graph,
                        costs: CostModel) -> list:
    """Rows (node, degree, prevention_cost, correction_cost) matching
    the scatter-plot data layout; the correction column carries the
    isolation cost in isolation mode."""
    degs = degrees(g)
    prev = costs.prevention_cost(alloc.beta)
    if alloc.mode == "plain":
        corr = costs.correction_cost(alloc.delta)
    else:
        corr = costs.isolation_cost(alloc.gamma)
    return [(i, int(degs[i]), float(prev[i]), float(corr[i]))
            for i in range(g.node_count)]
