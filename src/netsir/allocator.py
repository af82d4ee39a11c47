"""Budgeted resource allocation against the certified infection bounds.

Two problems are assembled as geometric programs over the certificate
vector v and the tunable rates. Without isolation the variables are
per-node infection and recovery rates under prevention/correction cost
curves; with isolation the recovery rates are fixed and the Erlang mean
of each node's removal law is tuned instead, with the diagonal decay
handled through a monomial under-estimator kappa * x^alpha <= x + delta
that `build_problem2` fits once per distinct delta: the tangent to
x + delta whose two end gaps on the range are equal, which is the
minimax fit, found by bisection on the point of tangency. Baselines
(uniform spending and an SIS-style spectral design that ignores
initial conditions) are provided for comparison.

The GPs are built as arrays, in the compiled form gp.LogConvexProblem,
over the column blocks [v | beta | delta or gamma | t or s]. Problems 1
and 2 and the SIS baseline share one certificate-row builder, which
works from the sparse adjacency and the infected mask, and add only
their own per-column terms; solutions are read back by slicing.

Every cost curve has the one normalized form c * x**power + o:

    prevention  beta   power -1   (1 at beta_lo,  0 at beta_hi)
    correction  delta  power +1   (1 at delta_hi, 0 at delta_lo)
    isolation   gamma  power -1   (1 at gamma_lo, 0 at gamma_hi)

and the constant offsets o are absorbed into the budget so every
constraint stays posynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from . import bound as bound_mod
from . import gp
from .graph import Graph, degrees
from .phase_type import erlang_laws
from .simulator import EpidemicParams

_WIDE_BOX = (1e-8, 1e8)
_FIT_GRID = 10_000   # points on which a monomial fit re-verifies itself


class BudgetModelError(ValueError):
    """Budget cannot cover the fixed cost constants."""


class AllocationInfeasible(RuntimeError):
    """The requested control level is not reachable within the budget."""


class CertificateError(RuntimeError):
    """Solver output failed its own certificate re-validation."""


@dataclass(frozen=True)
class _Curve:
    """The normalized cost c * x**power + o of one rate on its box: 1 at
    the end that slows the epidemic most (lo for power -1, hi for power
    +1) and 0 at the other. An inverse curve divides, c / x."""

    box: tuple
    power: float

    @property
    def coeff(self) -> float:
        lo, hi = self.box
        return lo * hi / (hi - lo) if self.power < 0 else 1.0 / (hi - lo)

    @property
    def offset(self) -> float:
        c = self.coeff
        return -c / self.box[1] if self.power < 0 else -c * self.box[0]

    def __call__(self, x) -> np.ndarray:
        c, x = self.coeff, np.asarray(x, float)
        return (c / x if self.power < 0 else c * x) + self.offset

    def rate_at(self, spend: float) -> float:
        """The rate whose cost is `spend`, clipped to the box."""
        s = spend - self.offset
        return np.clip(self.coeff / s if self.power < 0 else s / self.coeff,
                       *self.box)


@dataclass(frozen=True)
class CostModel:
    """Boxes, budget, and the normalized cost curves.

    Exactly one of delta_box (plain mode) and gamma_box (isolation
    mode) must be present; it is `second_box`. `prevention_cost` and
    `second_cost` are one `_Curve` form: power -1 for beta and gamma,
    +1 for delta.
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

    @property
    def second_box(self) -> tuple:
        return self.delta_box if self.mode == "plain" else self.gamma_box

    @property
    def _curves(self) -> tuple:
        """The prevention curve and the second rate's curve."""
        power = 1.0 if self.mode == "plain" else -1.0
        return _Curve(self.beta_box, -1.0), _Curve(self.second_box, power)

    def prevention_cost(self, beta) -> np.ndarray:
        return self._curves[0](beta)

    def second_cost(self, x) -> np.ndarray:
        return self._curves[1](x)

    def absorbed_budget(self, n: int) -> float:
        """Budget left for the variable cost terms after the constant
        offsets of all n nodes are moved to the right-hand side."""
        prevention, second = self._curves
        fixed = n * (prevention.offset + second.offset)
        remaining = self.budget - fixed
        if remaining <= 0:
            raise BudgetModelError(
                f"budget {self.budget} cannot cover fixed constants "
                f"(needs > {fixed:.6g})")
        return remaining

    def total_cost(self, beta, second) -> float:
        return float(np.sum(self.prevention_cost(beta)
                            + self.second_cost(second)))


@dataclass(frozen=True)
class MonomialBound:
    """kappa * x^alpha <= x + delta certified on [x_lo, x_hi]."""

    kappa: float
    alpha: float
    x_lo: float
    x_hi: float


def fit_monomial_bound(delta: float, x_range) -> MonomialBound:
    """Fit kappa * x^alpha <= x + delta on x_range with the least
    worst-case gap (x + delta) - kappa * x^alpha.

    log(x + delta) is convex in log x, so the monomial tangent to
    x + delta at t, with alpha = t / (t + delta) and kappa = (t + delta)
    * t^-alpha, lies below it for every x > 0 (Boyd, Kim, Vandenberghe &
    Hassibi, "A tutorial on geometric programming", Optim. Eng. 8, 2007,
    section 8). The best fit is such a tangent with t in the range: a
    monomial below x + delta that touches it only at an end is beaten by
    the tangent there, and one that touches it nowhere by a larger kappa.
    The gap is convex in x, so its maximum over the range is at an end.
    Along the tangents, d/dt log(kappa x^alpha) = delta log(x/t) /
    (t + delta)^2, so as t rises the gap at x_lo rises from 0 and the gap
    at x_hi falls to 0: the minimax fit is the one tangent whose two end
    gaps are equal. Bisection on t finds it, until the midpoint equals an
    end in floating point. delta = 0 gives kappa = alpha = 1, and a
    one-point range the tangent there. The result is re-verified on a
    grid of _FIT_GRID points.
    """
    x_lo, x_hi = float(x_range[0]), float(x_range[1])
    if not (0 < x_lo <= x_hi < math.inf):
        raise ValueError("x_range must satisfy 0 < lo <= hi < inf")
    if not 0 <= delta < math.inf:
        raise ValueError("delta must be finite and nonnegative")

    def tangent(t):
        alpha = t / (t + delta)
        return (t + delta) / t ** alpha, alpha

    lo, hi = x_lo, x_hi
    t = 0.5 * (lo + hi)
    while lo < t < hi:
        kappa, alpha = tangent(t)
        if (x_lo + delta - kappa * x_lo ** alpha
                < x_hi + delta - kappa * x_hi ** alpha):
            lo = t
        else:
            hi = t
        t = 0.5 * (lo + hi)
    kappa, alpha = tangent(t)
    kappa *= 1.0 - 1e-12  # shave so the grid check is roundoff-proof
    xs = np.linspace(x_lo, x_hi, _FIT_GRID)
    if not np.all(kappa * xs ** alpha <= xs + delta):   # NaN fails too
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
    lambda_cap: Optional[float]    # None means minimize lambda_bar
    p: int = 1
    delta_fixed: Optional[np.ndarray] = None


@dataclass(frozen=True, eq=False)
class Allocation:
    """Solved allocation: rates, spent budget, and the certified bound
    with its witness (certificate_v is None only for uncertifiable
    baseline allocations, in which case lambda_bar is unbounded).
    `second` is delta in plain mode and gamma in isolation mode."""

    mode: str
    beta: np.ndarray
    second: np.ndarray
    total_cost: float
    lambda_bar: float
    certificate_v: Optional[np.ndarray]
    strategy: str = "optimized"

    @property
    def delta(self) -> Optional[np.ndarray]:
        return self.second if self.mode == "plain" else None

    @property
    def gamma(self) -> Optional[np.ndarray]:
        return self.second if self.mode == "isolation" else None

    @property
    def is_certified(self) -> bool:
        return self.certificate_v is not None and math.isfinite(self.lambda_bar)

    def to_json_dict(self) -> dict:
        return {"mode": self.mode,
                "strategy": self.strategy,
                "lambda_bar": self.lambda_bar
                if math.isfinite(self.lambda_bar) else "unbounded",
                "total_cost": self.total_cost,
                "beta": self.beta.tolist(),
                "certificate_v": None if self.certificate_v is None
                else self.certificate_v.tolist(),
                "delta" if self.mode == "plain" else "gamma":
                self.second.tolist()}


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
                      own: list) -> list:
    """Term families of segments 1..n*p, one per certificate column
    c = j*p + m:

        (sum over neighbours i of j with transmit_i of v_{i,0} beta_i
         + the own terms of c + eps)
            / (exp(den_logc_j) v_c x_j^den_exp_j) <= 1

    with x the second rate block and eps the certificate margin
    `bound.DEFAULT_SLACK`. `own` lists each family of a problem's own
    terms as (columns c, log-coefficients, entries)."""
    n = g.node_count
    a = g.adjacency_sparse()   # symmetric: row j lists j's neighbours
    j = np.repeat(np.arange(n), np.diff(a.indptr))
    i = a.indices
    j, i = j[transmit[i]], i[transmit[i]]
    c = (j * p + np.arange(p)[:, None]).ravel()   # every phase of j
    i = np.tile(i, p)
    families = [(c, 0.0, [(i * p, 1.0), (n * p + i, 1.0)]),
                (np.arange(n * p), math.log(bound_mod.DEFAULT_SLACK),
                 [])] + own
    return [(1 + col, logc - den_logc[col // p],
             entries + [(col, -1.0), (n * p + n + col // p,
                                      -den_exp[col // p])])
            for col, logc, entries in families]


def _budget_terms(costs: CostModel, n: int, p: int, seg: int) -> list:
    """The budget as a posynomial <= 1 in segment seg, the constant
    offsets of the cost curves moved to the right-hand side."""
    rhs = costs.absorbed_budget(n)
    nodes = np.arange(n)
    return [(np.full(n, seg), math.log(curve.coeff / rhs),
             [(n * p + k * n + nodes, curve.power)])
            for k, curve in enumerate(costs._curves)]


def _boxes(costs: CostModel, n: int, p: int, last: dict) -> tuple:
    """lo, hi and names over the blocks: a wide box per certificate
    entry, the rate boxes, and `last` ({name: box}, empty or one entry)
    for the trailing scalar."""
    plain = costs.mode == "plain"
    lo, hi = np.array([_WIDE_BOX] * (n * p) + [costs.beta_box] * n
                      + [costs.second_box] * n + list(last.values()),
                      dtype=float).T
    names = [f"v_{i}" if plain else f"v_{i}_{m}"
             for i in range(n) for m in range(1, p + 1)]
    names += [f"{rate}_{i}" for rate in
              ("beta", "delta" if plain else "gamma") for i in range(n)]
    return lo, hi, names + list(last)


def _allocation_problem(g: Graph, infected, costs: CostModel, p: int,
                        den_logc, den_exp, own: list,
                        lambda_cap: Optional[float],
                        **fields) -> AllocationProblem:
    """Problems 1 and 2: the certificate rows, the bound row

        (sum of the infected nodes' v_{i,0} + eps) / t <= 1

    and the budget row. Minimizing, t = lambda_bar + sigma_I(0) is the
    last column and the objective; under a cap, t is fixed at
    lambda_cap + sigma_I(0) and the spend is minimized, which picks a
    canonical feasible point."""
    n = g.node_count
    transmit = np.ones(n, dtype=bool)
    transmit[list(infected)] = False   # J_ii = 0
    families = _certificate_rows(g, transmit, p, den_logc, den_exp, own)
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
                 (bound_seg, math.log(bound_mod.DEFAULT_SLACK) + scale, per_t)]
    families += _budget_terms(costs, n, p, bound_seg + 1)
    return AllocationProblem(
        gp_problem=_compile(families, *_boxes(costs, n, p, last)), graph=g,
        infected=infected, costs=costs, lambda_cap=lambda_cap, p=p,
        **fields)


def _checked_infected(g: Graph, infected) -> frozenset:
    """The infected node ids, refused when none or when outside g,
    before any array is built."""
    infected = frozenset(int(i) for i in infected)
    if not infected:
        raise ValueError("infected set must be non-empty")
    bad = sorted(i for i in infected if not 0 <= i < g.node_count)
    if bad:
        raise ValueError(f"initially infected nodes out of range: {bad}")
    return infected


def _blocks(x: np.ndarray, n: int, p: int) -> list:
    """The blocks [v | beta | delta or gamma | t or s] of a point."""
    return np.split(x, [n * p, n * p + n, n * p + 2 * n])


def build_problem1(g: Graph, infected, costs: CostModel,
                   lambda_cap: Optional[float] = None) -> AllocationProblem:
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
    infected = _checked_infected(g, infected)
    n = g.node_count
    nodes = np.arange(n)
    own = [(nodes, 0.0, [(2 * n + nodes, 1.0)])]    # delta_j
    return _allocation_problem(g, infected, costs, 1, np.zeros(n),
                               np.ones(n), own, lambda_cap)


def build_problem2(g: Graph, infected, costs: CostModel, p: int, delta,
                   lambda_cap: Optional[float] = None) -> AllocationProblem:
    """Assemble the isolation-mode allocation GP for the Erlang family.

    Each node has one removal law Erlang(p, gamma_i) with -DPi = p/gamma
    identical across phases, so one monomial bound kappa_j x^alpha_j <=
    x + delta_j over x = p/gamma on `costs.gamma_box` serves every phase
    of node j; it is fitted once per distinct delta. Per phase column
    (j, m) the certificate row inequality is

        (sum_i v_{i,1} J_ii a_ij beta_i + (p/gamma_j) v_{j,m+1}
         + delta_j + eps) / (kappa_j (p/gamma_j)^alpha_j v_{j,m}) <= 1

    with v_{j,p+1} = 1. `delta` is the fixed natural-recovery rate
    vector; zero is allowed, as in `EpidemicParams` under isolation
    laws.
    """
    if costs.mode != "isolation":
        raise ValueError("isolation-mode cost model required")
    infected = _checked_infected(g, infected)
    if not 1 <= p < 2 ** 31:    # a p x p generator of 2**65 B
        raise ValueError(f"Erlang shape p must be in [1, 2**31), got {p}")
    n = g.node_count
    delta = np.broadcast_to(np.asarray(delta, float), (n,)).copy()
    if not np.all((delta >= 0) & (delta < math.inf)):
        raise ValueError("delta must be finite and nonnegative")
    values, which = np.unique(delta, return_inverse=True)
    x_range = (p / costs.gamma_box[1], p / costs.gamma_box[0])
    fits = [fit_monomial_bound(d, x_range) for d in values.tolist()]
    kappa, alpha = np.array([(f.kappa, f.alpha) for f in fits])[which].T
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
                               own, lambda_cap, delta_fixed=delta)


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
    certificate must pass with half the margin eps and the recomputed
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
        prob.infected, prob.costs.mode, beta, second, prob.delta_fixed,
        prob.p))
    if not bound_mod.verify_certificate(sys, v, lambda_bar,
                                        slack=bound_mod.DEFAULT_SLACK / 2):
        raise CertificateError("solver output failed certificate validation")
    lb = bound_mod.lambda_bound(sys)
    if not lb <= lambda_bar + 10 * max(tol, 1e-9) * (1 + abs(lambda_bar)):
        raise CertificateError(
            f"recomputed bound {lb} exceeds certified level {lambda_bar}")
    return Allocation(mode=prob.costs.mode, beta=beta, second=second,
                      total_cost=prob.costs.total_cost(beta, second),
                      lambda_bar=lambda_bar, certificate_v=v,
                      strategy="optimized")


def _certify(g: Graph, infected, costs: CostModel, beta, second,
             delta_fixed=None, p: int = 1,
             strategy: str = "baseline") -> Allocation:
    """Wrap externally chosen rates into an Allocation, synthesizing a
    certificate when the comparison system is Hurwitz."""
    sys = bound_mod.build_sir_system(g, allocation_params(
        infected, costs.mode, beta, second, delta_fixed, p))
    cert = bound_mod.certificate_for(sys)
    if cert is None:
        lambda_bar, v = bound_mod.UNBOUNDED, None
    else:
        v, lambda_bar = cert
        lambda_bar = max(0.0, lambda_bar)
    return Allocation(mode=costs.mode, beta=np.asarray(beta, float),
                      second=np.asarray(second, float),
                      total_cost=costs.total_cost(beta, second),
                      lambda_bar=lambda_bar, certificate_v=v,
                      strategy=strategy)


def baseline_uniform(g: Graph, infected, costs: CostModel,
                     delta_fixed=None, p: int = 1) -> Allocation:
    """Spend the budget equally per node, split equally between the two
    resource types; rates follow by inverting the cost curves. Spending
    saturates at the expensive ends when the budget exceeds 2n."""
    n = g.node_count
    spend = min(1.0, max(0.0, costs.budget / (2.0 * n)))
    beta, second = (np.full(n, curve.rate_at(spend))
                    for curve in costs._curves)
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
                                 np.ones(n), own)
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


def baselines(prob: AllocationProblem, tol: float = 1e-7) -> list:
    """The designs an optimized allocation is compared with: uniform
    spending and, in plain mode, the SIS spectral design."""
    designs = [baseline_uniform(prob.graph, prob.infected, prob.costs,
                                delta_fixed=prob.delta_fixed, p=prob.p)]
    if prob.costs.mode == "plain":
        designs.append(baseline_sis_spectral(prob.graph, prob.infected,
                                             prob.costs, tol=tol))
    return designs


def allocation_csv_rows(alloc: Allocation, g: Graph,
                        costs: CostModel) -> list:
    """Rows (node, degree, prevention_cost, correction_cost) matching
    the scatter-plot data layout; the correction column carries the
    second rate's cost, the isolation cost in isolation mode."""
    degs = degrees(g)
    prev = costs.prevention_cost(alloc.beta)
    corr = costs.second_cost(alloc.second)
    return [(i, int(degs[i]), float(prev[i]), float(corr[i]))
            for i in range(g.node_count)]
