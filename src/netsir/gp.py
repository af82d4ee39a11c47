"""Posynomial algebra and a geometric-program solver.

A monomial is c * prod x_k^{a_k} with c > 0; a posynomial is a sum of
monomials. Under x = exp(y) each posynomial becomes a log-sum-exp of
affine forms, so the program

    minimize f0(x)  s.t.  f_i(x) <= 1,  g_j(x) = 1,  x in boxes

turns into a smooth convex problem that a damped-Newton barrier method
solves to tight KKT residuals. The problem is compiled once into stacked
arrays (StackedLse): one sparse term-exponent matrix, the log-coefficients
and a term-to-constraint segment index, so each Newton step is a few
array operations. Monomial equalities are affine in y and are eliminated
once, up front, through a null-space parametrization of that matrix.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
import scipy.linalg
import scipy.sparse as sp


@dataclass(frozen=True, eq=False)
class Monomial:
    """c * prod_k x_k^{a_k} with c > 0."""

    coeff: float
    exponents: Mapping[str, float]

    def __post_init__(self):
        if not (self.coeff > 0) or not math.isfinite(self.coeff):
            raise ValueError(f"monomial coefficient must be positive, got {self.coeff}")
        object.__setattr__(self, "exponents",
                           {k: float(a) for k, a in self.exponents.items()
                            if a != 0.0})

    def __mul__(self, other):
        if isinstance(other, Monomial):
            exps = dict(self.exponents)
            for k, a in other.exponents.items():
                exps[k] = exps.get(k, 0.0) + a
            return Monomial(self.coeff * other.coeff, exps)
        if isinstance(other, (int, float)):
            return Monomial(self.coeff * other, self.exponents)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * other ** -1 if isinstance(other, Monomial) \
            else self * (1.0 / other)

    def __pow__(self, a: float):
        return Monomial(self.coeff ** a,
                        {k: e * a for k, e in self.exponents.items()})

    def __add__(self, other):
        return Posynomial.wrap(self) + other

    __radd__ = __add__


def variable(name: str) -> Monomial:
    return Monomial(1.0, {name: 1.0})


@dataclass(frozen=True, eq=False)
class Posynomial:
    """Non-empty sum of monomials."""

    terms: Tuple[Monomial, ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("posynomial needs at least one term")
        object.__setattr__(self, "terms", tuple(self.terms))

    @staticmethod
    def wrap(x) -> "Posynomial":
        if isinstance(x, Posynomial):
            return x
        if isinstance(x, Monomial):
            return Posynomial((x,))
        if isinstance(x, (int, float)):
            return Posynomial((Monomial(float(x), {}),))
        raise TypeError(f"cannot interpret {x!r} as a posynomial")

    def __add__(self, other):
        other = Posynomial.wrap(other)
        return Posynomial(self.terms + other.terms)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            other = Monomial(float(other), {})
        if isinstance(other, Monomial):
            return Posynomial(tuple(t * other for t in self.terms))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, mono: Monomial):
        return self * mono ** -1

    def variables(self) -> set:
        out = set()
        for t in self.terms:
            out.update(t.exponents)
        return out


def evaluate(p, x: Mapping[str, float]) -> float:
    """Value of a posynomial (or monomial) at a positive point."""
    p = Posynomial.wrap(p)
    total = 0.0
    for t in p.terms:
        v = t.coeff
        for k, a in t.exponents.items():
            if k not in x:
                raise KeyError(f"point is missing variable {k!r}")
            v *= x[k] ** a
        total += v
    return total


@dataclass(frozen=True, eq=False)
class GpProblem:
    """minimize objective s.t. each ineq posynomial <= 1, each eq
    monomial == 1, and per-variable box bounds in (0, inf)."""

    objective: Posynomial
    ineq_constraints: Tuple[Posynomial, ...] = ()
    eq_constraints: Tuple[Monomial, ...] = ()
    box: Mapping[str, Tuple[float, float]] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "objective", Posynomial.wrap(self.objective))
        object.__setattr__(self, "ineq_constraints",
                           tuple(Posynomial.wrap(c) for c in self.ineq_constraints))
        object.__setattr__(self, "eq_constraints", tuple(self.eq_constraints))
        object.__setattr__(self, "box", dict(self.box))
        for name, (lo, hi) in self.box.items():
            if not (0 < lo <= hi) or not math.isfinite(hi):
                raise ValueError(f"box for {name!r} must satisfy 0 < lo <= hi < inf")
        missing = self.variables() - set(self.box)
        if missing:
            raise ValueError(f"variables without box bounds: {sorted(missing)}")

    def variables(self) -> set:
        out = self.objective.variables()
        for c in self.ineq_constraints:
            out |= c.variables()
        for m in self.eq_constraints:
            out |= set(m.exponents)
        return out


@dataclass(frozen=True)
class GpSolution:
    point: Dict[str, float]
    objective_value: float
    status: str  # optimal | infeasible | max_iter
    kkt_residual: float
    newton_iters: int = 0


class StackedLse:
    """Log-sum-exps of affine forms, stacked into one sparse system.

    Row r of the term-exponent matrix F (terms x vars) and b[r] give the
    affine form F[r] @ y + b[r] of one monomial term in log space. Rows
    fall into contiguous segments, segment k spanning rows
    starts[k]:starts[k+1], and each segment is the log-sum-exp of its
    rows; ptr is starts with the term count appended. Segment 0 is the
    objective; every other segment is a constraint meaning <= 0.
    """

    def __init__(self, F, b: np.ndarray, starts: np.ndarray):
        self.F = sp.csr_matrix(F)
        self.b = np.asarray(b, dtype=float)
        self.starts = np.asarray(starts, dtype=np.intp)
        self.ptr = np.append(self.starts, len(self.b))
        self.seg = np.repeat(np.arange(len(self.starts)),
                             np.diff(self.ptr))

    @property
    def dim(self) -> int:
        return self.F.shape[1]

    def _lse(self, y: np.ndarray):
        """Segment values and the term weights, normalized per segment."""
        z = self.F @ y + self.b
        zmax = np.maximum.reduceat(z, self.starts)
        e = np.exp(z - zmax[self.seg])
        total = np.add.reduceat(e, self.starts)
        return zmax + np.log(total), e / total[self.seg]

    def values(self, y: np.ndarray) -> np.ndarray:
        return self._lse(y)[0]

    def value_grads(self, y: np.ndarray):
        """Segment values, term weights w and the segment gradients as
        sparse rows G = S diag(w) F, S the segment indicator."""
        vals, w = self._lse(y)
        s_w = sp.csr_matrix((w, np.arange(len(w)), self.ptr),
                            shape=(len(self.starts), len(w)))
        return vals, w, s_w @ self.F

    def barrier_newton(self, t: float, y: np.ndarray):
        """Segment values, gradient and dense Hessian of the barrier

            H = F^T diag(w s_seg) F + G^T diag(q) G,

        with per-segment weights s = (t, 1/-f_k) and outer weights
        q = (-t, 1/f_k^2 - 1/-f_k)."""
        vals, w, g = self.value_grads(y)
        s = np.concatenate([[t], -1.0 / vals[1:]])
        q = -s
        q[1:] += s[1:] ** 2
        h = self.F.T @ sp.diags(w * s[self.seg]) @ self.F \
            + g.T @ sp.diags(q) @ g
        return vals, g.T @ s, h.toarray()

    def reparametrized(self, y0: np.ndarray, basis) -> "StackedLse":
        """The same segments as functions of z, where y = y0 + basis z."""
        return StackedLse(self.F @ basis, self.b + self.F @ y0, self.starts)

    def phase1(self) -> "StackedLse":
        """minimize s s.t. f_k(y) - s <= 0 over (y, s): every constraint
        row gains a -1 column, which keeps it a log-sum-exp, and the
        objective becomes s."""
        terms, n = self.F.shape
        first = self.starts[1]
        objective = sp.csr_matrix(([1.0], ([0], [n])), shape=(1, n + 1))
        cons = sp.hstack([self.F[first:],
                          sp.csr_matrix(np.full((terms - first, 1), -1.0))])
        return StackedLse(sp.vstack([objective, cons]),
                          np.concatenate([[0.0], self.b[first:]]),
                          np.append(0, self.starts[1:] - first + 1))


def barrier_value(t: float, vals: np.ndarray) -> float:
    """t*f0 - sum log(-f_k) from segment values; inf unless strictly
    feasible."""
    if np.any(vals[1:] >= 0):
        return math.inf
    return float(t * vals[0] - np.log(-vals[1:]).sum())


class _Segment:
    """View of one segment of a compiled problem."""

    def __init__(self, lcp: "LogConvexProblem", k: int):
        self._lcp = lcp
        self._k = k

    @property
    def kind(self) -> str:
        return self._lcp.kinds[self._k]

    def value(self, y: np.ndarray) -> float:
        return float(self._lcp.system.values(y)[self._k])


class LogConvexProblem:
    """Log-space form of a GpProblem, compiled once into a StackedLse.

    objective and constraints are log-sum-exps of affine forms in
    y = log x; constraints (posynomials first, then an upper and a lower
    side per unpinned box) mean <= 0; the equality system, monomial
    equalities and pinned boxes, is affine: eq_mat @ y = eq_rhs.
    """

    def __init__(self, problem: GpProblem):
        self.variables = sorted(problem.variables() | set(problem.box))
        self.var_index = {v: i for i, v in enumerate(self.variables)}
        n = len(self.variables)
        rows, cols, exps, b, starts = [], [], [], [], []
        self.kinds: List[str] = []

        def add(terms, kind):
            """terms: (log coefficient, {column: exponent}) per monomial"""
            starts.append(len(b))
            self.kinds.append(kind)
            for log_c, row in terms:
                for c, e in row.items():
                    rows.append(len(b))
                    cols.append(c)
                    exps.append(e)
                b.append(log_c)

        def terms_of(p):
            return [(math.log(t.coeff),
                     {self.var_index[k]: e for k, e in t.exponents.items()})
                    for t in Posynomial.wrap(p).terms]

        add(terms_of(problem.objective), "objective")
        for c in problem.ineq_constraints:
            add(terms_of(c), "posynomial")
        # monomial equalities and pinned boxes: (log coefficient, row)
        eqs = [tm for m in problem.eq_constraints for tm in terms_of(m)]
        for name, (lo, hi) in sorted(problem.box.items()):
            i = self.var_index[name]
            if lo == hi:
                eqs.append((-math.log(lo), {i: 1.0}))
                continue
            add([(-math.log(hi), {i: 1.0})], "box_upper")
            add([(math.log(lo), {i: -1.0})], "box_lower")
        self.system = StackedLse(
            sp.csr_matrix((exps, (rows, cols)), shape=(len(b), n)),
            np.array(b), np.array(starts))
        self.eq_mat = np.zeros((len(eqs), n))
        for r, (_, row) in enumerate(eqs):
            self.eq_mat[r, list(row)] = list(row.values())
        self.eq_rhs = np.array([-log_c for log_c, _ in eqs])
        self._box = dict(problem.box)

    @property
    def dim(self) -> int:
        return len(self.variables)

    @property
    def objective(self) -> _Segment:
        return _Segment(self, 0)

    @property
    def constraints(self) -> List[_Segment]:
        return [_Segment(self, k) for k in range(1, len(self.kinds))]

    def constraint_values(self, y: np.ndarray) -> np.ndarray:
        return self.system.values(y)[1:]

    def _segment_value_grad(self, k: int, y: np.ndarray):
        vals, _, g = self.system.value_grads(y)
        return float(vals[k]), g[k].toarray().ravel()

    def constraint_value_grad(self, k: int, y: np.ndarray):
        return self._segment_value_grad(k + 1, y)

    def objective_value_grad(self, y: np.ndarray):
        return self._segment_value_grad(0, y)

    def center_point(self) -> np.ndarray:
        y = np.zeros(self.dim)
        for name, (lo, hi) in self._box.items():
            y[self.var_index[name]] = 0.5 * (math.log(lo) + math.log(hi))
        return y

    def reduced(self):
        """(system in z, y0, basis) with y = y0 + basis @ z solving the
        equalities for every z, basis orthonormal; None when the
        equalities are inconsistent."""
        n = self.dim
        if not len(self.eq_rhs):
            return self.system, np.zeros(n), sp.identity(n, format="csr")
        y0 = np.linalg.lstsq(self.eq_mat, self.eq_rhs, rcond=None)[0]
        if np.linalg.norm(self.eq_mat @ y0 - self.eq_rhs) > 1e-8:
            return None
        basis = scipy.linalg.null_space(self.eq_mat)
        return self.system.reparametrized(y0, basis), y0, basis

    def to_json(self) -> str:
        s = self.system

        def dump(k: int):
            terms = slice(s.ptr[k], s.ptr[k + 1])
            rows = s.F[terms]
            cols = np.unique(rows.indices)
            return {"kind": self.kinds[k],
                    "cols": [self.variables[c] for c in cols],
                    "exponents": rows[:, cols].toarray().tolist(),
                    "log_coeffs": s.b[terms].tolist()}
        doc = {"variables": self.variables,
               "objective": dump(0),
               "constraints": [dump(k) for k in range(1, len(self.kinds))],
               "equalities": {"matrix": self.eq_mat.tolist(),
                              "rhs": self.eq_rhs.tolist()}}
        return json.dumps(doc, indent=2)


def to_log_convex(problem: GpProblem) -> LogConvexProblem:
    return LogConvexProblem(problem)


# ---------------------------------------------------------------------------
# barrier interior-point solver


def _newton_step(system: StackedLse, t_bar: float, y: np.ndarray):
    """Segment values, barrier gradient g and the Newton direction d."""
    vals, g, h = system.barrier_newton(t_bar, y)
    n = len(y)
    # solve h d = -g, Jacobi-equilibrated, with a ridge fallback
    scale = np.sqrt(np.maximum(np.diag(h), 1e-300))
    hs = h / scale[:, None] / scale[None, :]
    gs = g / scale
    d = None
    ridge = 0.0
    for _ in range(4):
        try:
            cho = scipy.linalg.cho_factor(hs + ridge * np.eye(n), lower=True)
            d = scipy.linalg.cho_solve(cho, -gs) / scale
            break
        except np.linalg.LinAlgError:
            ridge = max(ridge * 100, 1e-14)
    if d is None:
        d = np.linalg.lstsq(h, -g, rcond=None)[0]
    return vals, g, d


def _newton_barrier(system: StackedLse, t_bar: float, y: np.ndarray,
                    newton_tol: float, max_steps: int):
    """Damped Newton on t_bar*f0(y) - sum log(-f_k(y)). Returns
    (y, steps, converged). y must be strictly feasible. Breaks early
    when the decrement hits its floating-point floor, which large
    barrier parameters reach before the nominal tolerance."""
    steps = 0
    best_dec = math.inf
    stalled = 0
    while steps < max_steps:
        vals, g, d = _newton_step(system, t_bar, y)
        decrement2 = float(-g @ d)
        if decrement2 / 2.0 <= newton_tol:
            return y, steps, True
        if decrement2 < 1e-6 and decrement2 >= 0.99 * best_dec:
            stalled += 1
            if stalled >= 5:
                return y, steps, True  # numeric floor, as centered as floats allow
        else:
            stalled = 0
        best_dec = min(best_dec, decrement2)
        # backtracking: stay strictly feasible, then Armijo
        alpha = 1.0
        phi0 = barrier_value(t_bar, vals)
        for _ in range(80):
            y_new = y + alpha * d
            phi1 = barrier_value(t_bar, system.values(y_new))
            if phi1 <= phi0 + 0.25 * alpha * float(g @ d):
                break
            alpha *= 0.5
        else:
            return y, steps, False
        y = y_new
        steps += 1
    return y, steps, False


def solve(problem: GpProblem, tol: float = 1e-7,
          max_newton: int = 500, mu: float = 8.0,
          phase1_tol: float = None) -> GpSolution:
    """Solve a geometric program by a log-space barrier method.

    Phase I minimizes the maximum constraint violation s; s* > tol
    certifies infeasibility, a strictly negative s yields the interior
    start for phase II. status is 'optimal' once the duality gap and
    stationarity residual are below tol, 'infeasible' with a phase-I
    certificate, or 'max_iter' after the Newton-step cap.
    """
    if phase1_tol is None:
        phase1_tol = tol
    lcp = to_log_convex(problem)
    reduction = lcp.reduced()
    if reduction is None:
        return GpSolution(point={}, objective_value=math.nan,
                          status="infeasible", kkt_residual=math.inf)
    system, y0, basis = reduction
    nz = system.dim

    def to_point(zz):
        y = y0 + basis @ zz
        return {v: math.exp(y[i]) for i, v in enumerate(lcp.variables)}

    z = basis.T @ (lcp.center_point() - y0)
    total_steps = 0

    vals = system.values(z)[1:]
    m = len(vals)
    if nz == 0:
        # fully pinned problem: feasibility is a direct check
        if np.all(vals < 0):
            pt = to_point(z)
            return GpSolution(point=pt,
                              objective_value=evaluate(problem.objective, pt),
                              status="optimal", kkt_residual=0.0)
        return GpSolution(point={}, objective_value=math.nan,
                          status="infeasible",
                          kkt_residual=float(vals.max()))

    if np.any(vals >= -1e-10):
        # ----- phase I on (z, s), started with margin one
        p1 = system.phase1()
        s0 = float(vals.max()) + 1.0
        zs = np.concatenate([z, [s0]])
        t_bar = 1.0
        s_val = s0
        while True:
            zs, steps, converged = _newton_barrier(p1, t_bar, zs, 1e-12,
                                                   max_newton)
            total_steps += steps
            s_val = zs[-1]
            if s_val < -1e-3:
                break  # comfortably interior
            if m / t_bar < 0.1 * phase1_tol:
                break
            if total_steps >= max_newton:
                break
            if not converged and steps == 0:
                total_steps = max_newton  # line search stalled
                break
            t_bar *= mu
        if s_val >= 0:
            if s_val > phase1_tol:
                return GpSolution(point={}, objective_value=math.nan,
                                  status="infeasible",
                                  kkt_residual=float(s_val),
                                  newton_iters=total_steps)
            return GpSolution(point={}, objective_value=math.nan,
                              status="max_iter", kkt_residual=float(s_val),
                              newton_iters=total_steps)
        z = zs[:-1]

    # ----- phase II: follow the central path, advancing the barrier
    # parameter only from centered points so late stages stay sane
    t_bar = 1.0
    retried = False
    while True:
        z, steps, converged = _newton_barrier(
            system, t_bar, z, 1e-12, min(150, max_newton - total_steps))
        total_steps += steps
        if not converged and not retried and total_steps < max_newton:
            retried = True
            continue
        if m / t_bar <= tol:
            break
        if total_steps >= max_newton or not converged:
            pt = to_point(z)
            return GpSolution(point=pt,
                              objective_value=evaluate(problem.objective, pt),
                              status="max_iter", kkt_residual=math.inf,
                              newton_iters=total_steps)
        retried = False
        t_bar *= mu

    # polish stationarity at the final barrier parameter: the gap stop
    # leaves the Newton decrement small but not the raw gradient. The
    # KKT residual is the barrier gradient over t_bar. The barrier value,
    # about t_bar*f0, is too coarse in floating point here to rank
    # nearby points, so Newton steps backtrack on the residual itself.
    vals, g, d = _newton_step(system, t_bar, z)
    for _ in range(30):
        if np.linalg.norm(g, np.inf) <= 0.1 * tol * t_bar:
            break
        alpha = 1.0
        for _ in range(60):
            z_new = z + alpha * d
            if np.all(system.values(z_new)[1:] < 0):
                step = _newton_step(system, t_bar, z_new)
                if np.linalg.norm(step[1], np.inf) < np.linalg.norm(g, np.inf):
                    break
            alpha *= 0.5
        else:
            break
        z, (vals, g, d) = z_new, step
        total_steps += 1
    kkt = float(np.linalg.norm(g, np.inf) / t_bar)
    feas = float(vals[1:].max())
    pt = to_point(z)
    status = "optimal" if (kkt <= tol and feas <= tol) else "max_iter"
    return GpSolution(point=pt,
                      objective_value=evaluate(problem.objective, pt),
                      status=status, kkt_residual=kkt,
                      newton_iters=total_steps)
