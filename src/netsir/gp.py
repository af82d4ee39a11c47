"""Geometric programs: a compiled array form and its interior-point solver.

A monomial is c * prod x_k^{a_k} with c > 0; a posynomial is a sum of
monomials. Under x = exp(y) each posynomial becomes a log-sum-exp of
affine forms, so the program

    minimize f0(x)  s.t.  f_i(x) <= 1,  g_j(x) = 1,  x in boxes

turns into a smooth convex problem that a primal-dual interior-point
method (Boyd & Vandenberghe, section 11.7) solves to a dual residual and
a surrogate duality gap both below the tolerance. LogConvexProblem is
the one form the solver reads: a sparse term-exponent matrix, the
log-coefficients, the segment starts and per-variable boxes, as arrays.
Callers that know their structure build those arrays and call
solve_compiled; to_log_convex lowers a hand-written GpProblem of
Monomial and Posynomial objects into them, and solve does both. The
rows are stacked once into a StackedLse, which also compiles the index
arrays of a scatter that assembles its dense Newton matrix, so each
Newton step is a few array operations and one Cholesky factorization.
Monomial equalities are affine in y and are eliminated once, up front,
through a null-space parametrization of that matrix.
"""

from __future__ import annotations

import functools
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
    kkt_residual: float   # |r_dual|_inf; the phase-I s* when infeasible
    newton_iters: int = 0
    gap: float = math.nan  # surrogate duality gap -f^T lam at exit
    x: Optional[np.ndarray] = None  # point in the compiled column order


def _upper_pairs(ptr: np.ndarray):
    """Index pairs (a, b) with a <= b inside each group ptr[k]:ptr[k+1]."""
    ptr = np.asarray(ptr, dtype=np.int64)
    i = np.arange(ptr[-1])
    reps = np.repeat(ptr[1:], np.diff(ptr)) - i   # pairs that start at i
    a = np.repeat(i, reps)
    return a, np.arange(len(a)) - np.repeat(np.cumsum(reps) - reps - i, reps)


class _Scatter:
    """Fixed index arrays that assemble a StackedLse's Newton matrix.

    G = S diag(w) F, S the segment indicator, keeps one entry per
    (segment, column) of each segment's support: entry e sits at
    (g_seg[e], g_col[e]), and F's stored entry k adds to entry
    to_g[k]. F^T diag(c) F + G^T diag(q) G sums products of two entries
    that share a term row of F or a segment of G. With columns sorted
    in each row, each symmetric product is kept once, as indices
    (left, right) into F's entries followed by G's, and adds to cell
    cell_of of the upper-triangle cells `cells` (flat indices). The
    buffers are reused by every assembly, so a Newton step allocates
    nothing of the matrix's size.
    """

    def __init__(self, F: sp.csr_matrix, seg: np.ndarray, segments: int):
        n = F.shape[1]
        self.term = np.repeat(np.arange(F.shape[0]), np.diff(F.indptr))
        support, self.to_g = np.unique(seg[self.term] * n + F.indices,
                                       return_inverse=True)
        self.g_seg, self.g_col = np.divmod(support, n)
        ta, tb = _upper_pairs(F.indptr)
        ga, gb = _upper_pairs(np.searchsorted(self.g_seg,
                                              np.arange(segments + 1)))
        cols = np.concatenate([F.indices, self.g_col])
        left = np.concatenate([ta, ga + F.nnz])
        right = np.concatenate([tb, gb + F.nnz])
        self.cells, self.cell_of = np.unique(cols[left] * n + cols[right],
                                             return_inverse=True)
        self.left, self.right = left, right
        self.products = np.empty(len(left))
        self.factors = np.empty(len(left))
        self.upper = np.zeros((n, n))


class StackedLse:
    """Log-sum-exps of affine forms, stacked into one sparse system.

    Row r of the term-exponent matrix F (terms x vars) and b[r] give the
    affine form F[r] @ y + b[r] of one monomial term in log space. Rows
    fall into contiguous segments, segment k spanning rows
    starts[k]:starts[k+1], and each segment is the log-sum-exp of its
    rows; ptr is starts with the term count appended. Segment 0 is the
    objective; every other segment is a constraint meaning <= 0.

    A point's segment gradients are the rows of G = S diag(w) F, w the
    term weights normalized per segment. `gradients` returns G's stored
    entries, which `gt`, `g_dot` and `hessian` consume.
    """

    def __init__(self, F, b: np.ndarray, starts: np.ndarray):
        self.F = sp.csr_matrix(F)
        self.F.sum_duplicates()  # sorted, unique columns: see _Scatter
        self.F.eliminate_zeros()  # exponents that cancelled
        self.b = np.asarray(b, dtype=float)
        self.starts = np.asarray(starts, dtype=np.intp)
        self.ptr = np.append(self.starts, len(self.b))
        self.seg = np.repeat(np.arange(len(self.starts)),
                             np.diff(self.ptr))

    @property
    def dim(self) -> int:
        return self.F.shape[1]

    @functools.cached_property
    def _scatter(self) -> _Scatter:
        return _Scatter(self.F, self.seg, len(self.starts))

    def lse(self, y: np.ndarray):
        """Segment values and the term weights, normalized per segment."""
        z = self.F @ y + self.b
        zmax = np.maximum.reduceat(z, self.starts)
        e = np.exp(z - zmax[self.seg])
        total = np.add.reduceat(e, self.starts)
        return zmax + np.log(total), e / total[self.seg]

    def values(self, y: np.ndarray) -> np.ndarray:
        return self.lse(y)[0]

    def gradients(self, w: np.ndarray) -> np.ndarray:
        k = self._scatter
        return np.bincount(k.to_g, weights=w[k.term] * self.F.data,
                           minlength=len(k.g_col))

    def gt(self, g: np.ndarray, s: np.ndarray) -> np.ndarray:
        """G^T s from the stored entries g of G."""
        k = self._scatter
        return np.bincount(k.g_col, weights=s[k.g_seg] * g,
                           minlength=self.dim)

    def g_dot(self, g: np.ndarray, d: np.ndarray) -> np.ndarray:
        """G d: each segment's directional derivative along d."""
        k = self._scatter
        return np.bincount(k.g_seg, weights=g * d[k.g_col],
                           minlength=len(self.starts))

    def upper(self, w: np.ndarray, g: np.ndarray, s: np.ndarray,
              q: np.ndarray) -> np.ndarray:
        """Upper triangle of F^T diag(w s_seg) F + G^T diag(q) G, zero
        below, in a buffer that the next call overwrites: with s the
        segment multipliers, sum_k s_k Hess f_k plus a rank-one term
        q_k g_k g_k^T per segment."""
        k = self._scatter
        left = np.concatenate([(w * s[self.seg])[k.term] * self.F.data,
                               q[k.g_seg] * g])
        right = np.concatenate([self.F.data, g])
        np.take(left, k.left, out=k.products)
        k.products *= np.take(right, k.right, out=k.factors)
        k.upper.fill(0.0)
        np.put(k.upper, k.cells, np.bincount(k.cell_of, weights=k.products,
                                             minlength=len(k.cells)))
        return k.upper

    def hessian(self, w: np.ndarray, g: np.ndarray, s: np.ndarray,
                q: np.ndarray) -> np.ndarray:
        """The full matrix of `upper`, as a new array."""
        u = self.upper(w, g, s, q)
        h = u + u.T
        h.flat[::self.dim + 1] *= 0.5
        return h

    def barrier_newton(self, t: float, y: np.ndarray):
        """Segment values, gradient and dense Hessian of the barrier
        t*f0 - sum log(-f_k): segment multipliers s = (t, 1/-f_k) and
        outer weights q = (-t, 1/f_k^2 - 1/-f_k)."""
        vals, w = self.lse(y)
        g = self.gradients(w)
        s = np.concatenate([[t], -1.0 / vals[1:]])
        q = -s
        q[1:] += s[1:] ** 2
        return vals, self.gt(g, s), self.hessian(w, g, s, q)

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
        self.value = lambda y: float(lcp.system.values(y)[k])


class LogConvexProblem:
    """A geometric program in log space, compiled into a StackedLse.

    Rows of F (terms x variables) and b, grouped into segments by
    starts, are the objective (segment 0) and the constraints (<= 0) as
    log-sum-exps of affine forms in y = log x. Each free box
    lo_i < hi_i adds an upper and a lower segment after them, each
    pinned one (lo_i == hi_i) a row of the equalities eq_mat @ y =
    eq_rhs. `variables` names the columns.
    """

    def __init__(self, F, b, starts, lo, hi, variables: Sequence[str],
                 eq_mat: Optional[np.ndarray] = None, eq_rhs=()):
        self.lo, self.hi = np.asarray(lo, float), np.asarray(hi, float)
        if not np.all((0 < self.lo) & (self.lo <= self.hi)
                      & np.isfinite(self.hi)):
            raise ValueError("boxes must satisfy 0 < lo <= hi < inf")
        self.variables = list(variables)
        self.ineq_count = len(starts) - 1
        n = len(self.lo)
        eye = sp.identity(n, format="csr")
        free = np.flatnonzero(self.lo < self.hi)
        pinned = np.flatnonzero(self.lo == self.hi)
        # y_i - log hi_i <= 0 and log lo_i - y_i <= 0, per free variable
        sides = eye[np.repeat(free, 2)]
        sides.data *= np.tile([1.0, -1.0], len(free))
        self.system = StackedLse(
            sp.vstack([F, sides]),
            np.concatenate([b, np.column_stack(
                [-np.log(self.hi[free]), np.log(self.lo[free])]).ravel()]),
            np.concatenate([starts, len(b) + np.arange(2 * len(free))]))
        self.eq_mat = np.vstack([np.zeros((0, n)) if eq_mat is None
                                 else eq_mat, eye[pinned].toarray()])
        self.eq_rhs = np.concatenate([eq_rhs, np.log(self.lo[pinned])])

    @property
    def dim(self) -> int:
        return len(self.variables)

    @property
    def objective(self) -> _Segment:
        return _Segment(self, 0)

    @property
    def constraints(self) -> List[_Segment]:
        return [_Segment(self, k) for k in range(1, len(self.system.starts))]

    def _segment_value_grad(self, k: int, y: np.ndarray):
        vals, w = self.system.lse(y)
        return float(vals[k]), self.system.gt(self.system.gradients(w),
                                              np.arange(len(vals)) == k)

    def constraint_value_grad(self, k: int, y: np.ndarray):
        return self._segment_value_grad(k + 1, y)

    def objective_value_grad(self, y: np.ndarray):
        return self._segment_value_grad(0, y)

    def center_point(self) -> np.ndarray:
        return 0.5 * (np.log(self.lo) + np.log(self.hi))

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


def to_log_convex(problem: GpProblem) -> LogConvexProblem:
    """Lower a hand-written GpProblem into its compiled form, one column
    per variable in sorted name order."""
    variables = sorted(problem.variables() | set(problem.box))
    index = {v: i for i, v in enumerate(variables)}

    def rows(terms):
        """Exponent matrix and log-coefficients of monomials."""
        coo = [(r, index[name], e) for r, t in enumerate(terms)
               for name, e in t.exponents.items()]
        r, c, e = zip(*coo) if coo else ((), (), ())
        return (sp.csr_matrix((e, (r, c)), shape=(len(terms), len(index))),
                np.log([t.coeff for t in terms]))

    posys = (problem.objective, *problem.ineq_constraints)
    F, b = rows([t for p in posys for t in p.terms])
    eq_mat, eq_logc = rows(problem.eq_constraints)
    lo, hi = np.array([problem.box[v] for v in variables],
                      dtype=float).reshape(-1, 2).T
    return LogConvexProblem(F, b, np.cumsum([0] + [len(p.terms)
                                                   for p in posys[:-1]]),
                            lo, hi, variables, eq_mat.toarray(), -eq_logc)


# ---------------------------------------------------------------------------
# primal-dual interior-point solver (Boyd & Vandenberghe, section 11.7)

MU = 2.0            # each step aims at t = MU * m / eta
PHASE1_TOL = 1e-7   # phase-I lower bounds above this prove infeasibility
_ALPHA, _BETA = 0.01, 0.5   # residual decrease and backtracking factor


def _newton_direction(system: StackedLse, w, g, s, q,
                      rhs: np.ndarray) -> np.ndarray:
    """Solve H d = rhs, H = system.upper(w, g, s, q), by an in-place
    Cholesky of its Jacobi-equilibrated triangle; a ridge on failure."""
    for ridge in (0.0, 1e-14, 1e-12, 1e-10):
        u = system.upper(w, g, s, q)
        inv = 1.0 / np.sqrt(np.maximum(u.diagonal(), 1e-300))
        u *= inv[:, None]
        u *= inv
        u.flat[::len(u) + 1] += ridge
        try:
            cho = scipy.linalg.cho_factor(u.T, lower=True, overwrite_a=True,
                                          check_finite=False)
            return scipy.linalg.cho_solve(cho, rhs * inv,
                                          check_finite=False) * inv
        except np.linalg.LinAlgError:
            pass
    return np.linalg.lstsq(system.hessian(w, g, s, q), rhs, rcond=None)[0]


def _primal_dual(system: StackedLse, z: np.ndarray, tol: float,
                 max_steps: int, stop=None):
    """Minimize f0 s.t. f_k <= 0 from a strictly feasible z.

    Each step solves the reduced Newton system of the modified KKT
    conditions at t = MU*m/eta, eta = -f^T lam the surrogate gap. From
    0.99 of the largest step keeping lam > 0 and each linearized f_k < 0
    it backtracks until every f_k < 0 and |(r_dual, r_cent)| has fallen.
    Returns (z, r_dual, eta, steps, status): status is 'optimal' once
    |r_dual|_inf <= tol and eta <= tol, 'stopped' once stop(z) holds,
    else 'max_iter'."""
    vals, w = system.lse(z)
    lam = -1.0 / vals[1:]
    m = len(lam)
    g = system.gradients(w)
    r_dual = system.gt(g, np.append(1.0, lam))
    for steps in range(max_steps + 1):
        f = vals[1:]
        eta = float(-f @ lam)
        if stop is not None and stop(z):
            return z, r_dual, eta, steps, "stopped"
        if np.abs(r_dual).max() <= tol and eta <= tol:
            return z, r_dual, eta, steps, "optimal"
        if steps == max_steps:
            break
        t = MU * m / eta
        s = np.append(1.0, lam)
        q = -s
        q[1:] -= lam / f
        dz = _newton_direction(system, w, g, s, q,
                               -system.gt(g, np.append(1.0, -1.0 / (t * f))))
        df = system.g_dot(g, dz)[1:]
        dlam = -lam / f * df - lam - 1.0 / (t * f)
        norm0 = math.hypot(np.linalg.norm(r_dual),
                           np.linalg.norm(lam * f + 1.0 / t))
        # f_k is convex, so f_k + step*df_k < 0 is needed for f_k < 0
        shrink, grow = dlam < 0, df > 0
        step = 0.99 * min(np.min(-lam[shrink] / dlam[shrink], initial=1.0),
                          np.min(-f[grow] / df[grow], initial=1.0))
        while step > 1e-12:
            z_new = z + step * dz
            vals_new, w_new = system.lse(z_new)
            if np.all(vals_new[1:] < 0):
                lam_new = lam + step * dlam
                g_new = system.gradients(w_new)
                r_new = system.gt(g_new, np.append(1.0, lam_new))
                if math.hypot(np.linalg.norm(r_new),
                              np.linalg.norm(lam_new * vals_new[1:] + 1.0 / t)
                              ) <= (1.0 - _ALPHA * step) * norm0:
                    break
            step *= _BETA
        else:
            break   # no step reduces the residual
        z, vals, w, g, lam, r_dual = (z_new, vals_new, w_new, g_new,
                                      lam_new, r_new)
    return z, r_dual, eta, steps, "max_iter"


def solve(problem: GpProblem, tol: float = 1e-7,
          max_newton: int = 500) -> GpSolution:
    """Solve a hand-written geometric program: compile it with
    to_log_convex, then run solve_compiled."""
    return solve_compiled(to_log_convex(problem), tol, max_newton)


def solve_compiled(lcp: LogConvexProblem, tol: float = 1e-7,
                   max_newton: int = 500) -> GpSolution:
    """Solve a compiled geometric program by a log-space primal-dual
    method.

    Phase I minimizes the largest constraint violation s over (y, s)
    and stops once s < 0; a converged s* whose lower bound s* - gap
    exceeds PHASE1_TOL proves infeasibility, with s* as kkt_residual.
    Phase II runs the same loop on the problem itself. status is
    'optimal' once the dual residual |grad f0 + sum lam_k grad f_k|_inf
    (kkt_residual) and the surrogate duality gap -f^T lam (gap) are
    both at most tol, 'infeasible' with a phase-I certificate, or
    'max_iter' when the max_newton steps of both phases run out or a
    line search cannot reduce the residual. The iterate stays strictly
    feasible throughout.
    """
    reduction = lcp.reduced()
    if reduction is None:
        return GpSolution(point={}, objective_value=math.nan,
                          status="infeasible", kkt_residual=math.inf)
    system, y0, basis = reduction

    def solution(zz, **fields):
        y = y0 + basis @ zz
        x = np.exp(y)
        return GpSolution(point=dict(zip(lcp.variables, x.tolist())),
                          objective_value=math.exp(lcp.system.values(y)[0]),
                          x=x, **fields)

    z = basis.T @ (lcp.center_point() - y0)
    vals = system.values(z)[1:]
    if system.dim == 0:
        # fully pinned problem: feasibility is a direct check
        if np.all(vals < 0):
            return solution(z, status="optimal", kkt_residual=0.0, gap=0.0)
        return GpSolution(point={}, objective_value=math.nan,
                          status="infeasible",
                          kkt_residual=float(vals.max()))

    steps1 = 0
    if np.any(vals >= -1e-10):
        # phase I on (z, s), started with margin one
        zs, _, eta, steps1, status = _primal_dual(
            system.phase1(), np.append(z, vals.max() + 1.0), tol,
            max_newton, stop=lambda zs: zs[-1] < 0)
        if status != "stopped":
            infeasible = status == "optimal" and zs[-1] - eta > PHASE1_TOL
            return GpSolution(point={}, objective_value=math.nan,
                              status="infeasible" if infeasible
                              else "max_iter",
                              kkt_residual=float(zs[-1]), gap=eta,
                              newton_iters=steps1)
        z = zs[:-1]

    z, r_dual, eta, steps2, status = _primal_dual(system, z, tol,
                                                  max_newton - steps1)
    return solution(z, status=status,
                    kkt_residual=float(np.abs(r_dual).max()), gap=eta,
                    newton_iters=steps1 + steps2)
