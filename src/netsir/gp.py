"""Geometric programs: a compiled array form and its interior-point solver.

A monomial is c * prod x_k^{a_k} with c > 0; a posynomial is a sum of
monomials. Under x = exp(y) each posynomial becomes a log-sum-exp of
affine forms, so the program

    minimize f0(x)  s.t.  f_i(x) <= 1,  lo < x < hi

turns into a smooth convex problem that a primal-dual interior-point
method (Boyd & Vandenberghe, section 11.7) solves to a dual residual and
a surrogate duality gap both below the tolerance. LogConvexProblem is
the one form the solver reads: a sparse term-exponent matrix, the
log-coefficients, the segment starts and per-variable boxes, as arrays.
Callers build those arrays from their structure and call
solve_compiled. The rows are stacked once into a StackedLse, which also
compiles the index arrays of a scatter that assembles its dense Newton
matrix, so each Newton step is a few array operations and one Cholesky
factorization.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse as sp


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



class LogConvexProblem:
    """A geometric program in log space, compiled into a StackedLse.

    Rows of F (terms x variables) and b, grouped into segments by
    starts, are the objective (segment 0) and the constraints (<= 0) as
    log-sum-exps of affine forms in y = log x. Each box lo_i < hi_i
    adds an upper and a lower segment after them. `variables` names the
    columns.
    """

    def __init__(self, F, b, starts, lo, hi, variables: Sequence[str]):
        self.lo, self.hi = np.asarray(lo, float), np.asarray(hi, float)
        if not np.all((0 < self.lo) & (self.lo < self.hi)
                      & np.isfinite(self.hi)):
            raise ValueError("boxes must satisfy 0 < lo < hi < inf")
        self.variables = list(variables)
        self.ineq_count = len(starts) - 1
        n = len(self.lo)
        # y_i - log hi_i <= 0 and log lo_i - y_i <= 0, per variable
        sides = sp.identity(n, format="csr")[np.repeat(np.arange(n), 2)]
        sides.data *= np.tile([1.0, -1.0], n)
        self.system = StackedLse(
            sp.vstack([F, sides]),
            np.concatenate([b, np.column_stack(
                [-np.log(self.hi), np.log(self.lo)]).ravel()]),
            np.concatenate([starts, len(b) + np.arange(2 * n)]))

    @property
    def dim(self) -> int:
        return len(self.variables)

    def center_point(self) -> np.ndarray:
        return 0.5 * (np.log(self.lo) + np.log(self.hi))


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
    system = lcp.system
    y = lcp.center_point()
    vals = system.values(y)[1:]
    steps1 = 0
    if np.any(vals >= -1e-10):
        # phase I on (y, s), started with margin one
        ys, _, eta, steps1, status = _primal_dual(
            system.phase1(), np.append(y, vals.max() + 1.0), tol,
            max_newton, stop=lambda ys: ys[-1] < 0)
        if status != "stopped":
            infeasible = status == "optimal" and ys[-1] - eta > PHASE1_TOL
            return GpSolution(point={}, objective_value=math.nan,
                              status="infeasible" if infeasible
                              else "max_iter",
                              kkt_residual=float(ys[-1]), gap=eta,
                              newton_iters=steps1)
        y = ys[:-1]

    y, r_dual, eta, steps2, status = _primal_dual(system, y, tol,
                                                  max_newton - steps1)
    x = np.exp(y)
    return GpSolution(point=dict(zip(lcp.variables, x.tolist())),
                      objective_value=math.exp(system.values(y)[0]),
                      status=status, kkt_residual=float(np.abs(r_dual).max()),
                      gap=eta, newton_iters=steps1 + steps2, x=x)


# Both names below are kept only for the benchmark tracer, which wraps
# them; the program never calls them. They go once the program records
# its own spans (ROADMAP item 5).
solve = solve_compiled
to_log_convex = LogConvexProblem
