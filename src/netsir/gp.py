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
factorization. Each step is corrected for the rows' curvature with a
second solve against the same factor (Mehrotra's corrector reuses the
factor the same way), so a step aims at MU = 20 times the barrier
parameter and the social68 allocation GPs take 17 steps, not 52.
certified_gap proves how far a solution is from optimal by weak
duality, from its point and multipliers alone.
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
    lam: Optional[np.ndarray] = None  # constraint multipliers, with x


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

# Each step aims at t = MU * m / eta. Steps per solve with the curvature
# correction, on the social68 plain and Erlang(2) GPs, then three seeded
# 500-node plain GPs: 17 and 18, then 25-26 at MU = 10; 17 and 17, then
# 17-18 at MU = 20; 17 and 19, then 18-19 at MU = 30. Without the
# correction MU = 2 was best: 52 and 52, against 141 and 198 at MU = 10.
MU = 20.0
PHASE1_TOL = 1e-7   # phase-I lower bounds above this prove infeasibility
_ALPHA, _BETA = 0.01, 0.5   # residual decrease and backtracking factor


def _newton_solver(system: StackedLse, w, g, s, q):
    """A solve d = H^-1 rhs, H = system.upper(w, g, s, q), for any
    number of right-hand sides from one factorization: an in-place
    Cholesky of the Jacobi-equilibrated triangle, with a ridge on
    failure and least squares on the full matrix as the last resort."""
    for ridge in (0.0, 1e-14, 1e-12, 1e-10):
        u = system.upper(w, g, s, q)
        inv = 1.0 / np.sqrt(np.maximum(u.diagonal(), 1e-300))
        u *= inv[:, None]
        u *= inv
        u.flat[::len(u) + 1] += ridge
        try:
            cho = scipy.linalg.cho_factor(u.T, lower=True, overwrite_a=True,
                                          check_finite=False)
        except np.linalg.LinAlgError:
            continue
        return lambda rhs: scipy.linalg.cho_solve(
            cho, rhs * inv, check_finite=False) * inv
    h = system.hessian(w, g, s, q)
    return lambda rhs: np.linalg.lstsq(h, rhs, rcond=None)[0]


def _line_search(system: StackedLse, z, lam, f, r_dual, t, dz, df, dlam):
    """From 0.99 of the largest step keeping lam > 0 and each linearized
    f_k < 0, backtrack until every f_k < 0 and |(r_dual, r_cent)| has
    fallen; the new (z, vals, w, g, lam, r_dual), or None if no step
    does."""
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
                return z_new, vals_new, w_new, g_new, lam_new, r_new
        step *= _BETA
    return None


def _primal_dual(system: StackedLse, z: np.ndarray, tol: float,
                 max_steps: int, stop=None):
    """Minimize f0 s.t. f_k <= 0 from a strictly feasible z.

    Each step solves the reduced Newton system of the modified KKT
    conditions at t = MU*m/eta, eta = -f^T lam the surrogate gap, for a
    direction dz. The rows at z + dz give each row's curvature along it,
    c_k = max(f_k(z + dz) - f_k - df_k, 0), and a second solve with the
    same factorization linearizes -(lam + dlam)(f + df + c) = 1/t in
    place of -(lam + dlam)(f + df) = 1/t. Without c, the nearly active
    rows that a full step makes nonnegative only through their
    curvature halve most steps. The line search runs along the corrected
    direction and, if no step along it reduces the residual, along the
    plain Newton one.
    Returns (z, lam, r_dual, eta, steps, status): status is 'optimal'
    once |r_dual|_inf <= tol and eta <= tol, 'stopped' once stop(z)
    holds, else 'max_iter'."""
    vals, w = system.lse(z)
    lam = -1.0 / vals[1:]
    m = len(lam)
    g = system.gradients(w)
    r_dual = system.gt(g, np.append(1.0, lam))
    for steps in range(max_steps + 1):
        f = vals[1:]
        eta = float(-f @ lam)
        if stop is not None and stop(z):
            return z, lam, r_dual, eta, steps, "stopped"
        if np.abs(r_dual).max() <= tol and eta <= tol:
            return z, lam, r_dual, eta, steps, "optimal"
        if steps == max_steps:
            break
        t = MU * m / eta
        s = np.append(1.0, lam)
        q = -s
        q[1:] -= lam / f
        solve = _newton_solver(system, w, g, s, q)
        rhs = -system.gt(g, np.append(1.0, -1.0 / (t * f)))
        dz = solve(rhs)
        df = system.g_dot(g, dz)[1:]
        # second order: each row's curvature along dz, c_k >= 0 as f_k
        # is convex, enters -(lam + dlam)(f + df + c) = 1/t
        c = np.maximum(system.values(z + dz)[1:] - f - df, 0.0)
        dz_c = solve(rhs + system.gt(g, np.append(0.0, lam * c / f)))
        df_c = system.g_dot(g, dz_c)[1:]
        for d, d_f, dlam in (
                (dz_c, df_c, -lam / f * (df_c + c) - lam - 1.0 / (t * f)),
                (dz, df, -lam / f * df - lam - 1.0 / (t * f))):
            found = _line_search(system, z, lam, f, r_dual, t, d, d_f, dlam)
            if found is not None:
                break
        else:
            break   # no step reduces the residual
        z, vals, w, g, lam, r_dual = found
    return z, lam, r_dual, eta, steps, "max_iter"


def solve_compiled(lcp: LogConvexProblem, tol: float = 1e-7,
                   max_newton: int = 500) -> GpSolution:
    """Solve a compiled geometric program by a log-space primal-dual
    method.

    Phase I minimizes the largest constraint violation s over (y, s)
    and stops once s < 0; a converged s* whose lower bound s* - gap
    exceeds PHASE1_TOL proves infeasibility, with s* as kkt_residual.
    It converges to min(tol, PHASE1_TOL), so a loose tol cannot end it
    before either holds.
    Phase II runs the same loop on the problem itself. status is
    'optimal' once the dual residual |grad f0 + sum lam_k grad f_k|_inf
    (kkt_residual) and the surrogate duality gap -f^T lam (gap) are
    both at most tol, 'infeasible' with a phase-I certificate, or
    'max_iter' when the max_newton steps of both phases run out or a
    line search cannot reduce the residual. The iterate stays strictly
    feasible throughout. Each Newton step is corrected for the rows'
    curvature along it (see _primal_dual), one extra triangular solve
    and one row evaluation a step. The solution carries the constraint
    multipliers, from which certified_gap bounds the optimality gap.
    """
    system = lcp.system
    y = lcp.center_point()
    vals = system.values(y)[1:]
    steps1 = 0
    if np.any(vals >= -1e-10):
        # phase I on (y, s), started with margin one
        ys, _, _, eta, steps1, status = _primal_dual(
            system.phase1(), np.append(y, vals.max() + 1.0),
            min(tol, PHASE1_TOL), max_newton, stop=lambda ys: ys[-1] < 0)
        if status != "stopped":
            infeasible = status == "optimal" and ys[-1] - eta > PHASE1_TOL
            return GpSolution(point={}, objective_value=math.nan,
                              status="infeasible" if infeasible
                              else "max_iter",
                              kkt_residual=float(ys[-1]), gap=eta,
                              newton_iters=steps1)
        y = ys[:-1]

    y, lam, r_dual, eta, steps2, status = _primal_dual(
        system, y, tol, max_newton - steps1)
    x = np.exp(y)
    return GpSolution(point=dict(zip(lcp.variables, x.tolist())),
                      objective_value=math.exp(system.values(y)[0]),
                      status=status, kkt_residual=float(np.abs(r_dual).max()),
                      gap=eta, newton_iters=steps1 + steps2, x=x, lam=lam)


def _lagrangian_bound(system: StackedLse, y: np.ndarray, s: np.ndarray,
                      log_lo: np.ndarray, log_hi: np.ndarray):
    """L(y, lam) + min over the box of r^T (x - y), lowered by a bound on
    the rounding error of its own evaluation; with the segment values,
    weights, gradient entries and r. Each sum of k terms errs by at most
    k u times the sum of their magnitudes, u the unit roundoff, with k
    twice the largest count in play to cover exp and log within a few
    ulps."""
    vals, w = system.lse(y)
    g = system.gradients(w)
    r = system.gt(g, s)
    box = np.minimum(r * (log_lo - y), r * (log_hi - y))
    lower = float(s @ vals + box.sum())
    F = abs(system.F)
    count = 2 * (np.diff(F.indptr).max() + np.diff(system.ptr).max()
                 + len(s) + len(y) + 8)
    u = np.finfo(float).eps / 2
    gam = count * u / (1.0 - count * u)
    z_err = gam * (F @ np.abs(y) + np.abs(system.b))   # affine forms
    f_err = np.maximum.reduceat(z_err, system.starts) + gam * (1 + abs(vals))
    r_err = (F.T @ (w * s[system.seg] * (z_err + f_err[system.seg] + gam))
             + gam * system.gt(np.abs(g), s))
    width = np.maximum(abs(log_lo - y), abs(log_hi - y))
    lower -= float(s @ f_err + gam * (s @ abs(vals))
                   + (r_err + gam * abs(r)) @ width + gam * abs(lower))
    return lower, vals, w, g, r


def certified_gap(lcp: LogConvexProblem, sol: GpSolution):
    """Weak-duality lower bound on the optimal log objective of lcp, from
    sol's point and multipliers alone, and the relative gap of the
    objective at that point over the bound: (lower, exp(f0 - lower) - 1).

    For every feasible y and multipliers lam >= 0, f0(y) >= L(y, lam) >=
    L(p, lam) + r^T (y - p) at any point p, L = f0 + sum lam_k f_k convex
    and r its gradient at p. Every feasible y lies in the box rows'
    [log lo, log hi], so the linear term is at least the sum over j of
    min(r_j (log lo_j - p_j), r_j (log hi_j - p_j)); the box ends are
    read from the compiled rows, so they are exact. At p = y^ = log(sol.x)
    that box term sums |r_j| over every variable, times widths of up to
    37 for the certificate entries, so p also runs up to eight ridged
    Newton steps on L(., lam) from y^, where r shrinks, while the bound
    rises. The solver is not called: any point and any positive
    multipliers give a valid bound.
    """
    system = lcp.system
    n = lcp.dim
    p = np.log(sol.x)
    s = np.append(1.0, sol.lam)
    box = (system.b[1 - 2 * n::2], -system.b[-2 * n::2])
    lower, vals, w, g, r = _lagrangian_bound(system, p, s, *box)
    f0 = vals[0]
    for _ in range(8):
        # cho_factor reads only the upper triangle
        u = system.upper(w, g, s, -s)
        u.flat[::n + 1] += 1e-10 * u.diagonal().max()
        try:
            p = p - scipy.linalg.cho_solve(scipy.linalg.cho_factor(u), r)
        except np.linalg.LinAlgError:
            break
        bound, vals, w, g, r = _lagrangian_bound(system, p, s, *box)
        if not bound > lower:
            break
        lower = bound
    return lower, math.expm1(f0 - lower) if f0 - lower < 700 else math.inf


# Both names below are kept only for the benchmark tracer, which wraps
# them; the program never calls them. They go once the program records
# its own spans (ROADMAP item 5).
solve = solve_compiled
to_log_convex = LogConvexProblem
