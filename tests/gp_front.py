"""Hand-written geometric programs for the tests, lowered onto the
library's one compiled form.

Monomial, Posynomial and GpProblem spell a GP out by variable name, with
monomial equalities and boxes that may be pinned (lo == hi).
gp.LogConvexProblem takes neither, so `lower` removes both by
substitution, y = y0 + basis @ z, before it compiles: a pinned column
folds into b, and each equality is solved for one pivot variable, whose
box becomes two one-term rows. `solve` lowers, runs gp.solve_compiled
and recovers the eliminated variables.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from netsir import gp


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


@dataclass(frozen=True, eq=False)
class Lowered:
    """A GpProblem on the compiled form: lcp over the kept columns z,
    y = y0 + basis @ z over every variable (names), and `system`, the
    rows before the substitution: every column, with the box rows of
    the unpinned ones."""

    lcp: gp.LogConvexProblem
    names: List[str]
    y0: np.ndarray
    basis: np.ndarray
    system: gp.StackedLse


def _rows(terms, index):
    """Exponent matrix and log-coefficients of monomials."""
    coo = [(r, index[name], e) for r, t in enumerate(terms)
           for name, e in t.exponents.items()]
    r, c, e = zip(*coo) if coo else ((), (), ())
    return (sp.csr_matrix((e, (r, c)), shape=(len(terms), len(index))),
            np.log([t.coeff for t in terms]))


def _box_rows(a, c, lo, hi):
    """Rows y_i - log hi_i <= 0 and log lo_i - y_i <= 0, one segment
    each, for y_i = a[i] @ z + c[i]."""
    rows = np.repeat(a, 2, axis=0)
    rows[1::2] *= -1.0
    return (sp.csr_matrix(rows),
            np.column_stack([c - np.log(hi), np.log(lo) - c]).ravel())


def _stack(F, b, starts, sides, side_b):
    return (sp.vstack([F, sides]), np.concatenate([b, side_b]),
            np.concatenate([starts, len(b) + np.arange(len(side_b))]))


def lower(problem: GpProblem) -> Optional[Lowered]:
    """Compile a GpProblem, one column per variable in sorted name order
    before the substitution; None when its equalities are
    inconsistent."""
    names = sorted(problem.variables() | set(problem.box))
    index = {v: i for i, v in enumerate(names)}
    n = len(names)
    posys = (problem.objective, *problem.ineq_constraints)
    F, b = _rows([t for p in posys for t in p.terms], index)
    starts = np.cumsum([0] + [len(p.terms) for p in posys[:-1]])
    lo, hi = np.array([problem.box[v] for v in names],
                      dtype=float).reshape(-1, 2).T
    pinned = lo == hi
    y0 = np.where(pinned, np.log(lo), 0.0)
    basis = np.diag((~pinned).astype(float))
    eq_mat, eq_logc = _rows(problem.eq_constraints, index)
    pivots = []
    for a, rhs in zip(eq_mat.toarray(), -eq_logc):
        # a @ y = rhs reads r @ w = rhs - a @ y0 in y = y0 + basis @ w
        r = a @ basis
        rest = rhs - a @ y0
        p = int(np.argmax(np.abs(r)))
        if abs(r[p]) <= 1e-12:
            if abs(rest) > 1e-8:
                return None
            continue    # implied by the equalities before it
        y0 = y0 + basis[:, p] * (rest / r[p])
        basis = basis - np.outer(basis[:, p], r / r[p])
        pivots.append(p)
    kept = np.flatnonzero(~pinned & ~np.isin(np.arange(n), pivots))
    basis = basis[:, kept]
    pivots = np.array(pivots, dtype=int)
    lcp = gp.LogConvexProblem(
        *_stack(sp.csr_matrix(F @ basis), b + F @ y0, starts,
                *_box_rows(basis[pivots], y0[pivots], lo[pivots],
                           hi[pivots])),
        lo[kept], hi[kept], [names[i] for i in kept])
    free = np.flatnonzero(~pinned)
    system = gp.StackedLse(*_stack(
        F, b, starts, *_box_rows(np.eye(n)[free], np.zeros(len(free)),
                                 lo[free], hi[free])))
    return Lowered(lcp, names, y0, basis, system)


def solve(problem: GpProblem, tol: float = 1e-7,
          max_newton: int = 500) -> gp.GpSolution:
    """Lower a GpProblem, solve it with gp.solve_compiled and give the
    point over every variable."""
    lowered = lower(problem)
    if lowered is None:
        return gp.GpSolution(point={}, objective_value=math.nan,
                             status="infeasible", kkt_residual=math.inf)
    sol = gp.solve_compiled(lowered.lcp, tol, max_newton)
    if sol.x is None:
        return sol
    x = np.exp(lowered.y0 + lowered.basis @ np.log(sol.x))
    return dataclasses.replace(
        sol, point=dict(zip(lowered.names, x.tolist())), x=x)


def random_gp(seed: int) -> GpProblem:
    """A seeded GP over four variables: a posynomial objective, one to
    four posynomial constraints, a monomial equality when seed % 3 == 0,
    and boxes [0.01..0.1, 10..100]. About one in seven is infeasible."""
    rng = np.random.default_rng(seed)
    names = ["a", "b", "c", "d"]

    def posy(scale):
        return Posynomial(tuple(
            Monomial(float(rng.uniform(0.1, 2.0)) * scale,
                     {n: float(rng.uniform(-2, 2)) for n in names})
            for _ in range(int(rng.integers(1, 4)))))
    objective = posy(1.0)
    cons = tuple(posy(float(rng.uniform(0.05, 1.0)))
                 for _ in range(int(rng.integers(1, 5))))
    eq = ()
    if seed % 3 == 0:
        i, j = rng.choice(4, size=2, replace=False)
        eq = (Monomial(float(rng.uniform(0.5, 2.0)),
                       {names[i]: 1.0, names[j]: -1.0}),)
    box = {n: (float(rng.uniform(0.01, 0.1)), float(rng.uniform(10, 100)))
           for n in names}
    return GpProblem(objective=objective, ineq_constraints=cons,
                     eq_constraints=eq, box=box)


def segment_value_grad(system: gp.StackedLse, k: int, y: np.ndarray):
    """Value and gradient of segment k of a compiled system at y."""
    vals, w = system.lse(y)
    return float(vals[k]), system.gt(system.gradients(w),
                                     np.arange(len(vals)) == k)


def barrier_value(t: float, vals: np.ndarray) -> float:
    """t*f0 - sum log(-f_k) from segment values; inf unless strictly
    feasible."""
    if np.any(vals[1:] >= 0):
        return math.inf
    return float(t * vals[0] - np.log(-vals[1:]).sum())


def barrier_newton(system: gp.StackedLse, t: float, y: np.ndarray):
    """Segment values, gradient and dense Hessian of the barrier
    t*f0 - sum log(-f_k): segment multipliers s = (t, 1/-f_k) and
    outer weights q = (-t, 1/f_k^2 - 1/-f_k)."""
    vals, w = system.lse(y)
    g = system.gradients(w)
    s = np.concatenate([[t], -1.0 / vals[1:]])
    q = -s
    q[1:] += s[1:] ** 2
    return vals, system.gt(g, s), system.hessian(w, g, s, q)
