"""Phase-type distributions: absorption times of finite transient CTMCs.

A law is a pair (phi, Pi) with Pi the transient generator block and phi
the initial phase distribution. Closure under min with an independent
exponential is the workhorse used by the isolation model: the combined
removal time has generator Pi - delta*I with the same phi.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

_ATOL = 1e-9


@dataclass(frozen=True, eq=False)
class PhaseType:
    """Distribution of the absorption time of a CTMC with transient
    generator `Pi` started from phase distribution `phi`."""

    Pi: np.ndarray
    phi: np.ndarray = None

    def __post_init__(self):
        pi = np.array(self.Pi, dtype=float)
        if pi.ndim != 2 or pi.shape[0] != pi.shape[1]:
            raise ValueError("Pi must be a square matrix")
        p = pi.shape[0]
        phi = self.phi
        if phi is None:
            phi = np.zeros(p)
            phi[0] = 1.0
        phi = np.array(phi, dtype=float)
        if not np.all(np.isfinite(pi)):
            raise ValueError("Pi must be finite")
        off = pi - np.diag(np.diag(pi))
        if np.any(off < 0):
            raise ValueError("Pi must be Metzler (off-diagonal >= 0)")
        if np.any(pi.sum(axis=1) > _ATOL):
            raise ValueError("Pi row sums must be <= 0")
        try:
            np.linalg.solve(pi, np.ones(p))
        except np.linalg.LinAlgError:
            raise ValueError("Pi must be invertible (all phases transient)") from None
        if np.any(phi < 0) or abs(phi.sum() - 1.0) > _ATOL:
            raise ValueError("phi must be a probability distribution")
        pi.setflags(write=False)
        phi.setflags(write=False)
        object.__setattr__(self, "Pi", pi)
        object.__setattr__(self, "phi", phi)

    @property
    def p(self) -> int:
        return self.Pi.shape[0]


@dataclass(frozen=True)
class ErlangSpec:
    """Erlang(shape, mean): sum of `shape` iid exponentials with total
    mean `mean`."""

    shape: int
    mean: float

    def __post_init__(self):
        if self.shape < 1:
            raise ValueError("shape must be >= 1")
        if self.mean <= 0:
            raise ValueError("mean must be positive")


def erlang(spec: ErlangSpec) -> PhaseType:
    """Erlang phase-type: bidiagonal generator with rate shape/mean per
    phase; only the last phase exits."""
    p, gamma = spec.shape, spec.mean
    rate = p / gamma
    pi = np.diag(np.full(p, -rate))
    for l in range(p - 1):
        pi[l, l + 1] = rate
    return PhaseType(Pi=pi)


def erlang_laws(p: int, means) -> tuple:
    """One Erlang(p, mean) law per entry of the vector `means`, each
    distinct mean built once."""
    values, which = np.unique(np.asarray(means, dtype=float),
                              return_inverse=True)
    built = [erlang(ErlangSpec(p, m)) for m in values.tolist()]
    return tuple(built[k] for k in which)


def phase_type(laws) -> np.ndarray:
    """The generators of a sequence of removal laws, stacked (n, p, p).
    The laws must share one phase count and start in phase 1 (phi = u1),
    as every layer enters a new infection in phase 1. Each distinct law
    object is checked and stacked once, then indexed per node."""
    distinct = {}       # law -> its row among the distinct laws
    which = [distinct.setdefault(law, len(distinct)) for law in laws]
    if len({law.p for law in distinct}) != 1:
        raise ValueError("isolation laws must share one phase count")
    phis = np.stack([law.phi for law in distinct])
    if np.any(phis[:, 0] != 1.0) or np.any(phis[:, 1:]):
        raise ValueError("isolation laws must start in phase 1 (phi = u1)")
    return np.stack([law.Pi for law in distinct])[which]


def min_with_exponential(y: PhaseType, delta: float) -> PhaseType:
    """Law of min(X, Y) for X ~ Exp(delta) independent of Y.

    The generator shifts by -delta on the diagonal; the initial
    distribution is unchanged.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    return PhaseType(Pi=y.Pi - delta * np.eye(y.p), phi=y.phi)


def exit_rates(d: PhaseType) -> np.ndarray:
    """Absorption rate from each phase: w = -Pi @ 1."""
    return -d.Pi.sum(axis=1) + 0.0  # clears negative zeros


def cdf(d: PhaseType, t):
    """P(T <= t), by uniformization. Accepts a scalar or an array.

    With q = max |Pi_ll| and P = I + Pi/q, T <= t iff the chain has
    left its phases within N steps, N ~ Poisson(qt), so
    F(t) = sum_k Pois(k; qt) b_k with b_k = 1 - phi P^k 1. Each b_k is
    a sum of nonnegative exit terms and each summand is nonnegative,
    so a small F keeps its relative accuracy. The sum stops once k
    exceeds the largest qt and bounds the Poisson mass left at every t
    below 1e-16.
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t_arr < 0):
        raise ValueError("t must be nonnegative")
    q = float(np.max(-np.diag(d.Pi)))
    step = np.eye(d.p) + d.Pi / q
    exits = exit_rates(d) / q
    lam = q * t_arr
    log_lam = np.log(lam, out=np.full_like(lam, -np.inf), where=lam > 0)
    top = float(lam.max(initial=0.0))
    x = d.phi.copy()      # phi P^k
    b = 0.0               # b_k
    vals = np.zeros_like(t_arr)
    for k in itertools.count():
        log_k = math.lgamma(k + 1)
        # past the largest qt, Pois(k; top) / (1 - top/(k+1)) bounds the
        # Poisson mass from k on at every t
        if k > top and (top == 0.0 or math.exp(k * math.log(top) - top - log_k)
                        < 1e-16 * (1 - top / (k + 1))):
            break
        if b:
            vals += b * np.exp((k * log_lam if k else 0.0) - lam - log_k)
        b += float(x @ exits)
        x = x @ step
    vals = np.clip(vals, 0.0, 1.0)
    return vals if np.ndim(t) else float(vals[0])


def mean(d: PhaseType) -> float:
    """Analytic mean -phi Pi^{-1} 1."""
    return float(-d.phi @ np.linalg.solve(d.Pi, np.ones(d.p)))


def walk_table(pis: np.ndarray, exits: np.ndarray):
    """Move tables for `absorbing_walk`, one law per leading index.

    `pis` (L, p, p) are transient generators and `exits` (L, p, x) the
    absorption rates of each phase split into x kinds, each row summing
    to -diag(Pi). Returns the hold rates (L, p) and the cumulative move
    rates (L, p, p + x): jumps to each phase, then the exits. From the
    last column with a positive rate on, the cumulative rate is +inf,
    so that column takes whatever rounding leaves over.
    """
    pis = np.asarray(pis, dtype=float)
    p = pis.shape[-1]
    hold = -np.diagonal(pis, axis1=1, axis2=2).copy()
    rates = np.concatenate([pis * (1.0 - np.eye(p)), exits], axis=2)
    cum = np.cumsum(rates, axis=2)
    last = rates.shape[2] - 1 - np.argmax(rates[..., ::-1] > 0.0, axis=2)
    cum[np.arange(rates.shape[2]) >= last[..., None]] = np.inf
    return hold, cum


def absorbing_walk(hold, cum, law, phase, budget, more):
    """Lockstep absorbing walks, one per entry of `law` and `phase`.

    Walk k follows law `law[k]` of a `walk_table` from phase `phase[k]`.
    Each step takes two uniforms: the first draws the hold time, the
    second the move. Step s of walk k reads budget[k, 2s:2s+2]; once
    every column is spent, `more()` returns the next budget, an array
    of any even width with one row per walk. Returns the absorption
    times, the exit phases and the exit kinds (the index among the
    table's exit columns).
    """
    p = cum.shape[1]
    hold = hold.ravel()
    moves = cum.reshape(len(hold), -1).T.copy()  # one column of cum a row
    t = np.zeros(len(law))
    phase = np.array(phase, dtype=np.intp)
    kind = np.zeros(len(law), dtype=np.intp)
    # the walks not yet absorbed, their laws' first table rows, their
    # phases and their times; integer gathers, as masks cost 4x more
    live = np.arange(len(law))
    base = np.asarray(law, dtype=np.intp) * p
    at = phase.copy()
    clock = np.zeros(len(law))
    col = 0
    while live.size:
        if col == budget.shape[1]:
            budget, col = more(), 0
        row = base + at
        h = hold[row]
        clock -= np.log1p(-budget[:, col].take(live)) / h
        x = budget[:, col + 1].take(live) * h
        col += 2
        pick = sum(c.take(row) <= x for c in moves)
        out, stay = np.flatnonzero(pick >= p), np.flatnonzero(pick < p)
        done = live[out]
        t[done], phase[done], kind[done] = clock[out], at[out], pick[out] - p
        live, base, at, clock = live[stay], base[stay], pick[stay], clock[stay]
    return t, phase, kind


def sample(d: PhaseType, rng: np.random.Generator, size=None):
    """Absorption times of the chain, simulated to absorption.

    With `size` omitted, one time as a float. With `size`, that many
    lockstep walks: their times and exit phases. Each walk draws its
    start phase from phi, then every step draws two uniforms for each
    walk from `rng`, which the caller must not share.
    """
    if size is None:
        return float(sample(d, rng, 1)[0][0])
    start = np.minimum(np.searchsorted(np.cumsum(d.phi), rng.random(size),
                                       side="right"), d.p - 1)
    hold, cum = walk_table(d.Pi[None], exit_rates(d)[None, :, None])
    t, phase, _ = absorbing_walk(hold, cum, np.zeros(size, dtype=np.intp),
                                 start, np.empty((size, 0)),
                                 lambda: rng.random((size, 2)))
    return t, phase
