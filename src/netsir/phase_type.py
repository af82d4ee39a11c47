"""Phase-type distributions: absorption times of finite transient CTMCs.

A law is a pair (phi, Pi) with Pi the transient generator block and phi
the initial phase distribution. Closure under min with an independent
exponential is the workhorse used by the isolation model: the combined
removal time has generator Pi - delta*I with the same phi.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

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


def require_phase_one(laws) -> None:
    """Raise ValueError unless every law starts in phase 1 (phi = u1).

    The simulator, the comparison system and the exact oracle all enter
    a new infection in phase 1, so they refuse any other phi.
    """
    for law in laws:
        first, *rest = law.phi.tolist()
        if first != 1.0 or any(rest):
            raise ValueError("isolation laws must start in phase 1 (phi = u1)")


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
    """P(T <= t) = 1 - phi exp(t*Pi) 1. Accepts a scalar or an array."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t_arr < 0):
        raise ValueError("t must be nonnegative")
    ones = np.ones(d.p)
    vals = np.empty_like(t_arr)
    for k, tk in enumerate(t_arr):
        surv = float(d.phi @ scipy.linalg.expm(tk * d.Pi) @ ones)
        vals[k] = min(1.0, max(0.0, 1.0 - surv))
    return vals if np.ndim(t) else float(vals[0])


def mean(d: PhaseType) -> float:
    """Analytic mean -phi Pi^{-1} 1."""
    return float(-d.phi @ np.linalg.solve(d.Pi, np.ones(d.p)))


def sample(d: PhaseType, rng: np.random.Generator) -> float:
    """Simulate the absorbing chain until absorption; returns the total
    time. Requires an exclusive per-caller rng stream."""
    w = exit_rates(d)
    # phase from phi (phi is u1 for every constructed law, so usually 0)
    u = rng.random()
    acc = 0.0
    phase = d.p - 1
    for l in range(d.p):
        acc += d.phi[l]
        if u < acc:
            phase = l
            break
    t = 0.0
    while True:
        hold = -d.Pi[phase, phase]
        t += rng.exponential(1.0 / hold)
        u = rng.random() * hold
        acc = 0.0
        nxt = -1
        for m in range(d.p):
            if m == phase:
                continue
            acc += d.Pi[phase, m]
            if u < acc:
                nxt = m
                break
        if nxt < 0:
            return t  # absorbed (rate w[phase] fills the remainder)
        phase = nxt
