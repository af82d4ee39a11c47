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


def poisson_terms(top: float):
    """k and log k! for k = 0, 1, ..., until the Poisson mass from k on
    is below 1e-16 at every mean up to `top`: past top,
    Pois(k; top) / (1 - top/(k+1)) bounds it."""
    for k in itertools.count():
        log_k = math.lgamma(k + 1)
        if k > top and (top == 0.0 or math.exp(k * math.log(top) - top - log_k)
                        < 1e-16 * (1 - top / (k + 1))):
            return
        yield k, log_k


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
    x = d.phi.copy()      # phi P^k
    b = 0.0               # b_k
    vals = np.zeros_like(t_arr)
    for k, log_k in poisson_terms(float(lam.max(initial=0.0))):
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


class WalkBuffers:
    """The arrays that `absorbing_walk` runs in, for up to `size` walks:
    the times, the exit codes, a mask and five 8-byte words a walk, so
    seven words in all. Three of the words rotate through the roles of
    walk index, table row and hold rate, as each step packs the walks
    that go on into the free one; the other two hold the uniforms a step
    reads and their offsets, then the step's clocks and picks. One set
    serves any number of calls, one at a time."""

    def __init__(self, size: int):
        self.t = np.empty(size)
        self.code = np.empty(size, dtype=np.intp)
        self.mask = np.empty(size, dtype=bool)
        self.words = [np.empty(size) for _ in range(5)]
        self.ints = [w.view(np.intp) for w in self.words]
        self.table = None   # the last walk table's _moves, and the table


def _level(budget, walks):
    """`budget`, one row of uniforms a walk, once its rows are checked
    against the walks: as one flat float64 array, and its width."""
    if np.ndim(budget) != 2 or len(budget) != walks:
        raise ValueError(f"budget shape {np.shape(budget)}, walks {walks}")
    flat = np.ascontiguousarray(budget, dtype=np.float64).ravel()
    return flat, budget.shape[1]


def _moves(hold, cum):
    """What a step reads of a walk table: the hold rate of each table
    row, the move columns worth comparing, and how many columns every
    move draw passes."""
    hold = hold.ravel()
    cum = cum.reshape(len(hold), cum.shape[2])
    # with finite hold rates a move draw x has 0 <= x < inf, so a column
    # at 0 in every row is passed by every draw and one at +inf by none
    zero, never = np.all(cum <= 0.0, axis=0), np.all(cum == np.inf, axis=0)
    if not np.all(np.isfinite(hold)):
        zero[:] = never[:] = False
    return hold, cum.T[~(zero | never)], int(zero.sum())


def absorbing_walk(hold, cum, start, budget, more, buf=None):
    """Lockstep absorbing walks, one per row of `budget`.

    Walk k starts in row `start[k]` of a `walk_table`: law * p + phase,
    p the table's phase count. `budget` is a C-contiguous float64 array
    of one row of uniforms a walk (another layout is copied into one).
    Each step takes two uniforms: the first draws the hold time, the
    second the move. Step s of walk k reads budget[k, 2s:2s+2]; once
    every column is spent, `more()` returns the next budget, in the
    same layout with any even width. Returns the absorption times, the
    exit phases and the exit kinds (the index among the table's exit
    columns), one a walk.

    The walks run in `buf`, a `WalkBuffers` for at least as many walks
    (new ones when omitted), and allocate no array of walks a step; the
    results are views of it, valid until its next call. Each step
    gathers the live walks' uniforms from the flat budget at offsets
    live * cols + col, cols the budget's width, and writes every live
    walk's clock and exit code, so that a walk's last write is the one
    at its exit.
    """
    size = len(start)
    if buf is None:
        buf = WalkBuffers(size)
    if len(buf.t) < size:
        raise ValueError(f"buffers for {len(buf.t)} walks, need {size}")
    p, width = cum.shape[1], cum.shape[2]
    if buf.table is None or buf.table[0] is not hold \
            or buf.table[1] is not cum:
        buf.table = (hold, cum, _moves(hold, cum))
    hold, moves, always = buf.table[2]
    t, code, mask = buf.t[:size], buf.code[:size], buf.mask
    ints, words = buf.ints, buf.words
    ring = [0, 1, 2]        # the words of live, row and h
    np.copyto(ints[0][:size], np.arange(size))
    np.copyto(ints[1][:size], start)
    t.fill(0.0)
    m, col, cols, flat = size, 0, 0, None

    def uniforms(c):
        """Column c of the live walks' budgets, into x."""
        np.add(np.multiply(live, cols, out=k), c, out=k)
        flat.take(k, out=x, mode="wrap")

    while m:
        live, row = ints[ring[0]][:m], ints[ring[1]][:m]
        h, hi = words[ring[2]][:m], ints[ring[2]][:m]
        x, k, s = words[3][:m], ints[4][:m], mask[:m]
        while col == cols:
            flat, cols = _level(budget if flat is None else more(), size)
            col = 0
        hold.take(row, out=h, mode="wrap")
        uniforms(col)
        np.divide(np.log1p(np.negative(x, out=x), out=x), h, out=x)
        clock = words[4][:m]    # k's word, free until the next gather
        t.take(live, out=clock, mode="wrap")
        t[live] = np.subtract(clock, x, out=clock)
        uniforms(col + 1)
        np.multiply(x, h, out=x)
        col += 2
        k.fill(always)          # the pick: columns the move draw passes
        for c in moves:
            np.less_equal(c.take(row, out=h, mode="wrap"), x, out=s)
            k += s
        # the exit code row * width + pick, read apart at the end
        np.add(np.multiply(row, width, out=hi), k, out=hi)
        code[live] = hi
        np.less(k, p, out=s)
        stay = np.count_nonzero(s)
        if not stay:
            break
        # the next row: the law's first row, plus the pick
        np.multiply(np.floor_divide(row, p, out=hi), p, out=hi)
        np.add(hi, k, out=row)
        if stay < m:
            # a walk that goes on moves to the count of those before it,
            # one that exits to the next slot, which a later walk that
            # goes on overwrites; each row goes into the free word,
            # which takes its role
            np.copyto(k, s)
            np.subtract(np.cumsum(k, out=k), s, out=k)
            for j in range(2):
                ints[ring[2]][:m][k] = ints[ring[j]][:m]
                ring[j], ring[2] = ring[2], ring[j]
            m = stay
    row, pick, rem = (ints[j][:size] for j in ring)
    np.floor_divide(code, width, out=row)
    np.subtract(code, np.multiply(row, width, out=pick), out=pick)
    np.subtract(row, np.multiply(np.floor_divide(row, p, out=rem), p,
                                 out=rem), out=row)
    pick -= p
    return t, row, pick


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
    t, phase, _ = absorbing_walk(hold, cum, start, np.empty((size, 0)),
                                 lambda: rng.random((size, 2)))
    return t, phase
