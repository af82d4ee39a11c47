"""Exact simulation of the networked SIR process by percolation.

A susceptible node j is infected at rate beta_j times its number of
infected neighbours, and an infected node i leaves through the phases
of its removal-time law with the natural recovery rate delta_i folded
in, Pi_i - delta_i I. Plain SIR is the one-phase law Pi = 0, whose only
exit is recovery at rate delta_i.

No output needs the events drawn one at a time (Kenah & Robins, Phys.
Rev. E 76, 036113, 2007). Node i holds an infectious period T_i, the
absorption time of its folded law, and each directed edge i -> j a
delay E_ij ~ Exp(beta_j); the edge is open iff E_ij < T_i. Node j is
infected at the first-passage time t_j = min over open edges i -> j of
t_i + E_ij and removed at t_j + T_j. This realizes the Markov process
exactly, so the final removed set is the set reachable from the
initially infected through open edges: one breadth-first search over a
chunk of replicas gives their final sizes, and one Dijkstra run gives a
record run's event times.

Replica r reads one row of K = `row_length(g, params)` uniforms: a
budget for each node's phase walk (two uniforms a step, p steps, which
a law without cycles never outruns; one uniform, the period, in plain
SIR), one uniform per directed edge, and padding up to a multiple of 4.
The row is Philox(key=seed) advanced by r*K/4 blocks. A walk that
outruns its budget, as on a law with cycles, reads a further budget
from level l = 1, 2, ...: a row of the node budgets alone, padded to a
multiple of 4 uniforms, in the same layout on Philox(key=seed) jumped
by 2^128 l. So replica r depends on (seed, r) alone, whatever the
chunking, and each chunk draws a level in one call.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .graph import Graph
from .phase_type import absorbing_walk, phase_type, walk_table

_CHUNK = 1 << 18   # uniforms drawn per chunk of replicas (2 MB)
_KINDS = ("infect", "recover", "isolate")


@dataclass(frozen=True, eq=False)
class EpidemicParams:
    """Per-node rates and the initial infected set: the one model record
    that the simulator, the exact oracle and the bound all read.

    `isolation`, when present, holds one removal-time law per node
    (all with the same phase count, all starting in phase 1).
    `generators` is their validated (n, p, p) stack of Pi_i; plain SIR
    is the one-phase law Pi = 0. Each layer folds the natural recovery
    rate delta_i in itself, as Pi_i - delta_i I.

    beta must be positive, and so must delta in plain SIR. Under
    isolation laws delta may be zero (removal by isolation only), as
    each law is absorbing on its own: `PhaseType` requires an
    invertible Pi.
    """

    beta: np.ndarray
    delta: np.ndarray
    initially_infected: frozenset
    isolation: Optional[tuple] = None
    generators: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=float)
        delta = np.asarray(self.delta, dtype=float)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "initially_infected",
                           frozenset(int(i) for i in self.initially_infected))
        recovers = delta > 0 if self.isolation is None else delta >= 0
        if not (np.all(beta > 0) and np.all(recovers)):
            raise ValueError("beta and delta must be strictly positive "
                             "(delta may be zero under isolation laws)")
        if beta.shape != delta.shape or beta.ndim != 1:
            raise ValueError("beta and delta must be equal-length vectors")
        if not self.initially_infected:
            raise ValueError("initially_infected must be non-empty")
        if self.isolation is None:
            generators = np.zeros((len(beta), 1, 1))
        else:
            iso = tuple(self.isolation)
            object.__setattr__(self, "isolation", iso)
            if len(iso) != len(beta):
                raise ValueError("need one isolation law per node")
            generators = phase_type(iso)
        object.__setattr__(self, "generators", generators)

    @classmethod
    def build(cls, n: int, beta, delta, infected, isolation=None):
        """Broadcast scalar rates over n nodes."""
        return cls(beta=np.broadcast_to(np.asarray(beta, float), (n,)).copy(),
                   delta=np.broadcast_to(np.asarray(delta, float), (n,)).copy(),
                   initially_infected=frozenset(infected),
                   isolation=isolation)

    def validate_for(self, g: Graph):
        n = g.node_count
        if len(self.beta) != n:
            raise ValueError(f"rates sized {len(self.beta)}, graph has {n} nodes")
        bad = [i for i in self.initially_infected if not 0 <= i < n]
        if bad:
            raise ValueError(f"initially infected nodes out of range: {bad}")


@dataclass(frozen=True, eq=False)
class SimOutcome:
    """One realization: terminal tallies, the ordered event log and the
    piecewise-constant (t, sigma_S, sigma_I, sigma_R) series sampled at
    event times."""

    final_removed: int
    infections_after_t0: int
    event_log: tuple
    counts_series: np.ndarray


@dataclass(frozen=True)
class LambdaEstimate:
    """Monte Carlo estimate of the expected number of infections after
    time zero."""

    mean: float
    std_error: float
    replicas: int
    seed: int


def _stream(seed: int, r0: int, k: int, level: int = 0):
    """Philox(key=seed) jumped by 2^128 level, advanced past r0 rows of
    k uniforms."""
    bg = np.random.Philox(key=seed)
    if level:
        bg = bg.jumped(level)
    bg.advance(r0 * (k // 4))
    return np.random.Generator(bg)


def replica_rng(seed: int, replica: int = 0,
                k: Optional[int] = None) -> np.random.Generator:
    """Stream (seed, replica) for rows of `k` uniforms: Philox keyed by
    seed, advanced by replica*k/4 blocks. Replica 0 needs no k.

    With k = row_length(g, params), its first k uniforms are the row of
    Monte Carlo replica `replica`, so a record run on it reproduces
    that replica, unless a walk outruns its budget: the record run then
    reads on in this stream, the replica in its budget levels.
    """
    if replica and (k is None or k % 4):
        raise ValueError("replica > 0 needs a row length k, a multiple of 4")
    return _stream(seed, replica, k or 0)


@dataclass(frozen=True, eq=False)
class _Layout:
    """What a row of uniforms means for one (graph, params) pair."""

    src: np.ndarray         # directed edges src -> dst, sorted by (src, dst)
    dst: np.ndarray
    beta_dst: np.ndarray
    delta: np.ndarray
    walk: Optional[tuple]   # walk_table of the folded laws; None in plain SIR
    budget: int             # uniforms per node
    k: int                  # row length
    infected0: np.ndarray

    @property
    def n(self) -> int:
        return len(self.delta)


def _layout(g: Graph, params: EpidemicParams) -> _Layout:
    params.validate_for(g)
    n = g.node_count
    neigh = g.neighbor_lists
    src = np.repeat(np.arange(n), [len(js) for js in neigh])
    dst = np.array([j for js in neigh for j in js], dtype=np.intp)
    if params.isolation is None:
        walk, budget = None, 1
    else:
        gens, delta = params.generators, params.delta
        p = gens.shape[1]
        # exits split into recovery (delta_i) and isolation (-Pi_i 1)
        exits = np.stack([np.repeat(delta[:, None], p, axis=1),
                          -gens.sum(axis=2)], axis=2)
        walk = walk_table(gens - delta[:, None, None] * np.eye(p), exits)
        budget = 2 * p
    return _Layout(src=src, dst=dst, beta_dst=params.beta[dst],
                   delta=params.delta, walk=walk, budget=budget,
                   k=-(-(n * budget + len(src)) // 4) * 4,
                   infected0=np.array(sorted(params.initially_infected)))


def row_length(g: Graph, params: EpidemicParams) -> int:
    """K, the number of uniforms in one replica's row."""
    return _layout(g, params).k


def _budget(lay: _Layout, u: np.ndarray) -> np.ndarray:
    """The walk budgets at the head of rows u, one row per walk."""
    return u[:, :lay.n * lay.budget].reshape(-1, lay.budget)


def _levels(lay: _Layout, seed: int, r0: int, r1: int):
    """`more` for the walks of replicas r0..r1-1: their budgets of
    level 1, 2, ..."""
    width = -(-lay.n * lay.budget // 4) * 4
    level = itertools.count(1)
    return lambda: _budget(lay, _stream(seed, r0, width, next(level)).random(
        (r1 - r0, width)))


def _draw(lay: _Layout, u: np.ndarray, more):
    """Periods T (R, n), exit kinds (0 recover, 1 isolate) and edge
    delays E (R, edges) from rows u (R, K)."""
    r, n, nb = len(u), lay.n, lay.n * lay.budget
    if lay.walk is None:
        periods = -np.log1p(-u[:, :n]) / lay.delta
        kind = np.zeros((r, n), dtype=np.intp)
    else:
        t, _, kind = absorbing_walk(*lay.walk, np.tile(np.arange(n), r),
                                    np.zeros(r * n, np.intp),
                                    _budget(lay, u), more)
        periods, kind = t.reshape(r, n), kind.reshape(r, n)
    delays = -np.log1p(-u[:, nb:nb + len(lay.src)]) / lay.beta_dst
    return periods, kind, delays


def _open_graph(size: int, rows, cols, data) -> sp.csr_matrix:
    """size x size CSR matrix of the edges rows -> cols, rows sorted.
    csgraph keeps an explicit zero as an edge of weight 0."""
    indptr = np.zeros(size + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=size), out=indptr[1:])
    return sp.csr_matrix((data, cols, indptr), shape=(size, size))


def _final_sizes(lay: _Layout, periods, delays) -> np.ndarray:
    """Nodes ever infected in each replica: breadth-first search of the
    chunk's open edges from a super-source wired to every replica's
    initially infected nodes."""
    r, n = periods.shape
    rep, edge = np.nonzero(delays < periods[:, lay.src])
    source = r * n
    seeds = (np.arange(r)[:, None] * n + lay.infected0).ravel()
    rows = np.concatenate([rep * n + lay.src[edge],
                           np.full(len(seeds), source)])
    cols = np.concatenate([rep * n + lay.dst[edge], seeds])
    order = csgraph.breadth_first_order(
        _open_graph(source + 1, rows, cols, np.ones(len(cols))), source,
        directed=True, return_predecessors=False)
    return np.bincount(order[1:] // n, minlength=r)


def simulate_sir(g: Graph, params: EpidemicParams, rng) -> SimOutcome:
    """One exact realization of the SIR process under the removal laws
    of `params` (plain SIR without them); runs until no node is
    infected. `rng` is a Generator, or an integer seed for replica 0 of
    that seed's Monte Carlo run."""
    lay = _layout(g, params)
    n, k0 = lay.n, len(lay.infected0)
    if isinstance(rng, np.random.Generator):
        u, more = rng.random((1, lay.k)), partial(rng.random, (n, lay.budget))
    else:
        u = _stream(int(rng), 0, lay.k).random((1, lay.k))
        more = _levels(lay, int(rng), 0, 1)
    (periods,), (kind,), (delays,) = _draw(lay, u, more)
    live = delays < periods[lay.src]
    infected = csgraph.dijkstra(
        _open_graph(n, lay.src[live], lay.dst[live], delays[live]),
        directed=True, indices=lay.infected0, min_only=True)
    reached = np.flatnonzero(np.isfinite(infected))
    new = reached[~np.isin(reached, lay.infected0)]
    # infections before removals, so a stable sort keeps every tie causal
    times = np.concatenate([infected[new],
                            infected[reached] + periods[reached]])
    order = np.argsort(times, kind="stable")
    times = times[order]
    kinds = np.concatenate([np.zeros(len(new), np.intp),
                            1 + kind[reached]])[order]
    infections = np.cumsum(kinds == 0)
    removals = np.cumsum(kinds > 0)
    counts = np.column_stack([times, n - k0 - infections,
                              k0 + infections - removals, removals])
    return SimOutcome(
        final_removed=len(reached),
        infections_after_t0=len(new),
        event_log=tuple(zip(times.tolist(),
                            np.concatenate([new, reached])[order].tolist(),
                            [_KINDS[c] for c in kinds.tolist()])),
        counts_series=np.vstack([[0.0, n - k0, k0, 0], counts]))


# Kept only for the benchmark tracer, which wraps this name, until the
# program records its own spans (ROADMAP item 5).
simulate_sir_isolation = simulate_sir


def replica_infections(g: Graph, params: EpidemicParams, replicas: int,
                       seed: int) -> np.ndarray:
    """Infections-after-t0 for each of `replicas` independent runs.

    Replica r reads only stream (seed, r), so the result does not
    depend on how the replicas are chunked.
    """
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    lay = _layout(g, params)
    rows = max(1, _CHUNK // lay.k)
    out = np.empty(replicas, dtype=np.int64)
    for r0 in range(0, replicas, rows):
        r1 = min(replicas, r0 + rows)
        u = _stream(seed, r0, lay.k).random((r1 - r0, lay.k))
        periods, _, delays = _draw(lay, u, _levels(lay, seed, r0, r1))
        out[r0:r1] = _final_sizes(lay, periods, delays)
    return out - len(lay.infected0)


def estimate_lambda(g: Graph, params: EpidemicParams, replicas: int,
                    seed: int) -> LambdaEstimate:
    """Monte Carlo mean and standard error of infections after t=0."""
    vals = replica_infections(g, params, replicas, seed)
    mean = float(vals.mean())
    if replicas > 1:
        se = float(vals.std(ddof=1) / np.sqrt(replicas))
    else:
        se = 0.0
    return LambdaEstimate(mean=mean, std_error=se, replicas=replicas, seed=seed)
