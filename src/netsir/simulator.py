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

Replica r reads one row of K uniforms: a budget for each node's phase
walk (two uniforms a step, p steps, which a law without cycles never
outruns; one uniform, the period, in plain SIR), one uniform per
directed edge, and padding up to a multiple of 4. The row is
Philox(key=seed) advanced by r*K/4 blocks. A walk that outruns its
budget, as on a law with cycles, reads a further budget from level
l = 1, 2, ...: a row of the node budgets alone, padded to a multiple of
4 uniforms, in the same layout on Philox(key=seed) jumped by 2^128 l.
So replica r depends on (seed, r) alone, whatever the chunking: a chunk
of replicas opens its own streams and draws each level it needs for all
its walks in one call. A record run of replica r opens the same
streams, so it is that replica of the Monte Carlo run.

The chunks run on a thread pool with one thread for each CPU the
process may use. There is no setting for it. Each thread allocates its
buffers once and takes chunks in turn until none is left, so a thread
on a slower core takes fewer; the edges' global node ids are shared
read-only. A chunk writes only its own replicas' results, so the output
does not depend on the thread count. The Philox fill, the logarithms,
the gathers, the comparison and the nonzero scan release the GIL. The
sparse-matrix set-up, the bincounts and csgraph's breadth-first search
hold it: about a quarter of a plain social68 chunk (0.25 of 1.05 ms for
104 replicas, on one core).
"""

from __future__ import annotations

import itertools
import operator
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .graph import Graph
from .phase_type import absorbing_walk, phase_type, walk_table

_KINDS = ("infect", "recover", "isolate")


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "process_cpu_count"):    # Python 3.13
        return os.process_cpu_count() or 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_WORKERS = _cpu_count()   # threads that run chunks of replicas
_CHUNK = 1 << 16          # uniforms a chunk draws (512 KB; see _Buffers)


@dataclass(frozen=True, eq=False)
class EpidemicParams:
    """Per-node rates and the initial infected set: the one model record
    that the simulator, the exact oracle and the bound all read.

    `isolation`, when present, holds one removal-time law per node
    (all with the same phase count, all starting in phase 1).
    `generators` is their validated (n, p, p) stack of Pi_i; plain SIR
    is the one-phase law Pi = 0. `folded` is the same stack with the
    natural recovery rate folded in, Pi_i - delta_i I, computed here
    once for every layer.

    beta must be finite and positive, and so must delta in plain SIR
    (delta is finite in every mode). Under
    isolation laws delta may be zero (removal by isolation only), as
    each law is absorbing on its own: `PhaseType` requires an
    invertible Pi.
    """

    beta: np.ndarray
    delta: np.ndarray
    initially_infected: frozenset
    isolation: Optional[tuple] = None
    generators: np.ndarray = field(init=False, repr=False)
    folded: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=float)
        delta = np.asarray(self.delta, dtype=float)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "initially_infected",
                           frozenset(int(i) for i in self.initially_infected))
        recovers = delta > 0 if self.isolation is None else delta >= 0
        if not (np.all((beta > 0) & (beta < np.inf))
                and np.all(recovers & (delta < np.inf))):
            raise ValueError("beta and delta must be finite and strictly "
                             "positive (delta may be zero under isolation "
                             "laws)")
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
        p = generators.shape[1]
        object.__setattr__(self, "folded",
                           generators - delta[:, None, None] * np.eye(p))

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
    k uniforms. seed and r0 must be integers, r0 >= 0: Philox would
    truncate a float key and step back on a negative advance."""
    seed, r0 = operator.index(seed), operator.index(r0)
    if r0 < 0:
        raise ValueError(f"replica must be >= 0, got {r0}")
    bg = np.random.Philox(key=seed)
    if level:
        bg = bg.jumped(level)
    bg.advance(r0 * (k // 4))
    return np.random.Generator(bg)


@dataclass(frozen=True, eq=False)
class _Layout:
    """What a row of uniforms means for one (graph, params) pair."""

    src: np.ndarray         # directed edges src -> dst, sorted by (src, dst)
    dst: np.ndarray
    rate: np.ndarray        # delta (plain SIR), beta_dst, then 1s (pad)
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
    a = g.adjacency_sparse()
    src = np.repeat(np.arange(n), np.diff(a.indptr))
    dst = a.indices.astype(np.intp)
    if params.isolation is None:
        walk, budget = None, 1
    else:
        gens, delta = params.generators, params.delta
        p = gens.shape[1]
        # exits split into recovery (delta_i) and isolation (-Pi_i 1)
        exits = np.stack([np.repeat(delta[:, None], p, axis=1),
                          -gens.sum(axis=2)], axis=2)
        walk = walk_table(params.folded, exits)
        budget = 2 * p
    nb = n * budget
    k = -(-(nb + len(src)) // 4) * 4
    rate = np.concatenate([params.delta if walk is None else [],
                           params.beta[dst], np.ones(k - nb - len(src))])
    return _Layout(src=src, dst=dst, rate=rate, delta=params.delta,
                   walk=walk, budget=budget, k=k,
                   infected0=np.array(sorted(params.initially_infected)))


def _budget(lay: _Layout, u: np.ndarray) -> np.ndarray:
    """The walk budgets at the head of rows u, one row per walk."""
    return u[:, :lay.n * lay.budget].reshape(-1, lay.budget)


def _draw(lay: _Layout, seed: int, r0: int, u: np.ndarray):
    """Periods T (R, n), exit kinds (0 recover, 1 isolate) and edge
    delays E (R, edges) of replicas r0..r0+R-1 of the run with `seed`,
    whose rows are read into u (R, k). The delays, and plain SIR's
    periods, are views of u, computed in place."""
    r, n, nb = len(u), lay.n, lay.n * lay.budget
    _stream(seed, r0, lay.k).random(out=u)
    width = -(-nb // 4) * 4
    level = itertools.count(1)

    def more():
        """The walks' budgets of level 1, 2, ..."""
        return _budget(lay, _stream(seed, r0, width, next(level)).random(
            (r, width)))

    if lay.walk is None:
        periods = u[:, :n]
        kind = np.zeros((r, n), dtype=np.intp)
    else:
        t, _, kind = absorbing_walk(*lay.walk, np.tile(np.arange(n), r),
                                    np.zeros(r * n, np.intp),
                                    _budget(lay, u), more)
        periods, kind = t.reshape(r, n), kind.reshape(r, n)
    # -log1p(-u) / rate in place, bit for bit (in plain SIR, whole rows);
    # a delay past the float range is infinite, as it should be
    x = u[:, lay.k - len(lay.rate):]
    with np.errstate(over="ignore"):
        np.divide(np.log1p(np.negative(x, out=x), out=x), -lay.rate, out=x)
    return periods, kind, u[:, nb:nb + len(lay.src)]


def _open_graph(size: int, rows, cols, data) -> sp.csr_matrix:
    """size x size CSR matrix of the edges rows -> cols, rows sorted.
    csgraph keeps an explicit zero as an edge of weight 0. Its indices
    are the int32 that csgraph takes, so scipy neither scans nor copies
    them."""
    indptr = np.zeros(size + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=size), out=indptr[1:])
    return sp.csr_matrix((data, cols.astype(np.int32), indptr),
                         shape=(size, size))


def _ids(lay: _Layout, rows: int):
    """Global ids in a chunk of up to `rows` replicas, where node i of
    replica q is q*n + i: each edge's source (intp, which bincount
    counts uncast) and destination, and the initially infected nodes
    (int32, the index type csgraph takes). Read-only: threads share
    them."""
    ids = np.arange(rows)[:, None] * lay.n
    return (ids + lay.src, (ids + lay.dst).astype(np.int32),
            (ids + lay.infected0).astype(np.int32).ravel())


class _Buffers:
    """What one thread reuses for every chunk it takes, of up to as many
    replicas as `ids` has rows: the rows of uniforms, the gathered
    periods T[:, src], the open-edge mask and the CSR of the open edges,
    with the shared `_ids`. On social68, at 2^16 uniforms a chunk, they
    hold 1.3 MB a thread and the `_ids` 0.7 MB a call."""

    def __init__(self, lay: _Layout, ids: tuple):
        self.src, self.dst, self.seeds = ids
        self.u = np.empty((len(self.dst), lay.k))
        self.t = np.empty(self.dst.shape)
        self.open = np.empty(self.dst.shape, dtype=bool)
        self.cols = np.empty(self.dst.size + self.seeds.size, np.int32)
        self.indptr = np.zeros(len(self.dst) * lay.n + 2, np.int32)


def _final_sizes(lay: _Layout, periods, delays, buf: _Buffers) -> np.ndarray:
    """Nodes ever infected in each replica: breadth-first search of the
    chunk's open edges from a super-source, node R*n, wired to every
    replica's initially infected nodes. The open edges' flat indices in
    the mask pick their global ids from the tables of `buf`. The takes
    run in mode "wrap", as their indices are in range: in mode "raise"
    numpy buffers `out`."""
    r, n = periods.shape
    source, mask = r * n, buf.open[:r]
    np.less(delays, np.take(periods, lay.src, axis=1, out=buf.t[:r],
                            mode="wrap"), out=mask)
    edge = np.flatnonzero(mask)
    cols = buf.cols[:len(edge) + r * len(lay.infected0)]
    np.take(buf.dst, edge, out=cols[:len(edge)], mode="wrap")
    cols[len(edge):] = buf.seeds[:len(cols) - len(edge)]
    indptr = buf.indptr[:source + 2]
    np.cumsum(np.bincount(buf.src.take(edge), minlength=source),
              out=indptr[1:-1])
    indptr[-1] = len(cols)
    order = csgraph.breadth_first_order(   # reads no edge weights
        sp.csr_matrix((np.broadcast_to(1.0, len(cols)), cols, indptr),
                      shape=(source + 1, source + 1)),
        source, directed=True, return_predecessors=False)
    return np.bincount(order[1:] // n, minlength=r)


def simulate_sir(g: Graph, params: EpidemicParams, seed: int,
                 replica: int = 0) -> SimOutcome:
    """Replica `replica` of the Monte Carlo run with `seed`, recorded:
    one exact realization of the SIR process under the removal laws of
    `params` (plain SIR without them), run until no node is infected.
    It reads that replica's row and budget levels, so its
    infections_after_t0 is `replica_infections(g, params, R, seed)`
    at `replica`, for any R > replica."""
    lay = _layout(g, params)
    n, k0 = lay.n, len(lay.infected0)
    (periods,), (kind,), (delays,) = _draw(lay, seed, replica,
                                           np.empty((1, lay.k)))
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
    depend on how the replicas are chunked or how many threads run the
    chunks.
    """
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    lay = _layout(g, params)
    rows = min(max(1, _CHUNK // lay.k), -(-replicas // _WORKERS))
    ids = _ids(lay, rows)
    out = np.empty(replicas, dtype=np.int64)
    chunks, lock = iter(range(0, replicas, rows)), threading.Lock()
    failed = []   # once a chunk raises, no thread takes another

    def take():
        with lock:
            return None if failed else next(chunks, None)

    def work():
        """Chunks taken in turn until none is left, through one set of
        buffers: a thread that finds its core slower takes fewer."""
        try:
            buf = _Buffers(lay, ids)
            for c0 in iter(take, None):
                c1 = min(replicas, c0 + rows)
                periods, _, delays = _draw(lay, seed, c0, buf.u[:c1 - c0])
                out[c0:c1] = _final_sizes(lay, periods, delays, buf)
        except BaseException:
            failed.append(True)
            raise

    # chunks write disjoint slices of out; an error surfaces once the
    # chunks in flight end
    with ThreadPoolExecutor(_WORKERS) as pool:
        for done in [pool.submit(work) for _ in range(_WORKERS)]:
            done.result()
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
