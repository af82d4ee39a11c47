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
block of replicas, one bit a replica, gives their final sizes, and one
Dijkstra run gives a record run's event times.

Replica r reads one row of K uniforms: a budget for each node's phase
walk (two uniforms a step, p steps, which a law without cycles never
outruns; one uniform, the period, in plain SIR), then one uniform per
directed edge. Each uniform is one 64-bit draw of PCG64DXSM(seed)
(O'Neill 2014), so row r is draws rK .. rK+K-1, reached by the
generator's O(log r) advance. A walk that outruns its budget, as on a
law with cycles, reads a further budget from level l = 1, 2, ...: a row
of the node budgets alone, in the same layout on PCG64DXSM(seed) jumped
l times. So replica r depends on (seed, r) alone, whatever the
chunking: a slice of replicas opens its own streams and draws each
level it needs for all its walks in one call. A record run of replica r
opens the same streams, so it is that replica of the Monte Carlo run.

The replicas run in blocks on a thread pool with one thread for each
CPU the process may use. There is no setting for it. Each thread
allocates its buffers once and takes blocks in turn until none is left,
so a thread on a slower core takes fewer. A block writes only its own
replicas' results, so the output does not depend on the thread count.
A block is drawn in slices of at most _CHUNK uniforms, and each slice's
open-edge mask is packed into the block's bit table, bit q of an edge's
words for replica q (Then et al., "The More the Merrier: Efficient
Multi-Source Graph Traversal", VLDB 2014). So every replica of a block
walks the same small graph at once: a level of the search ORs the
frontier's words along the edges out of the frontier's nodes. The
fill, the logarithms, the gathers and the comparison release the GIL.
The search's small numpy calls hold it between them, and two threads
searching at once traded it at every call: a 1000-replica call on a
2000-node path took 91 ms at two threads against 68 ms with one search
at a time. So one thread of a call searches at a time while the others
draw. The phase walk makes about 25 numpy calls a step, however many
walks it steps, so its batch size is the lever: slices of 2^17 uniforms
(157 rows of an Erlang(2) social68 call) halve its calls against 2^16,
and it runs in the thread's WalkBuffers, seven words a walk, allocating
no array of walks a step. It reads one layout, a row of uniforms a
walk, so a slice's budgets are copied out of its rows once. 2^18 ran
faster still, but its slices of uniforms raised the peak RSS of
mc-social68 by 6%. PCG64DXSM fills a uniform in 2.3-4.1 ns, numpy's
Philox4x64-10 in 5.4-9.0 ns (2 vCPUs, Xeon). On a plain social68 slice
of 208 rows at one thread the fill is 33-34% of the slice's stages,
the transform as much again, the gather and comparison 18-19%, and the
packing and the search (prorated from a block) 4-10% each; under
Erlang(2) laws the walk, with the copy, is 35% and the fill 27%. Two
threads over one read 1.56-1.65x on plain 10^4-replica calls and
1.31-1.53x under Erlang(2) laws.
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

from .graph import Graph
from .phase_type import WalkBuffers, absorbing_walk, phase_type, walk_table

_KINDS = ("infect", "recover", "isolate")


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "process_cpu_count"):    # Python 3.13
        return os.process_cpu_count() or 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_WORKERS = _cpu_count()   # threads that run blocks of replicas
_CHUNK = 1 << 17          # uniforms a slice draws (1 MB; see _Buffers)
_BLOCK = 1 << 23          # bits a block may hold (see replica_infections)


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
    """PCG64DXSM(seed) jumped `level` times, advanced past r0 rows of k
    uniforms: one 64-bit draw a uniform. seed must be an integer in
    [0, 2^128) and r0 an integer >= 0: a float would be truncated, and a
    negative advance would step back into other replicas' rows."""
    seed, r0 = operator.index(seed), operator.index(r0)
    if not 0 <= seed < 2 ** 128:
        raise ValueError(f"seed must be in [0, 2**128), got {seed}")
    if r0 < 0:
        raise ValueError(f"replica must be >= 0, got {r0}")
    bg = np.random.PCG64DXSM(seed)
    if level:
        bg = bg.jumped(level)
    bg.advance(r0 * k)
    return np.random.Generator(bg)


@dataclass(frozen=True, eq=False)
class _Layout:
    """What a row of uniforms means for one (graph, params) pair."""

    src: np.ndarray         # directed edges src -> dst, sorted by (src, dst)
    dst: np.ndarray
    by_dst: np.ndarray      # the edges' order by (dst, src)
    rate: np.ndarray        # delta (plain SIR), then beta_dst
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
    rate = np.concatenate([params.delta if walk is None else [],
                           params.beta[dst]])
    return _Layout(src=src, dst=dst, by_dst=np.argsort(dst, kind="stable"),
                   rate=rate, delta=params.delta, walk=walk, budget=budget,
                   k=n * budget + len(src),
                   infected0=np.array(sorted(params.initially_infected)))


def _draw(lay: _Layout, seed: int, r0: int, r: int, buf: _Buffers):
    """Periods T (r, n), exit kinds (0 recover, 1 isolate) and edge
    delays E (r, edges) of replicas r0..r0+r-1 of the run with `seed`,
    whose rows are read into buf.u[:r]. The delays, and plain SIR's
    periods, are views of those rows, computed in place; under removal
    laws the periods and kinds are views of the walk's buffers, and the
    walk reads the budgets from their copy in `buf.budget`."""
    u, n, nb = buf.u[:r], lay.n, lay.n * lay.budget
    _stream(seed, r0, lay.k).random(out=u)
    level = itertools.count(1)

    def more():
        """The walks' budgets of level 1, 2, ..."""
        return _stream(seed, r0, nb, next(level)).random(
            (r * n, lay.budget))

    if lay.walk is None:
        periods = u[:, :n]
        kind = np.broadcast_to(np.intp(0), (r, n))
    else:
        # node i of row q is walk q * n + i
        budgets = buf.budget[:r * n]
        np.copyto(budgets.reshape(r, nb), u[:, :nb])
        t, _, kind = absorbing_walk(*lay.walk, buf.start[:r * n], budgets,
                                    more, buf.walk)
        periods, kind = t.reshape(r, n), kind.reshape(r, n)
    # -log1p(-u) / rate in place, bit for bit (in plain SIR, whole rows);
    # a delay past the float range is infinite, as it should be
    x = u[:, lay.k - len(lay.rate):]
    with np.errstate(over="ignore"):
        np.divide(np.log1p(np.negative(x, out=x), out=x), -lay.rate, out=x)
    return periods, kind, u[:, nb:]


def _open_graph(size: int, rows, cols, data) -> sp.csr_matrix:
    """size x size CSR matrix of the edges rows -> cols, rows sorted.
    csgraph keeps an explicit zero as an edge of weight 0. Its indices
    are the int32 that csgraph takes, so scipy neither scans nor copies
    them."""
    indptr = np.zeros(size + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=size), out=indptr[1:])
    return sp.csr_matrix((data, cols.astype(np.int32), indptr),
                         shape=(size, size))


class _Buffers:
    """What one thread reuses for every block it takes, of up to `block`
    replicas drawn in slices of up to `rows`: the rows of uniforms, the
    phase walk's buffers (under removal laws), the gathered periods
    T[:, src] of a group of rows (an eighth of _CHUNK's doubles at
    most), the open-edge mask with 7 rows ahead for a slice that starts
    inside a byte, and the block's words, bit q for replica q: `bits`,
    each edge's open replicas with the edges in (dst, src) order,
    `reached` and `front`, each node's reached replicas and those it
    reached at the last level, and `fronts` and `opens`, which a level
    gathers its edges' source `front` rows and `bits` rows into. Under
    removal laws they also hold the walk's input, a walk for each node
    of each row: the budgets copied out of the rows, (rows * n, budget),
    and each walk's start row. On social68, with a block of 2500
    replicas, they hold 1.9 MB a thread in plain SIR (slices of 208) and
    2.9 MB under Erlang(2) laws (slices of 157; the walk's 1.0 MB of it,
    0.34 MB the budgets and 0.61 MB the WalkBuffers)."""

    def __init__(self, lay: _Layout, block: int, rows: int):
        e, words = len(lay.src), -(-block // 64)
        self.u = np.empty((rows, lay.k))
        self.budget = self.start = self.walk = None
        if lay.walk is not None:
            self.budget = np.empty((rows * lay.n, lay.budget))
            self.start = np.tile(np.arange(lay.n) * lay.walk[1].shape[1],
                                 rows)
            self.walk = WalkBuffers(rows * lay.n)
        self.t = np.empty((min(rows, max(1, (_CHUNK >> 3) // max(e, 1))),
                           e))
        self.open = np.zeros((-(-(rows + 7) // 8) * 8, e), dtype=bool)
        self.bits, self.fronts, self.opens = (
            np.empty(e * words, np.uint64) for _ in range(3))
        self.reached, self.front = (np.empty(lay.n * words, np.uint64)
                                    for _ in range(2))
        self.src, self.dst = lay.src[lay.by_dst], lay.dst[lay.by_dst]
        self.active = np.zeros(lay.n, dtype=bool)
        self.change = np.ones(e, dtype=bool)


_BIT = np.uint8(1) << np.arange(8, dtype=np.uint8)


def _open_bits(lay: _Layout, seed: int, r0: int, size: int,
               buf: _Buffers) -> np.ndarray:
    """The open edges of replicas r0..r0+size-1 of the run with `seed`,
    (edges, words) with the edges in (dst, src) order and bit q of a
    row for replica r0 + q. The replicas are drawn in slices of the rows
    of `buf.u`. Each slice's mask is packed along its rows, bit j of
    byte i for row 8i + j, and ORed into the words' bytes; zero rows
    pad it to whole bytes, ahead of it when it starts inside one."""
    e, words = len(lay.src), -(-size // 64)
    bits = buf.bits[:e * words].reshape(e, words)
    bits.fill(0)
    for q in range(0, size, len(buf.u)):
        s, at = min(len(buf.u), size - q), q % 8
        periods, _, delays = _draw(lay, seed, r0 + q, s, buf)
        mask = buf.open[:-(-(at + s) // 8) * 8]
        mask[:at] = False
        mask[at + s:] = False
        for i in range(0, s, len(buf.t)):
            j = min(s, i + len(buf.t))
            np.less(delays[i:j], np.take(periods[i:j], lay.src, axis=1,
                                         out=buf.t[:j - i], mode="wrap"),
                    out=mask[at + i:at + j])
        packed = np.einsum("ibe,b->ie", mask.view(np.uint8).reshape(
            len(mask) // 8, 8, e), _BIT)
        bits.view(np.uint8)[:, q // 8:q // 8 + len(packed)] |= \
            packed[:, lay.by_dst].T
    return bits


def _block_sizes(lay: _Layout, seed: int, r0: int, r1: int, buf: _Buffers,
                 search: threading.Lock) -> np.ndarray:
    """Nodes ever infected in replicas r0..r1-1 of the run with `seed`:
    one breadth-first search of all of them at once over their open
    edges' bits (Then et al., VLDB 2014). A level takes the edges out
    of the frontier's nodes, ORs their frontier and open words into
    each destination, and keeps the bits not reached before as the next
    frontier. The search holds `search`, which the call's threads share.
    The takes run in mode "wrap", as their indices are in range: in mode
    "raise" numpy buffers `out`."""
    size, n = r1 - r0, lay.n
    words = -(-size // 64)
    bits = _open_bits(lay, seed, r0, size, buf)
    reached = buf.reached[:n * words].reshape(n, words)
    reached.fill(0)
    # rows of `front` are read only while their node is active
    front = buf.front[:n * words].reshape(n, words)
    # every bit set: those past the block's replicas meet no open edge
    nodes = lay.infected0
    reached[nodes] = front[nodes] = ~np.uint64(0)
    active, change = buf.active, buf.change
    active[nodes] = True
    with search:
        while True:
            edge = active.take(buf.src).nonzero()[0]
            active[nodes] = False
            m = len(edge)
            if not m:
                break
            into = buf.dst.take(edge)
            np.not_equal(into[1:], into[:-1], out=change[1:m])
            first = change[:m].nonzero()[0]
            fronts = np.take(front, buf.src.take(edge), axis=0, mode="wrap",
                             out=buf.fronts[:m * words].reshape(m, words))
            fronts &= np.take(bits, edge, axis=0, mode="wrap",
                              out=buf.opens[:m * words].reshape(m, words))
            new = np.bitwise_or.reduceat(fronts, first, axis=0)
            nodes = into.take(first)
            old = reached.take(nodes, axis=0)
            new &= ~old
            reached[nodes] = old | new
            front[nodes] = new
            nodes = nodes[new.any(axis=1)]
            active[nodes] = True
    return np.unpackbits(reached.view(np.uint8), axis=1, count=size,
                         bitorder="little").sum(axis=0, dtype=np.int64)


def simulate_sir(g: Graph, params: EpidemicParams, seed: int,
                 replica: int = 0) -> SimOutcome:
    """Replica `replica` of the Monte Carlo run with `seed`, recorded:
    one exact realization of the SIR process under the removal laws of
    `params` (plain SIR without them), run until no node is infected.
    It reads that replica's row and budget levels, so its
    infections_after_t0 is `replica_infections(g, params, R, seed)`
    at `replica`, for any R > replica."""
    from scipy.sparse import csgraph   # loaded only for a record run

    lay = _layout(g, params)
    n, k0 = lay.n, len(lay.infected0)
    (periods,), (kind,), (delays,) = _draw(lay, seed, replica, 1,
                                           _Buffers(lay, 1, 1))
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
    depend on how the replicas are blocked and sliced or how many
    threads run the blocks. A block holds at most _BLOCK bits (one an
    edge and eight a node, a replica: its open edges and the bytes its
    count unpacks), and at most a half of a thread's share of the
    replicas, so that each thread takes at least two blocks from the
    queue.
    """
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    lay = _layout(g, params)
    block = min(max(1, _BLOCK // (len(lay.src) + 8 * lay.n)),
                -(-replicas // (2 * _WORKERS)))
    rows = min(max(1, _CHUNK // lay.k), block)
    out = np.empty(replicas, dtype=np.int64)
    blocks, lock = iter(range(0, replicas, block)), threading.Lock()
    search = threading.Lock()   # one search at a time: module docstring
    failed = []   # once a block raises, no thread takes another

    def take():
        with lock:
            return None if failed else next(blocks, None)

    def work():
        """Blocks taken in turn until none is left, through one set of
        buffers: a thread that finds its core slower takes fewer."""
        try:
            buf = _Buffers(lay, block, rows)
            for b0 in iter(take, None):
                b1 = min(replicas, b0 + block)
                out[b0:b1] = _block_sizes(lay, seed, b0, b1, buf, search)
        except BaseException:
            failed.append(True)
            raise

    # blocks write disjoint slices of out; an error surfaces once the
    # blocks in flight end
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
