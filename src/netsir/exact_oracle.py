"""Brute-force ground truth on the reachable product chain.

The networked SIR process is a finite CTMC on at most 3^n states
without isolation, (p+2)^n with p removal phases. At desk scale the
chain reachable from the initial state is explored in full, and the
expected number of accumulated infections is read off its absorption
law, which is what every statistical component of this package is
validated against.

A state is the integer whose base-(p+2) digits are the node codes, node
i at place (p+2)^i. Its level is the sum of those digits. Infection,
a forward phase move and removal all raise the level. So when no
removal law has a backward phase move (a positive entry of Pi below
the diagonal), the chain is acyclic. `exact_lambda` then carries the
absorption probabilities forward one level at a time, with no matrix
(Kemeny & Snell, *Finite Markov Chains*, 1960, ch. 3). A law with a
backward move makes the chain cyclic. `exact_lambda` then solves the
hitting system of the whole chain by a sparse LU. `_build_chain`
assembles that chain one BFS frontier at a time: the whole frontier is
decoded, its infection, phase-move and removal edges are emitted as
arrays, and the successors not yet indexed become the next frontier.
`_generator` sums them into the chain's generator Q once; the hitting
system and `exact_removed_series` both read that Q.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .graph import Graph
from .phase_type import poisson_terms
from .simulator import EpidemicParams

STATE_CAP = 1_000_000

# per-node codes: 0 susceptible, 1..p infected phase, p+1 removed


class StateSpaceTooLarge(ValueError):
    pass


def state_count(n: int, p: int = 1) -> int:
    return (p + 2) ** n


def _checked_size(g: Graph, params: EpidemicParams) -> int:
    """The number of phases p, once the parameters fit the graph and
    the chain is within STATE_CAP; checked before anything is
    allocated."""
    params.validate_for(g)
    p = params.generators.shape[1]
    if state_count(g.node_count, p) > STATE_CAP:
        raise StateSpaceTooLarge(
            f"(p+2)^n = {state_count(g.node_count, p)} exceeds cap {STATE_CAP}")
    return p


def _jump_table(params: EpidemicParams) -> np.ndarray:
    """jump[i, l, t]: node i's rate from phase l to phase t < p, or to
    removal at t = p. The node's code then rises by t - l."""
    folded = params.folded
    p = folded.shape[1]
    return np.concatenate([folded * (1.0 - np.eye(p)),
                           -folded.sum(axis=2, keepdims=True)], axis=2)


def _build_chain(g: Graph, params: EpidemicParams):
    """Explore the chain reachable from the initial state, which gets
    index 0.

    Returns (codes, digits, rows, cols, rates): state k is the integer
    codes[k] with node codes digits[k], and each transition k -> k' at
    rate r is one entry of (rows, cols, rates).
    """
    p = _checked_size(g, params)
    n = g.node_count
    place = (p + 2) ** np.arange(n, dtype=np.int64)
    adj = g.adjacency_matrix()
    jump = _jump_table(params)

    init = place[sorted(params.initially_infected)].sum(keepdims=True)
    index = np.full(state_count(n, p), -1, dtype=np.int64)
    index[init] = 0
    codes, digits, rows, succs, rates = [init], [], [], [], []
    frontier, m = init, 1
    while frontier.size:
        d = frontier[:, None] // place % (p + 2)
        digits.append(d)
        infected = (d >= 1) & (d <= p)
        k = infected @ adj      # infected neighbours of each node
        s, i = np.nonzero((d == 0) & (k > 0))
        e, j = np.nonzero(infected)
        phase = d[e, j] - 1
        f, to = np.nonzero(jump[j, phase] > 0.0)
        src = np.concatenate([s, e[f]])
        succ = frontier[src] + np.concatenate(
            [place[i], (to - phase[f]) * place[j[f]]])
        rows.append(index[frontier[src]])
        succs.append(succ)
        rates.append(np.concatenate([params.beta[i] * k[s, i],
                                     jump[j[f], phase[f], to]]))
        frontier = np.unique(succ[index[succ] < 0])
        index[frontier] = np.arange(m, m + frontier.size)
        m += frontier.size
        codes.append(frontier)
    return (np.concatenate(codes), np.concatenate(digits),
            np.concatenate(rows), index[np.concatenate(succs)],
            np.concatenate(rates))


def _generator(g: Graph, params: EpidemicParams):
    """The generator Q of the chain that `_build_chain` explores, as a
    CSC array with its diagonal (minus each state's out-rate).

    Returns (q, codes, level, removed, transient): state k is the
    integer codes[k] at level level[k] with removed[k] removed nodes,
    and transient[k] when some node of it is infected.
    """
    codes, digits, rows, cols, rates = _build_chain(g, params)
    p, m = params.generators.shape[1], len(codes)
    diag = np.arange(m)
    q = sp.csc_array((np.concatenate([rates, -np.bincount(rows, rates, m)]),
                      (np.concatenate([rows, diag]),
                       np.concatenate([cols, diag]))), shape=(m, m))
    return (q, codes, digits.sum(axis=1), (digits == p + 1).sum(axis=1),
            ((digits >= 1) & (digits <= p)).any(axis=1))


def exact_lambda(g: Graph, params: EpidemicParams) -> float:
    """Expected infections after t=0: E[final removed] - sigma_I(0).

    When no removal law has a backward phase move, every transition
    raises the level (the sum of the node codes), and the probability
    mass of reaching each state is carried forward one level at a time,
    from the initial state's level upward. A level's pending successor
    codes are merged by a sort and their masses added, in an order that
    depends only on the inputs; each transient state then sends
    mass * rate / out-rate to each successor. The expectation is the
    sum of mass * removed count over the absorbing states reached.

    A law with a positive entry of Pi below the diagonal makes the chain
    cyclic. Only then is the whole chain assembled and its hitting
    system Q_TT f_T = -Q_TA f_A solved by sparse LU, with the transient
    states ordered by level, ties broken by their integer code, so
    that the factor does not depend on the order of exploration.
    """
    p = _checked_size(g, params)
    if np.any(np.tril(params.folded, -1) > 0.0):
        lam = _hitting_lambda(g, params)
    else:
        lam = _sweep_lambda(g, params, p)
    return max(0.0, lam - len(params.initially_infected))


def _sweep_lambda(g: Graph, params: EpidemicParams, p: int) -> float:
    """E[final removed] by one forward pass over the levels of an
    acyclic chain."""
    n = g.node_count
    # The sweep packs node i's code into bits [width i, width (i+1)),
    # which orders states as their base-(p+2) integers do and decodes
    # by shifts. Under STATE_CAP a packed code takes at most 24 bits,
    # which leaves room in an int64 for the merge key's arrival index.
    width = (p + 1).bit_length()
    shift = width * np.arange(n, dtype=np.int64)
    place = np.int64(1) << shift
    adj = g.adjacency_matrix()
    # climb[u - 1, i * p + l]: node i's rate from phase l to phase
    # l + u, or to removal at l + u = p; the move raises the level by u
    jump = _jump_table(params)
    climb = np.zeros((p, n, p))
    for u in range(1, p + 1):
        climb[u - 1, :, :p + 1 - u] = jump[:, range(p + 1 - u),
                                           range(u, p + 1)]
    climb = np.maximum(climb, 0.0).reshape(p, n * p)

    first = len(params.initially_infected)
    pending = [[] for _ in range(n * (p + 1) + 1)]
    pending[first].append((place[sorted(params.initially_infected)]
                           .sum(keepdims=True), np.ones(1)))
    removed = 0.0
    for level in range(first, len(pending)):
        if not pending[level]:
            continue
        # merge by one sort of (code, arrival) keys: each state's mass
        # is summed in the order its shares arrived
        c = np.concatenate([c for c, _ in pending[level]])
        w = np.concatenate([w for _, w in pending[level]])
        pending[level] = None
        bits = len(c).bit_length()
        key = np.sort(c << bits | np.arange(len(c)))
        c = key >> bits
        head = np.flatnonzero(np.concatenate([[True], c[1:] != c[:-1]]))
        codes = c[head]
        mass = np.add.reduceat(w[key & ((1 << bits) - 1)], head)

        d = codes[:, None] >> shift & ((1 << width) - 1)
        infected = (d >= 1) & (d <= p)
        live = infected.any(axis=1)
        removed += float(mass[~live] @ (d[~live] == p + 1).sum(axis=1))
        codes, mass, d, infected = codes[live], mass[live], d[live], infected[live]
        k = infected @ adj      # infected neighbours of each node
        s, i = np.nonzero((d == 0) & (k > 0))
        e, j = np.nonzero(infected)
        row = j * p + d[e, j] - 1
        # (level step, source state, rate, code step) of each move
        sends = [(1, s, params.beta[i] * k[s, i], place[i])]
        for u in range(1, p + 1):
            rate = climb[u - 1, row]
            f = np.flatnonzero(rate)
            sends.append((u, e[f], rate[f], u * place[j[f]]))
        out = np.bincount(np.concatenate([x[1] for x in sends]),
                          np.concatenate([x[2] for x in sends]),
                          minlength=len(codes))
        # mass / out-rate overflows on a subnormal out-rate; scaled by a
        # power of two, exactly, that state's rates keep their ratios
        scale = np.where(out < np.finfo(float).tiny, 2.0 ** 600, 1.0)
        share = mass / (out * scale)
        for u, src, rate, step in sends:
            if len(src):
                pending[level + u].append((codes[src] + step,
                                           share[src] * (rate * scale[src])))
    return removed


def _hitting_lambda(g: Graph, params: EpidemicParams) -> float:
    """E[final removed] by sparse-LU solve of the hitting system
    Q_TT f_T = -Q_TA f_A, f_A the removed counts, with Q_TT and Q_TA
    sliced out of the generator's transient rows."""
    q, codes, level, removed, transient = _generator(g, params)
    trans = np.flatnonzero(transient)
    trans = trans[np.lexsort((codes[trans], level[trans]))]
    absorbing = np.flatnonzero(~transient)
    q_t = q.tocsr()[trans]
    try:
        f_t = spla.splu(q_t[:, trans].tocsc(), permc_spec="NATURAL").solve(
            -(q_t[:, absorbing] @ removed[absorbing]))
    except RuntimeError as exc:  # singular factorization
        raise ArithmeticError(f"hitting system solve failed: {exc}") from exc
    # every other reachable state has a node at a higher code than the
    # initial state's, so the initial state comes first
    return float(f_t[0])


def exact_removed_series(g: Graph, params: EpidemicParams,
                         t_grid) -> np.ndarray:
    """E[sigma_R(t)] on an increasing grid: the initial distribution is
    carried from one grid point to the next by exp((t_k - t_{k-1}) Q^T),
    Q the generator of `_generator`, by uniformization. With q the
    largest out-rate and P = I + Q/q, exp(dt Q^T) pi is the sum over k
    of Pois(k; q dt) (P^T)^k pi, cut as `phase_type.cdf` cuts its sum.
    Every term is computed from its inputs alone, so the series reads
    no random state."""
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(np.diff(t_grid) < 0) or np.any(t_grid < 0):
        raise ValueError("t_grid must be nonnegative and increasing")
    q, _, _, removed, _ = _generator(g, params)
    rate = float(-q.diagonal().min())
    step = (q.T / rate).tocsr()
    pi = np.zeros(q.shape[0])
    pi[0] = 1.0
    out = np.empty(len(t_grid))
    for k, dt in enumerate(np.diff(t_grid, prepend=0.0)):
        if dt > 0.0:
            lam = rate * dt
            x, pi = pi, np.zeros_like(pi)       # x = (P^T)^j pi
            for j, log_j in poisson_terms(lam):
                pi += math.exp(j * math.log(lam) - lam - log_j) * x
                x = x + step @ x
        out[k] = float(pi @ removed)
    return out
