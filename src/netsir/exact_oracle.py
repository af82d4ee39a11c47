"""Brute-force ground truth on the reachable product chain.

The networked SIR process is a finite CTMC on at most 3^n states
without isolation, (p+2)^n with p removal phases. At desk scale the
chain reachable from the initial state can be assembled explicitly and
the expected number of accumulated infections read off a linear hitting
system, which is what every statistical component of this package is
validated against.

A state is the integer whose base-(p+2) digits are the node codes, node
i at place (p+2)^i. The chain is explored one BFS frontier at a time:
the whole frontier is decoded, its infection, phase-move and removal
edges are emitted as arrays, and the successors not yet indexed become
the next frontier.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .graph import Graph
from .simulator import EpidemicParams

STATE_CAP = 1_000_000

# per-node codes: 0 susceptible, 1..p infected phase, p+1 removed


class StateSpaceTooLarge(ValueError):
    pass


def state_count(n: int, p: int = 1) -> int:
    return (p + 2) ** n


def _build_chain(g: Graph, params: EpidemicParams):
    """Explore the chain reachable from the initial state, which gets
    index 0.

    Returns (codes, digits, rows, cols, rates): state k is the integer
    codes[k] with node codes digits[k], and each transition k -> k' at
    rate r is one entry of (rows, cols, rates).
    """
    params.validate_for(g)
    n = g.node_count
    p = params.generators.shape[1]
    if state_count(n, p) > STATE_CAP:
        raise StateSpaceTooLarge(
            f"(p+2)^n = {state_count(n, p)} exceeds cap {STATE_CAP}")
    place = (p + 2) ** np.arange(n, dtype=np.int64)
    adj = g.adjacency_matrix()
    folded = params.folded
    # jump[i, l, t]: rate from phase l to phase t < p, or to removal at t = p
    jump = np.concatenate([folded * (1.0 - np.eye(p)),
                           -folded.sum(axis=2, keepdims=True)], axis=2)

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


def exact_lambda(g: Graph, params: EpidemicParams) -> float:
    """Expected infections after t=0: E[final removed] - sigma_I(0),
    by direct sparse-LU solve of the hitting system.

    The transient states are ordered by the sum of their node codes, ties
    broken by their integer code, and factored in that order, which does
    not depend on the order of exploration. Every transition of a plain
    or Erlang chain raises the sum, so Q_TT is then upper triangular and
    its LU has no fill; laws with backward phase moves stay exact through
    pivoting.
    """
    codes, digits, rows, cols, rates = _build_chain(g, params)
    p = params.generators.shape[1]
    m = len(codes)
    removed = (digits == p + 1).sum(axis=1)
    absorbing = ~((digits >= 1) & (digits <= p)).any(axis=1)
    trans_idx = np.flatnonzero(~absorbing)
    trans_idx = trans_idx[np.lexsort((codes[trans_idx],
                                      digits[trans_idx].sum(axis=1)))]
    k = len(trans_idx)
    pos = -np.ones(m, dtype=int)
    pos[trans_idx] = np.arange(k)

    # only transient states have outgoing transitions
    out_rate = np.bincount(rows, weights=rates, minlength=m)
    # hitting expectation f: Q_TT f_T = -Q_TA f_A, f_A = removed count
    to_abs = absorbing[cols]
    rhs = -np.bincount(pos[rows[to_abs]],
                       weights=rates[to_abs] * removed[cols[to_abs]],
                       minlength=k)
    tt = ~to_abs
    on_diag = np.arange(k)
    q_tt = sp.csc_array(
        (np.concatenate([rates[tt], -out_rate[trans_idx]]),
         (np.concatenate([pos[rows[tt]], on_diag]),
          np.concatenate([pos[cols[tt]], on_diag]))), shape=(k, k))
    try:
        f_t = spla.splu(q_tt, permc_spec="NATURAL").solve(rhs)
    except RuntimeError as exc:  # singular factorization
        raise ArithmeticError(f"hitting system solve failed: {exc}") from exc
    lam = float(f_t[pos[0]]) - len(params.initially_infected)
    return max(0.0, lam)


def exact_removed_series(g: Graph, params: EpidemicParams,
                         t_grid) -> np.ndarray:
    """E[sigma_R(t)] on an increasing grid: the initial distribution is
    carried from one grid point to the next by exp((t_k - t_{k-1}) Q^T)."""
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(np.diff(t_grid) < 0) or np.any(t_grid < 0):
        raise ValueError("t_grid must be nonnegative and increasing")
    codes, digits, rows, cols, rates = _build_chain(g, params)
    m = len(codes)
    removed = (digits == params.generators.shape[1] + 1).sum(axis=1)
    diag = np.arange(m)
    q = sp.csc_array(
        (np.concatenate([rates, -np.bincount(rows, weights=rates,
                                             minlength=m)]),
         (np.concatenate([rows, diag]), np.concatenate([cols, diag]))),
        shape=(m, m))
    qt = q.T
    pi = np.zeros(m)
    pi[0] = 1.0
    out = np.empty(len(t_grid))
    for k, dt in enumerate(np.diff(t_grid, prepend=0.0)):
        if dt > 0.0:
            pi = spla.expm_multiply(qt * dt, pi)
        out[k] = float(pi @ removed)
    return out
