"""Brute-force ground truth on the full product state space.

The networked SIR process is a finite CTMC: 3^n states without
isolation, (p+2)^n with p removal phases. At desk scale that chain can
be assembled explicitly and the expected number of accumulated
infections read off a linear hitting system, which is what every
statistical component of this package is validated against.
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


def _transitions(code, n, p, neigh, beta, pi_prime, w_prime):
    """Outgoing (next_code, rate) pairs for one product state."""
    infected = [i for i in range(n) if 1 <= code[i] <= p]
    out = []
    for i in range(n):
        c = code[i]
        if c == 0:
            k = sum(1 for j in neigh[i] if 1 <= code[j] <= p)
            if k:
                nxt = list(code)
                nxt[i] = 1
                out.append((tuple(nxt), beta[i] * k))
        elif 1 <= c <= p:
            l = c - 1
            for m in range(p):
                r = pi_prime[i][l][m]
                if m != l and r > 0.0:
                    nxt = list(code)
                    nxt[i] = m + 1
                    out.append((tuple(nxt), r))
            if w_prime[i][l] > 0.0:
                nxt = list(code)
                nxt[i] = p + 1
                out.append((tuple(nxt), w_prime[i][l]))
    return infected, out


def _build_chain(g: Graph, params: EpidemicParams):
    """Explore the chain reachable from the initial state, which gets
    index 0.

    Returns (states, rows, cols, rates, absorbing_mask, removed_counts).
    """
    params.validate_for(g)
    n = g.node_count
    p = params.generators.shape[1]
    if state_count(n, p) > STATE_CAP:
        raise StateSpaceTooLarge(
            f"(p+2)^n = {state_count(n, p)} exceeds cap {STATE_CAP}")
    neigh = g.neighbor_lists
    beta = params.beta
    folded = params.generators - params.delta[:, None, None] * np.eye(p)
    # Python lists: element reads in _transitions are the hot loop
    pi_prime = folded.tolist()
    w_prime = (-folded.sum(axis=2)).tolist()

    init = tuple(1 if i in params.initially_infected else 0 for i in range(n))
    index = {init: 0}
    states = [init]
    rows, cols, rates = [], [], []
    absorbing = []
    frontier = [init]
    while frontier:
        nxt_frontier = []
        for s in frontier:
            si = index[s]
            infected, outs = _transitions(s, n, p, neigh, beta,
                                          pi_prime, w_prime)
            if not infected:
                absorbing.append(si)
                continue
            for s2, r in outs:
                if s2 not in index:
                    index[s2] = len(states)
                    states.append(s2)
                    nxt_frontier.append(s2)
                rows.append(si)
                cols.append(index[s2])
                rates.append(r)
        frontier = nxt_frontier
    m = len(states)
    absorbing_mask = np.zeros(m, dtype=bool)
    absorbing_mask[absorbing] = True
    removed = np.array([sum(1 for c in s if c == p + 1) for s in states],
                       dtype=float)
    return states, rows, cols, rates, absorbing_mask, removed


def exact_lambda(g: Graph, params: EpidemicParams) -> float:
    """Expected infections after t=0: E[final removed] - sigma_I(0),
    by direct sparse-LU solve of the hitting system.

    The transient states are ordered by the sum of their node codes and
    factored in that order. Every transition of a plain or Erlang chain
    raises the sum, so Q_TT is then upper triangular and its LU has no
    fill; laws with backward phase moves stay exact through pivoting.
    """
    states, rows, cols, rates, absorbing_mask, removed = _build_chain(g, params)
    m = len(states)
    sigma_i0 = len(params.initially_infected)
    if absorbing_mask[0]:
        return 0.0
    trans_idx = np.flatnonzero(~absorbing_mask)
    code_sums = np.array([sum(s) for s in states])
    trans_idx = trans_idx[np.argsort(code_sums[trans_idx], kind="stable")]
    k = len(trans_idx)
    pos = -np.ones(m, dtype=int)
    pos[trans_idx] = np.arange(k)

    # only transient states have outgoing transitions
    rows, cols = np.asarray(rows, dtype=int), np.asarray(cols, dtype=int)
    rates = np.asarray(rates, dtype=float)
    out_rate = np.bincount(rows, weights=rates, minlength=m)
    # hitting expectation f: Q_TT f_T = -Q_TA f_A, f_A = removed count
    to_abs = absorbing_mask[cols]
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
    lam = float(f_t[pos[0]]) - sigma_i0
    return max(0.0, lam)


def exact_removed_series(g: Graph, params: EpidemicParams,
                         t_grid) -> np.ndarray:
    """E[sigma_R(t)] on an increasing grid via the transient solve
    exp(t Q^T) applied to the initial distribution."""
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(np.diff(t_grid) < 0) or np.any(t_grid < 0):
        raise ValueError("t_grid must be nonnegative and increasing")
    states, rows, cols, rates, _, removed = _build_chain(g, params)
    m = len(states)
    q = sp.coo_matrix((rates, (rows, cols)), shape=(m, m)).tocsr()
    diag = -np.asarray(q.sum(axis=1)).ravel()
    q = (q + sp.diags(diag)).tocsc()
    pi0 = np.zeros(m)
    pi0[0] = 1.0
    out = np.empty(len(t_grid))
    qt = q.T
    for k, t in enumerate(t_grid):
        if t == 0.0:
            out[k] = removed[0]
            continue
        pit = spla.expm_multiply(qt * t, pi0)
        out[k] = float(pit @ removed)
    return out
