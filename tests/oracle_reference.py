"""Per-state reference for the exact oracle's reachable chain.

`reference_chain` explores the networked SIR chain one product state at
a time, with each state a tuple of node codes (0 susceptible, 1..p
infected phase, p+1 removed). `reference_lambda` reads the expected
infections after t=0 off that chain with its own sparse solve. The tests
hold `netsir.exact_oracle`, which builds the same chain a BFS frontier
at a time with array operations, against both.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from netsir import EpidemicParams, Graph


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


def reference_chain(g: Graph, params: EpidemicParams):
    """Explore the chain reachable from the initial state, which gets
    index 0.

    Returns (states, rows, cols, rates, absorbing_mask, removed_counts).
    """
    params.validate_for(g)
    n = g.node_count
    p = params.generators.shape[1]
    neigh = g.neighbor_lists
    beta = params.beta
    folded = params.generators - params.delta[:, None, None] * np.eye(p)
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


def reference_lambda(g: Graph, params: EpidemicParams) -> float:
    """E[final removed] - sigma_I(0) from the hitting system of
    `reference_chain`, solved by spsolve in discovery order."""
    states, rows, cols, rates, absorbing, removed = reference_chain(g, params)
    rows, cols = np.asarray(rows), np.asarray(cols)
    rates = np.asarray(rates, dtype=float)
    m = len(states)
    trans = np.flatnonzero(~absorbing)
    pos = -np.ones(m, dtype=int)
    pos[trans] = np.arange(len(trans))
    out_rate = np.bincount(rows, weights=rates, minlength=m)
    to_abs = absorbing[cols]
    rhs = -np.bincount(pos[rows[to_abs]],
                       weights=rates[to_abs] * removed[cols[to_abs]],
                       minlength=len(trans))
    tt = ~to_abs
    diag = np.arange(len(trans))
    q_tt = sp.csc_array(
        (np.concatenate([rates[tt], -out_rate[trans]]),
         (np.concatenate([pos[rows[tt]], diag]),
          np.concatenate([pos[cols[tt]], diag]))),
        shape=(len(trans), len(trans)))
    f_t = np.atleast_1d(spla.spsolve(q_tt, rhs))
    return float(f_t[pos[0]]) - len(params.initially_infected)
