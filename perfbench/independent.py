"""Reference numerics for the benchmark's correctness checks.

Nothing here imports netsir: every check recomputes its answer from the
input files with numpy and scipy alone, by a different method from the
one the program uses (sparse LU instead of dense solves, percolation
instead of Gillespie simulation, closed forms where they exist).
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


def read_edge_list(path):
    """(node_count, edges as an (m, 2) int array) from an edge-list file."""
    n = None
    edges = set()
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            parts = raw.split("#", 1)[0].split()
            if not parts:
                continue
            if parts[0] == "n":
                n = int(parts[1])
                continue
            i, j = int(parts[0]), int(parts[1])
            edges.add((min(i, j), max(i, j)))
    arr = np.array(sorted(edges), dtype=np.int64).reshape(-1, 2)
    if n is None:
        n = int(arr.max()) + 1
    return n, arr


def adjacency(n, edges):
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    return sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))


def random_infected(n, k, seed):
    """The `{"random": k, "seed": s}` draw of an experiment config."""
    rng = np.random.default_rng(seed)
    return sorted(int(i) for i in rng.choice(n, size=k, replace=False))


def spectral_radius(n, edges):
    a = adjacency(n, edges).astype(float)
    return float(spla.eigsh(a, k=1, which="LA", return_eigenvectors=False)[0])


# ---------------------------------------------------------------------------
# comparison systems, assembled sparse


def _mask(n, infected):
    j = np.ones(n)
    j[list(infected)] = 0.0
    return j


def plain_system(n, edges, infected, beta, delta):
    """(M, w, x0, sigma) for M = J B A - D."""
    beta = np.broadcast_to(np.asarray(beta, float), (n,))
    delta = np.broadcast_to(np.asarray(delta, float), (n,))
    m = sp.diags(_mask(n, infected) * beta) @ adjacency(n, edges) \
        - sp.diags(delta)
    x0 = np.zeros(n)
    x0[list(infected)] = 1.0
    return m.tocsr(), delta.copy(), x0, len(infected)


def erlang_isolation_system(n, edges, infected, beta, delta, p, gamma):
    """(M, w, x0, sigma) for Erlang(p, mean gamma_i) isolation folded
    with natural recovery delta_i: phase l moves on to phase l+1 at
    rate p/gamma_i, the last phase exits at that rate, every phase
    exits at rate delta_i, and every infection enters phase 1."""
    beta = np.broadcast_to(np.asarray(beta, float), (n,))
    delta = np.broadcast_to(np.asarray(delta, float), (n,))
    rate = p / np.broadcast_to(np.asarray(gamma, float), (n,))
    idx = np.arange(n * p)
    node, phase = idx // p, idx % p
    diag = sp.diags(-(rate[node] + delta[node]))
    # the transpose of each block: phase l -> l+1 lands below the diagonal
    fwd = idx[phase < p - 1]
    moves = sp.csr_matrix((rate[node[fwd]], (fwd + 1, fwd)),
                          shape=(n * p, n * p))
    u1_ones = sp.csr_matrix((np.ones(p), (np.zeros(p, int), np.arange(p))),
                            shape=(p, p))
    jba = sp.diags(_mask(n, infected) * beta) @ adjacency(n, edges)
    m = (diag + moves + sp.kron(jba, u1_ones)).tocsr()
    w = delta[node].copy()
    last = phase == p - 1
    w[last] += rate[node[last]]
    x0 = np.zeros(n * p)
    x0[np.asarray(sorted(infected), int) * p] = 1.0
    return m, w, x0, len(infected)


def sparse_bound_and_witness(system, margin=1e-6):
    """(bound, witnessed) from one sparse LU of M.

    The bound is -w M^{-1} x0 - sigma, clipped at zero as the program
    clips it. witnessed is True when v = -M^{-T} (w + margin) is
    positive with v^T M + w < 0: for a Metzler M such a v proves M
    Hurwitz.
    """
    m, w, x0, sigma = system
    lu = spla.splu(m.tocsc(), permc_spec="MMD_AT_PLUS_A")
    bound = max(0.0, float(-w @ lu.solve(x0)) - sigma)
    v = lu.solve(-(w + margin), trans="T")
    return bound, bool(np.all(v > 0) and np.all(m.T @ v + w < 0))


def dense_bound(system):
    """The bound by a dense eigen test and solve (math.inf when M is
    not Hurwitz)."""
    m, w, x0, sigma = system
    md = m.toarray()
    if np.max(np.linalg.eigvals(md).real) >= 0:
        return math.inf
    return max(0.0, float(-w @ np.linalg.solve(md, x0)) - sigma)


def certificate_ok(system, v, lambda_bar, slack):
    """v > 0, v^T M + w <= -slack and v^T x0 <= lambda_bar + sigma."""
    m, w, x0, sigma = system
    v = np.asarray(v, float)
    return (v.shape == w.shape and bool(np.all(v > 0))
            and bool(np.all(m.T @ v + w <= -slack))
            and float(v @ x0) <= lambda_bar + sigma)


# ---------------------------------------------------------------------------
# normalized cost curves: 1 at the expensive end of the box, 0 at the other


def inverse_rate_cost(x, box):
    """Prevention (beta) and isolation (gamma) cost: linear in 1/x."""
    lo, hi = box
    return (1.0 / np.asarray(x, float) - 1.0 / hi) / (1.0 / lo - 1.0 / hi)


def inverse_rate_at(spend, box):
    lo, hi = box
    return 1.0 / (1.0 / hi + spend * (1.0 / lo - 1.0 / hi))


def linear_rate_cost(x, box):
    """Correction (delta) cost: linear in x."""
    lo, hi = box
    return (np.asarray(x, float) - lo) / (hi - lo)


def linear_rate_at(spend, box):
    lo, hi = box
    return lo + spend * (hi - lo)


def in_box(x, box, rel=1e-9):
    lo, hi = box
    x = np.asarray(x, float)
    return bool(np.all(x >= lo * (1 - rel)) and np.all(x <= hi * (1 + rel)))


# ---------------------------------------------------------------------------
# final size by percolation (Kenah & Robins, Phys. Rev. E 76, 036113, 2007)


def plain_periods(delta):
    def draw(rng, shape):
        return rng.exponential(1.0, shape) / delta
    return draw


def erlang_isolation_periods(delta, p, gamma):
    """min(Exp(delta), Erlang(p, mean gamma))."""
    def draw(rng, shape):
        return np.minimum(rng.exponential(1.0, shape) / delta,
                          rng.gamma(p, gamma / p, shape))
    return draw


def percolation_lambda(n, edges, infected, beta, draw_periods, samples,
                       seed, batch=10_000):
    """(mean, standard error) of the infections after time zero.

    Node i holds an infectious period T_i; the directed edge i -> j is
    open iff an Exp(beta_j) clock rings before T_i. The final removed
    set of the SIR process has the law of the set reachable from the
    initially infected nodes through open edges.
    """
    rng = np.random.default_rng(seed)
    beta = np.broadcast_to(np.asarray(beta, float), (n,))
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    order = np.argsort(dst, kind="stable")
    src, dst = src[order], dst[order]
    starts = np.flatnonzero(np.r_[True, dst[1:] != dst[:-1]])
    targets = dst[starts]
    sizes = []
    for start in range(0, samples, batch):
        s = min(batch, samples - start)
        periods = draw_periods(rng, (s, n))
        open_ = rng.exponential(1.0, (s, len(src))) / beta[dst] \
            < periods[:, src]
        reach = np.zeros((s, n), dtype=bool)
        reach[:, list(infected)] = True
        while True:
            hit = np.logical_or.reduceat(reach[:, src] & open_, starts,
                                         axis=1)
            if not (hit & ~reach[:, targets]).any():
                break
            reach[:, targets] |= hit
        sizes.append(reach.sum(axis=1) - len(infected))
    sizes = np.concatenate(sizes).astype(float)
    return float(sizes.mean()), float(sizes.std(ddof=1) / math.sqrt(samples))
