"""Event-driven exact simulation of the networked SIR process.

One Gillespie kernel (direct method, per-node rate bookkeeping) runs
both models: a susceptible node i flips to infected at rate beta_i
times its current number of infected neighbors, and an infected node
leaves through the phases of its removal-time law with the natural
recovery rate delta_i folded in. Plain SIR is the one-phase law Pi = 0,
whose only exit is recovery at rate delta_i. Statistically this
realizes the Poisson-counter dynamics exactly.

Replica r of a Monte Carlo run consumes the counter-based stream
(seed, r), so serial and parallel execution produce bit-identical
results.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass
from math import log
from typing import Optional

import numpy as np

from .graph import Graph
from .phase_type import require_phase_one

EVENT_CAP = 100_000_000
_BATCH = 128  # uniforms drawn per rng call inside the kernel


class EventCapExceeded(RuntimeError):
    pass


@dataclass(frozen=True, eq=False)
class EpidemicParams:
    """Per-node rates and the initial infected set.

    `isolation`, when present, holds one removal-time law per node
    (all with the same phase count, all starting in phase 1); the
    natural-recovery exponential delta_i is folded in by the simulator
    via the min-with-exponential closure.
    """

    beta: np.ndarray
    delta: np.ndarray
    initially_infected: frozenset
    isolation: Optional[tuple] = None

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=float)
        delta = np.asarray(self.delta, dtype=float)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "initially_infected",
                           frozenset(int(i) for i in self.initially_infected))
        if np.any(beta <= 0) or np.any(delta <= 0):
            raise ValueError("beta and delta must be strictly positive")
        if beta.shape != delta.shape or beta.ndim != 1:
            raise ValueError("beta and delta must be equal-length vectors")
        if not self.initially_infected:
            raise ValueError("initially_infected must be non-empty")
        if self.isolation is not None:
            iso = tuple(self.isolation)
            object.__setattr__(self, "isolation", iso)
            if len(iso) != len(beta):
                raise ValueError("need one isolation law per node")
            ps = {d.p for d in iso}
            if len(ps) != 1:
                raise ValueError("isolation laws must share one phase count")
            require_phase_one(iso)

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

    @property
    def phase_count(self) -> int:
        return 1 if self.isolation is None else self.isolation[0].p


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


def replica_rng(seed: int, replica: int) -> np.random.Generator:
    """Counter-based stream (seed, replica): Philox keyed by seed with
    the counter jumped to block `replica`."""
    bg = np.random.Philox(key=seed)
    return np.random.Generator(bg.jumped(replica))


def _poke_stream(bg: np.random.Philox, replica: int) -> np.random.Generator:
    # cheap in-place equivalent of Philox(key=seed).jumped(replica)
    st = bg.state
    st["state"]["counter"] = np.array([0, 0, replica, 0], dtype=np.uint64)
    st["buffer_pos"] = 4
    st["buffer"] = np.zeros(4, dtype=np.uint64)
    st["has_uint32"] = 0
    st["uinteger"] = 0
    bg.state = st
    return np.random.Generator(bg)


def _run(neigh, beta, tables, infected0, rng, record):
    """Gillespie direct method for the networked SIR process.

    A susceptible node's rate is beta_i times its infected neighbours;
    an infected node's rate is the hold rate of its current removal
    phase. `tables` come from `_law_tables`. Returns (ever_infected,
    event_log, counts_rows); the random stream consumed is independent
    of `record`.
    """
    start, hold, jumps, recover_w, third = tables
    n = len(neigh)
    status = [0] * n      # 0 S, 1 I, 2 R
    slot = start.copy()   # node i's current slot; infections enter phase 1
    rate = [0.0] * n
    total = 0.0
    n_inf = 0
    for i in infected0:
        status[i] = 1
        rate[i] = hold[slot[i]]
        total += rate[i]
        n_inf += 1
    for i in infected0:
        for j in neigh[i]:
            if status[j] == 0:
                rate[j] += beta[j]
                total += beta[j]
    n_rem = 0
    log_rows = [] if record else None
    counts = [(0.0, n - n_inf, n_inf, 0)] if record else None
    t = 0.0
    events = 0
    buf = rng.random(_BATCH).tolist()
    bi = 0
    while n_inf > 0:
        if bi >= _BATCH - 1:
            buf = rng.random(_BATCH).tolist()
            bi = 0
        if record:   # only the log needs the event times
            t += -log(1.0 - buf[bi]) / total
        x = buf[bi + 1] * total
        bi += 2
        acc = 0.0
        k = -1
        for i in range(n):
            r = rate[i]
            if r > 0.0:
                acc += r
                if x < acc:
                    k = i
                    break
        if k < 0:
            k = max(range(n), key=lambda i: rate[i])
        if status[k] == 0:
            status[k] = 1
            h = hold[slot[k]]
            total += h - rate[k]
            rate[k] = h
            n_inf += 1
            for j in neigh[k]:
                if status[j] == 0:
                    rate[j] += beta[j]
                    total += beta[j]
            if record:
                log_rows.append((t, k, "infect"))
        else:
            s = slot[k]
            kind = "recover"
            if third[s]:
                # a third uniform picks a phase jump or the kind of exit
                if bi >= _BATCH:
                    buf = rng.random(_BATCH).tolist()
                    bi = 0
                y = buf[bi] * rate[k]
                bi += 1
                acc = 0.0
                for m, r in jumps[s]:
                    acc += r
                    if y < acc:   # a phase jump inside node k; not logged
                        slot[k] = m
                        total += hold[m] - rate[k]
                        rate[k] = hold[m]
                        kind = None
                        break
                else:
                    if y >= acc + recover_w[s]:
                        kind = "isolate"
            if kind:
                status[k] = 2
                total -= rate[k]
                rate[k] = 0.0
                n_inf -= 1
                n_rem += 1
                for j in neigh[k]:
                    if status[j] == 0:
                        rate[j] -= beta[j]
                        total -= beta[j]
                if record:
                    log_rows.append((t, k, kind))
        if record:
            counts.append((t, n - n_inf - n_rem, n_inf, n_rem))
        events += 1
        if events >= EVENT_CAP:
            raise EventCapExceeded(f"exceeded {EVENT_CAP} events in one replica")
    # every node ever infected is removed by the end, so n_rem counts them
    return n_rem, log_rows, counts


def _law_tables(params: EpidemicParams):
    """Per-(node, phase) tables of the removal law with delta folded in.

    Slot i*p + l is node i in phase l of the folded generator
    Pi_i - delta_i*I. The tables are each node's phase-1 slot and, per
    slot, its hold rate, its phase jumps as (slot, rate), the
    natural-recovery part of its exit rate w', and whether an event
    there needs a third uniform. A node with no isolation law has the
    one-phase law Pi = 0: no jumps, w' = delta_i, natural fraction
    delta_i/delta_i = 1.0, so every exit is a recovery drawn from two
    uniforms.
    """
    p = params.phase_count
    hold, jumps, recover_w, third = [], [], [], []
    for i, d in enumerate(params.delta.tolist()):
        pi = np.zeros((1, 1)) if params.isolation is None \
            else params.isolation[i].Pi
        pip = pi - d * np.eye(p)
        w_prime = -pip.sum(axis=1)
        for l in range(p):
            row = [(i * p + m, float(pip[l, m]))
                   for m in range(p) if m != l and pip[l, m] > 0.0]
            w = float(w_prime[l])
            natural = d / w if w > 0 else 0.0
            hold.append(sum(r for _, r in row) + w)
            jumps.append(row)
            recover_w.append(w * natural)
            third.append(bool(row) or natural != 1.0)
    return list(range(0, len(hold), p)), hold, jumps, recover_w, third


def _as_rng(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return replica_rng(int(rng), 0)


def _simulate(g: Graph, params: EpidemicParams, rng) -> SimOutcome:
    params.validate_for(g)
    ever, log_rows, counts = _run(
        g.neighbor_lists, params.beta.tolist(), _law_tables(params),
        sorted(params.initially_infected), _as_rng(rng), record=True)
    return SimOutcome(final_removed=ever,
                      infections_after_t0=ever - len(params.initially_infected),
                      event_log=tuple(log_rows),
                      counts_series=np.array(counts, dtype=float))


def simulate_sir(g: Graph, params: EpidemicParams, rng) -> SimOutcome:
    """One exact realization of the plain SIR process; runs until no
    node is infected. `rng` is a Generator or an integer seed."""
    if params.isolation is not None:
        raise ValueError("params carry isolation laws; use simulate_sir_isolation")
    return _simulate(g, params, rng)


def simulate_sir_isolation(g: Graph, params: EpidemicParams, rng) -> SimOutcome:
    """One exact realization of the SIR process with phase-type
    isolation; infected nodes start in phase 1 and leave through the
    folded generator Pi - delta*I."""
    if params.isolation is None:
        raise ValueError("params lack isolation laws; use simulate_sir")
    return _simulate(g, params, rng)


def _replica_block(args):
    (neigh, beta, tables, infected0, seed, r0, r1) = args
    bg = np.random.Philox(key=seed)
    out = np.empty(r1 - r0, dtype=np.int64)
    k0 = len(infected0)
    for r in range(r0, r1):
        ever, _, _ = _run(neigh, beta, tables, infected0, _poke_stream(bg, r),
                          record=False)
        out[r - r0] = ever - k0
    return r0, out


def replica_infections(g: Graph, params: EpidemicParams, replicas: int,
                       seed: int, workers: int = 1) -> np.ndarray:
    """Infections-after-t0 for each of `replicas` independent runs.

    Replica r always uses stream (seed, r), so the result is identical
    for any worker count.
    """
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    params.validate_for(g)
    neigh = g.neighbor_lists
    beta = params.beta.tolist()
    tables = _law_tables(params)
    infected0 = sorted(params.initially_infected)
    out = np.empty(replicas, dtype=np.int64)
    if workers <= 1 or replicas < 256:
        _, block = _replica_block(
            (neigh, beta, tables, infected0, seed, 0, replicas))
        return block
    nchunks = workers * 4
    bounds = np.linspace(0, replicas, nchunks + 1, dtype=int)
    tasks = [(neigh, beta, tables, infected0, seed, int(a), int(b))
             for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        for r0, block in pool.map(_replica_block, tasks):
            out[r0:r0 + len(block)] = block
    return out


def estimate_lambda(g: Graph, params: EpidemicParams, replicas: int,
                    seed: int, workers: int = 1) -> LambdaEstimate:
    """Monte Carlo mean and standard error of infections after t=0."""
    vals = replica_infections(g, params, replicas, seed, workers)
    mean = float(vals.mean())
    if replicas > 1:
        se = float(vals.std(ddof=1) / np.sqrt(replicas))
    else:
        se = 0.0
    return LambdaEstimate(mean=mean, std_error=se, replicas=replicas, seed=seed)
