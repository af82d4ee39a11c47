"""Reference for the simulator's final-size kernel.

`reference_final_sizes` is the kernel that searched a chunk of
replicas with csgraph: the open-edge mask, then `divmod` of its flat
indices into (replica, edge), then `simulator._open_graph` over the
chunk's global node ids, then csgraph's breadth-first search from a
super-source. The tests hold `simulator._block_sizes`, which searches
a block of replicas at once over their open edges packed one bit a
replica, against it bit for bit, and `reference_replica_infections`
runs it over whole calls, one replica at a time or in chunks on a
pool as the simulator once ran it."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.sparse import csgraph

from netsir import simulator


def reference_final_sizes(lay, periods, delays) -> np.ndarray:
    """Nodes ever infected in each of the chunk's replicas, given their
    periods (R, n) and edge delays (R, edges)."""
    r, n = periods.shape
    rep, edge = np.divmod(np.flatnonzero(delays < periods[:, lay.src]),
                          len(lay.src))
    source = r * n
    seeds = (np.arange(r)[:, None] * n + lay.infected0).ravel()
    rows = np.concatenate([rep * n + lay.src[edge],
                           np.full(len(seeds), source)])
    cols = np.concatenate([rep * n + lay.dst[edge], seeds])
    order = csgraph.breadth_first_order(
        simulator._open_graph(source + 1, rows, cols, np.ones(len(cols))),
        source, directed=True, return_predecessors=False)
    return np.bincount(order[1:] // n, minlength=r)


def reference_replica_infections(g, params, replicas, seed, rows=1,
                                 workers=1) -> np.ndarray:
    """Infections after t0 of replicas 0..replicas-1 through the
    reference kernel, in chunks of `rows` replicas (one replica at a
    time by default) on a pool of `workers` threads: each chunk opens
    its own row stream and runs the kernel alone."""
    lay = simulator._layout(g, params)

    def chunk(r0):
        size = min(rows, replicas - r0)
        periods, _, delays = simulator._draw(
            lay, seed, r0, size, simulator._Buffers(lay, size, size))
        return reference_final_sizes(lay, periods, delays)

    with ThreadPoolExecutor(workers) as pool:
        sizes = list(pool.map(chunk, range(0, replicas, rows)))
    return np.concatenate(sizes) - len(lay.infected0)
