"""Reference for the simulator's final-size kernel.

`reference_final_sizes` is the kernel as it stood before the threads
owned their buffers: the open-edge mask, then `divmod` of its flat
indices into (replica, edge), then `simulator._open_graph` over the
chunk's global node ids, then csgraph's breadth-first search from a
super-source. The tests hold `simulator._final_sizes`, which builds the
same graph in reused buffers from the mask's flat indices alone,
against it bit for bit.
"""

from __future__ import annotations

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


def reference_replica_infections(g, params, replicas, seed) -> np.ndarray:
    """Infections after t0 of replicas 0..replicas-1, one replica at a
    time: each opens its own row stream and runs the reference kernel
    alone."""
    lay = simulator._layout(g, params)
    sizes = []
    for r in range(replicas):
        periods, _, delays = simulator._draw(lay, seed, r,
                                             np.empty((1, lay.k)))
        sizes.append(reference_final_sizes(lay, periods, delays))
    return np.concatenate(sizes) - len(lay.infected0)
