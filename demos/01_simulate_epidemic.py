"""Simulate the networked SIR process on the bundled 68-node graph.

Records one full trajectory, prints the epidemic curve at a few event
times, then estimates the expected number of accumulated infections
by Monte Carlo. The trajectory is replica 0 of that Monte Carlo run:
`simulate_sir` takes the run's seed and a replica index.
"""

from importlib import resources

import numpy as np

from netsir import EpidemicParams, estimate_lambda, load_edge_list, simulate_sir

g = load_edge_list((resources.files("netsir") / "data" / "social68.txt").read_text())
print(f"graph: {g.node_count} nodes, {g.edge_count} edges")

params = EpidemicParams.build(
    g.node_count, beta=0.0133, delta=0.05, infected=[0, 5, 17, 42])

outcome = simulate_sir(g, params, seed=1, replica=0)
print(f"\none trajectory: {outcome.final_removed} nodes ever infected, "
      f"{outcome.infections_after_t0} after t=0, "
      f"{len(outcome.event_log)} events")
print("  t        S   I   R")
rows = outcome.counts_series
for idx in np.linspace(0, len(rows) - 1, 8, dtype=int):
    t, s, i, r = rows[idx]
    print(f"  {t:7.2f} {int(s):3d} {int(i):3d} {int(r):3d}")

est = estimate_lambda(g, params, replicas=5000, seed=1)
print(f"\nexpected infections after t=0: {est.mean:.2f} "
      f"+/- {est.std_error:.2f} ({est.replicas} replicas)")
print("uncontrolled rates let the outbreak reach most of the graph.")
