"""Phase-type removal times and the isolation model.

Builds an Erlang isolation law, folds in natural recovery through the
min-with-exponential closure, checks the closure law against brute
sampling, and simulates the isolation-extended epidemic.
"""

import numpy as np

from netsir import (EpidemicParams, ErlangSpec, cdf, erlang, estimate_lambda,
                    exact_lambda, exit_rates, load_edge_list, mean,
                    min_with_exponential, sample, simulate_sir)
from netsir.simulator import replica_rng

# Erlang(p=3, mean=1.5): the response time of authorities who isolate
# an infected node in three exponential stages
y = erlang(ErlangSpec(shape=3, mean=1.5))
print("isolation law generator:\n", y.Pi)
print("exit rates:", exit_rates(y), " mean:", mean(y))

# overall removal time is min(natural recovery, isolation)
delta = 0.4
z = min_with_exponential(y, delta)
print(f"\nfolded generator (delta={delta}):\n", z.Pi)
print("folded mean:", round(mean(z), 4), "< isolation-only mean", mean(y))

# the closure is a distributional identity, checkable by brute force
gen = replica_rng(seed=12, replica=0)
n = 20_000
mins = np.minimum(sample(y, gen, size=n)[0],
                  gen.exponential(1.0 / delta, size=n))
grid = np.linspace(0.2, 4.0, 6)
emp = np.searchsorted(np.sort(mins), grid, side="right") / n
print("\n   t    empirical  cdf(min law)")
for t, e, c in zip(grid, emp, cdf(z, grid)):
    print(f"  {t:4.2f}   {e:.4f}     {c:.4f}")

# the isolation-extended epidemic on a small ring
g = load_edge_list("0 1\n1 2\n2 3\n3 0")
laws = tuple(erlang(ErlangSpec(3, 1.5)) for _ in range(4))
params = EpidemicParams.build(4, beta=0.5, delta=delta, infected=[0],
                              isolation=laws)
out = simulate_sir(g, params, replica_rng(3, 0))
print("\none isolation trajectory event log:")
for t, node, kind in out.event_log:
    print(f"  t={t:6.3f}  node {node}  {kind}")

est = estimate_lambda(g, params, replicas=50_000, seed=3)
print(f"\nlambda with isolation: {est.mean:.4f} +/- {est.std_error:.4f}")
print(f"exact value          : {exact_lambda(g, params):.4f}")
