"""Three routes to the accumulated-infection count on a small instance.

For a chain small enough to enumerate, compares: the exact value from
the product Markov chain reachable from the initial state, a Monte
Carlo estimate from the simulator, and the certified linear upper
bound. The bound must dominate the exact value; the estimate must
straddle it.
"""

import numpy as np

from netsir import (EpidemicParams, build_sir_system, certificate_for,
                    estimate_lambda, exact_lambda, exact_removed_series,
                    lambda_bound, load_edge_list, verify_certificate)

g = load_edge_list("0 1\n1 2\n2 3\n0 2")
params = EpidemicParams.build(4, beta=0.3, delta=0.6, infected=[0])

exact = exact_lambda(g, params)
est = estimate_lambda(g, params, replicas=100_000, seed=4)
sys_ = build_sir_system(g, params)
bound_val = lambda_bound(sys_)

print(f"exact lambda      : {exact:.6f}   (at most 3^4 = 81 product states)")
print(f"Monte Carlo       : {est.mean:.6f} +/- {est.std_error:.6f}")
print(f"certified bound   : {bound_val:.6f}")
assert exact <= bound_val
assert abs(est.mean - exact) <= 4 * est.std_error

# the same guarantee as an explicit positive certificate vector
v, lam_bar = certificate_for(sys_)
print(f"\ncertificate v = {np.round(v, 4)} witnesses lambda <= {lam_bar:.6f}")
print("verifies:", verify_certificate(sys_, v, lam_bar, slack=5e-7))

# expected removed count over time converges to lambda + sigma_I(0)
grid = [0.0, 1.0, 2.0, 5.0, 20.0, 100.0]
series = exact_removed_series(g, params, grid)
print("\nE[removed](t):")
for t, val in zip(grid, series):
    print(f"  t={t:6.1f}: {val:.5f}")
print(f"limit = lambda + 1 = {exact + 1:.5f}")
