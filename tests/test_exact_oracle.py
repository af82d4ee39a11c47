import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

from netsir import (EpidemicParams, ErlangSpec, Graph, StateSpaceTooLarge,
                    erlang, exact_lambda, exact_removed_series, load_edge_list,
                    state_count)
from netsir.exact_oracle import _build_chain
from netsir.phase_type import PhaseType
from conftest import random_instance, small_instances
from oracle_reference import reference_chain, reference_lambda

TWO_NODE = load_edge_list("0 1")
RACE_P = EpidemicParams.build(2, 0.2, 0.5, [0])


def test_state_count():
    assert state_count(3, 1) == 27
    assert state_count(3, 2) == 64


class TestExactLambda:
    def test_edgeless(self):
        g = Graph(node_count=3, edges=frozenset())
        assert exact_lambda(g, EpidemicParams.build(3, 0.5, 0.5, [0])) == 0.0

    def test_two_node_race(self):
        # 9-state chain collapses to the first-event race beta/(beta+delta)
        assert exact_lambda(TWO_NODE, RACE_P) == pytest.approx(2 / 7, abs=1e-12)

    def test_star_decoupled_leaves(self):
        g = load_edge_list("0 1\n0 2\n0 3")
        params = EpidemicParams.build(4, 0.1, 0.1, [0])
        assert exact_lambda(g, params) == pytest.approx(1.5, abs=1e-10)

    def test_bounded_by_susceptible_count(self, rng):
        for _ in range(10):
            g, params = random_instance(rng, int(rng.integers(2, 5)))
            lam = exact_lambda(g, params)
            n_susc = g.node_count - len(params.initially_infected)
            assert 0.0 <= lam <= n_susc + 1e-9

    @pytest.mark.parametrize("c", [0.5, 2.0])
    def test_time_rescaling_invariance(self, rng, c):
        g, params = random_instance(rng, 4)
        scaled = EpidemicParams(beta=c * params.beta, delta=c * params.delta,
                                initially_infected=params.initially_infected)
        assert exact_lambda(g, scaled) == pytest.approx(
            exact_lambda(g, params), rel=1e-9)

    def test_scale_invariance_with_isolation(self, rng):
        iso = tuple(erlang(ErlangSpec(2, 1.3)) for _ in range(2))
        params = EpidemicParams.build(2, 0.4, 0.2, [0], isolation=iso)
        scaled_iso = tuple(PhaseType(Pi=2.0 * d.Pi) for d in iso)
        scaled = EpidemicParams.build(2, 0.8, 0.4, [0], isolation=scaled_iso)
        assert exact_lambda(TWO_NODE, scaled) == pytest.approx(
            exact_lambda(TWO_NODE, params), rel=1e-9)

    def test_backward_phase_move_closed_form(self):
        # Node 1 is infected iff node 0 infects it before leaving its
        # phases, so lambda = 1 - u1^T (beta I - Pi')^{-1} w' with
        # Pi' = Pi - delta I and w' = -Pi' 1. With beta = 1, delta = 1/2:
        # Pi' = [[-5/2, 1], [3/2, -7/2]], w' = [3/2, 2],
        # beta I - Pi' = [[7/2, -1], [-3/2, 9/2]] with determinant 57/4,
        # so u1^T (beta I - Pi')^{-1} w' = (9/2 * 3/2 + 2) / (57/4) = 35/57.
        law = PhaseType(Pi=np.array([[-2.0, 1.0], [1.5, -3.0]]))
        params = EpidemicParams.build(2, 1.0, 0.5, [0], isolation=(law, law))
        assert exact_lambda(TWO_NODE, params) == pytest.approx(22 / 57,
                                                               rel=1e-12)

    def test_isolation_p1_matches_merged_rate(self):
        gamma, delta = 2.0, 0.3
        iso = tuple(erlang(ErlangSpec(1, gamma)) for _ in range(2))
        p_iso = EpidemicParams.build(2, 0.4, delta, [0], isolation=iso)
        p_plain = EpidemicParams.build(2, 0.4, delta + 1 / gamma, [0])
        assert exact_lambda(TWO_NODE, p_iso) == pytest.approx(
            exact_lambda(TWO_NODE, p_plain), abs=1e-10)

    def test_cap_enforced(self):
        g = Graph(node_count=14, edges=frozenset({(0, 1)}))
        params = EpidemicParams.build(14, 0.1, 0.1, [0])
        tracemalloc.start()
        try:
            with pytest.raises(StateSpaceTooLarge):
                exact_lambda(g, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # refused before the 3^14-entry (38 MB) state index is allocated
        assert peak < 1_000_000

    def test_single_node(self):
        g = Graph(node_count=1, edges=frozenset())
        iso = (erlang(ErlangSpec(2, 1.0)),)
        for law in (None, iso):
            params = EpidemicParams.build(1, 0.5, 0.3, [0], isolation=law)
            assert exact_lambda(g, params) == 0.0
            assert len(_build_chain(g, params)[0]) == (2 if law is None else 3)

    @pytest.mark.parametrize("edges", [frozenset({(0, 1), (1, 2), (0, 2)}),
                                       frozenset()], ids=["triangle", "none"])
    def test_no_infection_moves(self, edges):
        # every node starts infected, or no infected node has a neighbour
        g = Graph(node_count=3, edges=edges)
        infected = [0, 1, 2] if edges else [0, 2]
        iso = tuple(erlang(ErlangSpec(2, 1.5)) for _ in range(3))
        params = EpidemicParams.build(3, 0.7, 0.2, infected, isolation=iso)
        assert exact_lambda(g, params) == pytest.approx(0.0, abs=1e-12)
        # each infected node is in phase 1, phase 2 or removed
        assert len(_build_chain(g, params)[0]) == 3 ** len(infected)

    def test_node_relabelling(self):
        rng = np.random.default_rng(5)
        n, edges = 6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)]
        beta, delta = rng.uniform(0.2, 1.0, n), rng.uniform(0.1, 0.5, n)
        laws = []
        for mean in rng.uniform(0.5, 3.0, n):
            pi = erlang(ErlangSpec(2, mean)).Pi.copy()
            pi[1, 0] = 0.9 * 2 / mean
            laws.append(PhaseType(Pi=pi))
        lams = []
        for perm in (np.arange(n), rng.permutation(n)):
            inv = np.argsort(perm)     # new id perm[i] for old node i
            g = Graph(node_count=n, edges=frozenset(
                tuple(sorted((int(perm[i]), int(perm[j])))) for i, j in edges))
            params = EpidemicParams(
                beta=beta[inv], delta=delta[inv],
                initially_infected={int(perm[0]), int(perm[3])},
                isolation=tuple(laws[i] for i in inv))
            lams.append(exact_lambda(g, params))
        assert lams[1] == pytest.approx(lams[0], rel=1e-12)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(small_instances(max_nodes=5))
def test_chain_matches_per_state_reference(instance):
    g, params = instance
    _, digits, rows, cols, rates = _build_chain(g, params)
    states, ref_rows, ref_cols, ref_rates, _, _ = reference_chain(g, params)
    assert tuple(digits[0]) == states[0]
    assert sorted(map(tuple, digits.tolist())) == sorted(states)
    triples = set(zip(map(tuple, digits[rows].tolist()),
                      map(tuple, digits[cols].tolist()), rates.tolist()))
    assert len(triples) == len(rates)
    assert triples == {(states[a], states[b], r)
                       for a, b, r in zip(ref_rows, ref_cols, ref_rates)}
    # the reference clamps nothing: its roundoff may leave -1e-16 at zero
    assert exact_lambda(g, params) == pytest.approx(
        reference_lambda(g, params), rel=1e-12, abs=1e-13)


class TestRemovedSeries:
    def test_zero_at_time_zero(self):
        out = exact_removed_series(TWO_NODE, RACE_P, [0.0])
        assert out[0] == 0.0

    def test_limit_is_lambda_plus_initial(self):
        out = exact_removed_series(TWO_NODE, RACE_P, [0.0, 1.0, 200.0])
        assert out[-1] == pytest.approx(1 + 2 / 7, abs=1e-8)

    def test_single_node_exponential_decay(self):
        g = Graph(node_count=1, edges=frozenset())
        params = EpidemicParams.build(1, 0.5, 1.0, [0])
        out = exact_removed_series(g, params, [1.0])
        assert out[0] == pytest.approx(1 - np.exp(-1), abs=1e-10)

    def test_nondecreasing(self, rng):
        g, params = random_instance(rng, 3)
        grid = np.linspace(0.0, 50.0, 12)
        out = exact_removed_series(g, params, grid)
        assert np.all(np.diff(out) >= -1e-9)
        assert out[-1] <= exact_lambda(g, params) + len(
            params.initially_infected) + 1e-6

    def test_decreasing_grid_rejected(self):
        with pytest.raises(ValueError):
            exact_removed_series(TWO_NODE, RACE_P, [1.0, 0.5])
