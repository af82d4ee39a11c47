import numpy as np
import pytest

from netsir import (EpidemicParams, ErlangSpec, Graph, StateSpaceTooLarge,
                    erlang, exact_lambda, exact_removed_series, load_edge_list,
                    state_count)
from netsir.phase_type import PhaseType
from conftest import random_instance

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
        with pytest.raises(StateSpaceTooLarge):
            exact_lambda(g, params)


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
