import tracemalloc

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

import netsir.exact_oracle
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

    @pytest.mark.parametrize("n, shape", [(14, None), (10, 2)],
                             ids=["plain14", "erlang2-10"])
    def test_cap_enforced(self, n, shape):
        # 3^14 and 4^10 product states are both above STATE_CAP
        g = Graph(node_count=n, edges=frozenset({(0, 1)}))
        iso = None if shape is None else (erlang(ErlangSpec(shape, 1.0)),) * n
        params = EpidemicParams.build(n, 0.1, 0.1, [0], isolation=iso)
        tracemalloc.start()
        try:
            with pytest.raises(StateSpaceTooLarge):
                exact_lambda(g, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # refused before anything sized by the state space is allocated
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


class TestLuCalls:
    """Only a law with a backward phase move sends the oracle to the
    sparse LU; plain and Erlang chains are swept level by level."""

    @pytest.fixture
    def lu_calls(self, monkeypatch):
        calls = []
        splu = spla.splu

        def counting_splu(*args, **kwargs):
            calls.append(args[0].shape)
            return splu(*args, **kwargs)
        monkeypatch.setattr(netsir.exact_oracle.spla, "splu", counting_splu)
        return calls

    def test_ring10_plain(self, lu_calls):
        g = load_edge_list("".join(f"{i} {(i + 1) % 10}\n" for i in range(10)))
        exact_lambda(g, EpidemicParams.build(10, 0.6, 0.4, [0]))
        assert lu_calls == []

    def test_path8_erlang2(self, lu_calls):
        g = load_edge_list("".join(f"{i} {i + 1}\n" for i in range(7)))
        iso = (erlang(ErlangSpec(2, 2.0)),) * 8
        exact_lambda(g, EpidemicParams.build(8, 0.6, 0.4, [0], isolation=iso))
        assert lu_calls == []

    def test_backward_move_takes_one_lu(self, lu_calls):
        # the law of test_node_relabelling, on the same graph
        rng = np.random.default_rng(5)
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)]
        beta, delta = rng.uniform(0.2, 1.0, 6), rng.uniform(0.1, 0.5, 6)
        laws = []
        for mean in rng.uniform(0.5, 3.0, 6):
            pi = erlang(ErlangSpec(2, mean)).Pi.copy()
            pi[1, 0] = 0.9 * 2 / mean
            laws.append(PhaseType(Pi=pi))
        params = EpidemicParams(beta=beta, delta=delta,
                                initially_infected={0, 3},
                                isolation=tuple(laws))
        exact_lambda(Graph(node_count=6, edges=frozenset(edges)), params)
        assert len(lu_calls) == 1


@st.composite
def acyclic_instances(draw, max_nodes=5):
    """Removal laws with a random upper-triangular Pi: forward moves
    that may skip phases, and exits from any phase."""
    n = draw(st.integers(1, max_nodes))
    p = draw(st.integers(1, 3))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    infected = draw(st.sets(st.integers(0, n - 1), min_size=1))
    rates = st.lists(st.floats(0.05, 2.0), min_size=n, max_size=n)
    rate = st.one_of(st.just(0.0), st.floats(0.1, 3.0))
    laws = []
    for _ in range(n):
        ahead = np.triu(np.reshape(draw(st.lists(
            rate, min_size=p * p, max_size=p * p)), (p, p)), 1)
        exits = np.array(draw(st.lists(rate, min_size=p, max_size=p)))
        exits[ahead.sum(axis=1) + exits == 0.0] = 1.0   # every phase left
        laws.append(PhaseType(Pi=ahead - np.diag(ahead.sum(axis=1) + exits)))
    delta = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    return (Graph(node_count=n, edges=frozenset(edges)),
            EpidemicParams(beta=np.array(draw(rates)), delta=np.array(delta),
                           initially_infected=frozenset(infected),
                           isolation=tuple(laws)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(acyclic_instances())
def test_sweep_matches_reference_on_acyclic_laws(instance):
    g, params = instance
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

    def test_late_value_is_hitting_lambda_plus_initial(self):
        """The series and the hitting system read one generator: on the
        backward-move law of test_node_relabelling, E[sigma_R(200)]
        equals exact_lambda + sigma_I(0), which the LU gives."""
        rng = np.random.default_rng(5)
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)]
        beta, delta = rng.uniform(0.2, 1.0, 6), rng.uniform(0.1, 0.5, 6)
        laws = []
        for mean in rng.uniform(0.5, 3.0, 6):
            pi = erlang(ErlangSpec(2, mean)).Pi.copy()
            pi[1, 0] = 0.9 * 2 / mean
            laws.append(PhaseType(Pi=pi))
        g = Graph(node_count=6, edges=frozenset(edges))
        params = EpidemicParams(beta=beta, delta=delta,
                                initially_infected={0, 3},
                                isolation=tuple(laws))
        out = exact_removed_series(g, params, [200.0])
        assert out[0] == pytest.approx(exact_lambda(g, params) + 2, abs=1e-8)

    def test_decreasing_grid_rejected(self):
        with pytest.raises(ValueError):
            exact_removed_series(TWO_NODE, RACE_P, [1.0, 0.5])


def test_removed_series_reads_no_random_state():
    """Two calls give the same series bit for bit when numpy's global
    random state is reseeded between them: 5 nodes under Erlang(p) laws
    with a backward move from the last phase, a chain of 2000 states."""
    rng = np.random.default_rng(2)
    p = int(rng.integers(2, 4))
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    edges = [pairs[i] for i in rng.choice(len(pairs), 6, replace=False)]
    laws = []
    for mean in rng.uniform(0.5, 3.0, 5):
        pi = erlang(ErlangSpec(p, mean)).Pi.copy()
        pi[p - 1, int(rng.integers(0, p - 1))] = 0.9 * p / mean
        laws.append(PhaseType(Pi=pi))
    g = Graph(node_count=5, edges=frozenset(edges))
    params = EpidemicParams(beta=rng.uniform(0.2, 1.0, 5),
                            delta=rng.uniform(0.0, 0.5, 5),
                            initially_infected={0, 2}, isolation=tuple(laws))
    grid = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 30.0]
    state = np.random.get_state()
    try:
        np.random.seed(1)
        first = exact_removed_series(g, params, grid)
        np.random.seed(2)
        assert np.array_equal(exact_removed_series(g, params, grid), first)
    finally:
        np.random.set_state(state)


@pytest.mark.parametrize("delta", [1e-320, 1e-310])
def test_subnormal_recovery_rate(delta):
    """A state whose only moves are subnormal recoveries still passes on
    its whole mass: infection wins every race, as at delta = 1e-300
    (mass / out-rate used to overflow there and give inf)."""
    g = load_edge_list("0 1\n1 2\n")
    assert exact_lambda(g, EpidemicParams.build(3, 0.2, delta, [0])) == \
        exact_lambda(g, EpidemicParams.build(3, 0.2, 1e-300, [0])) == 2.0
