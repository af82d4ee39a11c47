import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from netsir import (EpidemicParams, ErlangSpec, Graph, PhaseType, erlang,
                    estimate_lambda, exact_lambda, exact_removed_series,
                    load_edge_list, replica_infections, row_length,
                    simulate_sir, simulate_sir_isolation, simulator)
from netsir.simulator import replica_rng

TWO_NODE = load_edge_list("0 1")
RACE_P = EpidemicParams.build(2, 0.2, 0.5, [0])  # P(transmit) = 0.2/0.7
# phase 2 returns to phase 1 at 0.95 of its rate: walks of many steps
RETURNING = PhaseType(Pi=np.array([[-2.0, 2.0], [1.9, -2.0]]))


def star_graph(k):
    return load_edge_list("\n".join(f"0 {i}" for i in range(1, k + 1)))


def path_graph(n):
    return load_edge_list("\n".join(f"{i} {i + 1}" for i in range(n - 1)))


def build_params(n, beta, delta, infected, isolated):
    """Plain rates, or the same rates with Erlang(2) isolation of mean 1."""
    iso = tuple(erlang(ErlangSpec(2, 1.0)) for _ in range(n)) if isolated \
        else None
    return EpidemicParams.build(n, beta, delta, infected, isolation=iso)


MODES = pytest.mark.parametrize("isolated", [False, True],
                                ids=["plain", "erlang2"])


class TestSingleRun:
    def test_edgeless_never_transmits(self):
        g = Graph(node_count=5, edges=frozenset())
        params = EpidemicParams.build(5, 0.3, 0.4, [2])
        for seed in range(20):
            out = simulate_sir(g, params, replica_rng(seed, 0))
            assert out.infections_after_t0 == 0
            assert out.final_removed == 1

    def test_all_infected_means_no_new_infections(self):
        params = EpidemicParams.build(2, 0.9, 0.1, [0, 1])
        out = simulate_sir(TWO_NODE, params, 3)
        assert out.infections_after_t0 == 0
        assert out.final_removed == 2

    def test_conservation_and_monotonicity(self):
        g = star_graph(6)
        params = EpidemicParams.build(7, 0.8, 0.3, [0])
        for seed in range(10):
            out = simulate_sir(g, params, replica_rng(seed, 0))
            rows = out.counts_series
            assert np.all(rows[:, 1] + rows[:, 2] + rows[:, 3] == 7)
            assert np.all(np.diff(rows[:, 1]) <= 0)   # sigma_S nonincreasing
            assert np.all(np.diff(rows[:, 3]) >= 0)   # sigma_R nondecreasing
            assert rows[-1, 2] == 0                   # terminal sigma_I
            assert np.all(np.diff(rows[:, 0]) >= 0)

    def test_determinism(self):
        g = star_graph(4)
        params = EpidemicParams.build(5, 0.5, 0.2, [0])
        a = simulate_sir(g, params, replica_rng(11, 0))
        b = simulate_sir(g, params, replica_rng(11, 0))
        assert a.event_log == b.event_log
        assert np.array_equal(a.counts_series, b.counts_series)

    def test_event_log_kinds(self):
        out = simulate_sir(TWO_NODE, EpidemicParams.build(2, 5.0, 0.1, [0]), 1)
        kinds = {k for _, _, k in out.event_log}
        assert kinds <= {"infect", "recover"}


class TestEstimateLambda:
    def test_edgeless_zero_mean_zero_stderr(self):
        g = Graph(node_count=3, edges=frozenset())
        params = EpidemicParams.build(3, 0.3, 0.4, [0])
        est = estimate_lambda(g, params, replicas=200, seed=1)
        assert est.mean == 0.0
        assert est.std_error == 0.0

    def test_two_node_race_closed_form(self):
        est = estimate_lambda(TWO_NODE, RACE_P, replicas=100_000, seed=42)
        assert abs(est.mean - 0.2 / 0.7) <= 3 * est.std_error

    def test_star_leaf_races(self):
        # leaves race independently against hub removal: k * beta/(beta+delta)
        g = star_graph(5)
        params = EpidemicParams.build(6, 0.1, 0.1, [0])
        est = estimate_lambda(g, params, replicas=100_000, seed=7)
        assert abs(est.mean - 2.5) <= 3 * est.std_error

    def test_deterministic_given_seed(self):
        a = replica_infections(TWO_NODE, RACE_P, 500, seed=9)
        b = replica_infections(TWO_NODE, RACE_P, 500, seed=9)
        assert np.array_equal(a, b)

    @MODES
    def test_chunking_keeps_rows(self, isolated, monkeypatch):
        params = build_params(2, 0.2, 0.5, [0], isolated)
        a = replica_infections(TWO_NODE, params, 2000, seed=5)
        monkeypatch.setattr(simulator, "_CHUNK", 1)   # one replica a chunk
        b = replica_infections(TWO_NODE, params, 2000, seed=5)
        assert np.array_equal(a, b)

    def test_chunking_keeps_budget_levels(self, monkeypatch):
        # walks on a law with cycles outrun their budget and read levels
        params = EpidemicParams.build(4, 0.6, 0.1, [0],
                                      isolation=(RETURNING,) * 4)
        g = star_graph(3)
        a = replica_infections(g, params, 200, seed=6)
        monkeypatch.setattr(simulator, "_CHUNK", 1)
        b = replica_infections(g, params, 200, seed=6)
        assert np.array_equal(a, b)
        assert simulate_sir_isolation(g, params, 6).infections_after_t0 \
            == a[0]

    def test_replica_streams_differ(self):
        xs = replica_infections(TWO_NODE, RACE_P, 4000, seed=0)
        assert 0 < xs.mean() < 1


class TestStreams:
    @MODES
    def test_record_run_consumes_the_replica_stream(self, isolated):
        # a recorded run on stream (seed, r) is replica r of the Monte
        # Carlo run; the star is big enough to refill the uniform buffer
        g = star_graph(40)
        params = build_params(41, 1.0, 0.2, [0], isolated)
        xs = replica_infections(g, params, 40, seed=13)
        assert len(set(xs.tolist())) > 5
        for r in (0, 1, 7, 23, 39):
            out = simulate_sir(g, params,
                               replica_rng(13, r, row_length(g, params)))
            assert out.infections_after_t0 == xs[r]

    @MODES
    @pytest.mark.parametrize("g", [star_graph(6), path_graph(7)],
                             ids=["star", "path"])
    def test_event_log_invariants(self, g, isolated):
        n = g.node_count
        params = build_params(n, 0.8, 0.3, [0, n - 1], isolated)
        kinds = {"recover", "isolate"} if isolated else {"recover"}
        for seed in range(20):
            out = simulate_sir(g, params, replica_rng(seed, 0))
            status = ["S"] * n
            for i in params.initially_infected:
                status[i] = "I"
            times = [t for t, _, _ in out.event_log]
            assert times == sorted(times)
            for _, k, kind in out.event_log:
                if kind == "infect":
                    assert status[k] == "S"
                    assert any(status[j] == "I" for j in g.neighbor_lists[k])
                    status[k] = "I"
                else:
                    assert kind in kinds
                    assert status[k] == "I"
                    status[k] = "R"
            final = [status.count("S"), status.count("I"), status.count("R")]
            assert out.counts_series[-1, 1:].tolist() == final
            assert final[1] == 0 and out.final_removed == final[2]


class TestRecordRuns:
    """Record runs against the transient solve of the exact chain: the
    event times, not only the final sizes."""

    RUNS = 4000
    TIMES = [0.5, 1.0, 2.0, 4.0, 8.0]

    @MODES
    def test_removed_series_matches_exact(self, isolated):
        g = path_graph(3)
        params = build_params(3, 0.8, 0.5, [0], isolated)
        k = row_length(g, params)
        removed = np.empty((self.RUNS, len(self.TIMES)))
        for r in range(self.RUNS):
            rows = simulate_sir(g, params, replica_rng(17, r, k)).counts_series
            at = np.searchsorted(rows[:, 0], self.TIMES, side="right") - 1
            removed[r] = rows[at, 3]
        exact = exact_removed_series(g, params, self.TIMES)
        se = removed.std(axis=0, ddof=1) / np.sqrt(self.RUNS)
        assert np.all(np.abs(removed.mean(axis=0) - exact) <= 4 * se)


@st.composite
def small_instances(draw):
    """At most 4 nodes; plain, or isolation with p in {1, 2, 3} whose
    last phase may return to phase 1, giving a law with cycles."""
    n = draw(st.integers(1, 4))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    g = Graph(node_count=n, edges=frozenset(edges))
    infected = draw(st.sets(st.integers(0, n - 1), min_size=1))
    rates = st.lists(st.floats(0.05, 2.0), min_size=n, max_size=n)
    beta, delta = draw(rates), draw(rates)
    p = draw(st.sampled_from([None, 1, 2, 3]))
    laws = None
    if p is not None:
        back = draw(st.sampled_from([0.0, 0.9])) if p > 1 else 0.0
        laws = []
        for m in draw(st.lists(st.floats(0.2, 5.0), min_size=n,
                               max_size=n)):
            pi = erlang(ErlangSpec(p, m)).Pi.copy()
            if back:
                pi[-1, 0] = back * p / m
            laws.append(PhaseType(Pi=pi))
        laws = tuple(laws)
    return g, EpidemicParams(beta=np.array(beta), delta=np.array(delta),
                             initially_infected=frozenset(infected),
                             isolation=laws)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(small_instances())
def test_monte_carlo_within_4se_of_exact(instance):
    g, params = instance
    exact = exact_lambda(g, params)
    est = estimate_lambda(g, params, replicas=20_000, seed=8)
    assert abs(est.mean - exact) <= 4 * max(est.std_error, 1e-12)


class TestIsolationModel:
    def test_edgeless_no_secondary(self):
        g = Graph(node_count=3, edges=frozenset())
        iso = tuple(erlang(ErlangSpec(2, 1.0)) for _ in range(3))
        params = EpidemicParams.build(3, 0.5, 0.3, [1], isolation=iso)
        out = simulate_sir_isolation(g, params, 4)
        assert out.infections_after_t0 == 0

    def test_single_phase_equals_merged_rate(self):
        # p=1 isolation with mean gamma is an extra exponential clock:
        # identical in law to plain SIR with recovery delta + 1/gamma
        gamma, delta, beta, n = 2.0, 0.3, 0.4, 4
        g = star_graph(3)
        iso = tuple(erlang(ErlangSpec(1, gamma)) for _ in range(n))
        p_iso = EpidemicParams.build(n, beta, delta, [0], isolation=iso)
        p_plain = EpidemicParams.build(n, beta, delta + 1 / gamma, [0])
        a = replica_infections(g, p_iso, 10_000, seed=21)
        b = replica_infections(g, p_plain, 10_000, seed=2100)
        ks = scipy.stats.ks_2samp(a, b)
        assert ks.pvalue > 1e-3

    def test_two_node_erlang_against_exact_oracle(self):
        iso = tuple(erlang(ErlangSpec(2, 1.5)) for _ in range(2))
        for delta in (0.2, 0.0):   # 0.0: removal by isolation only
            params = EpidemicParams.build(2, 0.4, delta, [0], isolation=iso)
            target = exact_lambda(TWO_NODE, params)
            est = estimate_lambda(TWO_NODE, params, replicas=100_000, seed=3)
            assert abs(est.mean - target) <= 4 * est.std_error

    def test_cyclic_law_against_exact_oracle(self):
        # most walks outrun their two-step budget and read further levels
        params = EpidemicParams.build(2, 0.4, 0.2, [0],
                                      isolation=(RETURNING,) * 2)
        target = exact_lambda(TWO_NODE, params)
        est = estimate_lambda(TWO_NODE, params, replicas=100_000, seed=4)
        assert abs(est.mean - target) <= 4 * est.std_error

    def test_isolate_events_logged(self):
        # tiny delta, fast isolation: removals should be isolations
        iso = tuple(erlang(ErlangSpec(2, 0.5)) for _ in range(2))
        params = EpidemicParams.build(2, 0.2, 1e-6, [0], isolation=iso)
        out = simulate_sir_isolation(TWO_NODE, params, 8)
        kinds = {k for _, _, k in out.event_log}
        assert "isolate" in kinds

    def test_determinism_with_phases(self):
        iso = tuple(erlang(ErlangSpec(3, 1.0)) for _ in range(4))
        g = star_graph(3)
        params = EpidemicParams.build(4, 0.6, 0.2, [0], isolation=iso)
        a = simulate_sir_isolation(g, params, replica_rng(2, 0))
        b = simulate_sir_isolation(g, params, replica_rng(2, 0))
        assert a.event_log == b.event_log


class TestParamsValidation:
    def test_nonpositive_rates(self):
        with pytest.raises(ValueError):
            EpidemicParams.build(2, 0.0, 0.5, [0])
        with pytest.raises(ValueError):   # plain SIR needs recovery
            EpidemicParams.build(2, 0.1, 0.0, [0])

    def test_empty_infected(self):
        with pytest.raises(ValueError):
            EpidemicParams.build(2, 0.1, 0.5, [])

    def test_out_of_range_infected(self):
        params = EpidemicParams.build(2, 0.1, 0.5, [5])
        with pytest.raises(ValueError):
            simulate_sir(TWO_NODE, params, 0)

    def test_mixed_phase_counts_rejected(self):
        iso = (erlang(ErlangSpec(1, 1.0)), erlang(ErlangSpec(2, 1.0)))
        with pytest.raises(ValueError):
            EpidemicParams.build(2, 0.1, 0.5, [0], isolation=iso)
