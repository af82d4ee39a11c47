import itertools
import sys
import threading
import tracemalloc
from importlib import resources

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings, strategies as st

from netsir import (EpidemicParams, ErlangSpec, Graph, PhaseType, erlang,
                    estimate_lambda, exact_lambda, exact_removed_series,
                    load_edge_list, replica_infections, simulate_sir,
                    simulate_sir_isolation, simulator)
from conftest import small_instances
from simulator_reference import (reference_final_sizes,
                                 reference_replica_infections)

TWO_NODE = load_edge_list("0 1")
RACE_P = EpidemicParams.build(2, 0.2, 0.5, [0])  # P(transmit) = 0.2/0.7
# phase 2 returns to phase 1 at 0.95 of its rate: walks of many steps
RETURNING = PhaseType(Pi=np.array([[-2.0, 2.0], [1.9, -2.0]]))
WORKERS = (1, 2, 3)         # threads that run the chunks of replicas
CHUNK = simulator._CHUNK    # the default chunk size


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


@pytest.fixture
def fast_switching():
    """Threads handed the interpreter lock every 10 us, not every 5 ms,
    so that chunks of replicas interleave as finely as they can."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def same_for_every_pool(monkeypatch, g, params, replicas, seed):
    """Replica r reads stream (seed, r) alone: the one-thread result at
    the default chunk size, also at 1, 2 and 3 threads crossed with one
    replica a chunk and the default."""
    monkeypatch.setattr(simulator, "_WORKERS", 1)
    monkeypatch.setattr(simulator, "_CHUNK", CHUNK)
    a = replica_infections(g, params, replicas, seed=seed)
    for workers, chunk in itertools.product(WORKERS, [1, CHUNK]):
        monkeypatch.setattr(simulator, "_WORKERS", workers)
        monkeypatch.setattr(simulator, "_CHUNK", chunk)
        b = replica_infections(g, params, replicas, seed=seed)
        assert np.array_equal(a, b), (g, workers, chunk)
    return a


class TestSingleRun:
    def test_edgeless_never_transmits(self):
        g = Graph(node_count=5, edges=frozenset())
        params = EpidemicParams.build(5, 0.3, 0.4, [2])
        for seed in range(20):
            out = simulate_sir(g, params, seed)
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
            out = simulate_sir(g, params, seed)
            rows = out.counts_series
            assert np.all(rows[:, 1] + rows[:, 2] + rows[:, 3] == 7)
            assert np.all(np.diff(rows[:, 1]) <= 0)   # sigma_S nonincreasing
            assert np.all(np.diff(rows[:, 3]) >= 0)   # sigma_R nondecreasing
            assert rows[-1, 2] == 0                   # terminal sigma_I
            assert np.all(np.diff(rows[:, 0]) >= 0)

    def test_determinism(self):
        g = star_graph(4)
        params = EpidemicParams.build(5, 0.5, 0.2, [0])
        a = simulate_sir(g, params, 11)
        b = simulate_sir(g, params, 11)
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
    def test_chunking_keeps_rows(self, isolated, monkeypatch,
                                 fast_switching):
        """The star's chunks hold arrays large enough for numpy to
        release the interpreter lock, so there the threads truly
        overlap."""
        for g, replicas in ((TWO_NODE, 2000), (star_graph(40), 500)):
            params = build_params(g.node_count, 0.2, 0.5, [0], isolated)
            same_for_every_pool(monkeypatch, g, params, replicas, 5)

    def test_chunking_keeps_budget_levels(self, monkeypatch,
                                          fast_switching):
        # walks on a law with cycles outrun their budget and read levels
        params = EpidemicParams.build(4, 0.6, 0.1, [0],
                                      isolation=(RETURNING,) * 4)
        g = star_graph(3)
        a = same_for_every_pool(monkeypatch, g, params, 200, 6)
        assert simulate_sir_isolation(g, params, 6).infections_after_t0 \
            == a[0]

    def test_chunks_keep_their_own_results(self, monkeypatch,
                                           fast_switching):
        """Eighty calls of 20 blocks of 600 replicas at three threads,
        each equal to the one-thread result. numpy hands the interpreter
        lock over while it copies a block's final sizes into the
        result, so a buffer of final sizes shared by the chunks failed
        between one call in ten and one in five here."""
        g = star_graph(40)
        params = build_params(41, 0.2, 0.5, [0], False)
        monkeypatch.setattr(simulator, "_WORKERS", 1)
        want = replica_infections(g, params, 12_000, 5)
        monkeypatch.setattr(simulator, "_WORKERS", 3)
        lay = simulator._layout(g, params)
        monkeypatch.setattr(simulator, "_CHUNK", 600 * lay.k)
        monkeypatch.setattr(simulator, "_BLOCK",
                            600 * (len(lay.src) + 8 * lay.n))
        for _ in range(80):
            got = replica_infections(g, params, 12_000, 5)
            assert np.array_equal(got, want)

    def test_chunk_error_reaches_the_caller(self, monkeypatch):
        """An error in one block is raised by the call, and no thread of
        the pool outlives it."""
        calls = itertools.count(1)
        block_sizes = simulator._block_sizes

        def third_fails(*args):
            if next(calls) == 3:
                raise RuntimeError("chunk failed")
            return block_sizes(*args)

        monkeypatch.setattr(simulator, "_WORKERS", 2)
        monkeypatch.setattr(simulator, "_CHUNK", 1)
        monkeypatch.setattr(simulator, "_BLOCK", 1)
        monkeypatch.setattr(simulator, "_block_sizes", third_fails)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="chunk failed"):
            estimate_lambda(TWO_NODE, RACE_P, 100, seed=3)
        assert threading.active_count() == threads

    def test_failing_chunk_stops_the_queue(self, monkeypatch):
        """Once one block raises, no thread takes another: of 2000
        one-replica blocks, only those already taken run after the
        failing third, not every block left in the queue."""
        calls = itertools.count(1)
        block_sizes = simulator._block_sizes

        def third_fails(*args):
            if next(calls) == 3:
                raise RuntimeError("chunk failed")
            return block_sizes(*args)

        monkeypatch.setattr(simulator, "_CHUNK", 1)
        monkeypatch.setattr(simulator, "_BLOCK", 1)
        monkeypatch.setattr(simulator, "_block_sizes", third_fails)
        with pytest.raises(RuntimeError, match="chunk failed"):
            replica_infections(TWO_NODE, RACE_P, 2000, seed=3)
        assert next(calls) - 1 <= 2 * simulator._WORKERS + 3

    def test_replica_streams_differ(self):
        xs = replica_infections(TWO_NODE, RACE_P, 4000, seed=0)
        assert 0 < xs.mean() < 1


class TestStreams:
    @pytest.mark.parametrize("law", [None, erlang(ErlangSpec(2, 1.0)),
                                     RETURNING],
                             ids=["plain", "erlang2", "cyclic"])
    def test_record_run_consumes_the_replica_stream(self, law, monkeypatch):
        # a record run of (seed, r) is replica r of the Monte Carlo run,
        # also where walks on the law with cycles outrun their budget
        # and read levels
        g = star_graph(40)
        laws = None if law is None else (law,) * 41
        params = EpidemicParams.build(41, 1.0, 0.2, [0], isolation=laws)
        xs = replica_infections(g, params, 40, seed=13)
        assert len(set(xs.tolist())) > 5
        levels = []
        stream = simulator._stream

        def recorded(seed, r0, k, level=0):
            levels.append(level)
            return stream(seed, r0, k, level)

        monkeypatch.setattr(simulator, "_stream", recorded)
        for r in (0, 1, 7, 23, 39):
            out = simulate_sir(g, params, 13, r)
            assert out.infections_after_t0 == xs[r]
        assert (max(levels) > 0) == (law is RETURNING)

    def test_integer_like_indices_open_the_same_stream(self):
        a = simulate_sir(TWO_NODE, RACE_P, np.int64(5), np.uint8(2))
        assert a.event_log == simulate_sir(TWO_NODE, RACE_P, 5, 2).event_log

    def test_float_indices_refused(self):
        # a float seed or replica must not be truncated: seed 1.5 would
        # run as seed 1
        with pytest.raises(TypeError):
            estimate_lambda(TWO_NODE, RACE_P, 1000, 1.5)
        with pytest.raises(TypeError):
            simulate_sir(TWO_NODE, RACE_P, 1, 2.0)

    def test_negative_replica_refused(self):
        # a negative advance would step back into other replicas' rows
        with pytest.raises(ValueError, match="replica must be >= 0"):
            simulate_sir(TWO_NODE, RACE_P, 1, -1)

    @pytest.mark.parametrize("seed", [-1, 2 ** 128])
    def test_seed_outside_128_bits_refused(self, seed):
        refused = r"seed must be in \[0, 2\*\*128\)"
        with pytest.raises(ValueError, match=refused):
            estimate_lambda(TWO_NODE, RACE_P, 10, seed)
        with pytest.raises(ValueError, match=refused):
            simulate_sir(TWO_NODE, RACE_P, seed)
        assert simulate_sir(TWO_NODE, RACE_P, 2 ** 128 - 1).final_removed >= 1

    @pytest.mark.parametrize("seed, r, k, level",
                             [(0, 0, 5, 0), (7, 3, 10, 0),
                              (2 ** 100, 11, 6, 0), (5, 4, 8, 1),
                              (5, 0, 3, 2), (2 ** 127, 9, 4, 3)])
    def test_row_r_starts_at_draw_r_k(self, seed, r, k, level):
        # row r of level l is draws r*k, r*k+1, ... of PCG64DXSM(seed)
        # jumped l times, one 64-bit draw a uniform
        bg = np.random.PCG64DXSM(seed)
        whole = np.random.Generator(bg.jumped(level) if level else bg)
        want = whole.random(r * k + 2 * k)[r * k:]
        got = simulator._stream(seed, r, k, level).random(2 * k)
        assert np.array_equal(got, want)

    def test_stream_values_pinned(self):
        # a numpy whose PCG64DXSM or SeedSequence differs changes every
        # Monte Carlo result; this fails first
        got = [x.hex() for x in simulator._stream(7, 3, 10).random(4)]
        assert got == ["0x1.85d5d67f80098p-3", "0x1.1987124c546b4p-1",
                       "0x1.aaa6388620504p-1", "0x1.b73bf2230ed83p-1"]

    @pytest.mark.parametrize("law, budget",
                             [(None, 1), (erlang(ErlangSpec(2, 1.0)), 4),
                              (RETURNING, 4)],
                             ids=["plain", "erlang2", "cyclic"])
    def test_rows_and_levels_are_unpadded(self, law, budget, monkeypatch):
        # a row holds the node budgets, then one delay an edge, nothing
        # more; a budget level holds the node budgets alone
        g = path_graph(7)
        laws = None if law is None else (law,) * 7
        params = EpidemicParams.build(7, 2.0, 0.05, [0], isolation=laws)
        lay = simulator._layout(g, params)
        assert (lay.budget, lay.k) == (budget, 7 * budget + 2 * g.edge_count)
        calls = []
        stream = simulator._stream

        def recorded(seed, r0, k, level=0):
            calls.append((k, level))
            return stream(seed, r0, k, level)

        monkeypatch.setattr(simulator, "_stream", recorded)
        replica_infections(g, params, 200, seed=3)
        assert {k for k, level in calls if level == 0} == {lay.k}
        levels = {k for k, level in calls if level > 0}
        assert levels == ({7 * budget} if law is RETURNING else set())

    @MODES
    @pytest.mark.parametrize("g", [star_graph(6), path_graph(7)],
                             ids=["star", "path"])
    def test_event_log_invariants(self, g, isolated):
        n = g.node_count
        params = build_params(n, 0.8, 0.3, [0, n - 1], isolated)
        kinds = {"recover", "isolate"} if isolated else {"recover"}
        for seed in range(20):
            out = simulate_sir(g, params, seed)
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
        removed = np.empty((self.RUNS, len(self.TIMES)))
        for r in range(self.RUNS):
            rows = simulate_sir(g, params, 17, r).counts_series
            at = np.searchsorted(rows[:, 0], self.TIMES, side="right") - 1
            removed[r] = rows[at, 3]
        exact = exact_removed_series(g, params, self.TIMES)
        se = removed.std(axis=0, ddof=1) / np.sqrt(self.RUNS)
        assert np.all(np.abs(removed.mean(axis=0) - exact) <= 4 * se)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(small_instances())
def test_monte_carlo_within_4se_of_exact(instance):
    g, params = instance
    exact = exact_lambda(g, params)
    est = estimate_lambda(g, params, replicas=20_000, seed=8)
    assert abs(est.mean - exact) <= 4 * max(est.std_error, 1e-12)


@st.composite
def kernel_cases(draw):
    """A graph of up to 6 nodes where only the first `linked` may have
    edges (none when linked < 2: the edgeless graph), with per-node
    rates, plain or Erlang(2) isolation laws, and buffers sized for
    blocks of `block` replicas drawn in slices of `rows`, which then
    hold a last block of `r`."""
    n = draw(st.integers(1, 6))
    linked = draw(st.integers(0, n))
    pairs = [(i, j) for i in range(linked) for j in range(i + 1, linked)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    rates = st.lists(st.floats(0.05, 3.0), min_size=n, max_size=n)
    laws = (tuple(erlang(ErlangSpec(2, 1.0)) for _ in range(n))
            if draw(st.booleans()) else None)
    params = EpidemicParams(
        beta=np.array(draw(rates)), delta=np.array(draw(rates)),
        initially_infected=draw(st.sets(st.integers(0, n - 1),
                                        min_size=1)),
        isolation=laws)
    block = draw(st.sampled_from([1, 63, 64, 65, 127]))
    rows = draw(st.sampled_from([1, 3, 8, 13, block]))
    return (Graph(node_count=n, edges=frozenset(edges)), params, block,
            min(rows, block), draw(st.integers(1, block)))


EDGELESS_ERLANG = build_params(3, 0.5, 0.5, [1], True)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(kernel_cases(), st.integers(0, 2**32 - 1))
@example((Graph(node_count=3, edges=frozenset()), EDGELESS_ERLANG, 64, 8,
          1), 7)
@example((Graph(node_count=4, edges=frozenset({(0, 1), (1, 2)})),
          build_params(4, 2.0, 0.3, [0], False), 65, 1, 63), 8)
@example((Graph(node_count=5, edges=frozenset({(0, 1), (1, 2), (2, 3)})),
          build_params(5, 3.0, 0.05, [0, 4], True), 127, 13, 64), 9)
def test_final_sizes_match_the_reference(case, seed):
    """The bit-parallel search of a block against csgraph's search of
    the same replicas, bit for bit: a full block, then a last block of
    r replicas through the same buffers, which still hold the full
    block's bits. Blocks of 1, 63, 64, 65 and 127 replicas fill their
    last word in part; slices of 1, 3 and 13 rows start inside a byte."""
    g, params, block, rows, r = case
    lay = simulator._layout(g, params)
    buf = simulator._Buffers(lay, block, rows)
    ref = simulator._Buffers(lay, block, block)
    for r0, size in ((0, block), (block, r)):
        periods, _, delays = simulator._draw(lay, seed, r0, size, ref)
        want = reference_final_sizes(lay, periods, delays)
        got = simulator._block_sizes(lay, seed, r0, r0 + size, buf,
                                     threading.Lock())
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("infected", [[0, 300], [300]],
                         ids=["path-end-and-isolated", "isolated-only"])
def test_deep_outbreaks_match_the_reference(infected, monkeypatch):
    """A 300-node path at beta 200, delta 1, and a node with no edges:
    from the path's end, outbreaks run over 200 levels deep. Node 0 is
    infected but is no edge's destination at the first level, and when
    only the isolated node is infected every block selects no edge at
    all. Whole runs at 1 and 3 threads against one replica at a time
    through csgraph."""
    g = Graph(node_count=301,
              edges=frozenset((i, i + 1) for i in range(299)))
    params = EpidemicParams.build(301, 200.0, 1.0, infected)
    want = reference_replica_infections(g, params, 150, 12)
    if infected == [300]:
        assert not want.any()
    else:
        assert want.max() > 200
    for workers in (1, 3):
        monkeypatch.setattr(simulator, "_WORKERS", workers)
        got = replica_infections(g, params, 150, 12)
        assert np.array_equal(got, want), workers


@pytest.mark.parametrize("law", [None, erlang(ErlangSpec(2, 1.0)),
                                 RETURNING],
                         ids=["plain", "erlang2", "cyclic"])
def test_replicas_match_the_reference(law, monkeypatch, fast_switching):
    """Whole runs against one replica at a time through the reference
    kernel: node 7 has no edges, and calls of 1 and 60 replicas run in
    chunks of 1, 100 and 2^16 uniforms on 1 to 3 threads."""
    g = Graph(node_count=8, edges=frozenset(
        {(0, 1), (0, 2), (1, 3), (3, 4), (4, 5), (2, 6)}))
    params = EpidemicParams.build(8, 0.9, 0.4, [0, 5],
                                  isolation=None if law is None
                                  else (law,) * 8)
    want = reference_replica_infections(g, params, 60, 31)
    assert len(set(want.tolist())) > 2
    for workers, chunk in itertools.product(WORKERS, [1, 100, CHUNK]):
        monkeypatch.setattr(simulator, "_WORKERS", workers)
        monkeypatch.setattr(simulator, "_CHUNK", chunk)
        for replicas in (1, 60):
            got = replica_infections(g, params, replicas, 31)
            assert np.array_equal(got, want[:replicas]), (workers, chunk)


@pytest.mark.parametrize("law, replicas, bound_mb", [
    (erlang(ErlangSpec(2, 10.0)), 10_000, 4.5),
    (RETURNING, 400, 3.5),
], ids=["erlang2", "cyclic"])
def test_peak_memory_of_a_call(law, replicas, bound_mb, monkeypatch):
    """The tracemalloc peak of one call at one thread on social68 at
    mc-social68's rates: its buffers and whatever a slice allocates.
    Measured at 4.04-4.06 MB (Erlang(2), 10^4 replicas) and 3.11 MB
    (the law with cycles, 400 replicas: two blocks of full slices, each
    reading budget levels of a slice's rows), with the slice's budgets
    copied into a buffer of the thread; the bounds are 20% over the
    3.70-3.73 and 2.90 MB of a walk that read them in place. A walk
    that allocates its arrays each step peaked at 5.14 and 4.07 MB at
    these slice sizes."""
    g = load_edge_list((resources.files("netsir") / "data"
                        / "social68.txt").read_text())
    infected = np.random.default_rng(2024).choice(68, 4, replace=False)
    params = EpidemicParams.build(68, 0.0133, 0.05, infected.tolist(),
                                  isolation=(law,) * 68)
    monkeypatch.setattr(simulator, "_WORKERS", 1)
    tracemalloc.start()
    try:
        replica_infections(g, params, replicas, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mb * 1e6


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
        a = simulate_sir_isolation(g, params, 2)
        b = simulate_sir_isolation(g, params, 2)
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


def test_subnormal_recovery_rate_gives_infinite_periods():
    """-log1p(-u) / delta overflows at a subnormal delta: the infectious
    period is infinite, so infection wins every race, without a
    warning."""
    params = EpidemicParams.build(2, 0.2, 1e-320, [0])
    est = estimate_lambda(load_edge_list("0 1\n"), params, replicas=500,
                          seed=3)
    assert est.mean == 1.0 and est.std_error == 0.0
