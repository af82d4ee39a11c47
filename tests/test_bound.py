import math
from importlib import resources

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

import netsir.bound
from netsir import (ComparisonSystem, EpidemicParams, ErlangSpec, Graph,
                    PhaseType, UNBOUNDED, build_isolation_system,
                    build_sir_system, certificate_for, erlang, exact_lambda,
                    is_hurwitz_metzler, isolation_system_from, lambda_bound,
                    load_edge_list, mean, min_with_exponential,
                    verify_certificate)
from conftest import random_instance, spectral_radius

TWO_NODE = load_edge_list("0 1")
RACE_P = EpidemicParams.build(2, 0.2, 0.5, [0])


def random_metzler(rng, n):
    m = rng.uniform(0, 1, size=(n, n))
    np.fill_diagonal(m, rng.uniform(-3, 0.5, size=n))
    return m


class TestBuildSirSystem:
    def test_two_node_matrix(self):
        sys_ = build_sir_system(TWO_NODE, RACE_P)
        assert sys_.matrix.toarray().tolist() == [[-0.5, 0.0], [0.2, -0.5]]
        assert sys_.weight_row.tolist() == [0.5, 0.5]
        assert sys_.initial.tolist() == [1.0, 0.0]
        assert sys_.sigma_I0 == 1

    def test_all_infected_drops_transmission(self):
        params = EpidemicParams.build(2, 0.7, 0.3, [0, 1])
        sys_ = build_sir_system(TWO_NODE, params)
        assert np.allclose(sys_.matrix.toarray(), -0.3 * np.eye(2))

    def test_edgeless_is_minus_d(self):
        g = Graph(node_count=3, edges=frozenset())
        params = EpidemicParams.build(3, 0.7, 0.4, [1])
        sys_ = build_sir_system(g, params)
        assert np.allclose(sys_.matrix.toarray(), -0.4 * np.eye(3))


class TestBuildIsolationSystem:
    def test_p1_reduces_to_plain_with_merged_rate(self):
        gamma, delta = 2.0, 0.3
        iso = tuple(erlang(ErlangSpec(1, gamma)) for _ in range(2))
        p_iso = EpidemicParams.build(2, 0.4, delta, [0], isolation=iso)
        p_merged = EpidemicParams.build(2, 0.4, delta + 1 / gamma, [0])
        a = build_isolation_system(TWO_NODE, p_iso)
        b = build_sir_system(TWO_NODE, p_merged)
        assert np.allclose(a.matrix.toarray(), b.matrix.toarray(), atol=1e-14)
        assert np.allclose(a.weight_row, b.weight_row, atol=1e-14)
        assert np.allclose(a.initial, b.initial)

    def test_single_infected_node_block(self):
        g = Graph(node_count=1, edges=frozenset())
        iso = (erlang(ErlangSpec(2, 1.0)),)
        params = EpidemicParams.build(1, 0.2, 0.3, [0], isolation=iso)
        sys_ = build_isolation_system(g, params)
        pi_prime = iso[0].Pi - 0.3 * np.eye(2)
        assert np.allclose(sys_.matrix.toarray(), pi_prime.T)
        assert lambda_bound(sys_) == 0.0

    def test_two_node_p2_kronecker_blocks(self):
        beta, delta, gamma = 0.4, 0.2, 1.5
        iso = tuple(erlang(ErlangSpec(2, gamma)) for _ in range(2))
        params = EpidemicParams.build(2, beta, delta, [0], isolation=iso)
        sys_ = build_isolation_system(TWO_NODE, params)
        # hand expansion: block-diag of Pi'^T plus (JBA) kron (u1 1^T)
        r = 2 / gamma
        pi_prime_t = np.array([[-r - delta, 0.0], [r, -r - delta]])
        expected = np.zeros((4, 4))
        expected[0:2, 0:2] = pi_prime_t
        expected[2:4, 2:4] = pi_prime_t
        expected[2, 0] = beta  # J_11 * beta * a_10, u1 row, both phases of node 0
        expected[2, 1] = beta
        assert np.allclose(sys_.matrix.toarray(), expected)
        assert np.allclose(sys_.weight_row, [delta, r + delta, delta, r + delta])
        assert sys_.initial.tolist() == [1.0, 0.0, 0.0, 0.0]

    @pytest.mark.parametrize("p", [2, 3])
    def test_per_node_laws_block_by_block(self, p):
        # every node has its own law, recovery and infection rate, so a
        # node-ordering slip in the stacked assembly changes the matrix
        g = load_edge_list("0 1\n1 2")
        adj = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
        beta, delta = np.array([0.3, 0.5, 0.7]), np.array([0.1, 0.2, 0.4])
        means, infected = [0.8, 1.5, 3.0], [0]
        laws = [erlang(ErlangSpec(p, m)) for m in means]
        # block (i, j) = delta_ij Pi'_i^T + J_ii beta_i a_ij u1 1^T
        expected = np.zeros((3 * p, 3 * p))
        weight = np.zeros(3 * p)
        for i in range(3):
            r = p / means[i]
            pi_prime = np.diag(np.full(p, -r - delta[i])) \
                + np.diag(np.full(p - 1, r), 1)
            expected[i * p:(i + 1) * p, i * p:(i + 1) * p] = pi_prime.T
            weight[i * p:(i + 1) * p] = -pi_prime.sum(axis=1)
            if i not in infected:   # J masks the initially infected rows
                for j in range(3):
                    expected[i * p, j * p:(j + 1) * p] += beta[i] * adj[i, j]
        initial = np.zeros(3 * p)
        initial[0] = 1.0
        params = EpidemicParams(beta=beta, delta=delta,
                                initially_infected=frozenset(infected),
                                isolation=tuple(laws))
        for sys_ in (build_isolation_system(g, params),
                     isolation_system_from(g, infected, delta, laws, beta)):
            assert np.allclose(sys_.matrix.toarray(), expected,
                               rtol=1e-15, atol=0.0)
            assert np.allclose(sys_.weight_row, weight, rtol=1e-15, atol=0.0)
            assert sys_.initial.tolist() == initial.tolist()

    def test_phi_other_than_u1_refused(self):
        # every layer enters an infection in phase 1, so a law that
        # starts in phase 2 is refused rather than misread
        law = PhaseType(Pi=np.array([[-1.0, 1.0], [0.0, -10.0]]),
                        phi=np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="phase 1"):
            EpidemicParams.build(2, 0.5, 0.1, [0], isolation=(law, law))
        with pytest.raises(ValueError, match="phase 1"):
            isolation_system_from(TWO_NODE, [0], 0.1, [law, law], 0.5)

    def test_explicit_u1_phi_accepted(self):
        pi = np.array([[-1.0, 1.0], [0.0, -10.0]])
        explicit = PhaseType(Pi=pi, phi=np.array([1.0, 0.0]))
        params = EpidemicParams.build(2, 0.5, 0.1, [0],
                                      isolation=(explicit, explicit))
        a = lambda_bound(build_isolation_system(TWO_NODE, params))
        b = lambda_bound(isolation_system_from(TWO_NODE, [0], 0.1,
                                               [PhaseType(Pi=pi)] * 2, 0.5))
        assert math.isfinite(a) and a == b

    def test_raw_interface_allows_zero_delta(self):
        laws = [erlang(ErlangSpec(2, 1.0)) for _ in range(2)]
        sys_ = isolation_system_from(TWO_NODE, [0], 0.0, laws, 0.4)
        assert is_hurwitz_metzler(sys_.matrix)


    def test_sparse_assembly_of_erlang3_on_2000_nodes(self):
        # no dense n*p x n*p array: Pi'^T blocks plus p entries per arc
        rng = np.random.default_rng(2000)
        n, p = 2000, 3
        edges = set()
        while len(edges) < 3 * n:
            i, j = sorted(int(k) for k in rng.choice(n, size=2, replace=False))
            edges.add((i, j))
        g = Graph(node_count=n, edges=frozenset(edges))
        laws = [erlang(ErlangSpec(p, 1.0)) for _ in range(n)]
        sys_ = isolation_system_from(g, range(10), 1.0, laws, 0.05)
        assert sp.issparse(sys_.matrix) and sys_.dim == n * p
        assert sys_.matrix.nnz <= n * p * p + 2 * g.edge_count * p


class TestHurwitz:
    def test_minus_identity(self):
        assert is_hurwitz_metzler(-np.eye(3)) is True

    def test_symmetric_permutation(self):
        assert is_hurwitz_metzler(np.array([[0.0, 1.0], [1.0, 0.0]])) is False

    def test_defective_triangular_case(self):
        m = np.array([[-0.5, 0.0], [0.2, -0.5]])
        assert is_hurwitz_metzler(m) is True

    def test_decoupled_diagonal(self):
        assert is_hurwitz_metzler(np.diag([0.5, -0.5])) is False

    def test_non_metzler_rejected(self):
        with pytest.raises(ValueError):
            is_hurwitz_metzler(np.array([[-1.0, -0.1], [0.0, -1.0]]))

    def test_agrees_with_dense_eigensolver(self, rng):
        for _ in range(300):
            n = int(rng.integers(1, 8))
            m = random_metzler(rng, n)
            truth = float(np.max(np.real(np.linalg.eigvals(m))))
            if abs(truth) < 1e-6:
                continue  # knife edge excluded by design
            assert is_hurwitz_metzler(m, tol=1e-9) == (truth < 0)


class TestLambdaBound:
    def test_edgeless_single_infected(self):
        g = Graph(node_count=2, edges=frozenset())
        sys_ = build_sir_system(g, EpidemicParams.build(2, 0.3, 1.0, [0]))
        assert lambda_bound(sys_) == 0.0

    def test_two_node_closed_form(self):
        # triangular inverse gives beta/delta_0 exactly
        assert lambda_bound(build_sir_system(TWO_NODE, RACE_P)) == \
            pytest.approx(0.4, abs=1e-12)

    def test_all_infected_zero(self):
        params = EpidemicParams.build(2, 0.7, 0.3, [0, 1])
        assert lambda_bound(build_sir_system(TWO_NODE, params)) == 0.0

    def test_unstable_returns_unbounded(self):
        params = EpidemicParams.build(2, 5.0, 0.1, [0])
        sys_ = build_sir_system(TWO_NODE, params)
        # K2 with huge beta: JBA - D has positive abscissa? only node 1 row
        # is active, matrix stays triangular and Hurwitz; force instability
        # with a dense graph instead
        tri = load_edge_list("0 1\n1 2\n0 2")
        params3 = EpidemicParams.build(3, 5.0, 0.1, [0])
        sys3 = build_sir_system(tri, params3)
        assert lambda_bound(sys3) is UNBOUNDED or lambda_bound(sys3) == math.inf

    def test_dominates_exact_on_random_instances(self, rng):
        checked = 0
        while checked < 25:
            g, params = random_instance(rng, int(rng.integers(2, 5)))
            sys_ = build_sir_system(g, params)
            lb = lambda_bound(sys_)
            if not math.isfinite(lb):
                continue
            assert exact_lambda(g, params) <= lb + 1e-9
            checked += 1

    def test_monotone_in_rates(self, rng):
        for _ in range(20):
            g, params = random_instance(rng, 4, rate_lo=0.2, rate_hi=0.5)
            base_sys = build_sir_system(g, params)
            base = lambda_bound(base_sys)
            if not math.isfinite(base):
                continue
            up_beta = EpidemicParams(beta=params.beta * 1.05, delta=params.delta,
                                     initially_infected=params.initially_infected)
            up_delta = EpidemicParams(beta=params.beta, delta=params.delta * 1.05,
                                      initially_infected=params.initially_infected)
            b1 = lambda_bound(build_sir_system(g, up_beta))
            if math.isfinite(b1):
                assert b1 >= base - 1e-9
            assert lambda_bound(build_sir_system(g, up_delta)) <= base + 1e-9

    def test_isolation_p1_consistency(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 5))
            g, params = random_instance(rng, n, rate_lo=0.3, rate_hi=0.8)
            gamma = rng.uniform(0.5, 3.0, size=n)
            iso = tuple(erlang(ErlangSpec(1, gm)) for gm in gamma)
            p_iso = EpidemicParams(beta=params.beta, delta=params.delta,
                                   initially_infected=params.initially_infected,
                                   isolation=iso)
            p_merged = EpidemicParams(beta=params.beta,
                                      delta=params.delta + 1 / gamma,
                                      initially_infected=params.initially_infected)
            a = lambda_bound(build_isolation_system(g, p_iso))
            b = lambda_bound(build_sir_system(g, p_merged))
            if math.isfinite(a) or math.isfinite(b):
                assert a == pytest.approx(b, abs=1e-12)


class TestCertificates:
    def edgeless_system(self, delta=1.0):
        g = Graph(node_count=2, edges=frozenset())
        return build_sir_system(g, EpidemicParams.build(2, 0.3, delta, [0]))

    def test_unit_v_fails_at_equality(self):
        # v = 1: v^T M + w = 0 entrywise, strict inequality has no margin
        sys_ = self.edgeless_system()
        assert not verify_certificate(sys_, np.ones(2), 0.5, slack=1e-9)

    def test_doubled_v_passes(self):
        sys_ = self.edgeless_system()
        assert verify_certificate(sys_, 2 * np.ones(2), 1.5, slack=1e-6)

    def test_lambda_bar_side_checked(self):
        sys_ = self.edgeless_system()
        assert not verify_certificate(sys_, 2 * np.ones(2), 0.5, slack=1e-6)

    def test_nonpositive_v_rejected(self):
        sys_ = self.edgeless_system()
        assert not verify_certificate(sys_, np.array([1.0, 0.0]), 2.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            verify_certificate(self.edgeless_system(), np.ones(3), 1.0)

    def test_synthesized_certificate_verifies(self, rng):
        # the synthesis margin must strictly dominate the verify slack
        done = 0
        while done < 15:
            g, params = random_instance(rng, int(rng.integers(2, 5)))
            sys_ = build_sir_system(g, params)
            cert = certificate_for(sys_)
            if cert is None:
                continue
            v, lam = cert
            assert verify_certificate(sys_, v, lam, slack=5e-7)
            assert lambda_bound(sys_) <= lam + 1e-9
            done += 1

    def test_certificate_implies_stability_and_bound(self, rng):
        # soundness spot check: accepted certificates imply Hurwitz and
        # dominate the linear-solve bound value
        done = 0
        while done < 10:
            g, params = random_instance(rng, 3)
            sys_ = build_sir_system(g, params)
            v = np.asarray(rng.uniform(0.5, 4.0, size=3))
            lam = float(rng.uniform(0.1, 5.0))
            if verify_certificate(sys_, v, lam, slack=1e-9):
                assert is_hurwitz_metzler(sys_.matrix)
                assert lambda_bound(sys_) <= lam + 1e-9
                done += 1


def small_rates(n):
    return st.lists(st.floats(0.05, 2.0), min_size=n, max_size=n)


@st.composite
def small_graphs(draw):
    """(g, infected, beta): at most 4 nodes, a non-empty infected set."""
    n = draw(st.integers(1, 4))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    g = Graph(node_count=n, edges=frozenset(edges))
    infected = draw(st.sets(st.integers(0, n - 1), min_size=1))
    return g, infected, draw(small_rates(n))


@st.composite
def small_isolation(draw, p=None):
    """(g, infected, beta, delta, laws) with p phases, drawn from {1, 2,
    3} when not given: zero delta allowed, one Erlang law per node with
    its own mean, and for p > 1 its own backward move from the last
    phase to the first (none, half or 0.9 of the phase rate), which
    makes the law cyclic."""
    g, infected, beta = draw(small_graphs())
    n = g.node_count
    p = draw(st.sampled_from([1, 2, 3])) if p is None else p
    delta = draw(st.one_of(st.just(0.0), small_rates(n)))
    means = draw(st.lists(st.floats(0.2, 5.0), min_size=n, max_size=n))
    backs = draw(st.lists(st.sampled_from([0.0, 0.5, 0.9] if p > 1
                                          else [0.0]),
                          min_size=n, max_size=n))
    laws = []
    for m, back in zip(means, backs):
        pi = erlang(ErlangSpec(p, m)).Pi.copy()
        pi[-1, 0] += back * p / m
        laws.append(PhaseType(Pi=pi))
    return g, infected, beta, delta, laws


@st.composite
def small_systems(draw):
    """Plain or isolation systems on at most 4 nodes, p in {1, 2, 3},
    the isolation ones from `small_isolation`."""
    p = draw(st.sampled_from([None, 1, 2, 3]))
    if p is not None:
        g, infected, beta, delta, laws = draw(small_isolation(p))
        return isolation_system_from(g, infected, delta, laws, beta)
    g, infected, beta = draw(small_graphs())
    return build_sir_system(g, EpidemicParams.build(
        g.node_count, beta, draw(small_rates(g.node_count)), infected))


def mean_periods(laws, delta):
    """tau_k = u1^T (-(Pi_k - delta_k I))^{-1} 1, solved per law."""
    delta = np.broadcast_to(delta, (len(laws),))
    return np.array([np.linalg.solve(-(law.Pi - d * np.eye(law.p)),
                                     np.ones(law.p))[0]
                     for law, d in zip(laws, delta)])


_PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)


class TestSparseProperties:
    @_PROPERTY
    @given(small_systems())
    def test_finite_bound_carries_verifying_certificate(self, sys_):
        lb = lambda_bound(sys_)
        cert = certificate_for(sys_)
        assert math.isfinite(lb) == (cert is not None)
        if cert is not None:
            v, lam = cert
            assert verify_certificate(sys_, v, lam, slack=5e-7)
            assert lb <= lam

    @_PROPERTY
    @given(small_systems())
    def test_bound_matches_dense_reference(self, sys_):
        dense = sys_.matrix.toarray()
        abscissa = float(np.max(np.linalg.eigvals(dense).real))
        lb = lambda_bound(sys_)
        if not math.isfinite(lb):
            assert abscissa > -1e-6
            return
        assert abscissa < 1e-9
        ref = float(-sys_.weight_row @ np.linalg.solve(dense, sys_.initial))
        assert lb == pytest.approx(max(0.0, ref - sys_.sigma_I0), rel=1e-10,
                                   abs=1e-10 * sys_.sigma_I0)

    @_PROPERTY
    @given(small_systems())
    def test_hurwitz_same_on_sparse_and_dense(self, sys_):
        assert is_hurwitz_metzler(sys_.matrix) == \
            is_hurwitz_metzler(sys_.matrix.toarray())


class TestNodeForm:
    """Isolation systems are certified on the n x n node matrix M1 = K -
    diag(1/tau), with the certificate and the value lifted back node by
    node: so an isolation system and its plain twin, the plain system
    with delta_k = 1/tau_k, give the same bound."""

    @_PROPERTY
    @given(small_isolation())
    def test_the_mean_period_alone_decides_lambda(self, case):
        g, infected, beta, delta, laws = case
        iso = lambda_bound(isolation_system_from(g, infected, delta, laws,
                                                 beta))
        twin = lambda_bound(build_sir_system(g, EpidemicParams.build(
            g.node_count, beta, 1.0 / mean_periods(laws, delta), infected)))
        assert math.isfinite(iso) == math.isfinite(twin)
        if math.isfinite(iso):
            assert iso == pytest.approx(twin, rel=1e-12)

    @pytest.fixture(scope="class")
    def graph(self):
        return sparse2k()

    @staticmethod
    def counted(monkeypatch):
        """Records the length of every GMRES right-hand side and the
        matrix products each solve takes."""
        solves = []
        krylov = netsir.bound._krylov

        class Counting:
            def __init__(self, a):
                self.a, self.shape = a, a.shape

            def __matmul__(self, x):
                solves[-1][1] += 1
                return self.a @ x

        def counting(a, b, atol):
            solves.append([len(b), 0])
            return krylov(Counting(a), b, atol)
        monkeypatch.setattr(netsir.bound, "_krylov", counting)
        return solves

    @pytest.mark.parametrize("level", [0.5, 0.9, 0.99])
    def test_erlang3_at_the_plain_counts(self, graph, monkeypatch, level):
        # sparse2k's Erlang(3) system solves on 2000 unknowns, not 6000,
        # and takes at most two products more than its plain twin in
        # each solve; its bound is the twin's
        solves = self.counted(monkeypatch)
        g, infected, rho = graph
        n, law = g.node_count, erlang(ErlangSpec(3, 1.0))
        tau = mean_periods([law], 1.0)[0]
        iso = build_sir_system(g, EpidemicParams.build(
            n, level / (rho * tau), 1.0, infected, isolation=(law,) * n))
        twin = build_sir_system(g, EpidemicParams.build(
            n, level / (rho * tau), 1.0 / tau, infected))
        got = lambda_bound(iso)
        iso_solves, solves[:] = list(solves), []
        want = lambda_bound(twin)
        assert [length for length, _ in iso_solves] == [2000, 2000]
        assert [length for length, _ in solves] == [2000, 2000]
        for (_, mine), (_, plain) in zip(iso_solves, solves):
            assert mine <= plain + 2
        assert got == pytest.approx(want, rel=1e-12)
        v, lam = certificate_for(iso)
        assert verify_certificate(iso, v, lam, slack=5e-7)

    def test_bare_matrix_solves_on_itself(self, monkeypatch):
        # a system from a bare matrix, however it was made, solves on
        # that matrix: GMRES sees its n*p unknowns
        solves = self.counted(monkeypatch)
        built = isolation_system_from(TWO_NODE, [0], 0.2,
                                      [erlang(ErlangSpec(3, 1.0))] * 2, 0.4)
        bare = ComparisonSystem(matrix=built.matrix,
                                weight_row=built.weight_row,
                                initial=built.initial,
                                sigma_I0=built.sigma_I0)
        assert lambda_bound(bare) == pytest.approx(lambda_bound(built),
                                                   rel=1e-12)
        assert [length for length, _ in solves] == [6, 6, 2, 2]


@st.composite
def krylov_systems(draw):
    """(matrix, b, atol, closes): random nonsymmetric systems of at most
    60 unknowns, and systems whose Krylov space closes within a few
    steps (closes is True): a diagonal matrix with at most five distinct
    entries, b a multiple of a unit eigenvector, or b = 0."""
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["random", "diagonal", "eigenvector",
                                 "zero"]))
    a = rng.standard_normal((n, n)) / math.sqrt(n) \
        + draw(st.floats(-3.0, 3.0)) * np.eye(n)
    b = rng.standard_normal(n)
    if kind == "diagonal":
        values = rng.uniform(0.5, 3.0, size=5) * rng.choice([-1.0, 1.0], 5)
        a = np.diag(rng.choice(values, size=n))
    elif kind == "eigenvector":
        i = int(rng.integers(n))
        a[:, i] = 0.0
        a[i, i] = rng.uniform(0.5, 3.0) * rng.choice([-1.0, 1.0])
        b = np.zeros(n)
        b[i] = rng.uniform(-5.0, 5.0) or 1.0
    elif kind == "zero":
        b = np.zeros(n)
    rel = 10.0 ** draw(st.floats(-15.0 if kind == "random" else -10.0,
                                 -2.0))
    return (sp.csr_array(a), b, rel * max(float(np.linalg.norm(b)), 1.0),
            kind != "random")


class TestKrylovKernel:
    """The restarted GMRES kernel on its own: whatever it returns meets
    its tolerance, measured here from the returned x."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(krylov_systems())
    def test_returned_x_meets_atol(self, case):
        m, b, atol, closes = case
        x = netsir.bound._krylov(m, b, atol)
        if closes:
            assert x is not None
        if x is not None:
            assert np.linalg.norm(b - m @ x) <= atol
        if not b.any():
            assert x is not None and not x.any()

    def test_singular_system_is_none(self):
        # the first Hessenberg column is zero, so R is singular from the
        # start; the kernel gives up and the LU answers
        assert netsir.bound._krylov(sp.csr_array((3, 3)), np.ones(3),
                                    1e-8) is None
        assert is_hurwitz_metzler(sp.csr_array((1000, 1000)),
                                  tol=0.0) is False

    def test_two_passes_converge_on_a_graded_non_normal_matrix(self):
        # upper bidiagonal with diagonal 1 ... 1e10: one classical
        # Gram-Schmidt pass loses the basis's orthogonality here and the
        # kernel does not reach 1e-4 in three cycles; two passes reach
        # 1e-8 within the second cycle
        d = np.logspace(0, 10, 50)
        m = sp.csr_array(np.diag(d) + np.diag(d[:-1] / 2, 1))
        b = np.ones(50)
        atol = 1e-8 * np.linalg.norm(b)
        x = netsir.bound._krylov(m, b, atol)
        assert x is not None and np.linalg.norm(b - m @ x) <= atol


def social68(seed=68):
    """The bundled 68-node graph with 3 seeded random infected nodes,
    with its spectral radius."""
    g = load_edge_list((resources.files("netsir") / "data"
                        / "social68.txt").read_text())
    rng = np.random.default_rng(seed)
    infected = [int(i) for i in rng.choice(g.node_count, size=3,
                                           replace=False)]
    return g, infected, spectral_radius(g)


def sparse2k(seed=2000):
    """A seeded random graph with 2000 nodes, 6000 distinct edges and 10
    random infected nodes (the shape of the certify-sparse2k benchmark),
    with its spectral radius."""
    rng = np.random.default_rng(seed)
    n = 2000
    edges = set()
    while len(edges) < 3 * n:
        i, j = sorted(int(k) for k in rng.integers(0, n, size=2))
        if i != j:
            edges.add((i, j))
    g = Graph(node_count=n, edges=frozenset(edges))
    infected = [int(i) for i in rng.choice(n, size=10, replace=False)]
    return g, infected, spectral_radius(g)


_SPLU = spla.splu


class TestKrylovCertification:
    """Certification solves by GMRES, then checks, at every size; the LU
    runs only when Krylov fails, and it alone answers "unbounded".
    Counting LU calls guards the fast path without a timing assertion."""

    @pytest.fixture(scope="class")
    def graph(self):
        return sparse2k()

    @pytest.fixture(scope="class")
    def small_graph(self):
        return social68()

    @pytest.fixture
    def lu_calls(self, monkeypatch):
        calls = []

        def counting_splu(*args, **kwargs):
            calls.append(args[0].shape)
            return _SPLU(*args, **kwargs)
        monkeypatch.setattr(netsir.bound.spla, "splu", counting_splu)
        return calls

    @staticmethod
    def system(graph, mode, level):
        """beta puts the system at `level` of the epidemic threshold
        beta rho(A) E[infectious period] = 1, with delta = 1."""
        g, infected, rho = graph
        if mode == "plain":
            return build_sir_system(g, EpidemicParams.build(
                g.node_count, level / rho, 1.0, infected))
        law = erlang(ErlangSpec(int(mode[-1]), 1.0))
        period = mean(min_with_exponential(law, 1.0))
        return build_sir_system(g, EpidemicParams.build(
            g.node_count, level / (rho * period), 1.0, infected,
            isolation=(law,) * g.node_count))

    @pytest.mark.parametrize("mode, level", [("plain", 0.5), ("plain", 0.99),
                                             ("erlang3", 0.5)])
    def test_subcritical_certified_without_lu(self, graph, lu_calls, mode,
                                              level):
        self.certified_without_lu(self.system(graph, mode, level), lu_calls)

    @pytest.mark.parametrize("mode, level", [("plain", 0.5), ("plain", 0.999),
                                             ("erlang2", 0.5),
                                             ("erlang2", 0.999)])
    def test_social68_subcritical_certified_without_lu(self, small_graph,
                                                       lu_calls, mode, level):
        self.certified_without_lu(self.system(small_graph, mode, level),
                                  lu_calls)

    @staticmethod
    def certified_without_lu(sys_, lu_calls):
        lb = lambda_bound(sys_)
        v, lam = certificate_for(sys_)
        assert lu_calls == []
        assert verify_certificate(sys_, v, lam, slack=5e-7)
        x = _SPLU(sys_.matrix.tocsc(), permc_spec="MMD_AT_PLUS_A") \
            .solve(sys_.initial)
        ref = float(-sys_.weight_row @ x) - sys_.sigma_I0
        assert lb == pytest.approx(ref, rel=1e-10)
        assert lb <= lam

    @_PROPERTY
    @given(small_systems())
    def test_lu_fallback_on_small_systems(self, sys_):
        # with no GMRES cycle `_krylov` returns None, so the LU alone
        # certifies and gives the value, checked against a dense reference
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(netsir.bound, "_CYCLES", 0)
            lb = lambda_bound(sys_)
            cert = certificate_for(sys_)
            hurwitz = is_hurwitz_metzler(sys_.matrix)
        assert hurwitz == is_hurwitz_metzler(sys_.matrix)
        assert math.isfinite(lb) == (cert is not None)
        dense = sys_.matrix.toarray()
        abscissa = float(np.max(np.linalg.eigvals(dense).real))
        if cert is None:
            assert abscissa > -1e-6
            return
        v, lam = cert
        assert verify_certificate(sys_, v, lam, slack=5e-7)
        assert lb <= lam
        ref = float(-sys_.weight_row @ np.linalg.solve(dense, sys_.initial))
        assert lb == pytest.approx(max(0.0, ref - sys_.sigma_I0), rel=1e-10,
                                   abs=1e-10 * sys_.sigma_I0)

    def test_capped_krylov_falls_back_to_one_lu(self, graph, lu_calls,
                                                monkeypatch):
        # two steps and one cycle cannot reach the certificate's
        # tolerance, so the LU alone both certifies and gives the value
        sys_ = self.system(graph, "plain", 0.5)
        monkeypatch.setattr(netsir.bound, "_RESTART", 2)
        monkeypatch.setattr(netsir.bound, "_CYCLES", 1)
        rhs = -(sys_.weight_row + 1e-6)
        assert netsir.bound._krylov(sys_.matrix.T, rhs, 2.5e-7) is None
        lb = lambda_bound(sys_)
        assert lu_calls == [sys_.matrix.shape]
        x = _SPLU(sys_.matrix.tocsc(), permc_spec="MMD_AT_PLUS_A") \
            .solve(sys_.initial)
        ref = float(-sys_.weight_row @ x) - sys_.sigma_I0
        assert lb == pytest.approx(ref, rel=1e-10)

    def test_value_miss_returns_the_certified_value(self, graph,
                                                    monkeypatch):
        # GMRES certifies, then misses a value target no solve can meet:
        # the certified value comes back and nothing is factored
        sys_ = self.system(graph, "plain", 0.9)
        x = _SPLU(sys_.matrix.tocsc(), permc_spec="MMD_AT_PLUS_A") \
            .solve(sys_.initial)
        ref = float(-sys_.weight_row @ x) - sys_.sigma_I0

        def no_factor(sys):
            raise AssertionError("the value solve factored M")
        monkeypatch.setattr(netsir.bound, "_VALUE_RTOL", 1e-30)
        monkeypatch.setattr(netsir.bound, "_factor", no_factor)
        lb = lambda_bound(sys_)
        assert lb == certificate_for(sys_)[1]
        assert lb >= ref

    def test_supercritical_unbounded_from_one_lu(self, graph, lu_calls):
        self.unbounded_from_one_lu(self.system(graph, "plain", 1.5), lu_calls)

    def test_erlang3_supercritical_unbounded_from_one_node_lu(self, graph,
                                                              lu_calls):
        # the 6000-unknown system's LU factors its 2000 x 2000 node matrix
        sys_ = self.system(graph, "erlang3", 1.5)
        assert sys_.dim == 6000
        self.unbounded_from_one_lu(sys_, lu_calls, shape=(2000, 2000))

    @pytest.mark.parametrize("mode", ["plain", "erlang2"])
    def test_social68_supercritical_unbounded_from_one_lu(self, small_graph,
                                                         lu_calls, mode):
        # the isolation system's LU factors its 68 x 68 node matrix
        self.unbounded_from_one_lu(self.system(small_graph, mode, 1.5),
                                   lu_calls, shape=(68, 68))

    @staticmethod
    def unbounded_from_one_lu(sys_, lu_calls, shape=None):
        shape = shape or sys_.matrix.shape
        assert lambda_bound(sys_) is UNBOUNDED
        assert lu_calls == [shape]
        assert certificate_for(sys_) is None
        assert lu_calls == [shape] * 2


def test_comparison_system_validation():
    with pytest.raises(ValueError):
        ComparisonSystem(matrix=np.array([[-1.0, -0.2], [0.0, -1.0]]),
                         weight_row=np.ones(2), initial=np.ones(2), sigma_I0=1)
    with pytest.raises(ValueError):
        ComparisonSystem(matrix=-np.eye(2), weight_row=np.ones(3),
                         initial=np.ones(2), sigma_I0=1)


def test_huge_rates_are_unbounded_without_overflow_warnings():
    """GMRES overflows on entries near the float range; that try fails
    its checks quietly and the LU answers."""
    sys_ = build_sir_system(load_edge_list("0 1\n1 2\n"),
                            EpidemicParams.build(3, 1e300, 0.5, [0]))
    assert lambda_bound(sys_) is UNBOUNDED
