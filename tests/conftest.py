import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import strategies as st

from netsir import EpidemicParams, ErlangSpec, Graph, PhaseType, erlang


def random_graph(rng: np.random.Generator, n: int, edge_prob: float = 0.6) -> Graph:
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                edges.add((i, j))
    return Graph(node_count=n, edges=frozenset(edges))


def spectral_radius(g: Graph) -> float:
    """Spectral radius of the adjacency matrix: its largest eigenvalue,
    by ARPACK's Lanczos iteration from the uniform start vector. Returns
    exactly 0.0 for edgeless graphs."""
    if not g.edge_count:
        return 0.0
    return float(spla.eigsh(g.adjacency_sparse(), k=1, which="LA",
                            v0=np.ones(g.node_count))[0][0])


def random_instance(rng: np.random.Generator, n: int,
                    rate_lo: float = 0.05, rate_hi: float = 1.0):
    """Random graph, rates and a non-empty infected set."""
    g = random_graph(rng, n)
    beta = rng.uniform(rate_lo, rate_hi, size=n)
    delta = rng.uniform(rate_lo, rate_hi, size=n)
    k = int(rng.integers(1, n))
    infected = frozenset(int(i) for i in rng.choice(n, size=k, replace=False))
    params = EpidemicParams(beta=beta, delta=delta, initially_infected=infected)
    return g, params


@st.composite
def small_instances(draw, max_nodes=4):
    """At most max_nodes nodes; plain, or isolation with p in {1, 2, 3}
    whose last phase may return to phase 1, giving a law with cycles."""
    n = draw(st.integers(1, max_nodes))
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


def ks_statistic(samples: np.ndarray, cdf_values_at_sorted: np.ndarray) -> float:
    """Two-sided KS distance between an empirical sample and a model CDF
    already evaluated at the sorted sample points."""
    n = len(samples)
    i = np.arange(1, n + 1)
    f = cdf_values_at_sorted
    return float(max(np.max(i / n - f), np.max(f - (i - 1) / n)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
