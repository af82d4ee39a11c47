import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netsir import (EdgeListParseError, Graph, GraphValidationError,
                    degrees, dump_edge_list, load_edge_list, spectral_radius)
from conftest import random_graph


def star(k):
    return load_edge_list("\n".join(f"0 {i}" for i in range(1, k + 1)))


class TestLoadEdgeList:
    def test_path_graph(self):
        g = load_edge_list("0 1\n1 2")
        assert g.node_count == 3
        assert g.edges == frozenset({(0, 1), (1, 2)})

    def test_symmetric_duplicate_collapses(self):
        g = load_edge_list("0 1\n1 0")
        assert g.edges == frozenset({(0, 1)})

    def test_header_fixes_trailing_isolated_nodes(self):
        g = load_edge_list("n 5\n0 1")
        assert g.node_count == 5
        assert degrees(g).tolist() == [1, 1, 0, 0, 0]

    def test_comments_and_blank_lines(self):
        g = load_edge_list("# graph\n\n0 1  # edge\n")
        assert g.edges == frozenset({(0, 1)})

    def test_accepts_file_like(self):
        g = load_edge_list(io.StringIO("0 1\n"))
        assert g.node_count == 2

    def test_malformed_line_reports_number(self):
        with pytest.raises(EdgeListParseError) as err:
            load_edge_list("0 1\nnope\n")
        assert err.value.line_no == 2

    def test_self_loop_rejected(self):
        with pytest.raises(EdgeListParseError):
            load_edge_list("2 2")

    def test_header_too_small(self):
        with pytest.raises(EdgeListParseError):
            load_edge_list("n 2\n0 5")

    def test_direct_construction_validates(self):
        with pytest.raises(GraphValidationError):
            Graph(node_count=2, edges=frozenset({(1, 1)}))

    def test_bundled_social_graph(self):
        from importlib import resources
        text = (resources.files("netsir") / "data" / "social68.txt").read_text()
        g = load_edge_list(text)
        assert g.node_count == 68
        assert abs(spectral_radius(g) - 10.61) < 0.05

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 20), st.integers(0, 10_000))
    def test_dump_load_roundtrip(self, n, seed):
        g = random_graph(np.random.default_rng(seed), n, edge_prob=0.3)
        text = dump_edge_list(g)
        assert load_edge_list(text) == g
        assert dump_edge_list(load_edge_list(text)) == text


class TestSpectralRadius:
    def test_single_edge(self):
        assert spectral_radius(load_edge_list("0 1")) == pytest.approx(1.0)

    def test_star_closed_form(self):
        # rho of a k-leaf star is sqrt(k); cross-check by dense solve
        g = star(9)
        rho = spectral_radius(g)
        assert rho == pytest.approx(3.0, abs=1e-8)
        dense = np.max(np.abs(np.linalg.eigvalsh(g.adjacency_matrix())))
        assert rho == pytest.approx(dense, abs=1e-8)

    def test_triangle(self):
        g = load_edge_list("0 1\n1 2\n0 2")
        assert spectral_radius(g) == pytest.approx(2.0, abs=1e-8)

    def test_edgeless_exact_zero(self):
        g = Graph(node_count=4, edges=frozenset())
        assert spectral_radius(g) == 0.0

    def test_bipartite_converges(self):
        # even cycle: spectrum is symmetric, the A+I shift still converges
        g = load_edge_list("0 1\n1 2\n2 3\n3 0")
        assert spectral_radius(g) == pytest.approx(2.0, abs=1e-8)

    def test_degree_sandwich_against_dense_oracle(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 50))
            g = random_graph(rng, n, edge_prob=float(rng.uniform(0.1, 0.9)))
            if not g.edges:
                continue
            rho = spectral_radius(g)
            deg = degrees(g)
            assert rho >= deg.mean() - 1e-8
            assert rho <= deg.max() + 1e-8
            dense = np.max(np.abs(np.linalg.eigvalsh(g.adjacency_matrix())))
            assert rho == pytest.approx(dense, abs=1e-7)


class TestDegrees:
    def test_path(self):
        assert degrees(load_edge_list("0 1\n1 2")).tolist() == [1, 2, 1]

    def test_edgeless(self):
        assert degrees(Graph(node_count=3, edges=frozenset())).tolist() == [0, 0, 0]

    def test_star(self):
        d = degrees(star(9))
        assert d[0] == 9
        assert set(d[1:]) == {1}
