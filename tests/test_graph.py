import io
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netsir import (EdgeListParseError, Graph, GraphValidationError,
                    degrees, dump_edge_list, load_edge_list)
from netsir.graph import MAX_NODES
from conftest import random_graph, spectral_radius
from graph_reference import reference_load_edge_list, reference_neighbor_lists


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


def _has_field(line: str) -> bool:
    return bool(line.split("#", 1)[0].strip())


_PAD = st.sampled_from(["", " ", "\t", "  \t"])
_SEP = st.sampled_from([" ", "\t", "   ", " \t "])
_NOTE = st.text(st.characters(exclude_categories=("Cc", "Cs", "Zl", "Zp")),
                max_size=6).map(lambda s: " # " + s)


@st.composite
def _node(draw, i):
    """Node id i as a decimal token, with leading zeros or a sign."""
    form = draw(st.sampled_from(["{}", "0{}", "+{}", "00{}"]))
    return "-0" if i == 0 and draw(st.booleans()) else form.format(i)


@st.composite
def edge_list_lines(draw):
    """The lines of a valid edge-list text: pairs repeated and reversed,
    blank and comment lines, trailing comments, spaces and tabs, and an
    optional header that may add isolated nodes past the largest id."""
    n = draw(st.integers(2, 12))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1))
                          .filter(lambda p: p[0] != p[1]), max_size=20))
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=4)
                  .map(lambda ps: [p[::-1] for p in ps])) if pairs else []
    lines = []
    for i, j in pairs:
        lines.append(draw(_PAD) + draw(_node(i)) + draw(_SEP)
                     + draw(_node(j)) + draw(_PAD)
                     + draw(st.one_of(st.just(""), _NOTE)))
        lines += draw(st.lists(st.one_of(_PAD, _NOTE.map(str.lstrip)),
                               max_size=1))
    if not pairs or draw(st.booleans()):
        top = max((max(p) for p in pairs), default=0)
        lines.insert(0, draw(_PAD) + "n" + draw(_SEP)
                     + str(top + 1 + draw(st.integers(0, 3))))
    lines[:0] = draw(st.lists(st.one_of(_PAD, _NOTE.map(str.lstrip)),
                              max_size=2))
    return lines


@st.composite
def edge_list_texts(draw):
    """A valid edge-list text, with LF or CRLF line ends."""
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(draw(edge_list_lines())) + draw(st.sampled_from(["", end]))


_FORMS = {"str": str, "file": io.StringIO,
          "lines": lambda text: text.splitlines(keepends=True),
          # numpy's reader takes no unit separator, so this form reads
          # every text line by line
          "unit-separator": lambda text: re.sub("[ \t]", "\x1f", text)}


_DEFECTS = ["0 x", "x 1", "1.5 2", "0 0x1", "5", "1 2 3", "-1 2", "3 -04",
            "3 3", "07 7", "n 5", "n x", "n 2.5", "n", "n 1 2", "n 0", "n -3",
            "+-1 2", "1- 2", "0 --3", "+ 1"]


@st.composite
def defective_lines(draw):
    """Valid lines with one to three defects: bad lines from _DEFECTS
    (a valid "n 5" goes after the first line with a field, where it is
    late or repeated), or a header too small for the edges."""
    lines = draw(edge_list_lines())
    for _ in range(draw(st.integers(1, 3))):
        defect = draw(st.sampled_from(_DEFECTS + ["small header"]))
        fields = [k for k, line in enumerate(lines) if _has_field(line)]
        if defect == "small header":
            data = [line.split("#")[0] for line in lines
                    if _has_field(line) and "n" not in line.split("#")[0]]
            top = max([int(tok) for tok in " ".join(data).split()
                       if re.fullmatch("[+-]?[0-9]+", tok)], default=0)
            if top < 1:     # no edges to be too small for
                lines.append("3 3")
                continue
            lines = [line for line in lines
                     if not line.split("#")[0].strip().startswith("n")]
            lines.insert(0, f"n {draw(st.integers(1, top))}")
            continue
        lo = fields[0] + 1 if defect == "n 5" else 0
        lines.insert(draw(st.integers(lo, len(lines))), defect)
    return lines


def _outcome(parse, text):
    try:
        g = parse(text)
    except EdgeListParseError as err:
        return "error", str(err), err.line_no
    return "graph", g, dump_edge_list(g)


class TestParserAgainstReference:
    """The array parser against the per-line reference parser."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(edge_list_texts(), st.sampled_from(sorted(_FORMS)))
    def test_valid_texts_parse_alike(self, text, form):
        """Handed over as a string, a file or a list of lines."""
        ref = reference_load_edge_list(_FORMS[form](text))
        g = load_edge_list(_FORMS[form](text))
        assert g == ref and g.edges == ref.edges
        assert dump_edge_list(g) == dump_edge_list(ref)
        assert g.neighbor_lists == reference_neighbor_lists(ref)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(defective_lines(), st.sampled_from(["\n", "\r\n"]))
    def test_defects_raise_alike(self, lines, end):
        text = end.join(lines)
        expected = _outcome(reference_load_edge_list, text)
        assert expected[0] == "error"
        assert _outcome(load_edge_list, text) == expected

    def test_first_bad_line_is_reported(self):
        for text, line_no in (("0 x\n1 1\n", 1), ("0 1\n2 2\nfoo\n", 2),
                              ("n 3\n0 1\n\n0 -1\nn 4\n1\n", 4)):
            with pytest.raises(EdgeListParseError) as err:
                load_edge_list(text)
            assert err.value.line_no == line_no

    def test_signs_and_leading_zeros(self):
        text = "n +4\n+1 -0\n002 01\n"
        assert load_edge_list(text) == reference_load_edge_list(text)
        assert load_edge_list(text).edges == frozenset({(0, 1), (1, 2)})

    @pytest.mark.parametrize("text", ["1_000 2", "0 \u0663", "\uff11 2",
                                      "0\u00a01", "0 1\u2003",
                                      ["0 1\u2003\n"]],
                             ids=["underscore", "arabic-indic", "fullwidth",
                                  "nbsp", "em-space", "em-space-item"])
    def test_only_ascii_digits_and_separators(self, text):
        """int() and str.split() take these, so the per-line parser did;
        the array parser reads ASCII digits, signs, spaces and tabs
        only."""
        reference_load_edge_list(text)
        with pytest.raises(EdgeListParseError) as err:
            load_edge_list(text)
        assert err.value.line_no == 1

    def test_large_digits_in_every_place(self):
        """Ids and counts whose digits times their place values pass
        2**8, 2**16 and 2**32, so the place-value sum must not be done
        in narrow integers."""
        text = "n 2000000000\n0 399\n1 78999\n2 1999999999\n3 987654321\n"
        g = load_edge_list(text)
        assert g == reference_load_edge_list(text)
        assert g.node_count == 2_000_000_000
        assert g.edges == frozenset({(0, 399), (1, 78999), (2, 1999999999),
                                     (3, 987654321)})
        assert dump_edge_list(g) == text
        with pytest.raises(EdgeListParseError, match="exceeds") as err:
            load_edge_list("n 5000000000\n0 1\n")
        assert err.value.line_no == 1

    @pytest.mark.parametrize("inner", ["\n", "\r", "\u2028", "\x1c"])
    def test_list_item_is_one_line(self, inner):
        """An item of a list of lines loses only its trailing line
        break; a break inside it stays on that line, as it did in the
        per-line parser, so later line numbers do not shift."""
        items = ["0 1\n", f"1 2{inner}2 3\n", "x\n"]
        assert _outcome(load_edge_list, items) == _outcome(
            reference_load_edge_list, items) == (
            "error", f"line 2: expected 'i j', got {f'1 2{inner}2 3'!r}", 2)

    @pytest.mark.parametrize("text", [
        "0\v1\n", "0\f1\n", "0\x1c1\n", "0\r1\n", "0 1\r\r\n5\r\n",
        "0 1 # c\r1 2\n", "0 1 # c\v1 2\n", "0 1 # c\u20281 2\n",
        ["0 1\n", "1 2\n2 3\n"], "0 \ud800\n"],
        ids=["vt", "ff", "fs", "cr", "cr-crlf", "comment-cr", "comment-vt",
             "comment-ls", "item-break", "lone-surrogate"])
    def test_near_plain_texts(self, text):
        """Texts a character away from plain. numpy's reader takes \\v,
        \\f and \\x1c for spaces, and a comment or a list item must end
        at its own line's end, so each of these must end as the per-line
        parser ends."""
        assert _outcome(load_edge_list, text) == _outcome(
            reference_load_edge_list, text)

    def test_byte_order_mark_is_not_a_digit(self):
        """A byte order mark left in a string is refused, as it was; the
        command line skips one at the start of a file."""
        text = "\ufeff0 1"
        assert _outcome(load_edge_list, text) == _outcome(
            reference_load_edge_list, text) == (
            "error", f"line 1: non-integer endpoint in {text!r}", 1)


    @pytest.mark.parametrize("text", ["0 1\n2 " + "x" * 100_000,
                                      "n " + "x" * 1000,
                                      "0 1\n" + "1 2 " * 1000],
                             ids=["endpoint", "count", "fields"])
    def test_error_quotes_a_clipped_line(self, text):
        """A refused line or token is quoted up to 40 characters, then
        cut with an ellipsis, so the error stays one short line."""
        expected = _outcome(reference_load_edge_list, text)
        assert _outcome(load_edge_list, text) == expected
        assert "..." in expected[1] and len(expected[1]) < 100


class TestNodeLimit:
    def test_refused_before_anything_of_size_n(self):
        huge = 10_000_000_000
        tracemalloc.start()
        try:
            with pytest.raises(EdgeListParseError) as err:
                load_edge_list(f"n {huge}\n0 1\n")
            with pytest.raises(GraphValidationError, match="exceeds"):
                Graph(node_count=huge, edges=frozenset({(0, 1)}))
            with pytest.raises(EdgeListParseError, match="exceeds"):
                load_edge_list(f"0 {MAX_NODES}\n")
            # at the limit a graph is its edges: the adjacency waits
            g = load_edge_list(f"n {MAX_NODES}\n0 1\n")
            assert g.node_count == MAX_NODES and g.edge_count == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert err.value.line_no == 1
        assert str(err.value) == (f"line 1: node count {huge} exceeds the "
                                  f"limit {MAX_NODES}")
        assert peak < 1_000_000

    def test_million_digit_count_is_clipped(self):
        with pytest.raises(EdgeListParseError) as err:
            load_edge_list("n " + "9" * 10**6)
        assert err.value.line_no == 1
        assert str(err.value) == (f"line 1: node count {'9' * 40}... exceeds "
                                  f"the limit {MAX_NODES}")

    def test_endpoint_below_the_limit_parses(self):
        g = load_edge_list(f"0 {MAX_NODES - 1}\n")
        assert g.node_count == MAX_NODES

    def test_twenty_digit_ids(self):
        """A 20-digit id overflows int64, so numpy's reader refuses it
        and the per-line reader words the error; zero-padded to 20
        digits, an id is just its value."""
        with pytest.raises(EdgeListParseError) as err:
            load_edge_list("n 5\n0 1\n2 99999999999999999999\n")
        assert err.value.line_no == 3
        assert str(err.value) == (f"line 3: node index 99999999999999999999 "
                                  f"exceeds the limit {MAX_NODES - 1}")
        g = load_edge_list("n 5\n0 00000000000000000001\n")
        assert g.node_count == 5 and g.edges == frozenset({(0, 1)})


class TestArrays:
    def test_array_input_matches_pairs(self):
        pairs = [(0, 2), (1, 3), (0, 2), (0, 1)]
        g = Graph(node_count=4, edges=np.array(pairs))
        assert g == Graph(node_count=4, edges=frozenset(pairs))
        assert g.edge_array.tolist() == [[0, 1], [0, 2], [1, 3]]
        assert g.edge_count == 3 and hash(g) == hash(load_edge_list(
            "0 1\n2 0\n3 1\n"))

    @pytest.mark.parametrize("edges, message", [
        ([(1, 1)], "self-loop at node 1"),
        ([(2, 1)], "not canonical"), ([(0, 4)], "out of range"),
        ([(-1, 2)], "out of range"), ([(0, 1, 2)], "pairs"),
        ([(0.5, 1.0)], "pairs"), ([(0, 1), (0, 1, 2)], "pairs")])
    def test_validation(self, edges, message):
        with pytest.raises(GraphValidationError, match=message):
            Graph(node_count=4, edges=edges)

    def test_read_only_and_cached(self):
        g = load_edge_list("0 1\n1 2\n")
        a = g.adjacency_sparse()
        assert a is g.adjacency_sparse()
        for arr in (g.edge_array, a.data, a.indices, a.indptr):
            with pytest.raises(ValueError):
                arr[0] = 5
        with pytest.raises(AttributeError):
            g.node_count = 7

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(st.integers(1, 30), st.floats(0.0, 1.0), st.integers(0, 10_000))
    def test_csr_is_the_sorted_neighbour_lists(self, n, p, seed):
        g = random_graph(np.random.default_rng(seed), n, edge_prob=p)
        a = g.adjacency_sparse()
        nbrs = reference_neighbor_lists(g)
        assert a.indices.tolist() == [j for js in nbrs for j in js]
        assert a.indptr.tolist() == np.cumsum(
            [0] + [len(js) for js in nbrs]).tolist()
        assert (a != a.T).nnz == 0 and a.data.tolist() == [1.0] * a.nnz
        assert np.array_equal(g.adjacency_matrix(), a.toarray())
        assert degrees(g).tolist() == [len(js) for js in nbrs]
