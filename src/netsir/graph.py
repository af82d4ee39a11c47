"""Undirected simple graphs held as arrays: edge-list ingestion and
adjacency access.

A `Graph` is its node count and its canonical edges, an (m, 2) int32
array of pairs i < j, sorted and unique. Every adjacency view comes
from one CSR matrix, built from those pairs on first use and cached:
the neighbour lists, the dense matrix and the degrees all read it.
`load_edge_list` hands a plain edge-list text (an optional header, then
only digits, signs and blank space) to numpy's C reader, and reads any
other text, or one that breaks a rule, line by line; both give the same
graph, and the per-line reader words every error.
"""

from __future__ import annotations

import io
import operator
import re
import warnings
from functools import cached_property

import numpy as np
import scipy.sparse as sp

# The CSR matrix indexes nodes in int32: at most 2**31 - 1 of them.
MAX_NODES = 2 ** 31 - 1


class EdgeListParseError(ValueError):
    """Malformed edge-list input; carries the offending line number."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class GraphValidationError(ValueError):
    pass


class Graph:
    """Immutable undirected simple graph on nodes 0..node_count-1.

    `Graph(node_count=, edges=)` takes any iterable of (i, j) pairs with
    0 <= i < j < node_count, or an (m, 2) integer array of them; a pair
    given twice counts once. No self-loops, and at most `MAX_NODES`
    nodes. `edge_array` holds the pairs sorted, unique and read-only;
    `edges` is the same set as a frozenset of tuples, made on first use.
    Two graphs are equal when their node counts and edge arrays are.
    """

    def __init__(self, node_count: int, edges):
        n = operator.index(node_count)
        if n < 1:
            raise GraphValidationError("graph needs at least one node")
        if n > MAX_NODES:
            raise GraphValidationError(
                f"node count {n} exceeds the limit {MAX_NODES}")
        try:
            pairs = np.array(edges if isinstance(edges, np.ndarray)
                             else list(edges))
        except ValueError:      # ragged input
            raise GraphValidationError(
                "edges must be pairs of integer nodes") from None
        if pairs.size == 0:
            pairs = np.empty((0, 2), dtype=np.int32)
        elif pairs.ndim != 2 or pairs.shape[1] != 2 \
                or pairs.dtype.kind not in "iu":
            raise GraphValidationError("edges must be pairs of integer nodes")
        i, j = pairs.T
        bad = (i < 0) | (i >= j) | (j >= n)
        if bad.any():
            e = tuple(pairs[np.argmax(bad)].tolist())
            if e[0] == e[1]:
                raise GraphValidationError(f"self-loop at node {e[0]}")
            raise GraphValidationError(
                f"edge {e} out of range or not canonical")
        # i * 2**32 + j orders the pairs as (i, j) does, and is exact in
        # int64 because every node id is below 2**31. numpy's stable sort
        # of int64 is timsort, quickest on sorted input such as the lists
        # `dump_edge_list` writes. (np.unique does the same but, in numpy
        # 2.4, takes twenty times as long on a few thousand keys.)
        key = np.sort(pairs[:, 0].astype(np.int64) << 32
                      | pairs[:, 1].astype(np.int64), kind="stable")
        key = key[np.diff(key, prepend=-1) != 0]
        pairs = np.column_stack([key >> 32, key & 0xFFFFFFFF]).astype(np.int32)
        pairs.flags.writeable = False
        object.__setattr__(self, "node_count", n)
        object.__setattr__(self, "edge_array", pairs)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __delattr__(self, name):
        raise AttributeError("Graph is immutable")

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.node_count == other.node_count \
            and np.array_equal(self.edge_array, other.edge_array)

    def __hash__(self):
        return hash((self.node_count, self.edge_array.tobytes()))

    def __repr__(self):
        return (f"Graph(node_count={self.node_count}, "
                f"edge_count={self.edge_count})")

    @property
    def edge_count(self) -> int:
        return len(self.edge_array)

    @cached_property
    def edges(self) -> frozenset:
        return frozenset(zip(*self.edge_array.T.tolist()))

    @cached_property
    def neighbor_lists(self) -> tuple:
        """Each node's neighbours, ascending: the rows of the CSR matrix."""
        a = self.adjacency_sparse()
        cols, ptr = a.indices.tolist(), a.indptr.tolist()
        return tuple(map(cols.__getitem__, map(slice, ptr[:-1], ptr[1:])))

    def adjacency_matrix(self) -> np.ndarray:
        """The dense 0/1 adjacency matrix, a fresh copy of the CSR one."""
        return self.adjacency_sparse().toarray()

    def adjacency_sparse(self) -> sp.csr_array:
        """The symmetric 0/1 adjacency as one CSR matrix, built on first
        call and shared by every later one: its column indices are
        sorted in each row and its arrays are read-only."""
        return self._adjacency

    @cached_property
    def _adjacency(self) -> sp.csr_array:
        n, (i, j) = self.node_count, self.edge_array.T
        # scipy's COO -> CSR conversion groups the entries by row in their
        # given order, then sorts each row's columns if they are out of
        # order. With j -> i before i -> j they are in order (the sorted
        # pairs give row r the columns below r, then those above), so that
        # sort, and the code it pulls in, is skipped.
        a = sp.csr_array((np.ones(2 * len(i)), (np.concatenate([j, i]),
                                                 np.concatenate([i, j]))),
                         shape=(n, n))
        for arr in (a.data, a.indices, a.indptr):
            arr.flags.writeable = False
        return a


_ENDS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"   # str.splitlines' breaks
_COMMENT = re.compile(f"#[^{_ENDS}]*")
_SPACES = re.compile("[ \t\x1f]+")      # what separates a line's fields
_INTEGER = re.compile("[+-]?[0-9]+")
# A plain text: blank lines, an optional header line, blank space, and
# then only the bytes of _PLAIN
_HEAD = re.compile("[ \t\n]*(?:n[ \t]+([+-]?[0-9]+)[ \t]*\n[ \t\n]*)?")
_PLAIN = b"0123456789+- \t\n"
_BIG = 10 ** 10     # more than any node count: magnitudes past it read as it
_ECHO = 40          # the most characters of a token or line an error quotes


def load_edge_list(text) -> Graph:
    """Parse an edge-list text into a Graph.

    Accepts a string, a file-like object or an iterable of lines, where
    each item is one line: its trailing line break is dropped, and any
    other line break in it is a character of that line. One "i j" pair
    per line, optional "n <count>" header fixing the node count, '#'
    starts a comment. Fields are separated by ASCII spaces, tabs or unit
    separators (\\x1f); a node id or count is ASCII decimal digits with
    an optional sign. Edges are deduplicated and symmetrized. The first
    bad line raises `EdgeListParseError` with its number; an empty list
    without a header, or a header too small for the edges, raises it at
    line 0.

    Two readers share that language. A plain text (past an optional
    header, nothing outside its comments but ASCII digits, signs,
    spaces, tabs and newlines) goes to numpy's C reader. A text that
    reader refuses, or one with a pair that breaks a rule, goes on to
    the per-line reader, which also reads every other text and words
    each error.
    """
    if hasattr(text, "read"):
        text = text.read()
    if isinstance(text, str):
        lines, body = None, text.replace("\r\n", "\n")
    else:
        # an item is one line, so a "\n" inside it must not start another;
        # as "\r" it keeps the text from numpy's reader
        lines = [line.rstrip(_ENDS) for line in text]
        body = "\n".join(line.replace("\n", "\r") for line in lines)
    return _graph(*(_read_plain(_COMMENT.sub("", body)) or _read_lines(
        text.splitlines() if lines is None else lines)))


def _read_plain(text: str):
    """The header count (or None) and the (m, 2) int64 pairs of a
    comment-free text, by numpy's reader; None unless the text is plain,
    holds a pair and keeps every rule."""
    head = _HEAD.match(text)
    if not text.isascii() or head.end() == len(text):
        return None
    data = text.encode()
    # numpy's reader splits fields on any Unicode space, so only a text
    # of these bytes (and the header's "n") may reach it
    if data.translate(None, _PLAIN) != (b"n" if head[1] else b""):
        return None
    n = head[1] and _integer(head[1])
    if n is not None and not 1 <= n <= MAX_NODES:
        return None
    file = io.BytesIO(data)
    file.seek(head.end())
    with warnings.catch_warnings():
        # older numpy (1.24 among them) reads an int64 overflow as a
        # float, with this warning; as an error it sends the text on
        warnings.simplefilter("error", DeprecationWarning)
        try:
            pairs = np.loadtxt(file, dtype=np.int64, ndmin=2)
        except (ValueError, DeprecationWarning):
            return None
    if pairs.shape[1] != 2 or pairs.min() < 0 or pairs.max() >= MAX_NODES \
            or (pairs[:, 0] == pairs[:, 1]).any():
        return None
    return n, pairs


def _read_lines(lines) -> tuple:
    """The header count (or None) and the (m, 2) int64 pairs of a text,
    one line at a time; the first bad line raises its error."""
    n, pairs = None, []
    for line_no, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip(" \t\x1f")
        if not line:
            continue
        parts = _SPACES.split(line)
        if parts[0] == "n":
            count = _integer(parts[1]) if len(parts) == 2 else None
            if pairs or n is not None:
                error = "header 'n <count>' must come first"
            elif len(parts) != 2:
                error = "header must be 'n <count>'"
            elif count is None:
                error = f"bad node count {_clip(parts[1])!r}"
            elif count < 1:
                error = "node count must be positive"
            elif count > MAX_NODES:
                error = (f"node count {_clip(parts[1])} exceeds the limit "
                         f"{MAX_NODES}")
            else:
                n = count
                continue
        else:
            i, j = map(_integer, parts) if len(parts) == 2 else (None, None)
            if len(parts) != 2:
                error = f"expected 'i j', got {_clip(line)!r}"
            elif i is None or j is None:
                error = f"non-integer endpoint in {_clip(line)!r}"
            elif i < 0 or j < 0:
                error = "negative node index"
            elif max(i, j) >= MAX_NODES:
                error = (f"node index {_clip(parts[int(j > i)])} exceeds the "
                         f"limit {MAX_NODES - 1}")
            elif i == j:
                error = f"self-loop at node {i}"
            else:
                pairs.append((i, j))
                continue
        raise EdgeListParseError(error, line_no)
    return n, np.array(pairs, dtype=np.int64).reshape(-1, 2)


def _graph(n, pairs: np.ndarray) -> Graph:
    """The graph of checked pairs, on the header's n nodes or on one
    past the largest id."""
    top = int(pairs.max()) if len(pairs) else -1
    if n is None:
        if top < 0:
            raise EdgeListParseError("empty edge list and no 'n' header", 0)
        n = top + 1
    elif top >= n:
        raise EdgeListParseError(f"edge references node {top} but header "
                                 f"declares n={n}", 0)
    i, j = pairs.T
    return Graph(node_count=n,
                 edges=np.column_stack([np.minimum(i, j), np.maximum(i, j)]))


def _clip(text: str) -> str:
    """`text`, or its first _ECHO characters and an ellipsis, so that an
    error stays one short line."""
    return text if len(text) <= _ECHO else text[:_ECHO] + "..."


def _integer(token: str):
    """The value of a decimal token, or None; magnitudes past _BIG read
    as _BIG, so a token of any length converts in bounded time."""
    if not _INTEGER.fullmatch(token):
        return None
    digits = token.lstrip("+-").lstrip("0")
    magnitude = min(int(digits[:11] or "0"), _BIG)
    return -magnitude if token[0] == "-" else magnitude


def dump_edge_list(g: Graph) -> str:
    """Serialize a Graph; load(dump(g)) reconstructs g exactly."""
    return "\n".join([f"n {g.node_count}",
                      *map("{} {}".format, *g.edge_array.T.tolist())]) + "\n"


def degrees(g: Graph) -> np.ndarray:
    return np.diff(g.adjacency_sparse().indptr).astype(int)
