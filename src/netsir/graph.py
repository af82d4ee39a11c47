"""Undirected simple graphs held as arrays: edge-list ingestion,
adjacency access and spectral diagnostics.

A `Graph` is its node count and its canonical edges, an (m, 2) int32
array of pairs i < j, sorted and unique. Every adjacency view comes
from one CSR matrix, built from those pairs on first use and cached:
the neighbour lists, the dense matrix, the degrees and the spectral
radius all read it. `load_edge_list` parses a whole edge-list text with
array operations; only the first bad line of a malformed text is looked
at in Python, to word its error.
"""

from __future__ import annotations

import operator
import re
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

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


# Every line break str.splitlines knows; _BREAKS turns the others to "\n"
_ENDS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
_BREAKS = str.maketrans(dict.fromkeys(_ENDS[1:], "\n"))
_COMMENT = re.compile("#[^\n]*")
_SPACES = re.compile("[ \t\x1f]+")      # what separates a line's fields
_INTEGER = re.compile("[+-]?[0-9]+")
_BIG = 10 ** 10     # more than any node count: magnitudes past it read as it
_ECHO = 40          # the most characters of a token or line an error quotes
_DIGIT = np.zeros(256, dtype=np.int64)  # a byte's value as a decimal digit
_DIGIT[ord("0"):ord("9") + 1] = range(10)


def load_edge_list(text) -> Graph:
    """Parse an edge-list text into a Graph.

    Accepts a string, a file-like object or an iterable of lines, where
    each item is one line: its trailing line break is dropped, and any
    other line break in it is a character of that line. One "i j" pair
    per line, optional "n <count>" header fixing the node count, '#'
    starts a comment. Fields are separated by ASCII spaces or tabs; a
    node id or count is ASCII decimal digits with an optional sign.
    Edges are deduplicated and symmetrized. The first bad line raises
    `EdgeListParseError` with its number; an empty list without a
    header, or a header too small for the edges, raises it at line 0.
    """
    if hasattr(text, "read"):
        text = text.read()
    if isinstance(text, str):
        items = None
        text = text.replace("\r\n", "\n").translate(_BREAKS)
    else:
        # an item is one line, so a "\n" inside it must not start another;
        # as "\r" it is just a bad character, and errors quote the item
        items = list(map(operator.methodcaller("rstrip", _ENDS), text))
        text = "\n".join(map(operator.methodcaller("replace", "\n", "\r"),
                             items))
    text = _COMMENT.sub("", text)
    # line k runs from just after ends[k - 1] to ends[k]: ends[0] = 0
    # stands in for line 0, and the last line gets a newline too
    buf = np.frombuffer(f"\n{text}\n".encode(errors="surrogatepass"),
                        dtype=np.uint8)
    ends = np.flatnonzero(buf == 10)
    line, keyword, value, integer = _fields(buf, ends)
    count = np.bincount(line, minlength=len(ends))
    lines = np.flatnonzero(count)              # the lines that hold a field
    first = (np.cumsum(count) - count)[lines]  # the first field of each
    second = np.minimum(first + 1, len(value) - 1)
    i, j = value[first], value[second]
    fine = (count[lines] == 2) & integer[second] & (j >= 0)
    header = keyword[first]
    ok = fine & np.where(
        header, (j >= 1) & (j <= MAX_NODES) & (np.arange(len(lines)) == 0),
        integer[first] & (i >= 0) & (np.maximum(i, j) < MAX_NODES) & (i != j))
    if not ok.all():
        k = int(np.argmin(ok))
        row = int(lines[k])
        bad = buf[ends[row - 1] + 1:ends[row]].tobytes().decode(
            errors="surrogatepass") if items is None else items[row - 1]
        raise EdgeListParseError(_line_error(bad, k == 0), row)
    i, j = i[~header], j[~header]
    max_node = int(max(i.max(), j.max())) if len(i) else -1
    if header.any():
        n = int(value[second[0]])
        if max_node >= n:
            raise EdgeListParseError(f"edge references node {max_node} "
                                     f"but header declares n={n}", 0)
    elif max_node < 0:
        raise EdgeListParseError("empty edge list and no 'n' header", 0)
    else:
        n = max_node + 1
    return Graph(node_count=n,
                 edges=np.column_stack([np.minimum(i, j), np.maximum(i, j)]))


def _fields(buf: np.ndarray, ends: np.ndarray):
    """The fields of a comment-free text `buf`, one entry per field: its
    line number, whether it is the header keyword "n", its int64 value
    and whether it is an integer. A negative integer's value is -1, and
    a value past _BIG reads as _BIG."""
    solid = (buf != 10) & (buf != 32) & (buf != 9) & (buf != 31)
    # buf starts and ends with a newline, so the changes alternate
    change = np.flatnonzero(solid[1:] != solid[:-1]) + 1
    start, stop = change.reshape(-1, 2).T
    size = stop - start
    # a field with a byte other than a digit is no integer, unless that
    # byte is the leading sign of a longer field
    other = np.flatnonzero(solid & (buf - np.uint8(48) >= 10))
    field = np.searchsorted(start, other, side="right") - 1
    sign = ((buf[other] == ord("+")) | (buf[other] == ord("-"))) \
        & (other == start[field]) & (size[field] > 1)
    integer = np.ones(len(start), dtype=bool)
    integer[field[~sign]] = False
    # the ten lowest places, units first, hold every value up to _BIG;
    # the digits are read as int64, so no product wraps
    value = np.zeros(len(start), dtype=np.int64)
    for k in range(10):
        d = _DIGIT[buf[np.maximum(stop - 1 - k, start)]]
        value += np.where(size > k, d, 0) * 10 ** k
    # a nonzero digit before those ten places
    long = size > 10
    cut = np.column_stack([start[long], stop[long] - 10]).ravel()
    nonzero = buf - np.uint8(49) < 9
    value[long] = np.where(
        np.maximum.reduceat(nonzero, np.append(0, cut))[1::2], _BIG,
        value[long])
    value[(buf[start] == ord("-")) & (value > 0)] = -1
    keyword = (size == 1) & (buf[start] == ord("n"))
    return np.searchsorted(ends, start), keyword, value, integer


def _line_error(line: str, first: bool) -> str:
    """Why a line with at least one field is bad; `first` when no line
    with a field comes before it."""
    line = line.split("#", 1)[0].strip(" \t\x1f")
    parts = _SPACES.split(line)
    if parts[0] == "n":
        if not first:
            return "header 'n <count>' must come first"
        if len(parts) != 2:
            return "header must be 'n <count>'"
        count = _integer(parts[1])
        if count is None:
            return f"bad node count {_clip(parts[1])!r}"
        if count < 1:
            return "node count must be positive"
        return f"node count {_clip(parts[1])} exceeds the limit {MAX_NODES}"
    if len(parts) != 2:
        return f"expected 'i j', got {_clip(line)!r}"
    i, j = map(_integer, parts)
    if i is None or j is None:
        return f"non-integer endpoint in {_clip(line)!r}"
    if i < 0 or j < 0:
        return "negative node index"
    if max(i, j) >= MAX_NODES:
        return (f"node index {_clip(parts[int(j > i)])} exceeds the limit "
                f"{MAX_NODES - 1}")
    return f"self-loop at node {i}"


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


def spectral_radius(g: Graph) -> float:
    """Spectral radius of the adjacency matrix: its largest eigenvalue,
    by ARPACK's Lanczos iteration from the uniform start vector. Returns
    exactly 0.0 for edgeless graphs."""
    if not g.edge_count:
        return 0.0
    return float(spla.eigsh(g.adjacency_sparse(), k=1, which="LA",
                            v0=np.ones(g.node_count))[0][0])
