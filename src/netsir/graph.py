"""Undirected simple graphs: edge-list ingestion, adjacency access and
spectral diagnostics."""

from __future__ import annotations

import io
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class EdgeListParseError(ValueError):
    """Malformed edge-list input; carries the offending line number."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class GraphValidationError(ValueError):
    pass


@dataclass(frozen=True)
class Graph:
    """Immutable undirected simple graph on nodes 0..node_count-1.

    Edges are stored canonically as (i, j) with i < j; no self-loops,
    no duplicates.
    """

    node_count: int
    edges: frozenset

    def __post_init__(self):
        if self.node_count < 1:
            raise GraphValidationError("graph needs at least one node")
        for e in self.edges:
            i, j = e
            if i == j:
                raise GraphValidationError(f"self-loop at node {i}")
            if not (0 <= i < j < self.node_count):
                raise GraphValidationError(f"edge {e} out of range or not canonical")

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def neighbor_lists(self) -> tuple:
        nbrs = [[] for _ in range(self.node_count)]
        for i, j in self.edges:
            nbrs[i].append(j)
            nbrs[j].append(i)
        return tuple(sorted(ns) for ns in nbrs)

    def adjacency_matrix(self) -> np.ndarray:
        a = np.zeros((self.node_count, self.node_count))
        for i, j in self.edges:
            a[i, j] = 1.0
            a[j, i] = 1.0
        return a

    def adjacency_sparse(self) -> sp.csr_matrix:
        if not self.edges:
            return sp.csr_matrix((self.node_count, self.node_count))
        rows, cols = [], []
        for i, j in self.edges:
            rows += [i, j]
            cols += [j, i]
        data = np.ones(len(rows))
        return sp.csr_matrix((data, (rows, cols)),
                             shape=(self.node_count, self.node_count))


def load_edge_list(text) -> Graph:
    """Parse an edge-list stream into a Graph.

    Accepts a string or a file-like object. One "i j" pair per line,
    optional "n <count>" header fixing the node count, '#' starts a
    comment. Edges are deduplicated and symmetrized.
    """
    if isinstance(text, str):
        lines = text.splitlines()
    elif isinstance(text, io.IOBase) or hasattr(text, "read"):
        lines = text.read().splitlines()
    else:
        lines = list(text)

    declared_n = None
    edges = set()
    max_node = -1
    saw_data = False
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "n":
            if saw_data or declared_n is not None:
                raise EdgeListParseError("header 'n <count>' must come first",
                                         line_no)
            if len(parts) != 2:
                raise EdgeListParseError("header must be 'n <count>'", line_no)
            try:
                declared_n = int(parts[1])
            except ValueError:
                raise EdgeListParseError(f"bad node count {parts[1]!r}",
                                         line_no) from None
            if declared_n < 1:
                raise EdgeListParseError("node count must be positive", line_no)
            continue
        if len(parts) != 2:
            raise EdgeListParseError(f"expected 'i j', got {line!r}", line_no)
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListParseError(f"non-integer endpoint in {line!r}",
                                     line_no) from None
        if i < 0 or j < 0:
            raise EdgeListParseError("negative node index", line_no)
        if i == j:
            raise EdgeListParseError(f"self-loop at node {i}", line_no)
        saw_data = True
        max_node = max(max_node, i, j)
        edges.add((min(i, j), max(i, j)))

    if declared_n is None:
        if max_node < 0:
            raise EdgeListParseError("empty edge list and no 'n' header", 0)
        n = max_node + 1
    else:
        n = declared_n
        if max_node >= n:
            raise EdgeListParseError(
                f"edge references node {max_node} but header declares n={n}", 0)
    return Graph(node_count=n, edges=frozenset(edges))


def dump_edge_list(g: Graph) -> str:
    """Serialize a Graph; load(dump(g)) reconstructs g exactly."""
    out = [f"n {g.node_count}"]
    out += [f"{i} {j}" for i, j in sorted(g.edges)]
    return "\n".join(out) + "\n"


def degrees(g: Graph) -> np.ndarray:
    return np.array([len(ns) for ns in g.neighbor_lists], dtype=int)


def spectral_radius(g: Graph) -> float:
    """Spectral radius of the adjacency matrix: its largest eigenvalue,
    by ARPACK's Lanczos iteration from the uniform start vector. Returns
    exactly 0.0 for edgeless graphs."""
    if not g.edges:
        return 0.0
    a = g.adjacency_sparse()
    return float(spla.eigsh(a, k=1, which="LA",
                            v0=np.ones(g.node_count))[0][0])
