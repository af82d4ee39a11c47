"""Per-line reference for the edge-list parser and the adjacency.

`reference_load_edge_list` parses one line at a time in Python, with
`str.split` and `int`. `reference_neighbor_lists` builds each node's
sorted neighbour list one edge at a time. The tests hold
`netsir.graph`, which reads a plain text with numpy's reader and any
other line by line, and reads every adjacency view off one cached CSR
matrix, against both.

The reference accepts what `int` accepts (`1_000`, non-ASCII digits)
and splits fields on any Unicode whitespace; `netsir.graph` takes ASCII
digits with an optional sign, separated by ASCII spaces, tabs or unit
separators, and at most 2**31 - 1 nodes. The tests compare the two on texts inside both.
Both cut a token or line that an error quotes to its first 40
characters and an ellipsis.
"""

from __future__ import annotations

import io

from netsir import EdgeListParseError, Graph

ECHO = 40   # an error quotes at most this many characters of a token or line


def _clip(text: str) -> str:
    return text if len(text) <= ECHO else text[:ECHO] + "..."


def reference_load_edge_list(text) -> Graph:
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
                raise EdgeListParseError(
                    f"bad node count {_clip(parts[1])!r}", line_no) from None
            if declared_n < 1:
                raise EdgeListParseError("node count must be positive", line_no)
            continue
        if len(parts) != 2:
            raise EdgeListParseError(f"expected 'i j', got {_clip(line)!r}",
                                     line_no)
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListParseError(
                f"non-integer endpoint in {_clip(line)!r}", line_no) from None
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


def reference_neighbor_lists(g: Graph) -> tuple:
    nbrs = [[] for _ in range(g.node_count)]
    for i, j in g.edges:
        nbrs[i].append(j)
        nbrs[j].append(i)
    return tuple(sorted(ns) for ns in nbrs)
