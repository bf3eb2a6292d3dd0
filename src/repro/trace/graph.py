"""Weighted undirected access graphs (Sec. II-B of the paper).

Vertices are variables; an edge ``{u, v}`` with weight ``w_uv`` counts how
often ``u`` and ``v`` are accessed consecutively in ``S``. Intra-DBC
placement heuristics (Chen, ShiftsReduce, the TSP-style heuristic) operate
on this summary. Self-transitions (``u`` followed by ``u``) cost no shifts
and are therefore not edges, but they are tallied separately because the
DMA heuristic's benefit comes precisely from maximizing them.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.errors import TraceError
from repro.trace.sequence import AccessSequence


class AccessGraph:
    """Adjacency-map representation of the access graph of a sequence."""

    def __init__(self, sequence: AccessSequence) -> None:
        self._seq = sequence
        names = sequence.variables
        adj: dict[str, dict[str, int]] = {v: {} for v in names}
        codes = sequence.codes
        a, b = codes[:-1], codes[1:]
        moves = a != b
        self._self_transitions = int(a.size - np.count_nonzero(moves))
        # Key each unordered pair {u, v} as min*V + max and count it.
        # Filling the dicts in order of each pair's first occurrence gives
        # every vertex the neighbour insertion order of a scan over S.
        n = len(names)
        keys = np.minimum(a, b)[moves] * n + np.maximum(a, b)[moves]
        pairs, first, counts = np.unique(
            keys, return_index=True, return_counts=True
        )
        order = np.argsort(first)
        for key, w in zip(pairs[order].tolist(), counts[order].tolist()):
            u, v = names[key // n], names[key % n]
            adj[u][v] = w
            adj[v][u] = w
        self._adj = adj

    # -- queries -------------------------------------------------------------

    @property
    def sequence(self) -> AccessSequence:
        return self._seq

    @property
    def vertices(self) -> tuple[str, ...]:
        return self._seq.variables

    @property
    def self_transitions(self) -> int:
        """Number of consecutive same-variable accesses in the sequence."""
        return self._self_transitions

    def weight(self, u: str, v: str) -> int:
        """Edge weight ``w_uv`` (0 when no edge; self loops are not edges)."""
        if u not in self._adj or v not in self._adj:
            raise TraceError(f"unknown variable in edge ({u!r}, {v!r})")
        return self._adj[u].get(v, 0)

    def neighbors(self, v: str) -> dict[str, int]:
        """Mapping of neighbour -> edge weight for ``v``."""
        if v not in self._adj:
            raise TraceError(f"unknown variable {v!r}")
        return dict(self._adj[v])

    def weighted_degree(self, v: str) -> int:
        """Sum of edge weights incident to ``v``."""
        if v not in self._adj:
            raise TraceError(f"unknown variable {v!r}")
        return sum(self._adj[v].values())

    def edges(self) -> Iterable[tuple[str, str, int]]:
        """Yield each undirected edge once as ``(u, v, weight)``."""
        index = {v: i for i, v in enumerate(self._seq.variables)}
        for u, nbrs in self._adj.items():
            for v, w in nbrs.items():
                if index[u] < index[v]:
                    yield u, v, w

    def num_edges(self) -> int:
        return sum(1 for _ in self.edges())

    def total_weight(self) -> int:
        """Sum of all edge weights; plus self transitions this is |S|-1."""
        return sum(w for _, _, w in self.edges())

    def to_networkx(self):
        """Export to :mod:`networkx` (optional dependency)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(self.vertices)
        for u, v, w in self.edges():
            g.add_edge(u, v, weight=w)
        return g

    def to_dot(self, name: str = "access_graph") -> str:
        """Graphviz DOT rendering (edge labels = weights, for papers/docs)."""
        lines = [f"graph {name} {{"]
        for v in self.vertices:
            lines.append(
                f'  "{_dot_escape(v)}" '
                f'[label="{_dot_escape(v)} ({self._seq.frequency(v)})"];'
            )
        for u, v, w in self.edges():
            lines.append(
                f'  "{_dot_escape(u)}" -- "{_dot_escape(v)}" '
                f'[label="{w}", weight={w}];'
            )
        lines.append("}")
        return "\n".join(lines)


def _dot_escape(text: str) -> str:
    """Escape ``\\`` and ``"`` for a double-quoted DOT ID or label."""
    return text.replace("\\", "\\\\").replace('"', '\\"')
