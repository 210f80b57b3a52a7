"""Finite multigraphs with paired directed edges (Serre's formalism).

An undirected edge is a pair of mutually inverse directed edges; a loop is
stored as two distinct directed edges with equal endpoints, so it contributes
2 to the valence of its vertex and 2 to the self-adjacency count.  Graphs are
immutable after construction and safe to share.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence


@dataclass(frozen=True)
class DirectedEdge:
    id: int
    origin: int
    terminus: int
    inverse_id: int


class SerreGraph:
    """Multigraph given by vertex count and one (origin, terminus) per
    undirected edge; both orientations are derived from it on demand."""

    def __init__(
        self,
        num_vertices: int,
        edge_pairs: Sequence[tuple[int, int]],
        labels: Optional[Sequence[str]] = None,
    ):
        if num_vertices < 0:
            raise ValueError("negative vertex count")
        pairs = []
        for u, v in edge_pairs:
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise ValueError(f"edge ({u}, {v}) references a missing vertex")
            pairs.append((int(u), int(v)))
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != num_vertices:
                raise ValueError("label count does not match vertex count")
            if len(set(labels)) != len(labels):
                raise ValueError("vertex labels must be unique")
        self._n = int(num_vertices)
        self._pairs = tuple(pairs)
        self._labels = labels
        self._directed: Optional[tuple] = None  # (edges, out-lists), built by _edge_lists
        self._connected: Optional[bool] = None
        self._picard_factors: Optional[tuple[int, ...]] = None  # kept by picard.picard_factors

    @property
    def num_vertices(self) -> int:
        return self._n

    @property
    def vertices(self) -> range:
        return range(self._n)

    @property
    def labels(self) -> Optional[tuple[str, ...]]:
        return self._labels

    def label_of(self, w: int) -> str:
        self._check_vertex(w)
        return self._labels[w] if self._labels is not None else f"v{w}"

    @property
    def edge_pairs(self) -> tuple[tuple[int, int], ...]:
        """The chosen orientation: one directed representative per edge."""
        return self._pairs

    def _edge_lists(self) -> tuple:
        """The directed edges, edge 2k and its inverse 2k + 1 over pair k,
        and each vertex's out-list, built on first use and kept.  The
        connectivity search and the Laplacian rows read the pairs, so a
        derived cover on the report path never builds them."""
        if self._directed is None:
            edges = []
            for k, (u, v) in enumerate(self._pairs):
                edges.append(DirectedEdge(2 * k, u, v, 2 * k + 1))
                edges.append(DirectedEdge(2 * k + 1, v, u, 2 * k))
            out: list[list[DirectedEdge]] = [[] for _ in range(self._n)]
            for e in edges:
                out[e.origin].append(e)
            self._directed = tuple(edges), tuple(tuple(es) for es in out)
        return self._directed

    @property
    def directed_edges(self) -> tuple[DirectedEdge, ...]:
        return self._edge_lists()[0]

    @property
    def num_undirected_edges(self) -> int:
        return len(self._pairs)

    def edge(self, edge_id: int) -> DirectedEdge:
        return self._edge_lists()[0][edge_id]

    def edges_from(self, w: int) -> tuple[DirectedEdge, ...]:
        self._check_vertex(w)
        return self._edge_lists()[1][w]

    def _check_vertex(self, w: int) -> None:
        if not (0 <= w < self._n):
            raise ValueError(f"unknown vertex {w}")

    def valence(self, w: int) -> int:
        """Number of directed edges leaving w (a loop counts twice)."""
        self._check_vertex(w)
        return len(self._edge_lists()[1][w])

    def adjacency_count(self, w: int, w2: int) -> int:
        """Number of directed edges from w2 to w."""
        self._check_vertex(w)
        self._check_vertex(w2)
        return sum(1 for e in self._edge_lists()[1][w2] if e.terminus == w)

    def euler_characteristic(self) -> int:
        return self._n - self.num_undirected_edges

    def is_connected(self) -> bool:
        """Connectivity of the underlying undirected graph (empty: False).

        The graph is immutable, so the search runs once and its answer is kept.
        """
        if self._connected is None:
            self._connected = self._reaches_every_vertex()
        return self._connected

    def _reaches_every_vertex(self) -> bool:
        """Breadth-first search from vertex 0 over neighbour lists read off
        the pairs."""
        if self._n == 0:
            return False
        neighbours: list[list[int]] = [[] for _ in range(self._n)]
        for u, v in self._pairs:
            neighbours[u].append(v)
            neighbours[v].append(u)
        seen = [False] * self._n
        seen[0] = True
        queue = deque([0])
        count = 1
        while queue:
            for w in neighbours[queue.popleft()]:
                if not seen[w]:
                    seen[w] = True
                    count += 1
                    queue.append(w)
        return count == self._n

    def laplacian_matrix(self) -> list[list[int]]:
        """Valence-minus-adjacency matrix, dense.

        Built in one pass over the directed edges: an edge from w2 to w
        subtracts 1 at (w, w2).  The analysis reads ``laplacian_rows``; this
        form is the independent reference for tests and failure diagnostics.
        """
        n = self._n
        edges, out_lists = self._edge_lists()
        out = [[0] * n for _ in range(n)]
        for w in range(n):
            out[w][w] = len(out_lists[w])
        for e in edges:
            out[e.terminus][e.origin] -= 1
        return out

    def laplacian_rows(self) -> list[dict[int, int]]:
        """The same matrix as sparse rows {column: entry}; row w is also column w.

        One pass over the pairs, each read as its two directed edges u -> v
        and v -> u, skips loops, which cancel on the diagonal, so no zero is
        stored and an isolated vertex has an empty row.
        """
        rows: list[dict[int, int]] = [{} for _ in range(self._n)]
        for u, v in self._pairs:
            if u != v:
                ru, rv = rows[u], rows[v]
                ru[u] = ru.get(u, 0) + 1
                rv[u] = rv.get(u, 0) - 1
                rv[v] = rv.get(v, 0) + 1
                ru[v] = ru.get(v, 0) - 1
        return rows

    def to_dot(self, name: str = "G") -> str:
        """Undirected DOT rendering, one line per undirected edge."""
        lines = [f"graph {name} {{"]
        for w in self.vertices:
            lines.append(f'  "{self.label_of(w)}";')
        for u, v in self._pairs:
            lines.append(f'  "{self.label_of(u)}" -- "{self.label_of(v)}";')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return f"SerreGraph({self._n} vertices, {self.num_undirected_edges} edges)"


def bouquet(num_loops: int) -> SerreGraph:
    """One vertex carrying the given number of undirected loops."""
    return SerreGraph(1, [(0, 0)] * num_loops)


def cycle_graph(n: int) -> SerreGraph:
    if n < 1:
        raise ValueError("cycle needs at least one vertex")
    return SerreGraph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> SerreGraph:
    if n < 1:
        raise ValueError("path needs at least one vertex")
    return SerreGraph(n, [(i, i + 1) for i in range(n - 1)])
