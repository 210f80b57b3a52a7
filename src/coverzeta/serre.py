"""Finite multigraphs, each given by its vertex count and one (origin,
terminus) pair per undirected edge.

Serre's formalism reads pair k as two mutually inverse directed edges, u -> v
and v -> u; a loop is two distinct directed edges with equal endpoints, so it
adds 2 to the valence of its vertex and cancels in the Laplacian.  Every
reader here and in the covers takes the two orientations straight from the
pairs.  Graphs are immutable after construction and safe to share.  The
constructor checks every end and label; a derived cover, whose pairs are
built in range from a checked base, stores them through
``SerreGraph._from_pairs`` without that check.
"""

from __future__ import annotations

from typing import Optional, Sequence


class SerreGraph:
    """Multigraph given by vertex count and one (origin, terminus) per
    undirected edge."""

    def __init__(
        self,
        num_vertices: int,
        edge_pairs: Sequence[tuple[int, int]],
        labels: Optional[Sequence[str]] = None,
    ):
        # Vertices are ints: int() would truncate 1.5 and turn True into 1.
        if type(num_vertices) is not int or num_vertices < 0:
            raise ValueError(f"vertex count {num_vertices!r} is not a non-negative integer")
        pairs = []
        for u, v in edge_pairs:
            if type(u) is not int or type(v) is not int:
                raise ValueError(f"edge ({u!r}, {v!r}) has an end that is not an integer")
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise ValueError(f"edge ({u}, {v}) references a missing vertex")
            pairs.append((u, v))
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != num_vertices:
                raise ValueError("label count does not match vertex count")
            if len(set(labels)) != len(labels):
                raise ValueError("vertex labels must be unique")
        self._n = num_vertices
        self._pairs = tuple(pairs)
        self._labels = labels
        self._connected: Optional[bool] = None
        self._picard_factors: Optional[tuple[int, ...]] = None  # kept by picard.picard_factors

    @classmethod
    def _from_pairs(cls, num_vertices: int, pairs: tuple[tuple[int, int], ...]) -> "SerreGraph":
        """The unlabeled graph on ``pairs`` as they are, with the fields of
        ``__init__`` and none of its checks: derived covers build their pairs
        in range from a checked base, so the checks would only repeat."""
        graph = cls.__new__(cls)
        graph._n, graph._pairs, graph._labels = num_vertices, pairs, None
        graph._connected = graph._picard_factors = None
        return graph

    @property
    def num_vertices(self) -> int:
        return self._n

    @property
    def vertices(self) -> range:
        return range(self._n)

    def label_of(self, w: int) -> str:
        if not (0 <= w < self._n):
            raise ValueError(f"unknown vertex {w}")
        return self._labels[w] if self._labels is not None else f"v{w}"

    @property
    def edge_pairs(self) -> tuple[tuple[int, int], ...]:
        """The chosen orientation: one directed representative per edge."""
        return self._pairs

    @property
    def num_undirected_edges(self) -> int:
        return len(self._pairs)

    def is_connected(self) -> bool:
        """Connectivity of the underlying undirected graph (empty: False).

        The graph is immutable, so the pass runs once and its answer is kept.
        """
        if self._connected is None:
            self._connected = self._reaches_every_vertex()
        return self._connected

    def _reaches_every_vertex(self) -> bool:
        """One union-find pass over the pairs, with path halving: connected
        when the pairs merge the vertices into one class, which ends the
        pass."""
        if self._n == 0:
            return False
        parent = list(range(self._n))
        classes = self._n
        for u, v in self._pairs:
            if classes == 1:
                break
            while parent[u] != u:
                parent[u] = u = parent[parent[u]]
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            if u != v:
                parent[u] = v
                classes -= 1
        return classes == 1

    def laplacian_rows(self) -> list[dict[int, int]]:
        """The Laplacian, valence minus adjacency, as sparse rows {column:
        entry}; row w is also column w.

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

    def to_dot(self, name: str = "G", labels: Optional[Sequence[str]] = None) -> str:
        """Undirected DOT rendering, one line per undirected edge, its
        vertices named by ``labels`` if given, else by ``label_of``, each a
        quoted DOT string with its backslashes and quotes escaped."""
        names = [self.label_of(w) if labels is None else labels[w] for w in self.vertices]
        quoted = ['"' + n.replace("\\", "\\\\").replace('"', '\\"') + '"' for n in names]
        lines = [f"graph {name} {{"]
        for w in self.vertices:
            lines.append(f"  {quoted[w]};")
        for u, v in self._pairs:
            lines.append(f"  {quoted[u]} -- {quoted[v]};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return f"SerreGraph({self._n} vertices, {self.num_undirected_edges} edges)"


def bouquet(num_loops: int) -> SerreGraph:
    """One vertex carrying the given number of undirected loops."""
    return SerreGraph(1, [(0, 0)] * num_loops)
