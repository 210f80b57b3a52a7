"""Voltage assignments valued in the units mod p and their derived covers.

A voltage is given on one orientation of each undirected edge; the reverse
orientation carries the inverse unit.  The derived graph has vertex set
(base vertex, unit) and, for an edge u -> v with voltage a, an edge
(u, s) -> (v, s*a) for every unit s.  Multiplication by a unit on fiber
coordinates is the deck action; the cover is Galois with the full unit group
exactly when the derived graph is connected.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import is_odd_prime
from .serre import SerreGraph


class DisconnectedCover(Exception):
    """The voltages do not generate the full unit group along cycles."""


@dataclass(frozen=True)
class VoltageSpec:
    base: SerreGraph
    p: int
    voltages: tuple[int, ...]

    def __post_init__(self):
        if not is_odd_prime(self.p):
            raise ValueError(f"p must be an odd prime, got {self.p}")
        object.__setattr__(self, "voltages", tuple(self.voltages))
        if len(self.voltages) != self.base.num_undirected_edges:
            raise ValueError("one voltage per undirected edge is required")
        for a in self.voltages:
            if type(a) is not int:  # int() would truncate 2.7 and turn True into 1
                raise ValueError(f"voltage {a!r} is not an integer")
            if not (1 <= a <= self.p - 1):
                raise ValueError(f"voltage {a} is not a unit mod {self.p}")


class DerivedCover:
    """Derived graph of a voltage assignment, with fiber bookkeeping.

    Total vertices are ordered fiber-major: (v, s) sits at v*(p-1) + (s-1),
    with units s enumerated 1, ..., p-1, and so are total edges: the edge at
    k*(p-1) + (s-1) lies over base edge k = (u, v) and runs from (u, s).
    """

    def __init__(self, spec: VoltageSpec):
        self.spec = spec
        p = spec.p
        base = spec.base
        fiber = p - 1
        self._fiber = fiber
        pairs = []
        for (u, v), a in zip(base.edge_pairs, spec.voltages):
            # (u, s) -> (v, s a), at u f - 1 + s and v f - 1 + (s a mod p)
            uf, vf = u * fiber - 1, v * fiber - 1
            pairs += [(uf + s, vf + s * a % p) for s in range(1, p)]
        self.total = SerreGraph(base.num_vertices * fiber, pairs)
        self._deck_maps: dict[int, tuple[int, ...]] = {}

    @property
    def base(self) -> SerreGraph:
        return self.spec.base

    @property
    def p(self) -> int:
        return self.spec.p

    @property
    def fiber_size(self) -> int:
        return self._fiber

    def deck_vertex_map(self, tau: int) -> tuple[int, ...]:
        """Images of all total vertices under the deck transformation of tau.

        The cover is immutable, so each map is built once and kept.
        """
        tau %= self.p
        if tau == 0:
            raise ValueError("deck transformations are indexed by units")
        if tau not in self._deck_maps:
            self._deck_maps[tau] = self._build_deck_map(tau)
        return self._deck_maps[tau]

    def _build_deck_map(self, tau: int) -> tuple[int, ...]:
        """tau rotates each fiber, (v, s) -> (v, tau s), at v f + (tau s mod p) - 1."""
        rotation = [tau * s % self.p - 1 for s in range(1, self.p)]
        return tuple(v * self._fiber + x for v in self.base.vertices for x in rotation)

    def is_connected(self) -> bool:
        return self.total.is_connected()

    def to_dot(self, name: str) -> str:
        """DOT rendering of the derived graph, vertex (v, s) labeled "<label
        of v>:s", unique because the base's labels are and s holds no colon."""
        names = [self.base.label_of(v) for v in self.base.vertices]
        return self.total.to_dot(name, [f"{n}:{s}" for n in names for s in range(1, self.p)])

    def __repr__(self):
        return f"DerivedCover(p={self.p}, {self.base!r} -> {self.total!r})"


def derive(spec: VoltageSpec) -> DerivedCover:
    """Build the derived cover; the base must be connected."""
    if not spec.base.is_connected():
        raise ValueError("base graph must be connected")
    return DerivedCover(spec)


def require_connected_cover(cover: DerivedCover) -> DerivedCover:
    if not cover.is_connected():
        raise DisconnectedCover(
            "voltages do not generate the full unit group; the cover is not "
            "Galois with the whole group"
        )
    return cover


def gauge(spec: VoltageSpec) -> tuple[list[int], tuple[int, ...]]:
    """Potentials along a spanning tree and the gauge-fixed voltages.

    A depth-first search of the base from vertex 0 gives each vertex a
    potential phi (phi(0) = 1, phi(v) = phi(u) * a along a tree edge u -> v
    with voltage a); the tree depends on the base alone.  The gauge-fixed
    voltage of an edge u -> v is phi(u) * a * phi(v)^-1, which is 1 on the
    tree edges.  Switching a to c_u^-1 * a * c_v on every edge u -> v leaves
    the gauge-fixed voltages as they are, and they are switching-equivalent
    to a, so they name a's switching class; relabeling the cover by
    (v, x) -> (v, x * phi(v)^-1) turns it into the cover of the gauge-fixed
    voltages and commutes with the deck group.
    """
    base = spec.base
    if not base.is_connected():
        raise ValueError("base graph must be connected")
    p = spec.p
    # Out-lists read off the pairs: u -> v with a, then v -> u with a^-1,
    # pair by pair, so each vertex's edges come in the order of the pairs.
    out: list[list[tuple[int, int, bool]]] = [[] for _ in base.vertices]
    for (u, v), a in zip(base.edge_pairs, spec.voltages):
        out[u].append((v, a, True))
        out[v].append((u, a, False))
    # The inverse potentials ride along the tree: one inverse per tree edge.
    potential, inverse = [None] * base.num_vertices, [None] * base.num_vertices
    potential[0] = inverse[0] = 1
    stack = [0]
    while stack:
        w = stack.pop()
        for t, a, forward in out[w]:
            if potential[t] is None:
                b = pow(a, -1, p)
                if not forward:  # w -> t carries a^-1
                    a, b = b, a
                potential[t], inverse[t] = potential[w] * a % p, inverse[w] * b % p
                stack.append(t)
    fixed = tuple(
        potential[u] * a * inverse[v] % p for (u, v), a in zip(base.edge_pairs, spec.voltages)
    )
    return potential, fixed


def cycle_voltage_subgroup(p: int, fixed: tuple[int, ...]) -> frozenset[int]:
    """Subgroup of units mod p generated by net voltages of fundamental cycles.

    ``fixed`` are the gauge-fixed voltages (``gauge``): those of the non-tree
    edges are the net voltages, and the tree edges add only 1.  The derived
    graph is connected iff this subgroup is all of the units.
    """
    generators = set(fixed)
    subgroup = {1}
    frontier = [1]
    while frontier:
        x = frontier.pop()
        for g in generators:
            y = x * g % p
            if y not in subgroup:
                subgroup.add(y)
                frontier.append(y)
    return frozenset(subgroup)


def connected_by_voltage_criterion(p: int, fixed: tuple[int, ...]) -> bool:
    """Whether the gauge-fixed voltages ``fixed`` generate the units mod p."""
    return len(cycle_voltage_subgroup(p, fixed)) == p - 1
