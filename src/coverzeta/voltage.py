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
        object.__setattr__(self, "voltages", tuple(int(a) for a in self.voltages))
        if len(self.voltages) != self.base.num_undirected_edges:
            raise ValueError("one voltage per undirected edge is required")
        for a in self.voltages:
            if not (1 <= a <= self.p - 1):
                raise ValueError(f"voltage {a} is not a unit mod {self.p}")

    def voltage(self, edge_id: int) -> int:
        """Voltage of a directed edge; reversed edges carry the inverse."""
        a = self.voltages[edge_id // 2]
        if edge_id % 2 == 0:
            return a
        return pow(a, -1, self.p)


class DerivedCover:
    """Derived graph of a voltage assignment, with fiber bookkeeping.

    Total vertices are ordered fiber-major: (v, s) sits at v*(p-1) + (s-1),
    with units s enumerated 1, ..., p-1.
    """

    def __init__(self, spec: VoltageSpec):
        self.spec = spec
        p = spec.p
        base = spec.base
        fiber = p - 1
        self._fiber = fiber
        labels = None
        if base.num_vertices:
            labels = [
                f"{base.label_of(v)}:{s}" for v in base.vertices for s in range(1, p)
            ]
        pairs = []
        for k, (u, v) in enumerate(base.edge_pairs):
            a = spec.voltages[k]
            for s in range(1, p):
                pairs.append((self.vertex_at(u, s), self.vertex_at(v, s * a % p)))
        self.total = SerreGraph(base.num_vertices * fiber, pairs, labels)

    @property
    def base(self) -> SerreGraph:
        return self.spec.base

    @property
    def p(self) -> int:
        return self.spec.p

    @property
    def fiber_size(self) -> int:
        return self._fiber

    def vertex_at(self, v: int, sigma: int) -> int:
        sigma %= self.p
        if sigma == 0:
            raise ValueError("fiber coordinate must be a unit")
        return v * self._fiber + (sigma - 1)

    def fiber_coords(self, w: int) -> tuple[int, int]:
        """(base vertex, unit) coordinates of a total-graph vertex."""
        if not (0 <= w < self.total.num_vertices):
            raise ValueError(f"unknown vertex {w}")
        return w // self._fiber, w % self._fiber + 1

    def projection(self, w: int) -> int:
        return w // self._fiber

    def deck_act(self, tau: int, w: int) -> int:
        """Image of a total vertex under the deck transformation of tau."""
        tau %= self.p
        if tau == 0:
            raise ValueError("deck transformations are indexed by units")
        v, sigma = self.fiber_coords(w)
        return self.vertex_at(v, tau * sigma % self.p)

    def deck_vertex_map(self, tau: int) -> tuple[int, ...]:
        return tuple(self.deck_act(tau, w) for w in self.total.vertices)

    def base_transversal(self) -> tuple[int, ...]:
        """One vertex per fiber: the unit-1 point over each base vertex."""
        return tuple(self.vertex_at(v, 1) for v in self.base.vertices)

    def is_connected(self) -> bool:
        return self.total.is_connected()

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


def cycle_voltage_subgroup(spec: VoltageSpec) -> frozenset[int]:
    """Subgroup of units generated by net voltages of fundamental cycles.

    Gauge along a spanning tree: each vertex gets a potential, and every
    non-tree edge contributes potential(u) * voltage * potential(v)^-1.
    The derived graph is connected iff this subgroup is all of the units.
    """
    base = spec.base
    if not base.is_connected():
        raise ValueError("base graph must be connected")
    p = spec.p
    potential = [None] * base.num_vertices
    potential[0] = 1
    tree_edges = set()
    stack = [0]
    while stack:
        w = stack.pop()
        for e in base.edges_from(w):
            if potential[e.terminus] is None:
                potential[e.terminus] = potential[w] * spec.voltage(e.id) % p
                tree_edges.add(e.id // 2)
                stack.append(e.terminus)
    generators = set()
    for k, (u, v) in enumerate(base.edge_pairs):
        if k in tree_edges:
            continue
        net = potential[u] * spec.voltages[k] * pow(potential[v], -1, p) % p
        generators.add(net)
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


def connected_by_voltage_criterion(spec: VoltageSpec) -> bool:
    return len(cycle_voltage_subgroup(spec)) == spec.p - 1
