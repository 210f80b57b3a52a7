"""Voltage assignments valued in the units mod p and their derived covers.

A voltage is given on one orientation of each undirected edge; the reverse
orientation carries the inverse unit.  The derived graph has vertex set
(base vertex, unit) and, for an edge u -> v with voltage a, an edge
(u, s) -> (v, s*a) for every unit s.  Multiplication by a unit on fiber
coordinates is the deck action; the cover is Galois with the full unit group
exactly when the derived graph is connected, that is when the cycle voltages
generate the units, which their discrete logarithms decide.  A spec whose
cover would have more than ``MAX_COVER_VERTICES`` vertices is refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .arith import is_odd_prime
from .groupring import CyclicGroup
from .serre import SerreGraph


# The most vertices a cover may have, n (p - 1) over n base vertices; a
# larger one is refused before any table of its size is built.
MAX_COVER_VERTICES = 10**6


class DisconnectedCover(Exception):
    """The voltages do not generate the full unit group along cycles."""


def check_cover_size(num_vertices: int, p) -> None:
    """ValueError, naming the size, for a cover at p over ``num_vertices``
    base vertices with more than ``MAX_COVER_VERTICES`` vertices.  It runs
    before the prime test, which takes seconds on a prime of thousands of
    digits; a p that is not an int is left to that test."""
    if type(p) is int and num_vertices * (p - 1) > MAX_COVER_VERTICES:
        raise ValueError(
            f"the cover at p = {p} would have {num_vertices} x {p - 1} = "
            f"{num_vertices * (p - 1)} vertices, more than the limit of {MAX_COVER_VERTICES}"
        )


@dataclass(frozen=True)
class VoltageSpec:
    base: SerreGraph
    p: int
    voltages: tuple[int, ...]

    def __post_init__(self):
        check_cover_size(self.base.num_vertices, self.p)
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

    @classmethod
    def _unchecked(cls, base: SerreGraph, p: int, voltages: tuple[int, ...]) -> "VoltageSpec":
        """The spec as given, with none of ``__post_init__``'s checks: for a
        census, which checks p and the cover's size once per run and
        enumerates, or reads back as checked rows, tuples of units mod p, one
        per edge."""
        spec = cls.__new__(cls)
        object.__setattr__(spec, "base", base)
        object.__setattr__(spec, "p", p)
        object.__setattr__(spec, "voltages", voltages)
        return spec


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
        self._fiber = p - 1
        # In range, as the base's ends are, so stored without a second check.
        pairs: list[tuple[int, int]] = []
        for (u, v), a in zip(base.edge_pairs, spec.voltages):
            pairs += _fibre_pairs(u, v, p, a)
        self.total = SerreGraph._from_pairs(base.num_vertices * self._fiber, tuple(pairs))
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


@lru_cache(maxsize=1 << 10)
def _fibre_pairs(u: int, v: int, p: int, a: int) -> tuple[tuple[int, int], ...]:
    """The pairs over an edge u -> v with voltage a, (u, s) -> (v, s a) for
    s = 1, ..., p - 1, at u f - 1 + s and v f - 1 + (s a mod p).  A census
    meets each (edge, voltage) on many rows, and its covers share these
    immutable blocks."""
    uf, vf = u * (p - 1) - 1, v * (p - 1) - 1
    return tuple((uf + s, vf + s * a % p) for s in range(1, p))


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

    A depth-first search of the base from vertex 0 (``_spanning_tree``)
    gives each vertex a potential phi (phi(0) = 1, phi(v) = phi(u) * a along
    a tree edge u -> v with voltage a); the tree depends on the base alone.
    The gauge-fixed voltage of an edge u -> v is phi(u) * a * phi(v)^-1,
    which is 1 on the tree edges.  Switching a to c_u^-1 * a * c_v on every
    edge u -> v leaves the gauge-fixed voltages as they are, and they are
    switching-equivalent to a, so they name a's switching class; relabeling
    the cover by (v, x) -> (v, x * phi(v)^-1) turns it into the cover of the
    gauge-fixed voltages and commutes with the deck group.
    """
    base = spec.base
    if not base.is_connected():
        raise ValueError("base graph must be connected")
    p, voltages = spec.p, spec.voltages
    # The inverse potentials ride along the tree: one inverse per tree edge.
    potential, inverse = [1] * base.num_vertices, [1] * base.num_vertices
    for w, t, k, forward in _spanning_tree(base):
        a = voltages[k]
        b = pow(a, -1, p)
        if not forward:  # w -> t carries a^-1
            a, b = b, a
        potential[t], inverse[t] = potential[w] * a % p, inverse[w] * b % p
    fixed = tuple(
        potential[u] * a * inverse[v] % p for (u, v), a in zip(base.edge_pairs, voltages)
    )
    return potential, fixed


@lru_cache(maxsize=64)
def _spanning_tree(base: SerreGraph) -> tuple[tuple[int, int, int, bool], ...]:
    """The tree edges of a depth-first search of a connected base from
    vertex 0, in the order they are found: (w, t, k, forward) reaches t from
    w along pair k, as u -> v if forward, else as v -> u.  Out-lists are read
    off the pairs, u -> v then v -> u, pair by pair, so each vertex's edges
    come in the order of the pairs.  A census gauges every row on one base,
    so the search runs once per base."""
    out: list[list[tuple[int, int, bool]]] = [[] for _ in base.vertices]
    for k, (u, v) in enumerate(base.edge_pairs):
        out[u].append((v, k, True))
        out[v].append((u, k, False))
    seen = [False] * base.num_vertices
    seen[0] = True
    tree, stack = [], [0]
    while stack:
        w = stack.pop()
        for t, k, forward in out[w]:
            if not seen[t]:
                seen[t] = True
                tree.append((w, t, k, forward))
                stack.append(t)
    return tuple(tree)


def connected_by_voltage_criterion(p: int, fixed: tuple[int, ...]) -> bool:
    """Whether the gauge-fixed voltages ``fixed`` (``gauge``), units in
    range(1, p), generate the units mod p, which holds iff the derived graph
    is connected.

    Those of the non-tree edges are the net voltages of the fundamental
    cycles, and the tree edges add only 1.  The units are cyclic of order
    p - 1, generated by g, so the g^k generate them iff gcd(p - 1, k, ...)
    = 1: one read of the discrete logarithm per voltage.
    """
    return gcd(p - 1, *map(CyclicGroup.for_prime(p).log.__getitem__, fixed)) == 1
