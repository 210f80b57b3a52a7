"""Reference routes that no report or census runs, kept for the tests to
compare the library against:

- the dense Smith normal form over Z with full transforms, which verifies
  U*A*V = D and that the tracked inverses of U and V are inverses;
- the determinant of a sparse matrix over a ring given by its product and
  its record for ``snf.unit_pivots``, by those pivots and Berkowitz on the core;
- the determinant polynomial det(I - A u + (D - I) u^2) of a cover over the
  group ring, in Z[G][u]/(u^(2n+1)) with its own product and record, and
  of a graph over the integers;
- the ring operations of Z[G] (one, +, -, *), the idempotents modulo p^k,
  single group elements, the zero, and the coefficient and reduction of an
  element;
- the directed edges of a graph (edge 2k over pair k and its inverse
  2k + 1), the valences, adjacency counts, Euler characteristic and dense
  Laplacian read from them, and the cycle and path graphs;
- the voltage of a directed edge and the fiber coordinates of a cover, and
  the subgroup of units that the cycle voltages generate, element by
  element, against which the library's criterion by discrete logarithms is
  tested;
- the order of a unit mod p by repeated products, against which primitive
  roots are tested;
- the census's tables built afresh on every call: the depth-first search
  of ``gauge`` (``search_gauge``), the derived pairs by one comprehension
  (``derived_pairs``) and the relabeled edges scattered slot by slot
  (``scattered_relabeled_edges``);
- the arithmetic of truncated p-adic integers, and character values,
  contragredients and the full set of characters at a precision;
- the cover's adjacency over the group ring as a dense matrix, and the
  sparse rows {column: entry} of a dense matrix, which the library's
  determinants take;
- the echelon form mod p that picks each pivot row by a scan of every
  active row (``ModPEchelon``), whose pivots and residuals ``snf.unit_pivots``
  over F_p must reproduce;
- the annihilation test on e_last and the generators of Pic0
  (``annihilated_on_generators``), with which the library's test on one
  vertex per fibre must agree.

A failed self-check raises AssertionError under the name of the check, never
a bare ``assert``, which ``python -O`` strips; ``VerificationError`` stays the
library's exit-4 error.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cache

from coverzeta.characters import Character
from coverzeta import groupring, snf
from coverzeta.groupring import CyclicGroup, GroupRingElement
from coverzeta.padic import PAdicInt, PrecisionExhausted, teichmuller
from coverzeta.serre import SerreGraph
from coverzeta.snf import Matrix, _identity, _xgcd
from coverzeta.voltage import DerivedCover, VoltageSpec, require_connected_cover


def _mat_mul(a, b) -> Matrix:
    out = []
    for ai in a:
        oi = [0] * (len(b[0]) if b else 0)
        for c, bk in zip(ai, b):
            if c:
                oi = [x + c * y for x, y in zip(oi, bk)]
        out.append(oi)
    return out


@dataclass(frozen=True)
class SmithDecomposition:
    """U * A * V = D with D diagonal and d_1 | d_2 | ... | d_r >= 0."""

    matrix: tuple[tuple[int, ...], ...]
    left: tuple[tuple[int, ...], ...]
    left_inverse: tuple[tuple[int, ...], ...]
    right: tuple[tuple[int, ...], ...]
    right_inverse: tuple[tuple[int, ...], ...]
    diagonal: tuple[int, ...]


def smith_normal_form(a) -> SmithDecomposition:
    """Smith decomposition of an integer matrix, with self-verification.

    Pivots are the nonzero entries of least absolute value (ties: lowest row,
    then column).  Entries in a pivot row/column are cleared with single
    unimodular 2x2 Bezout transforms rather than repeated quotient steps;
    this keeps the coefficient growth of the worked matrix and the
    transforms polynomial.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    for row in a:
        if len(row) != n:
            raise ValueError("ragged matrix")
    d = [list(map(int, row)) for row in a]
    u, uinv = _identity(m), _identity(m)
    v, vinv = _identity(n), _identity(n)

    def row_swap(i, k):
        d[i], d[k] = d[k], d[i]
        u[i], u[k] = u[k], u[i]
        for r in uinv:
            r[i], r[k] = r[k], r[i]

    def row_add(i, k, c):
        # row_i += c * row_k
        d[i] = [x + c * y for x, y in zip(d[i], d[k])]
        u[i] = [x + c * y for x, y in zip(u[i], u[k])]
        for r in uinv:
            r[k] -= c * r[i]

    def row_negate(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]
        for r in uinv:
            r[i] = -r[i]

    def row_combine(t, i):
        # Unimodular transform of rows (t, i) making d[t][t] = gcd and
        # d[i][t] = 0.  E = [[x, y], [-b/g, a/g]], so E^-1 = [[a/g, -y], [b/g, x]].
        a_, b_ = d[t][t], d[i][t]
        if b_ == 0:
            return
        if a_ != 0 and b_ % a_ == 0:
            row_add(i, t, -(b_ // a_))
            return
        g, x, y = _xgcd(a_, b_)
        ag, bg = a_ // g, b_ // g
        d[t], d[i] = (
            [x * p + y * q for p, q in zip(d[t], d[i])],
            [-bg * p + ag * q for p, q in zip(d[t], d[i])],
        )
        u[t], u[i] = (
            [x * p + y * q for p, q in zip(u[t], u[i])],
            [-bg * p + ag * q for p, q in zip(u[t], u[i])],
        )
        for r in uinv:
            r[t], r[i] = ag * r[t] + bg * r[i], -y * r[t] + x * r[i]

    def col_swap(j, k):
        for r in d:
            r[j], r[k] = r[k], r[j]
        for r in v:
            r[j], r[k] = r[k], r[j]
        vinv[j], vinv[k] = vinv[k], vinv[j]

    def col_combine(t, j):
        # Unimodular transform of columns (t, j) making d[t][t] = gcd and
        # d[t][j] = 0.  F = [[x, -b/g], [y, a/g]], so F^-1 = [[a/g, b/g], [-y, x]].
        a_, b_ = d[t][t], d[t][j]
        if b_ == 0:
            return
        if a_ != 0 and b_ % a_ == 0:
            q = -(b_ // a_)
            for r in d:
                r[j] += q * r[t]
            for r in v:
                r[j] += q * r[t]
            vinv[t] = [x - q * y for x, y in zip(vinv[t], vinv[j])]
            return
        g, x, y = _xgcd(a_, b_)
        ag, bg = a_ // g, b_ // g
        for r in d:
            r[t], r[j] = x * r[t] + y * r[j], -bg * r[t] + ag * r[j]
        for r in v:
            r[t], r[j] = x * r[t] + y * r[j], -bg * r[t] + ag * r[j]
        vinv[t], vinv[j] = (
            [ag * p + bg * q for p, q in zip(vinv[t], vinv[j])],
            [-y * p + x * q for p, q in zip(vinv[t], vinv[j])],
        )

    def find_pivot(t):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = d[i][j]
                if x != 0 and (best is None or abs(x) < abs(d[best[0]][best[1]])):
                    best = (i, j)
        return best

    t = 0
    while t < min(m, n):
        pos = find_pivot(t)
        if pos is None:
            break
        i, j = pos
        if i != t:
            row_swap(t, i)
        if j != t:
            col_swap(t, j)
        while True:
            for i in range(m):
                if i != t:
                    row_combine(t, i)
            for j in range(n):
                if j != t:
                    col_combine(t, j)
            if any(d[i][t] for i in range(m) if i != t):
                continue  # column clearing re-dirtied by the column pass
            # Force divisibility: pivot must divide the remaining submatrix.
            pivot = d[t][t]
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if d[i][j] % pivot != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_add(t, offender, 1)
        if d[t][t] < 0:
            row_negate(t)
        t += 1

    diag = tuple(d[i][i] for i in range(min(m, n)))
    dec = SmithDecomposition(
        matrix=tuple(tuple(map(int, row)) for row in a),
        left=tuple(tuple(r) for r in u),
        left_inverse=tuple(tuple(r) for r in uinv),
        right=tuple(tuple(r) for r in v),
        right_inverse=tuple(tuple(r) for r in vinv),
        diagonal=diag,
    )
    _verify(dec, d)
    return dec


def _verify(dec: SmithDecomposition, d: Matrix) -> None:
    m, n = len(dec.left), len(dec.right)
    uav = _mat_mul(_mat_mul(dec.left, dec.matrix), dec.right)
    for i in range(m):
        for j in range(n):
            want = dec.diagonal[i] if i == j and i < len(dec.diagonal) else 0
            if uav[i][j] != want:
                raise AssertionError(f"snf.transform: U*A*V != D at ({i}, {j})")
            if d[i][j] != want:
                raise AssertionError(f"snf.diagonal: worked matrix not diagonal at ({i}, {j})")
    for i in range(len(dec.diagonal) - 1):
        a, b = dec.diagonal[i], dec.diagonal[i + 1]
        if a < 0 or b < 0:
            raise AssertionError(f"snf.sign: negative invariant factor among {a}, {b}")
        if not ((a == 0 and b == 0) or (a != 0 and b % a == 0)):
            raise AssertionError(f"snf.divisibility: {a} does not divide {b}")
    if _mat_mul(dec.left, dec.left_inverse) != _identity(m):
        raise AssertionError("snf.left_unimodular: U * U^-1 is not the identity")
    if _mat_mul(dec.right, dec.right_inverse) != _identity(n):
        raise AssertionError("snf.right_unimodular: V * V^-1 is not the identity")


@dataclass(frozen=True)
class EtaPolynomial:
    """det(I - A u + (D - I) u^2) over the group ring, as coefficients in u."""

    group: CyclicGroup
    coeffs: tuple[GroupRingElement, ...]

    def coefficient(self, k: int) -> GroupRingElement:
        if k < len(self.coeffs):
            return self.coeffs[k]
        return ring_zero(self.group)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def involution_applied(self) -> "EtaPolynomial":
        return EtaPolynomial(self.group, tuple(c.involution() for c in self.coeffs))

    def is_involution_invariant(self) -> bool:
        return all(c == c.involution() for c in self.coeffs)


def sparse_rows(mat) -> list[dict]:
    """The sparse rows {column: entry} of a dense square matrix, every entry kept."""
    return [dict(enumerate(row)) for row in mat]


def equivariant_adjacency(cover: DerivedCover) -> list[list[list[int]]]:
    """Adjacency of the cover as a dense matrix over Z[G], read off the base
    graph: a base edge j -> i with voltage a adds the group element a to
    entry (i, j), as coefficient vectors over the powers of the generator."""
    group = CyclicGroup.for_prime(cover.p)
    n = cover.base.num_vertices
    adjacency = [[[0] * group.order for _ in range(n)] for _ in range(n)]
    for e in directed_edges(cover.base):
        adjacency[e.terminus][e.origin][group.index_of(edge_voltage(cover.spec, e.id))] += 1
    return adjacency


def truncated_convolution(order: int, degrees: int):
    """The product of Z[G][u]/(u^degrees): ``product(out, x, y)`` adds x * y into ``out``.

    G is cyclic of the given order, and the coefficient of u^d g^k sits at
    index d * order + k, so the product is cyclic in k and truncated in d.
    """
    # Row i: the index of basis vector i times j, for each j it keeps below u^degrees.
    targets = [
        [(di + dj) * order + (ki + kj) % order for dj in range(degrees - di) for kj in range(order)]
        for di in range(degrees)
        for ki in range(order)
    ]

    def product(out, x, y):
        for a, row in zip(x, targets):
            if a:
                for k, b in zip(row, y):
                    if b:
                        out[k] += a * b

    return product


def truncated_ring(order: int, degrees: int):
    """Z[G][u]/(u^degrees), G cyclic of the given order, as ``snf.unit_pivots``
    takes it: its units to pivot on are +-g^k, and u g is none."""
    return groupring.vector_ring(truncated_convolution(order, degrees), order * degrees, order)


def ring_determinant(rows, product, ring):
    """Determinant, as a tuple, of a square matrix of sparse rows {column:
    coefficient vector} over a ring given by its product and its record as
    ``snf.unit_pivots`` takes it: that elimination, then
    ``groupring.berkowitz`` on the core."""
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix")
    if any(j not in range(n) for row in rows for j in row):
        raise ValueError("matrix is not square")
    tuples = [{j: tuple(x) for j, x in row.items()} for row in rows]
    scale, _, core, _, _ = snf.unit_pivots(tuples, ring)
    if not core:
        return tuple(scale)
    out = [0] * len(ring.zero)
    product(out, scale, groupring.berkowitz(core, product))
    return tuple(out)


def _ihara_determinant(order: int, adjacency, valences) -> list[tuple[int, ...]]:
    """det(I - A u + (D - I) u^2) over Z[G], G cyclic of the given order, with
    ``adjacency[i][j]`` the coefficient vector of A's entry (i, j).

    It is taken in Z[G][u]/(u^(2n+1)), which loses nothing since its degree is
    at most 2n.  Returns its coefficients of u^0, u^1, ..., trailing zeros dropped.
    """
    width = 2 * len(valences) + 1
    entries = [
        [[0] * order + [-c for c in a] + [0] * ((width - 2) * order) for a in row]
        for row in adjacency
    ]
    for i, valence in enumerate(valences):
        entries[i][i][0], entries[i][i][2 * order] = 1, valence - 1
    det = ring_determinant(
        sparse_rows(entries), truncated_convolution(order, width), truncated_ring(order, width)
    )
    coeffs = [det[d * order : (d + 1) * order] for d in range(width)]
    while len(coeffs) > 1 and not any(coeffs[-1]):
        coeffs.pop()
    return coeffs


def eta_polynomial(cover: DerivedCover) -> EtaPolynomial:
    """The determinant polynomial of the cover over the group ring."""
    require_connected_cover(cover)
    group = CyclicGroup.for_prime(cover.p)
    base = cover.base
    coeffs = _ihara_determinant(
        group.order, equivariant_adjacency(cover), [valence(base, i) for i in base.vertices]
    )
    poly = EtaPolynomial(group, tuple(GroupRingElement(group, c) for c in coeffs))
    if poly.coefficient(0) != ring_one(group):
        raise AssertionError(
            f"zeta.constant_term: constant term {poly.coefficient(0)} is not the ring identity"
        )
    return poly


def _int_poly_det(g: SerreGraph) -> list[int]:
    """Coefficients of det(I - A u + (D - I) u^2) over the integers."""
    n = g.num_vertices
    adjacency = [[(adjacency_count(g, i, j),) for j in range(n)] for i in range(n)]
    return [c for (c,) in _ihara_determinant(1, adjacency, [valence(g, i) for i in range(n)])]


def group_element(group: CyclicGroup, sigma: int, coefficient: int = 1) -> GroupRingElement:
    """coefficient * sigma for a single group element sigma."""
    c = [0] * group.order
    c[group.index_of(sigma)] = coefficient
    return GroupRingElement(group, tuple(c))


def ring_zero(group: CyclicGroup) -> GroupRingElement:
    return GroupRingElement(group, (0,) * group.order)


def coefficient(element: GroupRingElement, sigma: int) -> int:
    """The coefficient of the group element sigma in ``element``."""
    return element.coeffs[element.group.index_of(sigma)]


def reduce_mod(element: GroupRingElement, modulus: int) -> GroupRingElement:
    """``element`` with each coefficient reduced modulo ``modulus``."""
    return GroupRingElement(element.group, tuple(a % modulus for a in element.coeffs))


def idempotent_mod(character, k: int) -> GroupRingElement:
    """Reduction mod p^k of the idempotent attached to a character.

    The idempotent is (1/#G) * sum over sigma of character(sigma) * sigma^(-1);
    #G = p-1 is a unit mod p^k.  The character must carry at least k digits of
    precision.
    """
    group: CyclicGroup = character.group
    p = group.p
    if k < 1:
        raise ValueError("modulus exponent must be at least 1")
    if character.precision < k:
        raise PrecisionExhausted(
            f"character precision {character.precision} below requested exponent {k}"
        )
    modulus = p**k
    inv_order = pow(group.order, -1, modulus)
    coeffs = [0] * group.order
    for sigma in group.elements:
        v = character_value(character, sigma)
        coeffs[group.index_of(pow(sigma, -1, p))] = v * inv_order % modulus
    return GroupRingElement(group, tuple(coeffs))


# The ring operations of Z[G], which the library's determinants do on
# coefficient vectors.


def _same_group(a: GroupRingElement, b: GroupRingElement) -> None:
    if a.group != b.group:
        raise ValueError("group mismatch")


def ring_one(group: CyclicGroup) -> GroupRingElement:
    return GroupRingElement(group, (1,) + (0,) * (group.order - 1))


def ring_add(a: GroupRingElement, b: GroupRingElement) -> GroupRingElement:
    _same_group(a, b)
    return GroupRingElement(a.group, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))


def ring_neg(a: GroupRingElement) -> GroupRingElement:
    return GroupRingElement(a.group, tuple(-x for x in a.coeffs))


def ring_sub(a: GroupRingElement, b: GroupRingElement) -> GroupRingElement:
    return ring_add(a, ring_neg(b))


def ring_mul(a: GroupRingElement, b) -> GroupRingElement:
    """a * b for b in Z[G] or in Z."""
    if isinstance(b, int):
        return GroupRingElement(a.group, tuple(b * x for x in a.coeffs))
    _same_group(a, b)
    out = [0] * a.group.order
    a.group.product(out, a.coeffs, b.coeffs)
    return GroupRingElement(a.group, tuple(out))


def ring_is_zero(a: GroupRingElement) -> bool:
    return not any(a.coeffs)


# The directed edges of a graph, which the library reads straight off the pairs.


@dataclass(frozen=True)
class DirectedEdge:
    id: int
    origin: int
    terminus: int
    inverse_id: int


@cache
def directed_edges(g: SerreGraph) -> tuple[DirectedEdge, ...]:
    """Edge 2k, u -> v, and its inverse 2k + 1, v -> u, over pair k = (u, v);
    built once per graph and kept."""
    edges = []
    for k, (u, v) in enumerate(g.edge_pairs):
        edges += [DirectedEdge(2 * k, u, v, 2 * k + 1), DirectedEdge(2 * k + 1, v, u, 2 * k)]
    return tuple(edges)


def edge(g: SerreGraph, edge_id: int) -> DirectedEdge:
    return directed_edges(g)[edge_id]


def _check_vertex(g: SerreGraph, w: int) -> None:
    if not (0 <= w < g.num_vertices):
        raise ValueError(f"unknown vertex {w}")


def edges_from(g: SerreGraph, w: int) -> tuple[DirectedEdge, ...]:
    _check_vertex(g, w)
    return tuple(e for e in directed_edges(g) if e.origin == w)


def valence(g: SerreGraph, w: int) -> int:
    """Number of directed edges leaving w (a loop counts twice)."""
    return len(edges_from(g, w))


def adjacency_count(g: SerreGraph, w: int, w2: int) -> int:
    """Number of directed edges from w2 to w."""
    _check_vertex(g, w)
    return sum(1 for e in edges_from(g, w2) if e.terminus == w)


def euler_characteristic(g: SerreGraph) -> int:
    return g.num_vertices - g.num_undirected_edges


def laplacian_matrix(g: SerreGraph) -> list[list[int]]:
    """Valence-minus-adjacency matrix, dense, in one pass over the directed
    edges: an edge from w2 to w adds 1 at (w2, w2) and subtracts 1 at (w, w2)."""
    n = g.num_vertices
    out = [[0] * n for _ in range(n)]
    for e in directed_edges(g):
        out[e.origin][e.origin] += 1
        out[e.terminus][e.origin] -= 1
    return out


def cycle_graph(n: int) -> SerreGraph:
    if n < 1:
        raise ValueError("cycle needs at least one vertex")
    return SerreGraph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> SerreGraph:
    if n < 1:
        raise ValueError("path needs at least one vertex")
    return SerreGraph(n, [(i, i + 1) for i in range(n - 1)])


# Voltages of directed edges and fiber coordinates of a cover.


def edge_voltage(spec: VoltageSpec, edge_id: int) -> int:
    """Voltage of a directed edge; reversed edges carry the inverse."""
    a = spec.voltages[edge_id // 2]
    return a if edge_id % 2 == 0 else pow(a, -1, spec.p)


def vertex_at(cover: DerivedCover, v: int, sigma: int) -> int:
    """The total vertex (v, sigma), at v (p - 1) + sigma - 1."""
    sigma %= cover.p
    if sigma == 0:
        raise ValueError("fiber coordinate must be a unit")
    return v * cover.fiber_size + (sigma - 1)


def fiber_coords(cover: DerivedCover, w: int) -> tuple[int, int]:
    """(base vertex, unit) coordinates of a total-graph vertex."""
    if not (0 <= w < cover.total.num_vertices):
        raise ValueError(f"unknown vertex {w}")
    return w // cover.fiber_size, w % cover.fiber_size + 1


def projection(cover: DerivedCover, w: int) -> int:
    return w // cover.fiber_size


def deck_act(cover: DerivedCover, tau: int, w: int) -> int:
    """Image of a total vertex under the deck transformation of tau."""
    tau %= cover.p
    if tau == 0:
        raise ValueError("deck transformations are indexed by units")
    v, sigma = fiber_coords(cover, w)
    return vertex_at(cover, v, tau * sigma % cover.p)


def base_transversal(cover: DerivedCover) -> tuple[int, ...]:
    """One vertex per fiber: the unit-1 point over each base vertex."""
    return tuple(vertex_at(cover, v, 1) for v in cover.base.vertices)


def search_gauge(spec: VoltageSpec) -> tuple[list[int], tuple[int, ...]]:
    """``voltage.gauge`` with its depth-first search run on every call: out
    lists u -> v with a, then v -> u with a^-1, pair by pair, and the
    inverse potentials riding along the tree."""
    base, p = spec.base, spec.p
    out: list[list[tuple[int, int, bool]]] = [[] for _ in base.vertices]
    for (u, v), a in zip(base.edge_pairs, spec.voltages):
        out[u].append((v, a, True))
        out[v].append((u, a, False))
    potential, inverse = [None] * base.num_vertices, [None] * base.num_vertices
    potential[0] = inverse[0] = 1
    stack = [0]
    while stack:
        w = stack.pop()
        for t, a, forward in out[w]:
            if potential[t] is None:
                b = pow(a, -1, p)
                if not forward:
                    a, b = b, a
                potential[t], inverse[t] = potential[w] * a % p, inverse[w] * b % p
                stack.append(t)
    fixed = tuple(
        potential[u] * a * inverse[v] % p for (u, v), a in zip(base.edge_pairs, spec.voltages)
    )
    return potential, fixed


def derived_pairs(spec: VoltageSpec) -> tuple[tuple[int, int], ...]:
    """The derived cover's pairs, (u, s) -> (v, s a) at u f - 1 + s and
    v f - 1 + (s a mod p), by one comprehension."""
    p, f = spec.p, spec.p - 1
    return tuple(
        (u * f - 1 + s, v * f - 1 + s * a % p)
        for (u, v), a in zip(spec.base.edge_pairs, spec.voltages)
        for s in range(1, p)
    )


def scattered_relabeled_edges(cover: DerivedCover, potential, power: int) -> tuple[int, ...]:
    """``census._relabeled_edges`` with its tables built on every call: each
    edge over base edge k is scattered to slot k f + t - 1 for its relabeled
    origin (u, t)."""
    p, f = cover.p, cover.fiber_size
    inverse = [pow(x, -1, p) for x in potential]
    powered = (-1,) + tuple(pow(s, power, p) - 1 for s in range(1, p))
    relabel = [v * f + powered[s * inverse[v] % p] for v in cover.base.vertices for s in range(1, p)]
    flat = [-1] * (2 * cover.total.num_undirected_edges)
    for j, (w, w2) in enumerate(cover.total.edge_pairs):
        a = relabel[w]
        slot = 2 * (j - j % f + a % f)
        flat[slot], flat[slot + 1] = a, relabel[w2]
    return tuple(flat)


def multiplicative_order(a: int, p: int) -> int:
    """The order of the unit a mod p, by multiplying until 1: O(p)."""
    a %= p
    if a == 0:
        raise ValueError("not a unit mod p")
    k, x = 1, a
    while x != 1:
        x = x * a % p
        k += 1
    return k


def cycle_voltage_subgroup(p: int, fixed: tuple[int, ...]) -> frozenset[int]:
    """Subgroup of units mod p generated by net voltages of fundamental cycles,
    one element at a time from the gauge-fixed voltages ``fixed``: those of
    the non-tree edges are the net voltages, and the tree edges add only 1.
    The derived graph is connected iff this subgroup is all of the units."""
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


# Truncated p-adic arithmetic: combining two values keeps the smaller precision.


def _padic_pair(x: PAdicInt, y) -> tuple[PAdicInt, int]:
    """y as a p-adic value beside x (an int takes x's precision), and the
    precision of the result."""
    if isinstance(y, int):
        y = PAdicInt(x.p, x.precision, y)
    if y.p != x.p:
        raise ValueError(f"mixed primes {x.p} and {y.p}")
    return y, min(x.precision, y.precision)


def padic_add(x: PAdicInt, y) -> PAdicInt:
    y, n = _padic_pair(x, y)
    return PAdicInt(x.p, n, x.value + y.value)


def padic_sub(x: PAdicInt, y) -> PAdicInt:
    y, n = _padic_pair(x, y)
    return PAdicInt(x.p, n, x.value - y.value)


def padic_mul(x: PAdicInt, y) -> PAdicInt:
    y, n = _padic_pair(x, y)
    return PAdicInt(x.p, n, x.value * y.value)


def padic_neg(x: PAdicInt) -> PAdicInt:
    return PAdicInt(x.p, x.precision, -x.value)


def padic_pow(x: PAdicInt, exponent: int) -> PAdicInt:
    return PAdicInt(x.p, x.precision, pow(x.value, exponent, x.p**x.precision))


def padic_reduce(x: PAdicInt, precision: int) -> PAdicInt:
    if precision > x.precision:
        raise ValueError("cannot increase precision by reduction")
    return PAdicInt(x.p, precision, x.value)


def abs_p_inverse(x: PAdicInt) -> int:
    """Reciprocal of the p-adic absolute value, i.e. p^(valuation)."""
    return x.p ** x.valuation()


# Character values, one sigma at a time, beside the library's value tables.


def character_value(chi: Character, sigma: int) -> int:
    """chi(sigma) modulo p^precision: the exponent-th power of the
    Teichmuller lift of sigma."""
    p = chi.group.p
    sigma %= p
    if sigma == 0:
        raise ValueError(f"{sigma} is not a unit mod {p}")
    return padic_pow(teichmuller(sigma, p, chi.precision), chi.exponent).value


def contragredient(chi: Character) -> Character:
    return Character(chi.group, -chi.exponent % chi.group.order, chi.precision)


def zp_characters(group: CyclicGroup, precision: int) -> tuple[Character, ...]:
    return tuple(Character(group, i, precision) for i in range(group.order))


class ModPEchelon:
    """Echelon basis of the span over F_p of sparse rows {column: entry}.

    Elimination pivots on the shortest active row, found by a scan of every
    active row, at its column with the fewest other active rows (Markowitz;
    ties: the lowest row, then column), and clears that column from every
    other active row, so each pivot row is zero at every earlier pivot
    column.  ``pivots`` maps the pivot columns, in pivot order, to their
    rows scaled to 1 there, stored without that entry.
    """

    def __init__(self, p: int, rows):
        self.p = p
        active: dict[int, dict[int, int]] = {}
        where: defaultdict[int, set[int]] = defaultdict(set)  # column -> active rows there
        for i, row in enumerate(rows):
            row = {j: y for j, x in row.items() if (y := x % p)}
            if row:
                active[i] = row
                for j in row:
                    where[j].add(i)
        self.pivots: dict[int, dict[int, int]] = {}
        while active:
            i = min(zip(map(len, active.values()), active))[1]
            row = active.pop(i)
            for j in row:
                where[j].discard(i)
            c = min(zip(map(len, map(where.__getitem__, row)), row))[1]
            inv = pow(row.pop(c), -1, p)
            tail = {j: x * inv % p for j, x in row.items()}
            for k in where.pop(c):
                other = active[k]
                f = other.pop(c)
                for j, y in tail.items():
                    if j in other:
                        z = (other[j] - f * y) % p
                        if z:
                            other[j] = z
                        else:
                            del other[j]
                            where[j].discard(k)
                    else:
                        other[j] = -f * y % p
                        where[j].add(k)
                if not other:
                    del active[k]
            self.pivots[c] = tail

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, vec: dict[int, int]) -> dict[int, int]:
        """Residual of a sparse vector against the pivot rows, taken in pivot
        order: linear in vec, congruent to it modulo the span, and zero at
        every pivot column, as each row is zero at the pivots before it."""
        p = self.p
        out = {j: y for j, x in vec.items() if (y := x % p)}
        for c, tail in self.pivots.items():
            x = out.pop(c, 0)
            if x:
                for j, y in tail.items():
                    z = (out.get(j, 0) - x * y) % p
                    if z:
                        out[j] = z
                    else:
                        del out[j]
        return out


def annihilated_on_generators(pm, elem: GroupRingElement) -> bool:
    """Whether elem kills the cokernel of the Laplacian of ``pm``'s cover,
    read on the generators of Pic0.

    The divisor group is spanned by the degree-zero divisors and the last
    vertex, so elem must have augmentation 0, kill every generator w_j of
    Pic0, and send e_last to a degree-zero divisor of class 0: every form
    must read elem e_last and each elem w_j (``PicardModule._transport``) as
    0 modulo its factor.  That is r + 1 images and r (r + 1) reads, r the
    number of invariant factors.
    """
    if elem.augmentation() != 0:
        return False
    terms = [(c, elem.group.element(k)) for k, c in enumerate(elem.coeffs) if c]
    rows = pm._transport(terms)
    return not any(x % d for d, row in zip(pm.factors, rows) for x in row)
