"""Exact arithmetic in Z[G] for G cyclic of order p-1 (the units mod p).

Elements are integer coefficient vectors indexed by powers of a fixed
generator, so multiplication is cyclic convolution in Z[x]/(x^(p-1) - 1).
A matrix over Z[G] is a list of sparse rows {column: vector}.  Its
determinant is taken by ``snf.unit_pivots`` on the units +-g^k, exact
although Z[G] has zero divisors and certified in Z[G] itself, with Z[G] as
the record ``CyclicGroup.ring`` (``vector_ring``), and by Berkowitz's
division-free algorithm on the core.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import neg

from .arith import is_odd_prime, is_primitive_root, smallest_primitive_root
from .snf import Ring


@dataclass(frozen=True)
class CyclicGroup:
    """The unit group mod an odd prime p, presented by a fixed generator."""

    p: int
    generator: int

    def __post_init__(self):
        if not is_odd_prime(self.p):
            raise ValueError(f"p must be an odd prime, got {self.p}")
        if type(self.generator) is not int or not is_primitive_root(self.generator, self.p):
            raise ValueError(f"{self.generator} does not generate the units mod {self.p}")

    @classmethod
    @lru_cache(maxsize=None, typed=True)  # 5.0 is not 5's entry
    def for_prime(cls, p: int) -> "CyclicGroup":
        """The group at p with its least primitive root, built once per prime,
        so its element tables and convolution are built once too."""
        return cls(p, smallest_primitive_root(p))

    @property
    def order(self) -> int:
        return self.p - 1

    @cached_property
    def elements(self) -> tuple[int, ...]:
        """Group elements ordered as generator^0, generator^1, ..."""
        out = [1]
        for _ in range(self.order - 1):
            out.append(out[-1] * self.generator % self.p)
        return tuple(out)

    @cached_property
    def log(self) -> dict[int, int]:
        """The discrete logarithm: each unit in range(p) -> its index in
        ``elements``."""
        return {s: k for k, s in enumerate(self.elements)}

    def element(self, k: int) -> int:
        return self.elements[k % self.order]

    def index_of(self, sigma: int) -> int:
        sigma %= self.p
        if sigma not in self.log:
            raise ValueError(f"{sigma} is not a unit mod {self.p}")
        return self.log[sigma]

    @cached_property
    def product(self):
        return convolution(self.order)

    @cached_property
    def ring(self) -> Ring:
        """Z[G] on coefficient tuples, as ``snf.unit_pivots`` takes it."""
        return vector_ring(self.product, self.order, self.order)


@dataclass(frozen=True)
class GroupRingElement:
    group: CyclicGroup
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.group.order:
            raise ValueError("coefficient vector has wrong length")

    def involution(self) -> "GroupRingElement":
        """Coefficientwise pullback along sigma -> sigma^(-1)."""
        n = self.group.order
        out = [0] * n
        for k, a in enumerate(self.coeffs):
            out[(-k) % n] = a
        return GroupRingElement(self.group, tuple(out))

    def augmentation(self) -> int:
        """Sum of coefficients: evaluation at the trivial character over Z."""
        return sum(self.coeffs)

    def evaluate(self, character) -> int:
        """Image under the ring morphism sending sigma to chi(sigma),
        as a residue in range(character.modulus).  The sum runs over the
        character's shared value table for this element's generator.
        """
        table = character.table(self.group)
        return sum(a * v for a, v in zip(self.coeffs, table)) % character.modulus

    def __str__(self):
        terms = []
        for k, a in enumerate(self.coeffs):
            if a == 0:
                continue
            sigma = self.group.element(k)
            terms.append(f"{a}*[{sigma}]")
        return " + ".join(terms) if terms else "0"


def convolution(order: int):
    """The product of Z[G], G cyclic of the given order: ``product(out, x, y)``
    adds x * y into ``out``, cyclically in the powers of the generator."""
    # Row i: the index of g^i times g^j, for each j.
    targets = [[(i + j) % order for j in range(order)] for i in range(order)]

    def product(out, x, y):
        for a, row in zip(x, targets):
            if a:
                for k, b in zip(row, y):
                    if b:
                        out[k] += a * b

    return product


def vector_ring(product, size: int, order: int) -> Ring:
    """A ring on integer coefficient tuples of length ``size``, as
    ``snf.unit_pivots`` takes it: they add coefficientwise, the first basis
    vector is the one, the integer c is (c, 0, ..., 0), and ``product(out, x,
    y)`` adds x * y into the list ``out``.  Its basis vectors k < ``order``
    are the group elements g^k of a cyclic group of that order, and the units
    it pivots on are +-g^k, with inverses +-g^(-k): Z[G] itself, or
    Z[G][u]/(u^D) in the tests' reference."""
    zero = (0,) * size
    inverses = {}
    for k in range(order):
        for c in (1, -1):
            x, y = [0] * size, [0] * size
            x[k], y[-k % order] = c, c
            inverses[tuple(x)] = tuple(y)

    def fma(x, m, y):
        out = list(x)
        product(out, m, y)
        return tuple(out)

    def scalar(c):
        return (c,) + zero[1:]

    return Ring(zero, scalar(1), inverses.get, lambda x: tuple(map(neg, x)), fma, scalar)


def berkowitz(entries, product):
    """Berkowitz's division-free determinant (Inf. Process. Lett. 18, 1984)
    of a nonempty square matrix, as a tuple: the characteristic polynomial
    of each trailing principal submatrix follows from that of the next
    smaller one through the Toeplitz column 1, -a, -R C, -R A C, -R A^2 C, ...
    It takes O(n^4) ring operations and needs only +, - and *, so it is sound
    in rings with zero divisors.  The matrix-vector products skip zero entries.
    """
    n = len(entries)
    size = len(entries[0][0])
    sparse = [[(j, x) for j, x in enumerate(row) if any(x)] for row in entries]

    def dot(row, vec):
        acc = [0] * size
        for j, x in row:
            if j in vec:
                product(acc, x, vec[j])
        return acc

    # Characteristic polynomial of the trailing submatrix, leading coefficient first.
    poly = [[1] + [0] * (size - 1), [-c for c in entries[n - 1][n - 1]]]
    for k in range(n - 2, -1, -1):
        # vec runs through C, A C, A^2 C, ... below row k, its zeros dropped.
        vec = {i: entries[i][k] for i in range(k + 1, n) if any(entries[i][k])}
        col = [[-c for c in entries[k][k]]]
        for step in range(n - k - 1):
            if step:
                vec = {i: y for i in range(k + 1, n) if any(y := dot(sparse[i], vec))}
            col.append([-c for c in dot(sparse[k], vec)])
        # poly <- T poly, T lower-triangular Toeplitz with column (1, *col).
        out = [list(c) for c in poly] + [[0] * size]
        for i in range(1, len(out)):
            for j in range(i):
                product(out[i], col[i - j - 1], poly[j])
        poly = out
    return tuple(poly[n]) if n % 2 == 0 else tuple(-c for c in poly[n])
