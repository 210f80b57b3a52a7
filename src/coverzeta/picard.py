"""Degree-zero Picard groups of covers, with the deck generator acting on them.

Pic0 of a connected graph is the cokernel of the reduced Laplacian L0 (last
vertex deleted) in the basis e_v - e_last of the degree-zero divisors.  One
``snf.cokernel`` gives its determinant kappa, the number of spanning trees,
and its invariant factors and generators; reading the deck generator g's
images with their coordinate forms gives g's matrix on Pic0.  The deck
group has order p - 1, prime to p, so g acts diagonalizably on each layer
p^(j-1) A / p^j A of the p-primary part A, and its chi(g)-eigenspaces, the
layer ranks, give the order of e_chi A and, at j = 1, the dimension of
e_chi C for C = Pic0 / p.  ``PicardModule`` also reads C with no arithmetic
shared with the elimination modulo kappa: from the rows of Pic0's certified
first phase over Z and ``snf.unit_pivots`` over F_p on its core; g's
lam-eigenspace there must have dimension r_1 at every lam, 1 included.
Whether an element of Z[G] kills the whole cokernel of the Laplacian is read
on the n vertices (u, 1), one per fibre, which generate it over Z[G], so it
costs n reads per form whatever the number of invariant factors.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from functools import cached_property
from math import prod

from .arith import VerificationError, p_valuation
from .groupring import CyclicGroup, GroupRingElement
from .serre import SerreGraph
from .snf import INTEGERS, Cokernel, cokernel, prime_field, unit_pivots
from .voltage import DerivedCover, require_connected_cover


def _reduced(lap: list[dict[int, int]]) -> list[dict[int, int]]:
    """L0: the Laplacian without the last vertex's row and column."""
    last = len(lap) - 1
    return [{j: x for j, x in row.items() if j != last} for row in lap[:-1]]


def _pic0(reduced: list[dict[int, int]], first=None) -> tuple[int, Cokernel]:
    """The tree count kappa = det L0 and Pic0 = coker L0 of a connected
    graph, from the sparse rows of its reduced Laplacian L0 (and ``first``),
    which is positive definite (Sylvester), so det L0 > 0 is required."""
    kappa, coker = cokernel(reduced, first)
    if kappa <= 0:
        raise VerificationError("picard.tree_count", f"det L0 = {kappa} is not positive")
    return kappa, coker


def picard_factors(g: SerreGraph) -> tuple[int, ...]:
    """Invariant factors (> 1) of the degree-zero Picard group of a graph,
    kept on the graph, which is immutable: a census shares one base graph."""
    if g._picard_factors is None:
        if not g.is_connected():
            raise ValueError("graph must be connected")
        g._picard_factors = _pic0(_reduced(g.laplacian_rows()))[1].factors
    return g._picard_factors


class PicardModule:
    """Pic0 of a cover with the deck generator's matrix on it, on A and on C.

    ``factors`` are the invariant factors above 1 and ``action`` the matrix
    of the deck generator ``generator`` on their generators, row i modulo
    factor i; the deck group is cyclic, so g's matrix determines the action.
    ``exponents`` are the factors' p-adic valuations: A is the sum of the
    Z/p^a over those a > 0.  ``deck`` is g's matrix on C = F_p^(N-1) / L0 mod p:
    the pivot rows of the first phase over Z and of its core over F_p span L0
    mod p, so the e_v - e_last at the other columns are a basis of residuals.
    """

    def __init__(self, cover: DerivedCover):
        require_connected_cover(cover)
        self.cover = cover
        p, lap = cover.p, cover.total.laplacian_rows()
        last, reduced = len(lap) - 1, _reduced(lap)
        first = unit_pivots(reduced, INTEGERS)  # Pic0's first phase, which C reads too
        core = [{k: y for k, x in enumerate(row) if (y := x % p)} for row in first[2]]
        coker = _pic0(reduced, first)[1]
        self.factors = coker.factors
        self.exponents = tuple(p_valuation(d, p) for d in self.factors)
        self._forms = tuple(f + (0,) for f in coker.forms)
        divisors = ((0,) * last + (1,), *(w + (-sum(w),) for w in coker.generators))
        self._divisors = tuple(tuple((v, x) for v, x in enumerate(w) if x) for w in divisors)
        self.generator = CyclicGroup.for_prime(p).generator
        self.action = tuple(
            tuple(x % d for x in row[1:])
            for d, row in zip(self.factors, self._transport([(1, self.generator)]))
        )
        pivots, perm = first[4], cover.deck_vertex_map(self.generator)
        free = sorted(set(range(last)).difference(c for _, c, _ in pivots))
        rest = unit_pivots(core, prime_field(p))[4]  # on the columns ``free``
        basis = sorted(set(range(len(free))).difference(c for _, c, _ in rest))
        # g (e_v - e_last) = e_gv - e_g(last), v = free[k]: e_last is 0, and unread
        images = ({perm[free[k]]: 1, perm[last]: -1} for k in basis)
        images = (_reduce(pivots, image, p) for image in images)
        images = (_reduce(rest, {k: r[v] for k, v in enumerate(free) if v in r}, p) for r in images)
        self.deck = tuple(tuple(image.get(b, 0) for b in basis) for image in images)

    def _transport(self, terms: list[tuple[int, int]], divisors=None) -> list[list[int]]:
        """The coordinate forms read on x = sum of c tau over ``terms``, applied
        to each of ``divisors``, by default e_last and the generators of Pic0.

        Row i holds form i read on each x D, D a divisor as (vertex,
        coefficient) pairs; the integers are not reduced.  By default that is
        the sum of c (e_tau(last) - e_last), which is x e_last when x has
        augmentation 0, then x w_j for each generator w_j of Pic0.

        A form extended by 0 at the last vertex reads e_w - e_last at w for
        every w, so it reads a divisor of degree 0 as a dot product.  Each
        image x D, as x (w_j - |w_j| e_last) for a generator, is built once,
        on a small support, where every form reads it.
        """
        perms = [(c, self.cover.deck_vertex_map(tau)) for c, tau in terms]
        reads = []
        for divisor in self._divisors if divisors is None else divisors:
            image = defaultdict(int)
            for c, perm in perms:
                for v, x in divisor:
                    image[perm[v]] += c * x
            reads.append([(v, x) for v, x in image.items() if x])
        return [[sum(f[v] * x for v, x in read) for read in reads] for f in self._forms]

    @property
    def p(self) -> int:
        return self.cover.p

    @property
    def order(self) -> int:
        return prod(self.factors)

    def annihilated_by(self, elem: GroupRingElement) -> bool:
        """Whether elem kills the whole cokernel of the Laplacian, Pic.

        The deck group G permutes each fibre freely, so the divisor group
        Div is the free Z[G]-module on the vertices (u, 1), one per fibre
        (Gross and Tucker, Topological Graph Theory, 1987).  L commutes with
        G, so Pic = Div / im L is a Z[G]-module generated by the n classes
        of those vertices, and as Z[G] is commutative, elem kills Pic
        exactly when it kills each of them.  elem (u, 1) has degree the
        augmentation of elem, so that must be 0, and then elem (u, 1) is a
        degree-zero divisor whose class in Pic0 must be 0: every form must
        read it as 0 modulo its factor.  That is n images of up to p - 1
        vertices and n reads per form, whatever the number of factors.
        """
        if elem.augmentation() != 0:
            return False
        terms = [(c, elem.group.element(k)) for k, c in enumerate(elem.coeffs) if c]
        fibres = [((u * self.cover.fiber_size, 1),) for u in self.cover.base.vertices]
        rows = self._transport(terms, fibres)
        return not any(x % d for d, row in zip(self.factors, rows) for x in row)

    def layer_ranks(self, lam: int) -> tuple[int, ...]:
        """Ranks r_1, ..., r_k (k the exponent of A) of e_chi A, for the
        character with chi(g) = lam mod p; r_1 is also the dimension of e_chi C.

        p^(j-1) A / p^j A is the F_p-space on the generators of exponent at
        least j, on which g acts by the matching block of ``action``.  e_chi A
        is a direct summand of A and e_chi projects onto the lam-eigenspace of
        g, so that eigenspace has dimension r_j = dim p^(j-1) e_chi A / p^j
        e_chi A, the number of summands of e_chi A of order at least p^j.
        """
        return tuple(dims[lam] for dims in self._dims)

    @cached_property
    def _dims(self) -> list[dict[int, int]]:
        """g's eigenspace dimensions at every lam on each layer of A, the first
        checked at every lam against g's on C, from ``deck``: C = A / pA."""
        p = self.p
        heights = range(1, max(self.exponents, default=0) + 1)
        layers = [[i for i, a in enumerate(self.exponents) if a >= j] for j in heights]
        blocks = [[[self.action[i][k] for k in layer] for i in layer] for layer in layers]
        *dims, on_c = _eigenspace_dims([*blocks, self.deck], p)
        for lam in range(1, p):
            if (r1 := dims[0][lam] if dims else 0) != on_c[lam]:
                raise VerificationError(
                    "picard.fixed_point_sweep",
                    f"layer rank r_1 = {r1} of A disagrees with the {lam}-eigenspace of the "
                    f"deck generator {self.generator} on C, of dimension {on_c[lam]}",
                )
        return dims


def _eigenspace_dims(mats, p: int) -> list[dict[int, int]]:
    """Each matrix's lam-eigenspace dimensions over F_p, lam in range(1, p)."""
    rows, blocks = [], []  # the block diagonal of every mat - lam I; blocks[column]: (mat, lam)
    for k, mat in enumerate(mats):
        for lam in range(1, p):
            start = len(rows)
            for i, row in enumerate(mat):
                shifted = enumerate(x - lam * (i == j) for j, x in enumerate(row))
                rows.append({start + j: y for j, x in shifted if (y := x % p)})
                blocks.append((k, lam))
    ranks = Counter(blocks[c] for _, c, _ in (unit_pivots(rows, prime_field(p))[4] if rows else ()))
    return [{lam: len(mat) - ranks[k, lam] for lam in range(1, p)} for k, mat in enumerate(mats)]


def _reduce(pivots, vec: dict[int, int], p: int) -> dict[int, int]:
    """Residual mod p of a sparse vector against pivot rows read mod p, in
    pivot order: congruent to vec modulo their span and zero at each pivot."""
    out = {j: y for j, x in vec.items() if (y := x % p)}
    for row, c, x in pivots:
        if y := out.pop(c, 0):
            m = -y * pow(x, -1, p)
            for j, z in row.items():
                if w := (out.get(j, 0) + m * z) % p:
                    out[j] = w
                else:
                    out.pop(j, None)
    return out
