"""Degree-zero Picard groups of covers, with the deck generator acting on them.

Pic0 of a connected graph is the cokernel of the reduced Laplacian L0 (last
vertex deleted) in the basis e_v - e_last of the degree-zero divisors, read
as sparse rows built once per graph.  One elimination (``snf.cokernel``),
for base graphs and covers alike, gives its determinant kappa, the number of
spanning trees, which must be positive as L0 is positive definite, and,
modulo kappa, which kills the cokernel, its invariant factors and
generators.  A deck transformation permutes vertices, hence acts on
degree-zero divisors; reading the image of the deck generator g with the
cokernel's coordinate forms gives g's matrix on Pic0, which determines the
action of the cyclic deck group.  That group has order p - 1, prime to p,
so g acts diagonalizably on each layer p^(j-1) A / p^j A of the p-primary
part A, and e_chi is the projection onto its chi(g)-eigenspace there; the
eigenspace dimensions, the layer ranks, give the order of e_chi A and, at
j = 1, the dimension of e_chi C for the mod-p quotient C.  ``PicardModule``
holds all of this for a cover, and also reads C independently, with no
arithmetic shared with the elimination modulo kappa: g's matrix on C comes
from a sparse echelon form mod p of the Laplacian's rows with Markowitz
pivots (``ModPEchelon``), and its chi(g)-eigenspace must have dimension r_1.
"""

from __future__ import annotations

from collections import defaultdict
from math import prod

from .arith import VerificationError, p_valuation
from .groupring import CyclicGroup, GroupRingElement
from .serre import SerreGraph
from .snf import Cokernel, cokernel
from .voltage import DerivedCover, require_connected_cover


def _reduced(lap: list[dict[int, int]]) -> list[dict[int, int]]:
    """L0: the Laplacian without the last vertex's row and column."""
    last = len(lap) - 1
    return [{j: x for j, x in row.items() if j != last} for row in lap[:-1]]


def _pic0(reduced: list[dict[int, int]]) -> tuple[int, Cokernel]:
    """The tree count kappa = det L0 and Pic0 = coker L0 of a connected
    graph, from the sparse rows of its reduced Laplacian L0, which is
    positive definite (Sylvester), so det L0 > 0 is required."""
    kappa, coker = cokernel(reduced)
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
    Z/p^a over those a > 0.

    ``deck`` is g's matrix on C = Pic0 / p, read with no arithmetic shared
    with the elimination modulo kappa.  The span mod p of the Laplacian's
    rows (its columns, by symmetry) and the unit row e_0 is the kernel of
    v -> v - deg(v) e_0 from F_p^N onto C, so the unit vectors e_v at the
    free columns of its echelon form, congruent to e_v - e_0, are a basis
    of C; a residual is zero at every pivot, so its coordinates in that
    basis are its entries at the free columns.
    """

    def __init__(self, cover: DerivedCover):
        require_connected_cover(cover)
        self.cover = cover
        lap = cover.total.laplacian_rows()
        coker = _pic0(_reduced(lap))[1]
        self.factors = coker.factors
        self.exponents = tuple(p_valuation(d, self.p) for d in self.factors)
        last = len(lap) - 1
        self._forms = tuple(f + (0,) for f in coker.forms)
        divisors = ((0,) * last + (1,), *(w + (-sum(w),) for w in coker.generators))
        self._divisors = tuple(tuple((v, x) for v, x in enumerate(w) if x) for w in divisors)
        self.generator = CyclicGroup.for_prime(self.p).generator
        self.action = tuple(
            tuple(x % d for x in row[1:])
            for d, row in zip(self.factors, self._transport([(1, self.generator)]))
        )
        span = ModPEchelon(self.p, [{0: 1}, *lap])
        free = [v for v in range(len(lap)) if v not in span.pivots]
        perm = cover.deck_vertex_map(self.generator)
        images = [span.reduce({perm[v]: 1, perm[0]: -1}) for v in free]
        self.deck = tuple(tuple(image.get(w, 0) for w in free) for image in images)

    def _transport(self, terms: list[tuple[int, int]]) -> list[list[int]]:
        """The coordinate forms read on x = sum of c tau over ``terms``.

        Row i holds form i read on the sum of c (e_tau(last) - e_last), which
        is x e_last when x has augmentation 0, then on x w_j for each
        generator w_j of Pic0; the integers are not reduced.

        A form extended by 0 at the last vertex reads e_w - e_last at w for
        every w, so it reads a divisor of degree 0 as a dot product.  Each
        image x e_last and x (w_j - |w_j| e_last) is built once, on a small
        support, where every form reads it.
        """
        perms = [(c, self.cover.deck_vertex_map(tau)) for c, tau in terms]
        reads = []
        for divisor in self._divisors:
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
        """Whether elem kills the whole cokernel of the Laplacian.

        The divisor group is spanned by the degree-zero divisors and one
        vertex, so elem must have augmentation 0, kill every generator of
        Pic0, and send the last vertex to a degree-zero divisor of class 0.
        """
        if elem.augmentation() != 0:
            return False
        terms = [(c, elem.group.element(k)) for k, c in enumerate(elem.coeffs) if c]
        rows = self._transport(terms)
        return not any(x % d for d, row in zip(self.factors, rows) for x in row)

    def layer_ranks(self, lam: int) -> tuple[int, ...]:
        """Ranks r_1, ..., r_k (k the exponent of A) of e_chi A, for the
        character with chi(g) = lam mod p.

        p^(j-1) A / p^j A is the F_p-space on the generators of exponent at
        least j, on which g acts by the matching block of ``action``.  e_chi A
        is a direct summand of A and e_chi projects onto the lam-eigenspace of
        g, so that eigenspace has dimension r_j = dim p^(j-1) e_chi A / p^j
        e_chi A, the number of summands of e_chi A of order at least p^j.
        Nothing is read when A = 0.
        """
        ranks = []
        for j in range(1, max(self.exponents, default=0) + 1):
            layer = [i for i, a in enumerate(self.exponents) if a >= j]
            block = [[self.action[i][k] for k in layer] for i in layer]
            ranks.append(_eigenspace_dim(block, lam, self.p))
        return tuple(ranks)

    def dim_C(self, lam: int, ranks: tuple[int, ...]) -> int:
        """F_p-dimension of e_chi C for chi(g) = lam: the first layer rank r_1
        of A in ``ranks``.  The classes of C fixed by e_chi form the
        lam-eigenspace of g on C, whose dimension, read from ``deck``, is
        required to equal it."""
        dim = ranks[0] if ranks else 0
        eigen = _eigenspace_dim(self.deck, lam, self.p)
        if eigen != dim:
            raise VerificationError(
                "picard.fixed_point_sweep",
                f"layer rank r_1 = {dim} of A disagrees with the {lam}-eigenspace of the "
                f"deck generator {self.generator} on C, of dimension {eigen}",
            )
        return dim


def _eigenspace_dim(mat, lam: int, p: int) -> int:
    """Dimension of the lam-eigenspace of a square matrix over F_p."""
    shifted = ({**dict(enumerate(row)), k: row[k] - lam} for k, row in enumerate(mat))
    return len(mat) - ModPEchelon(p, shifted).rank


class ModPEchelon:
    """Echelon basis of the span over F_p of sparse rows {column: entry}.

    Elimination pivots on the shortest active row, at its column with the
    fewest other active rows (Markowitz; ties: the lowest row, then column),
    and clears that column from every other active row, so each pivot row is
    zero at every earlier pivot column.  ``pivots`` maps the pivot columns,
    in pivot order, to their rows scaled to 1 there, stored without that
    entry.
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
