"""Degree-zero Picard groups of covers, deck actions, and character pieces.

Pic0 of a connected graph is the cokernel of the reduced Laplacian L0 (last
vertex deleted) in the basis e_v - e_last of the degree-zero divisors, read
as sparse rows built once per graph.  One elimination (``snf.cokernel``),
for base graphs and covers alike, gives its determinant kappa, the number of
spanning trees, which must be positive as L0 is positive definite, and,
modulo kappa, which kills the cokernel, its invariant factors and
generators.  A deck transformation permutes vertices,
hence acts on degree-zero divisors; reading the image of each generator with
the cokernel's coordinate forms expresses the action on Pic0.  Only the deck
generator g is transported: the deck group is cyclic of order p - 1, prime
to p, so g acts diagonalizably on each layer p^(j-1) A / p^j A of the
p-primary part A, and e_chi is the projection onto its chi(g)-eigenspace
there.  The dimension of that eigenspace counts the summands of e_chi A of
order at least p^j; those layer ranks give the order of e_chi A and, at
j = 1, the dimension of e_chi C for the mod-p quotient C.  C itself is read
independently, with no arithmetic shared with the elimination modulo kappa:
from a sparse echelon form mod p of the Laplacian's rows with Markowitz
pivots (``ModPEchelon``), which also gives every eigenspace dimension over
F_p.  One matrix of g on explicit divisors of C gives every e_chi C as an
eigenspace, and checks every dimension of C.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from math import prod

from .arith import VerificationError, p_part, p_valuation
from .characters import Character
from .groupring import CyclicGroup, GroupRingElement
from .serre import SerreGraph
from .snf import Cokernel, cokernel
from .voltage import DerivedCover, require_connected_cover


def spanning_tree_count(g: SerreGraph) -> int:
    """Number of spanning trees, as a principal minor of the Laplacian."""
    if not g.is_connected():
        raise ValueError("spanning trees are only counted for connected graphs")
    return _pic0(_reduced(g.laplacian_rows()))[0]


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
    """Pic0 of the total graph together with the deck action on it.

    ``factors`` are the invariant factors above 1 and ``action`` the matrix
    of the deck generator ``generator`` on their generators, row i modulo
    factor i; the deck group is cyclic, so g's matrix determines the action.
    ``full_diagonal`` is the Smith diagonal of the whole Laplacian,
    (1, ..., 1, factors, 0), kept for failure diagnostics.  ``laplacian``
    holds the total graph's Laplacian rows, which ``elementary_quotient`` reads.
    """

    def __init__(self, cover: DerivedCover):
        require_connected_cover(cover)
        self.cover = cover
        self.laplacian = cover.total.laplacian_rows()
        coker = _pic0(_reduced(self.laplacian))[1]
        self.factors = coker.factors
        last = len(self.laplacian) - 1
        self.full_diagonal = (1,) * (last - len(self.factors)) + self.factors + (0,)
        self._forms = tuple(f + (0,) for f in coker.forms)
        divisors = ((0,) * last + (1,), *(w + (-sum(w),) for w in coker.generators))
        self._divisors = tuple(tuple((v, x) for v, x in enumerate(w) if x) for w in divisors)
        self.generator = CyclicGroup.for_prime(cover.p).generator
        self.action = tuple(
            tuple(x % d for x in row[1:])
            for d, row in zip(self.factors, self._transport([(1, self.generator)]))
        )

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

    def rank(self) -> int:
        return len(self.factors)

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


def picard_module(cover: DerivedCover) -> PicardModule:
    return PicardModule(cover)


@dataclass(frozen=True)
class SylowPModule:
    """p-primary part of the Picard module: p-power factors and the matrix
    ``action`` of the deck generator ``generator``, modulo p^exponent."""

    p: int
    exponents: tuple[int, ...]
    generator: int
    action: tuple[tuple[int, ...], ...]

    @property
    def exponent(self) -> int:
        return max(self.exponents) if self.exponents else 0

    @property
    def factors(self) -> tuple[int, ...]:
        return tuple(self.p**a for a in self.exponents)

    @property
    def order(self) -> int:
        return self.p ** sum(self.exponents)

    def rank(self) -> int:
        return len(self.exponents)


def sylow_p_module(pm: PicardModule, p: int) -> SylowPModule:
    """Restrict the Picard module to its p-power invariant factors."""
    keep = [i for i, d in enumerate(pm.factors) if d % p == 0]
    exponents = tuple(p_valuation(pm.factors[i], p) for i in keep)
    k = max(exponents) if exponents else 0
    modulus = p**k if k else 1
    action = tuple(tuple(pm.action[i][j] % modulus for j in keep) for i in keep)
    return SylowPModule(p=p, exponents=exponents, generator=pm.generator, action=action)


def _eigenspace_dim(mat, lam: int, p: int) -> int:
    """Dimension of the lam-eigenspace of a square matrix over F_p."""
    shifted = ({**dict(enumerate(row)), k: row[k] - lam} for k, row in enumerate(mat))
    return len(mat) - ModPEchelon(p, shifted).rank


def layer_ranks(m: SylowPModule, chi: Character) -> tuple[int, ...]:
    """Ranks r_1, ..., r_k (k the exponent) of the chi-component of A.

    p^(j-1) A / p^j A is the F_p-space on the generators of exponent at
    least j, on which the deck generator g acts by the matching block of
    its matrix.  e_chi A is a direct summand of A and e_chi projects onto
    the chi(g)-eigenspace of g, so that eigenspace has dimension r_j = dim
    p^(j-1) e_chi A / p^j e_chi A, the number of summands of e_chi A of
    order at least p^j.  Only chi mod p enters, and nothing is read when
    A = 0.
    """
    if m.rank() == 0:
        return ()
    lam = pow(m.generator, chi.exponent, m.p)
    ranks = []
    for j in range(1, m.exponent + 1):
        layer = [i for i, a in enumerate(m.exponents) if a >= j]
        ranks.append(_eigenspace_dim([[m.action[i][k] for k in layer] for i in layer], lam, m.p))
    return tuple(ranks)


def eigenspace_order_A(m: SylowPModule, chi: Character) -> int:
    """Order of the chi-component of the p-primary part A: p^(r_1 + ... + r_k)."""
    return m.p ** sum(layer_ranks(m, chi))


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


@dataclass(frozen=True)
class ElementaryQuotient:
    """The mod-p quotient C of a cover, presented on explicit degree-zero divisors.

    ``basis`` lifts an F_p-basis of C to integer divisors.  Because the
    sublattice p*Div0 + Pr contains p*Div0, membership only depends on the
    divisor mod p: v -> v - deg(v) e_0 maps F_p^N onto C with kernel the
    span of the Laplacian columns and e_0, which ``membership`` holds, so a
    degree-zero divisor lies in the sublattice exactly when its residual is
    empty.  ``deck[k]`` holds the coordinates of ``generator`` . basis[k] in
    the basis: the deck generator's matrix N on C.
    """

    cover: DerivedCover
    basis: tuple[tuple[int, ...], ...]
    membership: ModPEchelon
    generator: int
    deck: tuple[tuple[int, ...], ...]

    @property
    def p(self) -> int:
        return self.cover.p

    @property
    def dimension(self) -> int:
        return len(self.basis)


def elementary_quotient(pm: PicardModule) -> ElementaryQuotient:
    """C = Pic0 / p, read off the Laplacian the Picard module was built from."""
    p = pm.p
    lap = pm.laplacian
    n = len(lap)
    # The Laplacian's columns, its rows by symmetry, and the unit row e_0.
    span = ModPEchelon(p, [{0: 1}, *lap])
    free = [v for v in range(n) if v not in span.pivots]
    # The free unit vectors e_v, congruent to e_v - e_0, are a basis of C,
    # and a residual is zero at every pivot, so a residual's coordinates in
    # the basis are its entries at the free coordinates.
    g = pm.generator
    perm = pm.cover.deck_vertex_map(g)
    basis, deck = [], []
    for v in free:
        eps = [0] * n
        eps[0], eps[v] = -1, 1
        basis.append(tuple(eps))
        residual = span.reduce({perm[v]: 1, perm[0]: -1})
        deck.append(tuple(residual.get(w, 0) for w in free))
    return ElementaryQuotient(
        cover=pm.cover, basis=tuple(basis), membership=span, generator=g, deck=tuple(deck)
    )


def eigenspace_dim_C(
    q: ElementaryQuotient,
    sylow: SylowPModule,
    chi: Character,
    ranks: tuple[int, ...] | None = None,
) -> int:
    """F_p-dimension of the chi-component of C: the first layer rank r_1.

    ``sylow`` is the p-primary part of the same cover's Picard module and
    ``ranks`` its ``layer_ranks`` for chi, computed here when omitted.  The
    classes of C fixed by the idempotent form the chi(g)-eigenspace of the
    deck generator g, whose dimension dim C - rank(N - chi(g) I), with N
    g's matrix on explicit divisors of C, recomputes the dimension
    independently and is required to equal it.
    """
    if chi.precision is not None:
        raise ValueError("eigenspace_dim_C expects an F_p-valued character")
    p = chi.group.p
    if sylow.p != p:
        raise ValueError("character prime does not match the cover")
    if ranks is None:
        ranks = layer_ranks(sylow, chi)
    dim = ranks[0] if ranks else 0
    lam = chi.value(q.generator)
    eigen = _eigenspace_dim(q.deck, lam, p)
    if eigen != dim:
        raise VerificationError(
            "picard.fixed_point_sweep",
            f"layer rank r_1 = {dim} of A disagrees with the {lam}-eigenspace of the "
            f"deck generator {q.generator} on C, of dimension {eigen}",
        )
    return dim


def trivial_character_check(m: SylowPModule, kappa_base: int) -> bool:
    """Order of the trivial-character piece of A against the p-part of the
    base graph's spanning tree count ``kappa_base``."""
    chi0 = Character(CyclicGroup.for_prime(m.p), 0)
    return eigenspace_order_A(m, chi0) == p_part(kappa_base, m.p)
