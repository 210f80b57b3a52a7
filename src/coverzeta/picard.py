"""Degree-zero Picard groups of covers, deck actions, and character pieces.

Pic0 of a connected graph is the cokernel of the reduced Laplacian L0 (last
vertex deleted) in the basis e_v - e_last of the degree-zero divisors.  Its
determinant kappa, the number of spanning trees, kills that cokernel, so
its invariant factors and generators come from an elimination modulo kappa
(``snf.cokernel_mod``), for base graphs and covers alike.  A deck
transformation permutes vertices, hence acts on degree-zero divisors;
reading the image of each generator with the cokernel's coordinate forms
expresses the action on Pic0.  Character pieces come from one projector
mod p per character: e_chi A is a direct summand of the p-primary part A,
so the projector's rank on the layer p^(j-1) A / p^j A counts the summands
of e_chi A of order at least p^j.  Those layer ranks give the order of
e_chi A and, at j = 1, the dimension of e_chi C for the mod-p quotient C.
The deck group has order p - 1, prime to p, so a generator g acts
diagonalizably on C and e_chi C is the chi(g)-eigenspace of g; one matrix
of g on explicit divisors of C checks every dimension of C independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .arith import VerificationError, p_part, p_valuation
from .characters import Character
from .groupring import CyclicGroup, GroupRingElement
from .serre import SerreGraph
from .snf import Cokernel, cokernel_mod, integer_determinant
from .voltage import DerivedCover, require_connected_cover


def spanning_tree_count(g: SerreGraph, lap: list[list[int]] | None = None) -> int:
    """Number of spanning trees, as a principal minor of the Laplacian.

    ``lap`` is the graph's Laplacian, built here when omitted.
    """
    if not g.is_connected():
        raise ValueError("spanning trees are only counted for connected graphs")
    if lap is None:
        lap = g.laplacian_matrix()
    return _tree_count([row[:-1] for row in lap[:-1]])


def _tree_count(reduced: list[list[int]]) -> int:
    """Determinant of a Laplacian with its last row and column deleted."""
    kappa = integer_determinant(reduced)
    if kappa <= 0:
        raise VerificationError("picard.tree_count", f"reduced Laplacian determinant {kappa}")
    return kappa


def _reduced_cokernel(lap: list[list[int]]) -> Cokernel:
    """Pic0 of a connected graph from its Laplacian, modulo the tree count."""
    reduced = [row[:-1] for row in lap[:-1]]
    return cokernel_mod(reduced, _tree_count(reduced))


def picard_factors(g: SerreGraph, lap: list[list[int]] | None = None) -> tuple[int, ...]:
    """Invariant factors (> 1) of the degree-zero Picard group of a graph.

    ``lap`` is the graph's Laplacian, built here when omitted.
    """
    if not g.is_connected():
        raise ValueError("graph must be connected")
    if lap is None:
        lap = g.laplacian_matrix()
    return _reduced_cokernel(lap).factors


class PicardModule:
    """Pic0 of the total graph together with the deck action on it.

    ``factors`` are the invariant factors above 1 and ``actions[tau]`` the
    matrix of deck element tau on their generators, row i modulo factor i.
    ``full_diagonal`` is the Smith diagonal of the whole Laplacian,
    (1, ..., 1, factors, 0), kept for failure diagnostics.
    """

    def __init__(self, cover: DerivedCover):
        require_connected_cover(cover)
        self.cover = cover
        self.laplacian = cover.total.laplacian_matrix()
        coker = _reduced_cokernel(self.laplacian)
        self.factors = coker.factors
        last = len(self.laplacian) - 1
        self.full_diagonal = (1,) * (last - len(self.factors)) + self.factors + (0,)
        # A form extended by 0 at the last vertex reads e_w - e_last at w for
        # every w.  pi(e_v - e_last) = (e_pi(v) - e_last) - (e_pi(last) - e_last),
        # so form f reads pi(w) as the sum of w_v (f[pi(v)] - f[pi(last)])
        # over the support of w, which is small.
        self._forms = tuple(f + (0,) for f in coker.forms)
        r = len(self.factors)
        gens = [[(v, x) for v, x in enumerate(g) if x] for g in coker.generators]
        self.actions: dict[int, tuple[tuple[int, ...], ...]] = {}
        for tau in range(1, cover.p):
            perm = cover.deck_vertex_map(tau)
            mat = []
            for d, f in zip(self.factors, self._forms):
                shift = f[perm[last]]
                mat.append(tuple(sum(x * (f[perm[v]] - shift) for v, x in g) % d for g in gens))
            self.actions[tau] = tuple(mat)
        if self.actions[1] != tuple(tuple(int(i == j) for j in range(r)) for i in range(r)):
            raise VerificationError("picard.identity_action", "deck element 1 acts nontrivially")

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
        last = len(self.laplacian) - 1
        terms = [(c, elem.group.element(k)) for k, c in enumerate(elem.coeffs) if c]
        for i, (d, f) in enumerate(zip(self.factors, self._forms)):
            vertex = sum(c * f[self.cover.deck_vertex_map(tau)[last]] for c, tau in terms)
            row = [sum(c * self.actions[tau][i][j] for c, tau in terms) for j in range(self.rank())]
            if any(x % d for x in (vertex, *row)):
                return False
        return True


def picard_module(cover: DerivedCover) -> PicardModule:
    return PicardModule(cover)


@dataclass(frozen=True)
class SylowPModule:
    """p-primary part of the Picard module: p-power factors plus the action."""

    p: int
    exponents: tuple[int, ...]
    actions: dict[int, tuple[tuple[int, ...], ...]]

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
    actions: dict[int, tuple[tuple[int, ...], ...]] = {}
    for tau, mat in pm.actions.items():
        actions[tau] = tuple(
            tuple(mat[i][j] % modulus for j in keep) for i in keep
        )
    return SylowPModule(p=p, exponents=exponents, actions=actions)


def _projector_matrix(m: SylowPModule, chi: Character) -> list[list[int]]:
    """The idempotent's action on the module's generators, mod p.

    Only chi mod p enters, so a lifted character gives the same matrix.
    """
    p, r = m.p, m.rank()
    out = [[0] * r for _ in range(r)]
    for sigma in range(1, p):
        v = pow(sigma, chi.exponent, p)
        mat = m.actions[pow(sigma, -1, p)]
        for i in range(r):
            for j in range(r):
                out[i][j] += v * mat[i][j]
    return [[-x % p for x in row] for row in out]  # 1/(p - 1) = -1 mod p


def layer_ranks(m: SylowPModule, chi: Character) -> tuple[int, ...]:
    """Ranks r_1, ..., r_k (k the exponent) of the chi-component of A.

    p^(j-1) A / p^j A is the F_p-space on the generators of exponent at
    least j, and e_chi A is a direct summand of A, so the projector's rank
    on that layer is r_j = dim p^(j-1) e_chi A / p^j e_chi A, the number of
    summands of e_chi A of order at least p^j.  No projector is built when
    A = 0.
    """
    if m.rank() == 0:
        return ()
    proj = _projector_matrix(m, chi)
    ranks = []
    for j in range(1, m.exponent + 1):
        layer = [i for i, a in enumerate(m.exponents) if a >= j]
        ranks.append(_ModPSpan(m.p, ([proj[i][k] for k in layer] for i in layer)).rank)
    return tuple(ranks)


def eigenspace_order_A(m: SylowPModule, chi: Character) -> int:
    """Order of the chi-component of the p-primary part A: p^(r_1 + ... + r_k)."""
    return m.p ** sum(layer_ranks(m, chi))


class _ModPSpan:
    """Row-echelon basis of a subspace of F_p^k with linear reduction."""

    def __init__(self, p: int, vectors):
        self.p = p
        self.rows: dict[int, list[int]] = {}  # pivot coordinate -> echelon row
        for vec in vectors:
            self.add(vec)

    def add(self, vec) -> None:
        row = self.reduce(vec)
        for j, x in enumerate(row):
            if x:
                inv = pow(x, -1, self.p)
                self.rows[j] = [v * inv % self.p for v in row]
                return

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec) -> list[int]:
        """Residual of vec against the echelon rows (linear in vec).

        Each row is zero at the pivots added before it, so the residual is
        zero at every pivot coordinate.
        """
        p = self.p
        row = [x % p for x in vec]
        for pivot, basis_row in self.rows.items():
            c = row[pivot]
            if c:
                row = [(x - c * y) % p for x, y in zip(row, basis_row)]
        return row

    def contains(self, vec) -> bool:
        return not any(self.reduce(vec))


@dataclass(frozen=True)
class ElementaryQuotient:
    """The mod-p quotient C of a cover, presented on explicit degree-zero divisors.

    ``basis`` lifts an F_p-basis of C to integer divisors.  Because the
    sublattice p*Div0 + Pr contains p*Div0, membership only depends on the
    divisor mod p, so ``membership`` is the mod-p span of the Laplacian
    columns in the difference coordinates w_i - w_0.  ``deck[k]`` holds the
    coordinates of ``generator`` . basis[k] in the basis: the deck
    generator's matrix N on C.
    """

    cover: DerivedCover
    basis: tuple[tuple[int, ...], ...]
    membership: _ModPSpan
    generator: int
    deck: tuple[tuple[int, ...], ...]

    @property
    def p(self) -> int:
        return self.cover.p

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def delta_coords(self, divisor) -> list[int]:
        """Difference-basis coordinates of a degree-zero divisor."""
        if sum(divisor) != 0:
            raise ValueError("divisor must have degree zero")
        return list(divisor[1:])

    def contains(self, divisor: list[int]) -> bool:
        """Whether an (integer, degree-zero) divisor lies in p*Div0 + Pr."""
        return self.membership.contains(self.delta_coords(divisor))


def elementary_quotient(pm: PicardModule) -> ElementaryQuotient:
    """C = Pic0 / p, read off the Laplacian the Picard module was built from."""
    p = pm.p
    lap = pm.laplacian
    n = len(lap)
    # Columns of the Laplacian in difference coordinates span the image of
    # the principal divisors inside Div0/p*Div0.
    span = _ModPSpan(p, ([lap[i][j] for i in range(1, n)] for j in range(n)))
    free = [j for j in range(n - 1) if j not in span.rows]
    # basis[k] is the unit vector at free[k] in difference coordinates and a
    # residual is zero at every pivot, so a residual's coordinates in the
    # basis are its entries at the free coordinates.
    g = CyclicGroup.for_prime(p).generator
    perm = pm.cover.deck_vertex_map(g)
    basis, deck = [], []
    for j in free:
        eps = [0] * n
        eps[0], eps[j + 1] = -1, 1
        basis.append(tuple(eps))
        image = [0] * n
        image[perm[0]] -= 1
        image[perm[j + 1]] += 1
        residual = span.reduce(image[1:])
        deck.append(tuple(residual[k] for k in free))
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
    deck generator g, whose dimension dim C - rank(N - chi(g) I) recomputes
    the dimension independently and is required to equal it.
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
    shifted = ([x - lam * (j == k) for j, x in enumerate(row)] for k, row in enumerate(q.deck))
    eigen = q.dimension - _ModPSpan(p, shifted).rank
    if eigen != dim:
        raise VerificationError(
            "picard.fixed_point_sweep",
            f"projector rank {dim} disagrees with the {lam}-eigenspace of the deck "
            f"generator {q.generator} on C, of dimension {eigen}",
        )
    return dim


def trivial_character_check(m: SylowPModule, kappa_base: int) -> bool:
    """Order of the trivial-character piece of A against the p-part of the
    base graph's spanning tree count ``kappa_base``."""
    chi0 = Character(CyclicGroup.for_prime(m.p), 0)
    return eigenspace_order_A(m, chi0) == p_part(kappa_base, m.p)
