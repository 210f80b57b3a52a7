"""Equivariant Ihara zeta data for a cover: the value at u = 1 of the
determinant polynomial det(I - A u + (D - I) u^2), which is the group-ring
determinant of the Laplacian D - A, and character L-values.

The Laplacian D - A over Z[G], sparse rows {column: coefficient vector},
and eta(1) are built once per cover by ``herbrand.build_report`` and passed
in.  Everything is exact, and each value is taken along two routes that are
compared: a character of eta(1) against the determinant of the evaluated
Laplacian modulo p or p^K (``snf.det_mod``); and eta(1) itself by the
certified elimination on the unit pivots +-g^k (``snf.unit_pivots``), whose
dense core has its determinant taken by Berkowitz's algorithm over Z[G] and
by ``snf.det_mod`` modulo M = B^(p-1) - 1 after Kronecker substitution.

Over Q the group ring splits as the product of the cyclotomic fields
Q(zeta_d), d dividing p - 1, one for each rational orbit of characters (those
of order d); ``orbit_norms`` reads an element's norm in each of them.
"""

from __future__ import annotations

from functools import cache
from math import prod
from operator import mul

from .arith import VerificationError
from .characters import Character
from .groupring import CyclicGroup, GroupRingElement, berkowitz
from .snf import det_mod, integer_determinant, unit_pivots
from .voltage import DerivedCover, require_connected_cover


def equivariant_laplacian(cover: DerivedCover) -> list[dict[int, tuple[int, ...]]]:
    """D - A over Z[G] as sparse rows {column: coefficient vector}, in one
    pass over the base's edge pairs, each read as its two directed edges:
    u -> v with voltage a and v -> u with a^(-1).

    Row i holds its diagonal, the valence at the identity, and one entry per
    neighbour.  A base edge j -> i with voltage a adds the group element a to
    entry (i, j) of A (Gross-Tucker): its lift landing on the unit-1 point
    over i starts at the point of unit a^(-1) over j.  A loop adds both a and
    a^(-1) to its diagonal entry, which over Z[G] do not cancel.  Entries are
    tuples, so the routes that read the Laplacian share it unchanged.
    """
    group = CyclicGroup.for_prime(cover.p)
    m = group.order
    rows = [{i: [0] * m} for i in cover.base.vertices]
    for (u, v), a in zip(cover.base.edge_pairs, cover.spec.voltages):
        k = group.index_of(a)
        rows[u][u][0] += 1
        rows[v].setdefault(u, [0] * m)[k] -= 1
        rows[v][v][0] += 1
        rows[u].setdefault(v, [0] * m)[-k % m] -= 1
    return [{j: tuple(x) for j, x in row.items()} for row in rows]


def eta_at_one(cover: DerivedCover, lap: list[dict]) -> GroupRingElement:
    """Special value at u = 1: the group-ring determinant of the Laplacian
    ``lap`` (``equivariant_laplacian``), I - A u + (D - I) u^2 at u = 1.  Its
    unit pivots (``unit_pivots``) give det = scale * det(core), and the
    core's determinant is taken by Berkowitz and modulo B^(p-1) - 1 after
    Kronecker substitution by ``det_mod``, which must agree.  The core is
    never empty: the scale is a unit, of augmentation +-1, while det(D - A)
    has augmentation 0, the determinant of the base Laplacian.
    """
    require_connected_cover(cover)
    group = CyclicGroup.for_prime(cover.p)
    scale, _, core, _, _ = unit_pivots(lap, group.ring)
    if not core:
        raise VerificationError(
            "zeta.eta_routes", f"the unit pivots left no core, so det L would be the unit {scale}"
        )
    direct = GroupRingElement(group, berkowitz(core, group.product))
    substituted = _substitution_determinant(core, group)
    if direct != substituted:
        raise VerificationError(
            "zeta.eta_routes",
            f"Berkowitz determinant {direct} != Kronecker-substituted determinant {substituted}",
        )
    det = [0] * group.order
    group.product(det, scale, direct.coeffs)
    return GroupRingElement(group, tuple(det))


def _substitution_determinant(rows: list[list], group: CyclicGroup) -> GroupRingElement:
    """Group-ring determinant, through the ring map Z[G] -> Z/(B^(p-1) - 1),
    of a square matrix given as dense rows of coefficient vectors.

    sigma_g^k maps to B^k.  Every Leibniz term is a product of one entry per
    row, so the absolute values of the determinant's coefficients c_k sum to
    at most beta, the product of the rows' l1 norms.  With B = 2 beta + 1 the
    integer sum of c_k B^k lies strictly between -M/2 and M/2, M = B^(p-1) - 1,
    so it is the symmetric residue of the substituted matrix's determinant
    modulo M, taken by ``det_mod``, and its balanced base-B digits are the c_k.
    """
    m = group.order
    beta = max(prod(sum(sum(map(abs, x)) for x in row) for row in rows), 1)
    base = 2 * beta + 1
    modulus = base**m - 1
    powers = [base**k for k in range(m)]
    det = det_mod([[sum(map(mul, x, powers)) for x in row] for row in rows], modulus)
    if det > modulus // 2:
        det -= modulus
    coeffs = []
    for _ in range(m):
        digit = det % base
        if digit > beta:
            digit -= base
        coeffs.append(digit)
        det = (det - digit) // base
    return GroupRingElement(group, tuple(coeffs))


def l_value(chi: Character, eta1: GroupRingElement, lap: list[dict]) -> int:
    """Character L-value at u = 1, in range(chi.modulus), cross-checked
    along both routes: chi(eta1) against the determinant of the Laplacian
    ``lap`` evaluated at chi, whose stored entries are each one dot product
    with the character's value table.
    """
    table, modulus = chi.table(eta1.group), chi.modulus
    evaluated = [[0] * len(lap) for _ in lap]
    for out, row in zip(evaluated, lap):
        for j, x in row.items():
            out[j] = sum(map(mul, x, table))
    by_eta = eta1.evaluate(chi)
    by_det = det_mod(evaluated, modulus)
    if by_eta != by_det:
        raise VerificationError(
            "zeta.l_routes",
            f"character {chi.exponent}: value of eta(1) {by_eta} != "
            f"determinant of the evaluated Laplacian {by_det}",
        )
    return by_eta


def duality_check(eta1: GroupRingElement, precision: int = 2) -> bool:
    """L-values at a character and its contragredient always coincide.

    chi*(x) = chi(x*), x* the image of x under g -> g^(-1), and the table of
    the characters modulo p^precision is invertible (a Vandermonde matrix of
    roots of unity distinct mod p), so every pair agrees there, and mod p,
    exactly when the cover's special value eta1 = eta1* modulo p^precision.
    """
    modulus = eta1.group.p**precision
    return all((a - b) % modulus == 0 for a, b in zip(eta1.coeffs, eta1.involution().coeffs))


@cache
def cyclotomic(d: int) -> tuple[int, ...]:
    """Coefficients of the cyclotomic polynomial Phi_d, constant term first:
    x^d - 1 divided exactly by Phi_e for each proper divisor e of d."""
    poly = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            den = cyclotomic(e)
            k = len(den) - 1
            quotient = [0] * (len(poly) - k)
            for i in range(len(quotient) - 1, -1, -1):
                c = quotient[i] = poly[i + k]
                for j, y in enumerate(den):
                    poly[i + j] -= c * y
            poly = quotient
    return tuple(poly)


def orbit_norms(elem: GroupRingElement) -> dict[int, int]:
    """Norm N_d of elem at the characters of order d, for each divisor d > 1
    of the group order.

    With f = sum of c_k x^k over the coefficients c_k of elem at g^k, a
    character chi of order d sends elem to f(chi(g)), chi(g) a primitive
    d-th root of unity, so the product of chi(elem) over those characters
    is the resultant Res(Phi_d, f): the determinant of multiplication by f
    on Z[x]/Phi_d, taken in the basis 1, x, ..., x^(phi(d) - 1).  f is
    first folded modulo x^d - 1, which Phi_d divides.
    """
    m = elem.group.order
    norms = {}
    for d in range(2, m + 1):
        if m % d:
            continue
        phi = cyclotomic(d)
        k = len(phi) - 1
        col = [0] * d
        for i, c in enumerate(elem.coeffs):
            col[i % d] += c
        for i in range(d - 1, k - 1, -1):  # reduce modulo the monic Phi_d
            c = col.pop()
            for j, y in enumerate(phi[:-1], i - k):
                col[j] -= c * y
        cols = []
        for _ in range(k):
            cols.append(col)
            c = col[-1]  # x * col, reduced by x^k = -(phi[0] + ... + phi[k-1] x^(k-1))
            col = [-c * phi[0]] + [a - c * y for a, y in zip(col, phi[1:-1])]
        norms[d] = integer_determinant(cols)
    return norms
