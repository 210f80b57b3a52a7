import itertools
import operator
import random
import time
from functools import reduce
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from conftest import bench_inputs

from coverzeta import (
    Character,
    CyclicGroup,
    derive,
    groupring,
    spec_from_dict,
    zeta,
    GroupRingElement,
)
from coverzeta.arith import is_odd_prime, is_primitive_root, smallest_primitive_root
from coverzeta.groupring import convolution
from coverzeta.snf import unit_pivots
from coverzeta.padic import PrecisionExhausted
from coverzeta.zeta import _substitution_determinant, equivariant_laplacian, eta_at_one
from reference import (
    character_value,
    coefficient,
    contragredient,
    group_element,
    idempotent_mod,
    multiplicative_order,
    reduce_mod,
    ring_add,
    ring_determinant,
    ring_is_zero,
    ring_mul,
    ring_neg,
    ring_one,
    ring_sub,
    ring_zero,
    sparse_rows,
    truncated_convolution,
    truncated_ring,
    zp_characters,
)

G5 = CyclicGroup.for_prime(5)
G7 = CyclicGroup.for_prime(7)


def elem(group, *coeffs):
    return GroupRingElement(group, tuple(coeffs))


def _coeffs(entries):
    return [[e.coeffs for e in row] for row in entries]


def _det(group, entries):
    """Berkowitz determinant of a matrix of group-ring elements, as an element."""
    return GroupRingElement(group, groupring.berkowitz(_coeffs(entries), group.product))


def _evaluate(entries, chi):
    return [[e.evaluate(chi) for e in row] for row in entries]


@st.composite
def elements(draw, group=G5):
    coeffs = draw(
        st.lists(
            st.integers(-20, 20), min_size=group.order, max_size=group.order
        )
    )
    return GroupRingElement(group, tuple(coeffs))


def test_generator_is_smallest_primitive_root():
    assert G5.generator == 2
    assert G7.generator == 3
    assert CyclicGroup.for_prime(11).generator == 2
    assert G5.elements == (1, 2, 4, 3)


def test_primitive_root_of_a_word_sized_prime_is_prompt():
    # 2^31 - 1 = 2 * 3^2 * 7 * 11 * 31 * 151 * 331 + 1: primitivity is read
    # from those six factors, not from an order found by O(p) products.
    start = time.perf_counter()
    assert CyclicGroup.for_prime(2**31 - 1).generator == 7
    assert time.perf_counter() - start < 1.0


def test_primitive_roots_agree_with_the_brute_force_order():
    for p in filter(is_odd_prime, range(3, 3000, 2)):
        g = smallest_primitive_root(p)
        assert multiplicative_order(g, p) == p - 1
        assert all(multiplicative_order(h, p) < p - 1 for h in range(2, g))
    for p in filter(is_odd_prime, range(3, 200, 2)):
        assert [g for g in range(1, p) if is_primitive_root(g, p)] == [
            g for g in range(1, p) if multiplicative_order(g, p) == p - 1
        ]


def test_a_non_generator_is_refused():
    with pytest.raises(ValueError, match="does not generate"):
        CyclicGroup(7, 2)  # 2^3 = 1 mod 7
    with pytest.raises(ValueError, match="does not generate"):
        CyclicGroup(7, 7)


def test_one_group_per_prime():
    # The report path asks for the group of its prime in several places; each
    # gets the same object, with its element table and convolution built once.
    for p in (5, 7, 331):
        group = CyclicGroup.for_prime(p)
        assert CyclicGroup.for_prime(p) is group
        assert group.product is CyclicGroup.for_prime(p).product
    assert CyclicGroup.for_prime(5) is G5


def test_identity_multiplication():
    one = ring_one(G5)
    b = elem(G5, 3, -1, 4, 7)
    assert ring_mul(one, b) == b
    assert ring_mul(b, one) == b


def test_generator_times_its_inverse_power():
    sigma = group_element(G5, G5.generator)
    sigma_inv = group_element(G5, G5.element(G5.order - 1))
    assert ring_mul(sigma, sigma_inv) == ring_one(G5)


def test_multiplication_against_circulant_oracle():
    # Convolution must match the circulant matrix-vector product.
    rng = random.Random(7)
    for _ in range(25):
        a = [rng.randint(-9, 9) for _ in range(4)]
        b = [rng.randint(-9, 9) for _ in range(4)]
        prod = ring_mul(elem(G5, *a), elem(G5, *b))
        circulant = [[a[(i - j) % 4] for j in range(4)] for i in range(4)]
        expected = [sum(circulant[i][j] * b[j] for j in range(4)) for i in range(4)]
        assert list(prod.coeffs) == expected


@given(elements(), elements(), elements())
def test_ring_axioms(a, b, c):
    assert ring_mul(a, b) == ring_mul(b, a)
    assert ring_mul(ring_mul(a, b), c) == ring_mul(a, ring_mul(b, c))
    assert ring_mul(a, ring_add(b, c)) == ring_add(ring_mul(a, b), ring_mul(a, c))


def test_involution_examples():
    one = ring_one(G5)
    assert one.involution() == one
    three_sigma = group_element(G5, 2, 3)
    assert [coefficient(three_sigma, s) for s in (1, 2, 3, 4)] == [0, 3, 0, 0]
    assert three_sigma.involution() == group_element(G5, 3, 3)  # 2^-1 = 3 mod 5


@given(elements(), elements())
def test_involution_is_ring_automorphism(a, b):
    assert a.involution().involution() == a
    assert ring_add(a, b).involution() == ring_add(a.involution(), b.involution())
    assert ring_mul(a, b).involution() == ring_mul(a.involution(), b.involution())


def test_augmentation_examples():
    assert ring_one(G5).augmentation() == 1
    norm = elem(G5, 1, 1, 1, 1)
    assert norm.augmentation() == 4


@given(elements(), elements())
def test_augmentation_is_multiplicative(a, b):
    assert ring_mul(a, b).augmentation() == a.augmentation() * b.augmentation()


def test_det_one_by_one():
    lam = elem(G5, 2, 0, -1, 5)
    assert _det(G5, [[lam]]) == lam


@given(elements(), elements(), elements(), elements())
def test_det_two_by_two_leibniz(a, b, c, d):
    assert _det(G5, [[a, b], [c, d]]) == ring_sub(ring_mul(a, d), ring_mul(b, c))


@settings(deadline=None, max_examples=15)
@given(st.lists(st.integers(-5, 5), min_size=36, max_size=36))
def test_det_commutes_with_character_evaluation(flat):
    rows = [
        [elem(G5, *flat[4 * (3 * i + j) : 4 * (3 * i + j) + 4]) for j in range(3)]
        for i in range(3)
    ]
    det = _det(G5, rows)
    for chi in zp_characters(G5, 3):
        evaluated = _evaluate(rows, chi)
        direct = _padic_det3(evaluated) % chi.modulus
        assert det.evaluate(chi) == direct
    for i in range(4):
        chi = Character(G5, i, 1)
        evaluated = _evaluate(rows, chi)
        expected = _int_det3(evaluated) % 5
        assert det.evaluate(chi) == expected


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("size", [1, 2, 3, 4])
def test_det_functoriality_across_primes_and_sizes(p, size):
    from coverzeta.snf import integer_determinant

    rng = random.Random(100 * p + size)
    group = CyclicGroup.for_prime(p)
    for _ in range(5):
        rows = [
            [
                GroupRingElement(
                    group, tuple(rng.randint(-4, 4) for _ in range(p - 1))
                )
                for _ in range(size)
            ]
            for _ in range(size)
        ]
        det = _det(group, rows)
        for i in range(p - 1):
            chi = Character(group, i, 1)
            assert det.evaluate(chi) == integer_determinant(_evaluate(rows, chi)) % p
            lifted = Character(group, i, 2)
            direct = integer_determinant(_evaluate(rows, lifted)) % p**2
            assert det.evaluate(lifted) == direct


def _int_det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def _padic_det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def test_group_mismatch_rejected():
    with pytest.raises(ValueError):
        ring_mul(ring_one(G5), ring_one(G7))


def test_non_square_determinant_rejected():
    one = ring_one(G5)
    with pytest.raises(ValueError):
        _pivoted(G5, [[one, one]])
    with pytest.raises(ValueError):
        _pivoted(G5, [])


def test_trivial_idempotent_mod_p():
    chi0 = Character(G5, 0, 1)
    e = idempotent_mod(chi0, 1)
    assert e.coeffs == (4, 4, 4, 4)  # (p-1)^-1 = 4 mod 5


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_idempotent_system(p, k):
    group = CyclicGroup.for_prime(p)
    modulus = p**k
    chars = zp_characters(group, k)
    idems = [idempotent_mod(chi, k) for chi in chars]
    for i, e in enumerate(idems):
        assert reduce_mod(ring_mul(e, e), modulus) == reduce_mod(e, modulus)
        for j, f in enumerate(idems):
            if i != j:
                assert ring_is_zero(reduce_mod(ring_mul(e, f), modulus))
    total = ring_zero(group)
    for e in idems:
        total = ring_add(total, e)
    assert reduce_mod(total, modulus) == ring_one(group)


@pytest.mark.parametrize("p,k", [(5, 1), (5, 3), (7, 2)])
def test_character_evaluation_of_idempotents(p, k):
    group = CyclicGroup.for_prime(p)
    modulus = p**k
    chars = zp_characters(group, k)
    for chi1 in chars:
        for chi2 in chars:
            got = idempotent_mod(chi2, k).evaluate(chi1)
            want = 1 if chi1 == chi2 else 0
            assert got == want


def test_mod_p_idempotent_lift_evaluates_to_indicator():
    for i in range(4):
        lift = idempotent_mod(Character(G5, i, 1), 1)
        for j in range(4):
            got = lift.evaluate(Character(G5, j, 1))
            assert got == (1 if i == j else 0)


@given(elements())
def test_involution_swaps_contragredient_evaluation(a):
    for i in range(4):
        chi = Character(G5, i, 1)
        star = contragredient(chi)
        assert a.involution().evaluate(chi) == a.evaluate(star)


def test_idempotent_requires_precision():
    chi = Character(G5, 1, 1)
    with pytest.raises(PrecisionExhausted):
        idempotent_mod(chi, 2)
    chi_fp = Character(G5, 1, 1)
    assert idempotent_mod(chi_fp, 1) is not None
    with pytest.raises(PrecisionExhausted):
        idempotent_mod(chi_fp, 2)


@pytest.mark.parametrize("p,k", [(3, 2), (5, 2), (7, 4)])
def test_orthogonality_relations(p, k):
    group = CyclicGroup.for_prime(p)
    modulus = p**k
    chars = zp_characters(group, k)
    inv_order = pow(p - 1, -1, modulus)
    # First kind: sum over the group of psi1 * conjugate(psi2).
    for chi1 in chars:
        for chi2 in chars:
            total = 0
            for sigma in group.elements:
                total += character_value(chi1, sigma) * character_value(contragredient(chi2), sigma)
            want = 1 if chi1.exponent == chi2.exponent else 0
            assert total * inv_order % modulus == want
    # Second kind: sum over characters at a pair of group elements.
    for s1 in group.elements:
        for s2 in group.elements:
            total = sum(
                character_value(chi, s1) * character_value(chi, pow(s2, -1, p)) for chi in chars
            )
            want = 1 if s1 == s2 else 0
            assert total * inv_order % modulus == want


def test_evaluate_returns_a_residue_for_lifted_characters():
    a = elem(G5, 1, 2, 3, 4)
    chi = Character(G5, 1, 2)
    out = a.evaluate(chi)
    assert isinstance(out, int)
    assert out in range(5**2)
    assert out % 5 == a.evaluate(Character(G5, 1, 1))


def _generators(p):
    return [g for g in range(2, p) if multiplicative_order(g, p) == p - 1]


@st.composite
def evaluation_cases(draw):
    """An element over F_p^x presented by any generator, and a character."""
    p = draw(st.sampled_from([5, 7, 11]))
    group = CyclicGroup(p, draw(st.sampled_from(_generators(p))))
    coeffs = draw(st.lists(st.integers(-60, 60), min_size=p - 1, max_size=p - 1))
    exponent = draw(st.integers(0, p - 2))
    precision = draw(st.integers(1, 6))
    chi = Character(CyclicGroup.for_prime(p), exponent, precision)
    return GroupRingElement(group, tuple(coeffs)), chi


@settings(max_examples=200)
@given(evaluation_cases())
def test_table_evaluation_matches_termwise_character_values(case):
    a, chi = case
    want = sum(character_value(chi, a.group.element(k)) * c for k, c in enumerate(a.coeffs))
    assert a.evaluate(chi) == want % chi.modulus


def test_evaluation_does_not_depend_on_the_presentation():
    # The same group-ring element written over two generators of F_11^x.
    rng = random.Random(11)
    counts = {sigma: rng.randint(-9, 9) for sigma in range(1, 11)}
    groups = [CyclicGroup(11, g) for g in _generators(11)]
    assert len(groups) == 4
    elements = [
        reduce(ring_add, (group_element(g, s, m) for s, m in counts.items()), ring_zero(g))
        for g in groups
    ]
    for exponent in range(10):
        for precision in (1, 4):
            chi = Character(groups[0], exponent, precision)
            values = {a.evaluate(chi) for a in elements}
            assert len(values) == 1


def test_evaluation_rejects_a_character_of_another_prime():
    with pytest.raises(ValueError):
        elem(G5, 1, 0, 0, 0).evaluate(Character(G7, 1, 1))


# The ring operations of Z[G] for ``_leibniz``, which takes those of Z by default.
RING_OPS = (ring_add, ring_sub, ring_mul)


def _leibniz(entries, zero, add=operator.add, sub=operator.sub, mul=operator.mul):
    """Reference determinant: the signed sum over all permutations."""
    total = zero
    for perm in itertools.permutations(range(len(entries))):
        term = entries[0][perm[0]]
        for i in range(1, len(perm)):
            term = mul(term, entries[i][perm[i]])
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(len(perm)), 2))
        total = sub(total, term) if inversions % 2 else add(total, term)
    return total


def _special_elements(group):
    """Zero, one, a group element, 1 - sigma and the norm: zero divisors included."""
    one = ring_one(group)
    sigma = group_element(group, group.generator)
    norm = GroupRingElement(group, (1,) * group.order)
    delta = ring_sub(one, sigma)
    return [ring_zero(group), one, sigma, delta, norm, ring_sub(ring_mul(sigma, 3), norm)]


def _random_entry(rng, group, spread=3):
    if rng.random() < 0.5:
        return rng.choice(_special_elements(group))
    return GroupRingElement(group, tuple(rng.randint(-spread, spread) for _ in range(group.order)))


def _random_matrix(rng, group, n, spread=3):
    return [[_random_entry(rng, group, spread) for _ in range(n)] for _ in range(n)]


@pytest.mark.parametrize("p", [5, 7, 11, 29])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_berkowitz_matches_leibniz_over_the_group_ring(p, n):
    rng = random.Random(1000 * p + n)
    group = CyclicGroup.for_prime(p)
    zero = ring_zero(group)
    for _ in range(4):
        entries = _random_matrix(rng, group, n)
        det = groupring.berkowitz(_coeffs(entries), convolution(group.order))
        assert det == _leibniz(entries, zero, *RING_OPS).coeffs


def test_berkowitz_finds_zero_divisor_determinants():
    # (1 - sigma) * norm = 0 in Z[G], so these determinants vanish although
    # no entry does.
    group = CyclicGroup.for_prime(7)
    zero, one, sigma, delta, norm, _ = _special_elements(group)
    product = convolution(group.order)
    cases = [
        [[delta, zero], [zero, norm]],
        [[delta, one], [zero, norm]],
        [[sigma, norm, one], [zero, delta, norm], [delta, zero, sigma]],
    ]
    for entries in cases:
        det = _leibniz(entries, zero, *RING_OPS)
        assert groupring.berkowitz(_coeffs(entries), product) == det.coeffs
    assert not any(groupring.berkowitz(_coeffs(cases[0]), product))


class _Poly(tuple):
    """A polynomial in u over Z[G], as the tuple of its coefficients."""

    def _pad(self, k):
        return (*self, *(ring_mul(self[0], 0),) * (k - len(self)))

    def __add__(self, other):
        k = max(len(self), len(other))
        return _Poly(ring_add(a, b) for a, b in zip(self._pad(k), other._pad(k)))

    def __sub__(self, other):
        return self + _Poly(ring_neg(b) for b in other)

    def __mul__(self, other):
        out = [ring_mul(self[0], 0)] * (len(self) + len(other) - 1)
        for i, a in enumerate(self):
            for j, b in enumerate(other):
                out[i + j] = ring_add(out[i + j], ring_mul(a, b))
        return _Poly(out)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_berkowitz_matches_leibniz_over_polynomials_in_u(n):
    # Entries of degree at most 2 have a determinant of degree at most 2n, so
    # Z[G][u]/(u^(2n+1)) holds it exactly.  In the tight matrices the
    # off-diagonal entries have degree at most 1 and the diagonal ones end in a
    # group element, so the determinant's u^(2n) coefficient is a unit.
    rng = random.Random(50 + n)
    width = 2 * n + 1

    def flat(poly):
        return tuple(c for e in poly._pad(width) for c in e.coeffs)

    for tight in (False, False, True, True):
        entries = []
        for i in range(n):
            row = []
            for j in range(n):
                coeffs = [_random_entry(rng, G5, 2) for _ in range(2 if tight else rng.randint(1, 3))]
                if tight and i == j:
                    coeffs.append(group_element(G5, rng.choice(G5.elements)))
                row.append(_Poly(coeffs))
            entries.append(row)
        flats = [[flat(e) for e in row] for row in entries]
        det = groupring.berkowitz(flats, truncated_convolution(4, width))
        assert det == flat(_leibniz(entries, _Poly([ring_zero(G5)])))
        product, ring = truncated_convolution(4, width), truncated_ring(4, width)
        assert ring_determinant(sparse_rows(flats), product, ring) == det
        if tight:
            assert sorted(det[-4:]) == [0, 0, 0, 1]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_berkowitz_matches_leibniz_over_the_integers(n):
    from coverzeta.snf import integer_determinant

    rng = random.Random(n)
    for _ in range(20):
        entries = [[rng.choice([0, 0, rng.randint(-9, 9)]) for _ in range(n)] for _ in range(n)]
        (det,) = groupring.berkowitz([[(x,) for x in row] for row in entries], convolution(1))
        assert det == _leibniz(entries, 0) == integer_determinant(entries)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_substitution_route_matches_berkowitz(p, n):
    # The route takes the dense core that the unit pivots leave: random
    # matrices, the core the pivots leave of each, a 1 x 1 core and an
    # n x n core with no unit, whose entries are multiples of 1 - g or of 2.
    rng = random.Random(7000 + 100 * p + n)
    group = CyclicGroup.for_prime(p)
    delta = _special_elements(group)[3]
    for spread in (1, 4, 50):
        m = _random_matrix(rng, group, n, spread)
        assert _substitution_determinant(_coeffs(m), group) == _det(group, m)
        _, _, core, _, _ = unit_pivots(sparse_rows(_coeffs(m)), group.ring)
        if core:
            det = GroupRingElement(group, groupring.berkowitz(core, group.product))
            assert _substitution_determinant(core, group) == det
        one_by_one = [[_random_entry(rng, group, spread)]]
        assert _substitution_determinant(_coeffs(one_by_one), group) == one_by_one[0][0]
        no_unit = [[ring_mul(x, rng.choice([delta, 2])) for x in row] for row in m]
        assert not any(group.ring.inverse(x) for row in _coeffs(no_unit) for x in row)
        assert _substitution_determinant(_coeffs(no_unit), group) == _det(group, no_unit)


def _monomial(group, coefficient, k):
    return group_element(group, group.element(k), coefficient)


@pytest.mark.parametrize("p", [3, 5, 11])
def test_substitution_route_at_the_l1_bound(p):
    # Monomial entries make the l1 norm of the determinant equal the product
    # of the row norms, so its one nonzero coefficient is a balanced digit of
    # largest absolute value, on either sign.
    group = CyclicGroup.for_prime(p)
    zero = ring_zero(group)
    rng = random.Random(p)
    signs = set()
    for sign in (1, -1):
        m = [[_monomial(group, sign * 7, 1)]]
        det = _substitution_determinant(_coeffs(m), group)
        assert det == _det(group, m) == m[0][0]
        for n in (2, 3, 4):
            cs = [rng.randint(1, 9) for _ in range(n)]
            ks = [rng.randrange(group.order) for _ in range(n)]
            cs[0] *= sign
            perm = list(range(n))
            rng.shuffle(perm)
            rows = [[zero] * n for _ in range(n)]
            for i in range(n):
                rows[i][perm[i]] = _monomial(group, cs[i], ks[i])
            det = _det(group, rows)
            assert sum(map(abs, det.coeffs)) == prod(abs(c) for c in cs)
            assert _substitution_determinant(_coeffs(rows), group) == det
            signs.add(sum(det.coeffs) > 0)
    assert signs == {True, False}


@pytest.mark.parametrize("p", [3, 5, 7])
def test_substitution_route_with_every_coefficient_negative(p):
    group = CyclicGroup.for_prime(p)
    zero, one, sigma, delta, norm, _ = _special_elements(group)
    rng = random.Random(p)
    negative = GroupRingElement(group, tuple(-rng.randint(1, 9) for _ in range(group.order)))
    cases = [
        [[negative]],
        # -(1 + sigma) * norm = -2 norm
        [[ring_sub(ring_sub(zero, one), sigma), zero], [zero, norm]],
        # negative * (1 + 2 sigma)
        [[zero, negative], [ring_sub(ring_sub(zero, one), ring_mul(sigma, 2)), delta]],
    ]
    for rows in cases:
        det = _det(group, rows)
        assert all(c < 0 for c in det.coeffs)
        assert _substitution_determinant(_coeffs(rows), group) == det


def _pivoted(group, entries):
    """The determinant by unit pivots and Berkowitz on the core, as an element."""
    det = ring_determinant(sparse_rows(_coeffs(entries)), group.product, group.ring)
    return GroupRingElement(group, det)


@st.composite
def unit_sparse_matrices(draw):
    """A sparse square matrix over Z[G] with a permuted diagonal, so that the
    matching takes either parity, and up to two more entries a row.  Entries
    are units +-g^k, or not: 2 g^k, 1 - g and the norm, a zero divisor.  Rows
    times 1 - g or 2 hold no unit, so they go to the core."""
    group = CyclicGroup.for_prime(draw(st.sampled_from([3, 5, 7])))
    zero, one, sigma, delta, norm, _ = _special_elements(group)
    n = draw(st.integers(1, 5))
    unit = st.builds(
        lambda sign, k: _monomial(group, sign, k),
        st.sampled_from([1, -1]),
        st.integers(0, group.order - 1),
    )
    entries = st.one_of(unit, unit.map(lambda x: ring_mul(x, 2)), st.sampled_from([delta, norm]))
    a = [[zero] * n for _ in range(n)]
    for i, k in enumerate(draw(st.permutations(range(n)))):
        a[i][k] = draw(entries)
        for j in draw(st.lists(st.integers(0, n - 1), max_size=2)):
            a[i][j] = draw(entries)
    for i in draw(st.sets(st.integers(0, n - 1))):
        a[i] = [ring_mul(x, draw(st.sampled_from([delta, ring_mul(one, 2)]))) for x in a[i]]
    return group, a


@settings(max_examples=300, deadline=None)
@given(unit_sparse_matrices())
def test_unit_pivots_match_berkowitz(case):
    group, a = case
    assert _pivoted(group, a) == _det(group, a)


def test_unit_pivot_cores_and_signs(monkeypatch):
    cores = []
    real = groupring.berkowitz
    monkeypatch.setattr(groupring, "berkowitz", lambda e, p: cores.append(e) or real(e, p))
    zero, one, sigma, delta, norm, _ = _special_elements(G7)
    # Units times a permutation: the core is empty, and the determinant is
    # the permutation's sign, of either parity, times the product of units.
    for perm, sign in (((0,), 1), ((1, 0), -1), ((1, 2, 0), 1), ((3, 0, 1, 2), -1)):
        units = [_monomial(G7, (-1) ** i, 2 * i + 1) for i in range(len(perm))]
        a = [[units[i] if j == k else zero for j in range(len(perm))] for i, k in enumerate(perm)]
        assert _pivoted(G7, a) == ring_mul(reduce(ring_mul, units, one), sign) == _det(G7, a)
    assert len(cores) == 4
    cores.clear()
    # The Berkowitz calls above are the plain determinants; from here on
    # the pivoted ones are counted, each followed by its plain reference.
    # 1x1 without a unit; then 1 - g and the norm, zero divisors with a
    # product of 0, which no unit pivot reaches; then a row of 1 - g and 2 g
    # that row 1's unit sigma leaves without a unit.
    cases = [
        [[delta]],
        [[delta, zero], [zero, norm]],
        [[delta, ring_mul(sigma, 2)], [one, sigma]],
    ]
    for a in cases:
        assert _pivoted(G7, a) == _det(G7, a)
    assert [len(core) for core in cores[::2]] == [1, 2, 1]
    assert ring_is_zero(_pivoted(G7, cases[1]))


def test_zero_rows_give_a_zero_of_the_ring_length():
    # A row that stores nothing, or only zeros, has no element to read the
    # length off: the determinant is the zero of Z[G], of length 4 at p = 5.
    for rows in ([{}], [{0: (0, 0, 0, 0)}], [{}, {1: (1, 0, 0, 0)}], [{0: (0, 0, 0, 0)}, {}]):
        assert ring_determinant(rows, G5.product, G5.ring) == (0, 0, 0, 0)
    # Over Z[G][u]/(u^3) the length is 4 * 3, whatever the rows store.
    assert ring_determinant([{}], truncated_convolution(4, 3), truncated_ring(4, 3)) == (0,) * 12
    one = (1, 0, 0, 0)
    assert ring_determinant([{0: one}, {1: one}], G5.product, G5.ring) == one


def test_unit_inverse_recognises_signed_group_elements():
    inverse = G5.ring.inverse
    assert inverse((0, 0, 0, -1)) == (0, -1, 0, 0)
    assert inverse((1, 0, 0, 0)) == (1, 0, 0, 0)
    # 2 g, 1 - g and 0 are no units; in Z[G][u]/(u^2) neither is u g.
    assert [inverse(x) for x in ((0, 2, 0, 0), (1, -1, 0, 0), (0, 0, 0, 0))] == [None] * 3
    assert truncated_ring(4, 2).inverse((0,) * 4 + (0, 1, 0, 0)) is None
    assert truncated_ring(4, 2).inverse((0, 0, 1, 0) + (0,) * 4) == (0, 0, 1, 0) + (0,) * 4


def test_wide_base_core_is_small(monkeypatch):
    # The (5, 100) base is a tree plus 3 edges: unit pivots leave at most 8
    # of its 100 rows to Berkowitz.
    doc = bench_inputs().random_cover(random.Random(1), 5, 100, 3)
    cores = []
    real = zeta.berkowitz
    monkeypatch.setattr(zeta, "berkowitz", lambda e, p: cores.append(len(e)) or real(e, p))
    cover = derive(spec_from_dict(doc))
    eta_at_one(cover, equivariant_laplacian(cover))
    assert len(cores) == 1 and 1 <= cores[0] <= 8
