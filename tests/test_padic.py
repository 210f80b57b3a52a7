import pytest
from hypothesis import given, strategies as st

from coverzeta import (
    Character,
    CyclicGroup,
    PAdicInt,
    PrecisionExhausted,
    teichmuller,
)
from reference import (
    abs_p_inverse,
    character_value,
    contragredient,
    padic_add,
    padic_mul,
    padic_neg,
    padic_pow,
    padic_reduce,
    padic_sub,
)

PRIMES = [3, 5, 7, 11, 13]


def test_teichmuller_of_one_is_one():
    for p in PRIMES:
        assert teichmuller(1, p, 6).value == 1


def test_teichmuller_of_minus_one():
    for p in PRIMES:
        for n in (1, 3, 5):
            assert teichmuller(p - 1, p, n).value == p**n - 1


def test_teichmuller_worked_value():
    # Iterating x -> x^5 mod 25 from 2: 32 = 7, then 7 is fixed.
    assert teichmuller(2, 5, 2).value == 7


def test_teichmuller_rejects_non_units():
    with pytest.raises(ValueError):
        teichmuller(10, 5, 3)
    with pytest.raises(ValueError):
        teichmuller(2, 4, 3)


@given(st.sampled_from(PRIMES), st.integers(1, 12), st.integers(1, 12), st.integers(1, 8))
def test_teichmuller_multiplicative_and_reduces(p, a, b, n):
    a %= p
    b %= p
    if a == 0 or b == 0:
        return
    ta, tb = teichmuller(a, p, n), teichmuller(b, p, n)
    assert padic_mul(ta, tb) == teichmuller(a * b % p, p, n)
    assert ta.value % p == a
    assert pow(ta.value, p - 1, p**n) == 1


def test_valuation_examples():
    assert PAdicInt(5, 3, 4 * 5).valuation() == 1
    assert PAdicInt(5, 3, 1).valuation() == 0
    with pytest.raises(PrecisionExhausted):
        PAdicInt(5, 3, 0).valuation()
    with pytest.raises(PrecisionExhausted):
        PAdicInt(5, 3, 250).valuation()  # 250 = 2 * 5^3


def test_abs_p_inverse():
    assert abs_p_inverse(PAdicInt(5, 4, 7)) == 1
    assert abs_p_inverse(PAdicInt(11, 5, 2 * 11**2 + 7 * 11**3)) == 121


def test_arithmetic_and_precision_mixing():
    x = PAdicInt(5, 3, 117)
    y = PAdicInt(5, 2, 9)
    assert padic_add(x, y).precision == 2
    assert padic_add(x, y).value == (117 + 9) % 25
    assert padic_sub(x, y).value == (117 - 9) % 25
    assert padic_mul(x, y).value == 117 * 9 % 25
    assert padic_add(x, 1).precision == 3
    assert padic_mul(x, 3).value == 3 * 117 % 125
    assert padic_sub(PAdicInt(5, 3, 1), x).value == (1 - 117) % 125
    assert padic_neg(x).value == (125 - 117) % 125
    assert padic_pow(x, 2).value == 117**2 % 125


def test_mixed_primes_rejected():
    with pytest.raises(ValueError):
        padic_add(PAdicInt(5, 2, 1), PAdicInt(7, 2, 1))


def test_reduce():
    x = PAdicInt(5, 3, 117)
    assert padic_reduce(x, 1).value == 117 % 5
    with pytest.raises(ValueError):
        padic_reduce(x, 4)


def test_expansion_rendering():
    x = PAdicInt(11, 6, 2 * 11**2 + 7 * 11**3 + 9 * 11**4)
    assert x.expansion_str() == "2*11^2 + 7*11^3 + 9*11^4 + O(11^6)"
    assert PAdicInt(5, 2, 20).expansion_str() == "4*5 + O(5^2)"
    assert PAdicInt(5, 2, 0).expansion_str() == "O(5^2)"


def test_character_values():
    g5 = CyclicGroup.for_prime(5)
    trivial = Character(g5, 0, 1)
    for sigma in (1, 2, 3, 4):
        assert character_value(trivial, sigma) == 1
    identity_char = Character(g5, 1, 1)
    assert character_value(identity_char, 2) == 2
    lifted = Character(g5, 1, 2)
    assert character_value(lifted, 2) == 7


def test_character_reduction_compatibility():
    for p in (5, 7, 11):
        group = CyclicGroup.for_prime(p)
        for i in range(p - 1):
            fp = Character(group, i, 1)
            zp = Character(group, i, 4)
            for sigma in range(1, p):
                assert character_value(zp, sigma) % p == character_value(fp, sigma)


def test_character_column_orthogonality():
    for p in (3, 5, 7):
        group = CyclicGroup.for_prime(p)
        for i in range(1, p - 1):
            chi = Character(group, i, 4)
            total = sum(character_value(chi, s) for s in group.elements)
            assert total % p**4 == 0


def test_character_contragredient():
    g7 = CyclicGroup.for_prime(7)
    chi = Character(g7, 2, 1)
    star = contragredient(chi)
    assert star.exponent == 4
    for sigma in range(1, 7):
        assert character_value(star, sigma) == character_value(chi, pow(sigma, -1, 7))


def test_character_rejects_non_units():
    g5 = CyclicGroup.for_prime(5)
    with pytest.raises(ValueError):
        character_value(Character(g5, 1, 1), 5)


def test_precision_one_table_is_the_power_map_mod_p():
    # The Teichmuller lift at precision 1 is h mod p, so chi(h^k) = h^(i k) mod p.
    for p in (3, 5, 7, 11, 13):
        group = CyclicGroup.for_prime(p)
        h = group.generator
        for i in range(p - 1):
            table = Character(group, i, 1).table(group)
            assert table == tuple(pow(h, i * k, p) for k in range(p - 1))


def test_character_requires_a_precision():
    g5 = CyclicGroup.for_prime(5)
    with pytest.raises(TypeError):
        Character(g5, 1)
    for precision in (0, -1):
        with pytest.raises(ValueError):
            Character(g5, 1, precision)
    assert Character(g5, 1, 3).modulus == 125


@pytest.mark.parametrize("precision", [2.0, True, "2"])
def test_precision_must_be_an_int(precision):
    # Character took 2.0 and then failed in l_value with TypeError, PAdicInt
    # stored 7.0 or rendered O(5^True), and teichmuller raised TypeError.
    for build in (
        lambda: Character(CyclicGroup.for_prime(5), 1, precision),
        lambda: PAdicInt(5, precision, 7),
        lambda: teichmuller(2, 5, precision),
    ):
        with pytest.raises(ValueError, match="precision"):
            build()
