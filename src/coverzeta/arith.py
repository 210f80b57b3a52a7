"""Small exact number-theory helpers shared across the package, and the
error every layer raises when one of its cross-checks fails."""

from __future__ import annotations

from functools import lru_cache


class VerificationError(Exception):
    """An internal cross-check between two routes to one quantity failed.

    ``check`` names the check as ``<layer>.<name>``.  A failure means a bug,
    so none of the numbers the check guarded can be reported.
    """

    def __init__(self, check: str, message: str):
        super().__init__(f"check {check} failed: {message}")
        self.check = check
        self.message = message


def is_odd_prime(n: int) -> bool:
    """Whether n is an odd prime; False for anything not an int, bool included.

    Trial division below 2^20, where it is the faster; above, Miller-Rabin to
    the first 13 prime bases, exact below 3.3 * 10^24 (Sorenson and Webster,
    Math. Comp. 86, 2017) and a strong probable-prime test beyond.
    """
    if type(n) is not int or n < 3 or n % 2 == 0:
        return False
    if n < 1 << 20:
        d = 3
        while d * d <= n:
            if n % d == 0:
                return False
            d += 2
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:  # b witnesses that n is composite
            return False
    return True


def is_precision(n: int) -> bool:
    """Whether n is a p-adic precision: an int of at least 1, bool excluded."""
    return type(n) is int and n >= 1


def p_valuation(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def p_part(n: int, p: int) -> int:
    """Largest power of p dividing n; ValueError for n = 0."""
    return p ** p_valuation(n, p)


def _prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n >= 1, by trial division up to the
    square root of what is left: O(sqrt(n)) steps at most."""
    factors, d = [], 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors.append(n)
    return factors


def is_primitive_root(g: int, p: int) -> bool:
    """Whether g generates the units mod the odd prime p: g^((p - 1)/q) is
    not 1 for any prime q dividing p - 1."""
    return g % p != 0 and all(pow(g, (p - 1) // q, p) != 1 for q in _prime_factors(p - 1))


@lru_cache(maxsize=None, typed=True)  # 5.0 is not 5's entry
def smallest_primitive_root(p: int) -> int:
    """Least generator of the cyclic group of units mod an odd prime p."""
    if not is_odd_prime(p):
        raise ValueError(f"expected an odd prime, got {p}")
    for g in range(2, p):
        if is_primitive_root(g, p):
            return g
    raise AssertionError("unreachable: every odd prime has a primitive root")
