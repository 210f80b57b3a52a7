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
    """Whether n is an odd prime; False for anything not an int, bool included."""
    if type(n) is not int or n < 3 or n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
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


def multiplicative_order(a: int, p: int) -> int:
    a %= p
    if a == 0:
        raise ValueError("not a unit mod p")
    k, x = 1, a
    while x != 1:
        x = x * a % p
        k += 1
    return k


@lru_cache(maxsize=None, typed=True)  # 5.0 is not 5's entry
def smallest_primitive_root(p: int) -> int:
    """Least generator of the cyclic group of units mod an odd prime p."""
    if not is_odd_prime(p):
        raise ValueError(f"expected an odd prime, got {p}")
    for g in range(2, p):
        if multiplicative_order(g, p) == p - 1:
            return g
    raise AssertionError("unreachable: every odd prime has a primitive root")
