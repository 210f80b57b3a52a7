"""Truncated p-adic integers with explicit precision, and Teichmuller lifts.

A value is a residue modulo p^N together with the precision N; the analysis
only reads its valuation and its digits, so it carries no arithmetic.  The
valuation of a value that is 0 mod p^N cannot be told apart from N, so asking
for it raises ``PrecisionExhausted``.  A report's precision exceeds the
valuation of every nontrivial L-value (``herbrand.default_precision``), so
such a value that is 0 at that precision is a bug, not a reason to raise the
precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .arith import VerificationError, is_odd_prime, is_precision, p_valuation


class PrecisionExhausted(ArithmeticError):
    """The value is 0 mod p^N; its true valuation may be N or larger."""


@dataclass(frozen=True)
class PAdicInt:
    p: int
    precision: int
    value: int

    def __post_init__(self):
        if not is_odd_prime(self.p):
            raise ValueError(f"p must be an odd prime, got {self.p}")
        if not is_precision(self.precision):
            raise ValueError(f"precision must be at least 1 and an int, got {self.precision!r}")
        object.__setattr__(self, "value", self.value % self.p**self.precision)

    def is_zero(self) -> bool:
        return self.value == 0

    def valuation(self) -> int:
        """Exact p-adic valuation; raises if indistinguishable from >= N."""
        if self.value == 0:
            raise PrecisionExhausted(
                f"value is 0 mod {self.p}^{self.precision}; at a report's precision "
                "(herbrand.default_precision) that is a bug"
            )
        return p_valuation(self.value, self.p)

    def digits(self) -> tuple[int, ...]:
        """Base-p digits c_0, ..., c_{N-1} with value = sum c_k p^k."""
        out, x = [], self.value
        for _ in range(self.precision):
            x, r = divmod(x, self.p)
            out.append(r)
        return tuple(out)

    def expansion_str(self) -> str:
        """Render as a truncated p-adic expansion, e.g. ``4*5 + O(5^3)``."""
        terms = []
        for k, c in enumerate(self.digits()):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append(f"{c}*{self.p}")
            else:
                terms.append(f"{c}*{self.p}^{k}")
        terms.append(f"O({self.p}^{self.precision})")
        return " + ".join(terms)


@lru_cache(maxsize=None, typed=True)  # 5.0 is not 5's entry
def teichmuller(a: int, p: int, precision: int) -> PAdicInt:
    """The (p-1)th root of unity congruent to a mod p, to the given precision.

    Iterating x -> x^p mod p^N contracts towards the root; N steps always
    reach the fixed point at precision N, and we stop early once stable.
    """
    if not is_odd_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    if not is_precision(precision):
        raise ValueError(f"precision must be at least 1 and an int, got {precision!r}")
    if a % p == 0:
        raise ValueError(f"{a} is not a unit mod {p}")
    modulus = p**precision
    x = a % modulus
    for _ in range(precision):
        nxt = pow(x, p, modulus)
        if nxt == x:
            break
        x = nxt
    if pow(x, p, modulus) != x:
        raise VerificationError(
            "padic.teichmuller", f"{x} is not fixed by x -> x^{p} mod {p}^{precision}"
        )
    return PAdicInt(p, precision, x)
