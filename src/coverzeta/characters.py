"""Characters of the unit group mod p, valued in truncated Z_p.

The character of exponent i sends sigma to omega(sigma)^i mod p^N, omega(sigma)
the Teichmuller representative of sigma, so reduction mod p recovers sigma^i
on every group element; at precision 1 the values are sigma^i mod p.

Value tables chi(h^k), k = 0, ..., p-2, for the generator h of the
presentation a character is evaluated against are kept in one module-level
cache keyed by (p, h, exponent, precision), shared by every character with
those data; group-ring evaluation is then one integer dot product.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .arith import is_precision
from .groupring import CyclicGroup
from .padic import teichmuller


@dataclass(frozen=True)
class Character:
    """Character of exponent i, valued modulo p^precision."""

    group: CyclicGroup
    exponent: int
    precision: int

    def __post_init__(self):
        object.__setattr__(self, "exponent", self.exponent % self.group.order)
        if not is_precision(self.precision):
            raise ValueError(f"precision must be at least 1 and an int, got {self.precision!r}")

    @property
    def modulus(self) -> int:
        return self.group.p**self.precision

    def table(self, group: CyclicGroup) -> tuple[int, ...]:
        """Values chi(h^k) mod the modulus for k = 0, ..., p-2.

        h is the generator of ``group``, so the table lines up with the
        coefficient vectors of that group's ring elements.
        """
        if group.p != self.group.p:
            raise ValueError(f"character mod {self.group.p} on a group mod {group.p}")
        return _table(group.p, group.generator, self.exponent, self.precision)


@lru_cache(maxsize=1024)
def _table(p: int, h: int, exponent: int, precision: int) -> tuple[int, ...]:
    """chi(h^k) for k = 0, ..., p-2, from one Teichmuller lift of h, since
    chi(h^k) = omega(h)^(i k) with omega multiplicative."""
    modulus = p**precision
    step = pow(teichmuller(h, p, precision).value, exponent, modulus)
    values = [1]
    for _ in range(p - 2):
        values.append(values[-1] * step % modulus)
    return tuple(values)
