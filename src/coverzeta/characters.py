"""Characters of the unit group mod p, valued in F_p or in truncated Z_p.

The F_p-valued character of exponent i sends sigma to sigma^i mod p.  Its
canonical lift replaces sigma by its Teichmuller representative, so reduction
mod p recovers the F_p value on every group element.

Value tables chi(h^k), k = 0, ..., p-2, for the generator h of the
presentation a character is evaluated against are kept in one module-level
cache keyed by (p, h, exponent, precision), shared by every character with
those data; group-ring evaluation is then one integer dot product.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .groupring import CyclicGroup
from .padic import teichmuller


@dataclass(frozen=True)
class Character:
    """Character of exponent i; precision None means F_p-valued."""

    group: CyclicGroup
    exponent: int
    precision: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "exponent", self.exponent % self.group.order)
        if self.precision is not None and self.precision < 1:
            raise ValueError("precision must be at least 1")

    @property
    def modulus(self) -> int:
        """p for an F_p-valued character, p^precision for a lift."""
        p = self.group.p
        return p if self.precision is None else p**self.precision

    def table(self, group: CyclicGroup) -> tuple[int, ...]:
        """Values chi(h^k) mod the modulus for k = 0, ..., p-2.

        h is the generator of ``group``, so the table lines up with the
        coefficient vectors of that group's ring elements.
        """
        if group.p != self.group.p:
            raise ValueError(f"character mod {self.group.p} on a group mod {group.p}")
        return _table(group.p, group.generator, self.exponent, self.precision)

    def value(self, sigma: int):
        """Character value on a unit sigma mod p."""
        p = self.group.p
        sigma %= p
        if sigma == 0:
            raise ValueError(f"{sigma} is not a unit mod {p}")
        if self.precision is None:
            return pow(sigma, self.exponent, p)
        return teichmuller(sigma, p, self.precision) ** self.exponent

    def contragredient(self) -> "Character":
        return Character(self.group, -self.exponent % self.group.order, self.precision)


@lru_cache(maxsize=1024)
def _table(p: int, h: int, exponent: int, precision: int | None) -> tuple[int, ...]:
    """chi(h^k) for k = 0, ..., p-2, from one Teichmuller lift of h when
    lifted, since chi(h^k) = omega(h)^(i k) with omega multiplicative."""
    modulus = p if precision is None else p**precision
    if precision is not None:
        h = teichmuller(h, p, precision).value
    step = pow(h, exponent, modulus)
    values = [1]
    for _ in range(p - 2):
        values.append(values[-1] * step % modulus)
    return tuple(values)


def zp_characters(group: CyclicGroup, precision: int) -> tuple[Character, ...]:
    return tuple(Character(group, i, precision) for i in range(group.order))
