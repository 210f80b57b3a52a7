"""Characters of the unit group mod p, valued in F_p or in truncated Z_p.

The F_p-valued character of exponent i sends sigma to sigma^i mod p.  Its
canonical lift replaces sigma by its Teichmuller representative, so reduction
mod p recovers the F_p value on every group element.

Each character caches its value table chi(h^k), k = 0, ..., p-2, for the
generator h of every presentation it is evaluated against; group-ring
evaluation is then one integer dot product.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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

    @cached_property
    def _tables(self) -> dict[int, tuple[int, ...]]:
        return {}

    def table(self, group: CyclicGroup) -> tuple[int, ...]:
        """Values chi(h^k) mod the modulus for k = 0, ..., p-2.

        h is the generator of ``group``, so the table lines up with the
        coefficient vectors of that group's ring elements.  It is built from
        one Teichmuller lift of h, since chi(h^k) = omega(h)^(i k) with omega
        multiplicative.
        """
        if group.p != self.group.p:
            raise ValueError(f"character mod {self.group.p} on a group mod {group.p}")
        table = self._tables.get(group.generator)
        if table is None:
            modulus = self.modulus
            h = group.generator
            if self.precision is not None:
                h = teichmuller(h, group.p, self.precision).value
            step = pow(h, self.exponent, modulus)
            values = [1]
            for _ in range(group.order - 1):
                values.append(values[-1] * step % modulus)
            table = self._tables[group.generator] = tuple(values)
        return table

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

    def lift(self, precision: int) -> "Character":
        """Teichmuller lift of an F_p character (or re-precision of a lift)."""
        return Character(self.group, self.exponent, precision)


def zp_characters(group: CyclicGroup, precision: int) -> tuple[Character, ...]:
    return tuple(Character(group, i, precision) for i in range(group.order))
