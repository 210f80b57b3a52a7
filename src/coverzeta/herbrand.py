"""End-to-end verification on a cover, one row per nontrivial character.

A row holds the character's order of A, dimension of C and L-value, each
computed once, with its main22 verdict (the order against the L-value's p-adic
absolute value) and its main11 verdict (C-eigenspace vanishing against the
L-value mod p).  The global verdicts are derived from the rows and from the
intermediates the rows share.  A FAIL on a valid connected cover indicates an
implementation bug, not new mathematics, so failures carry a diagnostic
payload (Smith data, precisions) for debugging.  Reports serialize
deterministically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import prod

from .arith import VerificationError, p_part, p_valuation
from .characters import Character
from .groupring import CyclicGroup
from .padic import PAdicInt
from .picard import PicardModule, picard_factors
from .voltage import DerivedCover, require_connected_cover
from .zeta import duality_check, equivariant_laplacian, eta_at_one, l_value, orbit_norms

PASS = "PASS"
FAIL = "FAIL"


@dataclass(frozen=True)
class Verdict:
    status: str
    reason: str = ""

    def to_dict(self) -> dict:
        return {"status": self.status, "reason": self.reason}


def default_precision(pm: PicardModule) -> int:
    """Working p-adic precision: the p-valuation of #Pic0 plus two.

    The class-number check bounds every nontrivial L-value's valuation by
    the p-valuation of #Pic0, so one less than this already suffices and a
    value that vanishes at it signals a bug rather than a tight margin.
    """
    return p_valuation(pm.order, pm.p) + 2


@dataclass(frozen=True)
class CharacterRow:
    """A character's row; ``h`` is its L-value at the report's precision,
    whose ``valuation`` is None when it vanished there."""

    i: int
    dim_C: int
    order_A: int
    h_mod_p: int
    h: PAdicInt
    valuation: int | None
    verdicts: dict[str, Verdict]

    def to_dict(self) -> dict:
        return {
            "i": self.i,
            "dimC": self.dim_C,
            "h_mod_p": self.h_mod_p,
            "orderA": self.order_A,
            "valuation": self.valuation,
            "h_padic": None if self.valuation is None else self.h.expansion_str(),
            "verdicts": {name: v.to_dict() for name, v in self.verdicts.items()},
        }


class CoverAnalysis:
    """The intermediates every character's row reads, computed once.

    They are the Picard module (the deck generator's matrix on Pic0, the
    exponents of A, and the deck generator's matrix on C, whose size dim C
    is checked against the number of cyclic summands of A), the base graph's
    Picard factors (kept on the graph), whose product is its tree count, the
    equivariant Laplacian and the special value eta(1), whose
    Berkowitz-against-substitution check runs here, the norms N_d of eta(1) at
    the rational orbits of characters (those of order d, for each d > 1
    dividing p - 1), and the class-number check that ties the order of Pic0
    to their product.
    """

    def __init__(self, cover: DerivedCover, precision: int | None = None):
        if precision is not None and (type(precision) is not int or precision < 1):
            raise ValueError(f"precision must be at least 1 and an int, got {precision!r}")
        require_connected_cover(cover)
        self.cover = cover
        self.p = cover.p
        self.group = CyclicGroup.for_prime(self.p)
        self.pic = PicardModule(cover)
        self.dim_c = len(self.pic.deck)
        summands = sum(a > 0 for a in self.pic.exponents)
        if self.dim_c != summands:
            raise VerificationError(
                "picard.quotient_dimension",
                f"mod-{self.p} span of the Laplacian leaves dim C = {self.dim_c}, "
                f"but A has {summands} cyclic summands",
            )
        self.base_factors = picard_factors(cover.base)
        self.kappa_base = prod(self.base_factors)  # certified by snf.cokernel_order
        self.lap = equivariant_laplacian(cover)
        self.eta1 = eta_at_one(cover, self.lap)
        self.orbit_norms = orbit_norms(self.eta1)
        self._check_class_number()
        # The class-number check bounds every L-value's valuation by that of
        # #Pic0, so a requested precision is raised to one more than that.
        k = default_precision(self.pic)
        self.precision = k if precision is None else max(precision, k - 1)

    def _check_class_number(self) -> None:
        """Check (p - 1) #Pic0(Y) = kappa(X) prod of N_d over d | p - 1, d > 1.

        N_d, kept in ``orbit_norms``, is the product of chi(eta(1)) over the
        characters of order d, so the product of the N_d is the product of
        the nontrivial L-values at u = 1.
        """
        norms = prod(self.orbit_norms.values())
        if (self.p - 1) * self.pic.order != self.kappa_base * norms:
            raise VerificationError(
                "picard.class_number",
                f"(p - 1) #Pic0 = {(self.p - 1) * self.pic.order}, kappa(X) = {self.kappa_base}, "
                f"orbit norms {self.orbit_norms}",
            )

    def character_row(self, i: int) -> CharacterRow:
        """The i-th character's row.  Its layer ranks (eigenspaces of the deck
        generator on the layers of A) give its order of A and its dimension of
        C; its L-value is taken once, at the report's precision."""
        p = self.p
        lam = pow(self.group.generator, i, p)  # chi(g) mod p
        ranks = self.pic.layer_ranks(lam)
        dim = self.pic.dim_C(lam, ranks)
        order = p ** sum(ranks)
        value = l_value(Character(self.group, i, self.precision), self.eta1, self.lap)
        h = PAdicInt(p, self.precision, value)
        val = None if h.is_zero() else h.valuation()
        h_mod_p = h.value % p  # the Teichmuller lift reduces to the F_p character
        if (dim > 0) == (h_mod_p == 0):
            main11 = Verdict(PASS, f"dim = {dim}, h = {h_mod_p}")
        else:
            main11 = Verdict(FAIL, f"dim = {dim} inconsistent with h = {h_mod_p}")
        if val is None:
            main22 = Verdict(FAIL, f"L-value vanished mod {p}^{h.precision}; order side is {order}")
        elif p**val == order:
            main22 = Verdict(PASS, f"#component = {order} = p^{val}")
        else:
            main22 = Verdict(FAIL, f"#component = {order} but |h|^-1 = {p**val}")
        return CharacterRow(i, dim, order, h_mod_p, h, val, {"main11": main11, "main22": main22})


@dataclass
class TheoremReport:
    p: int
    generator: int
    precision: int
    voltages: tuple[int, ...]
    base_vertices: int
    base_edges: int
    total_vertices: int
    total_edges: int
    pic0: tuple[int, ...]
    sylow_factors: tuple[int, ...]
    dim_C: int
    kappa_base: int
    rows: list[dict] = field(default_factory=list)
    global_verdicts: dict[str, Verdict] = field(default_factory=dict)
    strict_dimension_inequality: bool = False
    diagnostics: dict | None = None

    @property
    def all_ok(self) -> bool:
        """Every global verdict passes; main11 and main22 fail with any row."""
        return all(v.status == PASS for v in self.global_verdicts.values())

    def to_dict(self) -> dict:
        out = {
            "cover": {
                "p": self.p,
                "generator": self.generator,
                "voltages": list(self.voltages),
                "base_vertices": self.base_vertices,
                "base_edges": self.base_edges,
                "total_vertices": self.total_vertices,
                "total_edges": self.total_edges,
            },
            "precision": self.precision,
            "pic0": list(self.pic0),
            "sylow_factors": list(self.sylow_factors),
            "dim_C": self.dim_C,
            "kappa_base": self.kappa_base,
            "rows": self.rows,
            "global": {k: v.to_dict() for k, v in sorted(self.global_verdicts.items())},
            "strict_dimension_inequality": self.strict_dimension_inequality,
        }
        if self.diagnostics is not None:
            out["diagnostics"] = self.diagnostics
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def format_table(self) -> str:
        """Character table in the style used for worked examples."""
        header = f"{'i':>3} | {'dim e_psi C':>11} | h(1, gamma^i) in F_{self.p}"
        sep = "-" * 4 + "+" + "-" * 13 + "+" + "-" * (len(header) - 18)
        lines = [header, sep]
        for row in self.rows:
            lines.append(f"{row['i']:>3} | {row['dimC']:>11} | {row['h_mod_p']}")
        return "\n".join(lines) + "\n"


def build_report(cover: DerivedCover, precision: int | None = None) -> TheoremReport:
    """Run every verification on a connected cover and assemble the report."""
    a = CoverAnalysis(cover, precision)
    rows = [a.character_row(i) for i in range(1, a.p - 1)]
    verdicts = {}
    for name in ("main11", "main22"):
        failed = [r.verdicts[name] for r in rows if r.verdicts[name].status == FAIL]
        verdicts[name] = failed[0] if failed else Verdict(PASS, f"{len(rows)} characters verified")
    # The Fitting-ideal consequences: (a) eta(1) annihilates Pic0 through the
    # deck action; (b) each L-value generates the ideal of its component's
    # order, which is main22, so (b) names the first failing main22 row.
    bad = next((r for r in rows if r.verdicts["main22"].status == FAIL), None)
    if not a.pic.annihilated_by(a.eta1):
        fitting = Verdict(FAIL, "special value does not annihilate the Picard group")
    elif bad is None:
        fitting = Verdict(PASS, "annihilation and per-character ideals verified")
    elif bad.valuation is None:
        fitting = Verdict(FAIL, f"character {bad.i}: L-value vanished mod p^{bad.h.precision}")
    else:
        reason = f"character {bad.i}: ideal p^{bad.valuation} != component order {bad.order_A}"
        fitting = Verdict(FAIL, reason)
    verdicts["fitting"] = fitting
    verdicts["duality"] = (
        Verdict(PASS, "L-values match at contragredient pairs")
        if duality_check(a.eta1, precision=min(a.precision, 3))
        else Verdict(FAIL, "a contragredient pair disagrees")
    )
    dim_c = a.dim_c
    rhs = sum(1 for d in a.base_factors if d % a.p == 0) + sum(1 for r in rows if r.h_mod_p == 0)
    strict = dim_c > rhs
    verdicts["dim_inequality"] = (
        Verdict(PASS, f"dim C = {dim_c} >= {rhs} ({'strict' if strict else 'tight'})")
        if dim_c >= rhs
        else Verdict(FAIL, f"dim C = {dim_c} < {rhs}")
    )
    # The trivial character has chi(g) = 1; its piece of A has order p^(sum of its ranks).
    verdicts["trivial_character"] = (
        Verdict(PASS, f"trivial component order equals p-part of kappa(X) = {a.kappa_base}")
        if sum(a.pic.layer_ranks(1)) == p_valuation(a.kappa_base, a.p)
        else Verdict(FAIL, "trivial component order differs from p-part of kappa(X)")
    )
    order_a = a.p ** sum(a.pic.exponents)
    order_product = prod(r.order_A for r in rows) * p_part(a.kappa_base, a.p)
    verdicts["order_product"] = (
        Verdict(PASS, "component orders multiply to the order of the p-primary part")
        if order_product == order_a
        else Verdict(FAIL, f"product {order_product} != {order_a}")
    )
    report = TheoremReport(
        p=a.p,
        generator=a.group.generator,
        precision=a.precision,
        voltages=cover.spec.voltages,
        base_vertices=cover.base.num_vertices,
        base_edges=cover.base.num_undirected_edges,
        total_vertices=cover.total.num_vertices,
        total_edges=cover.total.num_undirected_edges,
        pic0=a.pic.factors,
        sylow_factors=tuple(a.p**e for e in a.pic.exponents if e),
        dim_C=dim_c,
        kappa_base=a.kappa_base,
        rows=[r.to_dict() for r in rows],
        global_verdicts=verdicts,
        strict_dimension_inequality=strict,
    )
    if not report.all_ok:
        ones = [1] * (cover.total.num_vertices - 1 - len(a.pic.factors))
        report.diagnostics = {
            "laplacian": [sorted(map(list, row.items())) for row in cover.total.laplacian_rows()],
            "invariant_factors": [*ones, *a.pic.factors, 0],  # the Laplacian's Smith diagonal
            "precision": a.precision,
            "eta_at_one_coeffs": list(a.eta1.coeffs),
        }
    return report
