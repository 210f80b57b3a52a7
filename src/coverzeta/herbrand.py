"""End-to-end verification on a cover: eigenspace orders against p-adic
absolute values of L-values, mod-p vanishing against eigenspace dimensions,
the Fitting-ideal consequences, duality, and the dimension inequality.

A FAIL on a valid connected cover indicates an implementation bug, not new
mathematics, so failures carry a diagnostic payload (Smith data, precisions)
for debugging.  Reports serialize deterministically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from math import prod

from .arith import VerificationError, p_part, p_valuation
from .characters import Character
from .groupring import CyclicGroup
from .padic import PrecisionExhausted
from .picard import (
    ElementaryQuotient,
    PicardModule,
    SylowPModule,
    eigenspace_dim_C,
    elementary_quotient,
    layer_ranks,
    picard_factors,
    picard_module,
    sylow_p_module,
    trivial_character_check,
)
from .voltage import DerivedCover, require_connected_cover
from .zeta import duality_check, equivariant_laplacian, eta_at_one, l_value, orbit_norms

RETRY_DOUBLINGS = 4

PASS = "PASS"
FAIL = "FAIL"
SKIPPED = "SKIPPED"


@dataclass(frozen=True)
class Verdict:
    status: str
    reason: str = ""

    def to_dict(self) -> dict:
        return {"status": self.status, "reason": self.reason}

    @property
    def ok(self) -> bool:
        return self.status in (PASS, SKIPPED)


def default_precision(pm: PicardModule) -> int:
    """Working p-adic precision: valuation of the group order plus two.

    Eigenspace orders divide the p-part of the Picard group, so on valid
    inputs every L-value valuation stays strictly below this precision and
    an exhaustion signals a bug rather than a tight margin.
    """
    return p_valuation(pm.order, pm.p) + 2 if pm.order % pm.p == 0 else 2


class CoverAnalysis:
    """Owner of every intermediate the verification passes share.

    Computed once per analysis: the Picard module with the deck generator's
    matrix on Pic0 and its Sylow part, the elementary quotient with the deck
    generator's matrix on it (from a sparse echelon form mod p of the Picard
    module's Laplacian, its dimension checked against the Sylow part's
    rank), the base graph's Picard factors (kept on the graph), whose
    product is its tree count, the equivariant Laplacian and the special
    value eta(1), whose Berkowitz-against-substitution check runs here, the
    norms N_d of eta(1) at the rational orbits of characters (those of order
    d, for each d > 1 dividing p - 1), and the class-number check that ties
    the order of Pic0 to their product.
    Per-character quantities are computed on demand and cached, so the
    verification passes can share one analysis without recomputation; in
    particular each character's layer ranks come from eigenspaces of the
    deck generator's matrix on the layers of A and give both its order of A
    and its dimension of C, which is checked against an eigenspace of the
    deck generator's matrix on C; each L-value, with its
    eta-against-determinant check, is computed once per (character,
    precision), and the F_p value, the valuation retries and the report's
    p-adic expansion read the same cached value; the Fitting-identity pass
    reads the main22 verdicts.
    """

    def __init__(self, cover: DerivedCover, precision: int | None = None):
        if precision is not None and precision < 1:
            raise ValueError(f"precision must be at least 1, got {precision}")
        require_connected_cover(cover)
        self.cover = cover
        self.p = cover.p
        self.group = CyclicGroup.for_prime(self.p)
        self.pic: PicardModule = picard_module(cover)
        self.sylow: SylowPModule = sylow_p_module(self.pic, self.p)
        self.elemq: ElementaryQuotient = elementary_quotient(self.pic)
        if self.elemq.dimension != self.sylow.rank():
            raise VerificationError(
                "picard.quotient_dimension",
                f"mod-{self.p} span of the Laplacian leaves dim C = {self.elemq.dimension}, "
                f"but A has {self.sylow.rank()} cyclic summands",
            )
        self.base_factors = picard_factors(cover.base)
        self.kappa_base = prod(self.base_factors)  # certified by snf.cokernel_order
        self.lap = equivariant_laplacian(cover)
        self.eta1 = eta_at_one(cover, self.lap)
        self.orbit_norms = orbit_norms(self.eta1)
        self._check_class_number()
        self.precision = precision if precision is not None else default_precision(self.pic)
        self.precision = max(self.precision, self.sylow.exponent, 1)
        self._l_values: dict[tuple[int, int], object] = {}
        self._ranks: dict[int, tuple[int, ...]] = {}
        self._dims: dict[int, int] = {}
        self._valuations: dict[int, tuple[int | None, int]] = {}

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

    def zp_value(self, i: int, precision: int):
        key = (i, precision)
        if key not in self._l_values:
            chi = Character(self.group, i, precision)
            self._l_values[key] = l_value(self.cover, chi, self.eta1, self.lap).value
        return self._l_values[key]

    def fp_value(self, i: int) -> int:
        """The F_p L-value: the Teichmuller lift reduces to the F_p character."""
        return self.zp_value(i, self.precision).value % self.p

    def ranks(self, i: int) -> tuple[int, ...]:
        """Layer ranks of the i-th component of A: eigenspaces of the deck generator."""
        if i not in self._ranks:
            self._ranks[i] = layer_ranks(self.sylow, Character(self.group, i))
        return self._ranks[i]

    def dim_C(self, i: int) -> int:
        if i not in self._dims:
            chi = Character(self.group, i)
            self._dims[i] = eigenspace_dim_C(self.elemq, self.sylow, chi, self.ranks(i))
        return self._dims[i]

    def order_A(self, i: int) -> int:
        return self.p ** sum(self.ranks(i))

    def valuation_with_retry(self, i: int) -> tuple[int | None, int]:
        """(valuation or None, precision used) with capped doubling retries."""
        if i in self._valuations:
            return self._valuations[i]
        precision = self.precision
        result = None, precision
        for _ in range(RETRY_DOUBLINGS + 1):
            try:
                result = self.zp_value(i, precision).valuation(), precision
                break
            except PrecisionExhausted:
                precision *= 2
        else:
            result = None, precision // 2
        self._valuations[i] = result
        return result

    @cached_property
    def main22(self) -> dict[int, Verdict]:
        """Per nontrivial character: eigenspace order of A versus p^valuation."""
        out: dict[int, Verdict] = {}
        for i in range(1, self.p - 1):
            order = self.order_A(i)
            val, used = self.valuation_with_retry(i)
            if val is None:
                out[i] = Verdict(
                    FAIL,
                    f"L-value vanished mod {self.p}^{used} after retries; order side is {order}",
                )
                continue
            side = self.p**val
            if side == order:
                out[i] = Verdict(PASS, f"#component = {order} = p^{val}")
            else:
                out[i] = Verdict(FAIL, f"#component = {order} but |h|^-1 = {side}")
        return out


def verify_main22(
    cover: DerivedCover, precision: int | None = None, analysis: CoverAnalysis | None = None
) -> dict[int, Verdict]:
    """Per nontrivial character: eigenspace order of A versus p^valuation."""
    return (analysis or CoverAnalysis(cover, precision)).main22


def verify_main11(
    cover: DerivedCover, precision: int | None = None, analysis: CoverAnalysis | None = None
) -> dict[int, Verdict]:
    """Per nontrivial character: C-eigenspace vanishing iff L-value is 0 mod p."""
    a = analysis or CoverAnalysis(cover, precision)
    out: dict[int, Verdict] = {}
    for i in range(1, a.p - 1):
        dim = a.dim_C(i)
        h = a.fp_value(i)
        if (dim > 0) == (h == 0):
            out[i] = Verdict(PASS, f"dim = {dim}, h = {h}")
        else:
            out[i] = Verdict(FAIL, f"dim = {dim} inconsistent with h = {h}")
    return out


def verify_fitting_identity(
    cover: DerivedCover, precision: int | None = None, analysis: CoverAnalysis | None = None
) -> Verdict:
    """Testable consequences of the Fitting-ideal equality.

    (a) the special value annihilates the whole Picard group through the deck
    action; (b) for each nontrivial character the ideal generated by the
    L-value matches the order of the character component.  Part (b) is the
    main22 comparison, so it reads the analysis' main22 verdicts.
    """
    if not cover.is_connected():
        return Verdict(SKIPPED, "cover is disconnected, not Galois with the full group")
    a = analysis or CoverAnalysis(cover, precision)
    if not a.pic.annihilated_by(a.eta1):
        return Verdict(FAIL, "special value does not annihilate the Picard group")
    for i, verdict in a.main22.items():
        if verdict.status == FAIL:
            val, used = a.valuation_with_retry(i)
            if val is None:
                return Verdict(FAIL, f"character {i}: L-value vanished mod p^{used}")
            return Verdict(
                FAIL, f"character {i}: ideal p^{val} != component order {a.order_A(i)}"
            )
    return Verdict(PASS, "annihilation and per-character ideals verified")


def _dimension_inequality(a: CoverAnalysis) -> tuple[Verdict, bool]:
    base_dim = sum(1 for d in a.base_factors if d % a.p == 0)
    vanishing = sum(1 for i in range(1, a.p - 1) if a.fp_value(i) == 0)
    dim_c = a.elemq.dimension
    rhs = base_dim + vanishing
    if dim_c >= rhs:
        strict = dim_c > rhs
        word = "strict" if strict else "tight"
        return Verdict(PASS, f"dim C = {dim_c} >= {rhs} ({word})"), strict
    return Verdict(FAIL, f"dim C = {dim_c} < {rhs}"), False


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
        row_ok = all(
            v["verdicts"][k]["status"] in (PASS, SKIPPED)
            for v in self.rows
            for k in v["verdicts"]
        )
        return row_ok and all(v.ok for v in self.global_verdicts.values())

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
    m22 = verify_main22(cover, analysis=a)
    m11 = verify_main11(cover, analysis=a)
    rows = []
    for i in range(1, a.p - 1):
        val, used = a.valuation_with_retry(i)
        rows.append(
            {
                "i": i,
                "dimC": a.dim_C(i),
                "h_mod_p": a.fp_value(i),
                "orderA": a.order_A(i),
                "valuation": val,
                "h_padic": a.zp_value(i, used).expansion_str() if val is not None else None,
                "verdicts": {
                    "main11": m11[i].to_dict(),
                    "main22": m22[i].to_dict(),
                },
            }
        )
    dim_verdict, strict = _dimension_inequality(a)
    trivial_ok = trivial_character_check(a.sylow, a.kappa_base)
    order_product = prod(a.order_A(i) for i in range(1, a.p - 1)) * p_part(a.kappa_base, a.p)
    global_verdicts = {
        "main22": _combine([m22[i] for i in m22]),
        "main11": _combine([m11[i] for i in m11]),
        "fitting": verify_fitting_identity(cover, analysis=a),
        "duality": Verdict(PASS, "L-values match at contragredient pairs")
        if duality_check(cover, precision=min(a.precision, 3), eta1=a.eta1)
        else Verdict(FAIL, "a contragredient pair disagrees"),
        "dim_inequality": dim_verdict,
        "trivial_character": Verdict(
            PASS, f"trivial component order equals p-part of kappa(X) = {a.kappa_base}"
        )
        if trivial_ok
        else Verdict(FAIL, "trivial component order differs from p-part of kappa(X)"),
        "order_product": Verdict(
            PASS, "component orders multiply to the order of the p-primary part"
        )
        if order_product == a.sylow.order
        else Verdict(FAIL, f"product {order_product} != {a.sylow.order}"),
    }
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
        sylow_factors=a.sylow.factors,
        dim_C=a.elemq.dimension,
        kappa_base=a.kappa_base,
        rows=rows,
        global_verdicts=global_verdicts,
        strict_dimension_inequality=strict,
    )
    if not report.all_ok:
        report.diagnostics = {
            "laplacian": cover.total.laplacian_matrix(),
            "invariant_factors": list(a.pic.full_diagonal),
            "precision": a.precision,
            "eta_at_one_coeffs": list(a.eta1.coeffs),
        }
    return report


def _combine(verdicts: list[Verdict]) -> Verdict:
    """One verdict for a per-character pass, whose verdicts are PASS or FAIL."""
    bad = [v for v in verdicts if v.status == FAIL]
    if bad:
        return Verdict(FAIL, bad[0].reason)
    return Verdict(PASS, f"{len(verdicts)} characters verified")
