"""End-to-end verification on a cover, one row per nontrivial character.

``build_report`` is one pass over the cover.  It computes the intermediates
the rows share, with the checks that tie them together, then each row as the
dict the report writes: the character's order of A, dimension of C and
L-value, each computed once, with its main22 verdict (the order against the
L-value's p-adic absolute value) and its main11 verdict (C-eigenspace
vanishing against the L-value mod p).  The global verdicts are derived from
the rows and from the shared intermediates.  A FAIL on a valid connected cover indicates an
implementation bug, not new mathematics, so failures carry a diagnostic
payload (Smith data, precisions) for debugging.  Reports serialize
deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from math import prod

from .arith import VerificationError, is_precision, p_part, p_valuation
from .characters import Character
from .groupring import CyclicGroup
from .padic import PAdicInt
from .picard import PicardModule, picard_factors
from .voltage import DerivedCover
from .zeta import duality_check, equivariant_laplacian, eta_at_one, l_value, orbit_norms

PASS = "PASS"
FAIL = "FAIL"


@dataclass(frozen=True)
class Verdict:
    status: str
    reason: str = ""

    def to_dict(self) -> dict:
        return {"status": self.status, "reason": self.reason}


def _write(x, pad: str, out: list[str]) -> None:
    """Append the text of ``json.dumps(x, indent=2, sort_keys=True)`` to
    ``out``, nested at the indent ``pad``, for dicts with str keys, lists,
    str, int, bool and None; anything else raises ``TypeError``, as json
    does for what it cannot write.  json writes an indented document with
    its pure-Python encoder, which takes about twice as long."""
    if isinstance(x, str):
        out.append(encode_basestring_ascii(x))
    elif isinstance(x, dict):
        if not x:
            out.append("{}")
            return
        inner, sep = pad + "  ", "{"
        for k in sorted(x):
            out.append(f"{sep}{inner}{encode_basestring_ascii(k)}: ")
            _write(x[k], inner, out)
            sep = ","
        out.append(pad + "}")
    elif isinstance(x, list):
        if not x:
            out.append("[]")
            return
        inner, sep = pad + "  ", "["
        for v in x:
            out.append(sep + inner)
            _write(v, inner, out)
            sep = ","
        out.append(pad + "]")
    elif x is None:
        out.append("null")
    elif x is True:
        out.append("true")
    elif x is False:
        out.append("false")
    elif isinstance(x, int):
        out.append(int.__repr__(x))
    else:
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def default_precision(pm: PicardModule) -> int:
    """Working p-adic precision: the p-valuation of #Pic0 plus two.

    The class-number check bounds every nontrivial L-value's valuation by
    the p-valuation of #Pic0, so one less than this already suffices and a
    value that vanishes at it signals a bug rather than a tight margin.
    """
    return sum(pm.exponents) + 2


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
        """The report as ``json.dumps(self.to_dict(), indent=2, sort_keys=True)``
        writes it, and a newline."""
        out: list[str] = []
        _write(self.to_dict(), "\n", out)
        out.append("\n")
        return "".join(out)

    def format_table(self) -> str:
        """Character table in the style used for worked examples."""
        header = f"{'i':>3} | {'dim e_psi C':>11} | h(1, gamma^i) in F_{self.p}"
        sep = "-" * 4 + "+" + "-" * 13 + "+" + "-" * (len(header) - 18)
        lines = [header, sep]
        for row in self.rows:
            lines.append(f"{row['i']:>3} | {row['dimC']:>11} | {row['h_mod_p']}")
        return "\n".join(lines) + "\n"


def build_report(cover: DerivedCover, precision: int | None = None) -> TheoremReport:
    """Run every verification on a connected cover and assemble the report.

    The intermediates the rows share are computed once: the Picard module,
    whose dim C is checked against the number of cyclic summands of A; the
    base graph's Picard factors, whose product is its tree count; the
    equivariant Laplacian and eta(1); and the norms N_d of eta(1) at the
    rational orbits of characters, whose product, the product of the
    nontrivial L-values at u = 1, the class-number check ties to #Pic0.
    """
    if precision is not None and not is_precision(precision):
        raise ValueError(f"precision must be at least 1 and an int, got {precision!r}")
    p = cover.p
    group = CyclicGroup.for_prime(p)
    pm = PicardModule(cover)
    dim_c, summands = len(pm.deck), sum(a > 0 for a in pm.exponents)
    if dim_c != summands:
        raise VerificationError(
            "picard.quotient_dimension",
            f"mod-{p} span of the Laplacian leaves dim C = {dim_c}, but A has {summands} cyclic summands",
        )
    base_factors = picard_factors(cover.base)
    kappa_base = prod(base_factors)  # certified by snf.cokernel_order
    lap = equivariant_laplacian(cover)
    eta1 = eta_at_one(cover, lap)
    norms = orbit_norms(eta1)
    # (p - 1) #Pic0(Y) = kappa(X) prod of N_d over d | p - 1, d > 1.
    if (p - 1) * pm.order != kappa_base * prod(norms.values()):
        raise VerificationError(
            "picard.class_number",
            f"(p - 1) #Pic0 = {(p - 1) * pm.order}, kappa(X) = {kappa_base}, orbit norms {norms}",
        )
    # The class-number check bounds every L-value's valuation by that of
    # #Pic0, so a requested precision is raised to one more than that.
    k = default_precision(pm)
    precision = k if precision is None else max(precision, k - 1)
    # Each row's layer ranks, g's eigenspaces on the layers of A at chi(g),
    # give its order of A and, the first, its dimension of C; its L-value
    # is taken once.  The Teichmuller lift reduces to the F_p character.
    rows = []
    for i in range(1, p - 1):
        ranks = pm.layer_ranks(pow(group.generator, i, p))
        dim, order = (ranks[0] if ranks else 0), p ** sum(ranks)
        h = PAdicInt(p, precision, l_value(Character(group, i, precision), eta1, lap))
        val = None if h.is_zero() else h.valuation()
        h_mod_p = h.value % p
        if (dim > 0) == (h_mod_p == 0):
            main11 = Verdict(PASS, f"dim = {dim}, h = {h_mod_p}")
        else:
            main11 = Verdict(FAIL, f"dim = {dim} inconsistent with h = {h_mod_p}")
        if val is None:
            main22 = Verdict(FAIL, f"L-value vanished mod {p}^{precision}; order side is {order}")
        elif p**val == order:
            main22 = Verdict(PASS, f"#component = {order} = p^{val}")
        else:
            main22 = Verdict(FAIL, f"#component = {order} but |h|^-1 = {p**val}")
        rows.append({
            "i": i,
            "dimC": dim,
            "h_mod_p": h_mod_p,
            "orderA": order,
            "valuation": val,
            "h_padic": None if val is None else h.expansion_str(),
            "verdicts": {"main11": main11.to_dict(), "main22": main22.to_dict()},
        })
    verdicts = {}
    for name in ("main11", "main22"):
        failed = next((r["verdicts"][name] for r in rows if r["verdicts"][name]["status"] == FAIL), None)
        verdicts[name] = Verdict(**failed) if failed else Verdict(PASS, f"{len(rows)} characters verified")
    # The Fitting-ideal consequences: (a) eta(1) annihilates Pic0 through the
    # deck action; (b) each L-value generates the ideal of its component's
    # order, which is main22, so (b) names the first failing main22 row.
    bad = next((r for r in rows if r["verdicts"]["main22"]["status"] == FAIL), None)
    if not pm.annihilated_by(eta1):
        fitting = Verdict(FAIL, "special value does not annihilate the Picard group")
    elif bad is None:
        fitting = Verdict(PASS, "annihilation and per-character ideals verified")
    elif bad["valuation"] is None:
        fitting = Verdict(FAIL, f"character {bad['i']}: L-value vanished mod p^{precision}")
    else:
        reason = f"character {bad['i']}: ideal p^{bad['valuation']} != component order {bad['orderA']}"
        fitting = Verdict(FAIL, reason)
    verdicts["fitting"] = fitting
    verdicts["duality"] = (
        Verdict(PASS, "L-values match at contragredient pairs")
        if duality_check(eta1, precision=min(precision, 3))
        else Verdict(FAIL, "a contragredient pair disagrees")
    )
    rhs = sum(1 for d in base_factors if d % p == 0) + sum(1 for r in rows if r["h_mod_p"] == 0)
    strict = dim_c > rhs
    verdicts["dim_inequality"] = (
        Verdict(PASS, f"dim C = {dim_c} >= {rhs} ({'strict' if strict else 'tight'})")
        if dim_c >= rhs
        else Verdict(FAIL, f"dim C = {dim_c} < {rhs}")
    )
    # The trivial character has chi(g) = 1; its piece of A has order p^(sum of its ranks).
    verdicts["trivial_character"] = (
        Verdict(PASS, f"trivial component order equals p-part of kappa(X) = {kappa_base}")
        if sum(pm.layer_ranks(1)) == p_valuation(kappa_base, p)
        else Verdict(FAIL, "trivial component order differs from p-part of kappa(X)")
    )
    order_a = p ** sum(pm.exponents)
    order_product = prod(r["orderA"] for r in rows) * p_part(kappa_base, p)
    verdicts["order_product"] = (
        Verdict(PASS, "component orders multiply to the order of the p-primary part")
        if order_product == order_a
        else Verdict(FAIL, f"product {order_product} != {order_a}")
    )
    report = TheoremReport(
        p=p,
        generator=group.generator,
        precision=precision,
        voltages=cover.spec.voltages,
        base_vertices=cover.base.num_vertices,
        base_edges=cover.base.num_undirected_edges,
        total_vertices=cover.total.num_vertices,
        total_edges=cover.total.num_undirected_edges,
        pic0=pm.factors,
        sylow_factors=tuple(p**e for e in pm.exponents if e),
        dim_C=dim_c,
        kappa_base=kappa_base,
        rows=rows,
        global_verdicts=verdicts,
        strict_dimension_inequality=strict,
    )
    if not report.all_ok:
        ones = [1] * (cover.total.num_vertices - 1 - len(pm.factors))
        report.diagnostics = {
            "laplacian": [sorted(map(list, row.items())) for row in cover.total.laplacian_rows()],
            "invariant_factors": [*ones, *pm.factors, 0],  # the Laplacian's Smith diagonal
            "precision": precision,
            "eta_at_one_coeffs": list(eta1.coeffs),
        }
    return report
