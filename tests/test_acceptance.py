"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time
from contextlib import contextmanager
from math import prod

from conftest import dense_tree_count, evaluate_matrix, random_connected_cover
from coverzeta import (
    Character,
    CyclicGroup,
    PAdicInt,
    bouquet,
    build_report,
    bundled_spec,
    derive,
    eta_at_one,
    l_value,
    p_part,
    teichmuller,
)
from coverzeta.census import read_census, run_census
from coverzeta.herbrand import PASS
from coverzeta.snf import integer_determinant
from coverzeta.zeta import equivariant_laplacian
from reference import contragredient, eta_polynomial, padic_mul, smith_normal_form


@contextmanager
def criterion(number, description, budget_seconds=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    if budget_seconds is not None:
        assert elapsed < budget_seconds, (
            f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s"
        )
    print(f"ACCEPTANCE {number}: PASS - {description} ({elapsed:.2f}s)")


def test_criterion_1_first_example():
    with criterion(1, "bouquet cover at p=5: group, table, trivial quotient", 1.0):
        report = build_report(derive(bundled_spec("example1")))
        assert report.pic0 == (3, 12)
        assert [row["h_mod_p"] for row in report.rows] == [1, 4, 1]
        assert all(row["dimC"] == 0 for row in report.rows)
        assert report.all_ok


def test_criterion_2_second_example():
    with criterion(2, "two-vertex cover at p=5: Z/5 part and 4*5 leading digit", 1.0):
        cover = derive(bundled_spec("example2"))
        report = build_report(cover)
        assert report.sylow_factors == (5,)
        assert [row["h_mod_p"] for row in report.rows] == [4, 0, 4]
        assert report.rows[1]["orderA"] == 5
        lap = equivariant_laplacian(cover)
        chi = Character(CyclicGroup.for_prime(5), 2, 4)
        h = PAdicInt(5, 4, l_value(chi, eta_at_one(cover, lap), lap))
        assert h.valuation() == 1
        assert h.digits()[1] == 4
        assert report.all_ok


def test_criterion_3_third_example():
    with criterion(3, "p=11 cover with A = (Z/121)^2: table, dims, digits", 5.0):
        cover = derive(bundled_spec("example3"))
        report = build_report(cover)
        assert report.sylow_factors == (121, 121)
        assert [row["h_mod_p"] for row in report.rows] == [0, 9, 2, 1, 8, 1, 2, 9, 0]
        dims = {row["i"]: row["dimC"] for row in report.rows}
        assert dims[1] == 1 and dims[9] == 1
        assert sum(dims.values()) == 2
        lap = equivariant_laplacian(cover)
        chi = Character(CyclicGroup.for_prime(11), 1, 6)
        h = PAdicInt(11, 6, l_value(chi, eta_at_one(cover, lap), lap))
        assert h.valuation() == 2
        assert h.digits()[2:5] == (2, 7, 9)
        assert report.all_ok


def test_criterion_4_fourth_example():
    with criterion(4, "p=11 cover with A = (Z/11)^4: strict dimension gap", 5.0):
        cover = derive(bundled_spec("example4"))
        report = build_report(cover)
        assert report.sylow_factors == (11, 11, 11, 11)
        assert [row["h_mod_p"] for row in report.rows] == [5, 5, 0, 8, 3, 8, 0, 5, 5]
        dims = {row["i"]: row["dimC"] for row in report.rows}
        assert dims[3] == 2 and dims[7] == 2
        assert sum(dims.values()) == 4
        lap = equivariant_laplacian(cover)
        chi = Character(CyclicGroup.for_prime(11), 3, 6)
        h = PAdicInt(11, 6, l_value(chi, eta_at_one(cover, lap), lap))
        assert h.valuation() == 2
        assert h.digits()[2:6] == (9, 0, 7, 9)
        assert report.dim_C == 4
        assert report.strict_dimension_inequality  # 4 > 0 + 2
        assert report.all_ok


def test_criterion_5_randomized_property_suite():
    with criterion(5, "200 random connected covers at p in {3, 5, 7}", 120.0):
        rng = random.Random(20260810)
        instances = 0
        for p in (3, 5, 7):
            group = CyclicGroup.for_prime(p)
            for _ in range(67):
                cover = random_connected_cover(rng, p)
                instances += 1
                report = build_report(cover)
                assert all(
                    row["verdicts"][name]["status"] == PASS
                    for row in report.rows
                    for name in ("main22", "main11")
                )
                # Matrix-tree count against the Smith-form group order.
                assert prod(report.pic0) == dense_tree_count(cover.total)
                # Coefficientwise involution symmetry of the polynomial.
                assert eta_polynomial(cover).is_involution_invariant()
                # L-values agree at contragredient pairs.
                h = {row["i"]: row["h_mod_p"] for row in report.rows}
                for i in range(1, p - 1):
                    star = contragredient(Character(group, i, 1))
                    assert h[i] == h[star.exponent]
                # Character evaluation commutes with the determinant.
                lap = equivariant_laplacian(cover)
                eta1 = eta_at_one(cover, lap)
                for i in range(p - 1):
                    chi = Character(group, i, 1)
                    direct = integer_determinant(evaluate_matrix(group, lap, chi)) % p
                    assert eta1.evaluate(chi) == direct
                # Trivial character kills the special value.
                assert eta1.augmentation() == 0
                assert eta1.evaluate(Character(group, 0, 1)) == 0
                # Component orders multiply to the p-primary order.
                kappa_p = p_part(dense_tree_count(cover.base), p)
                product = kappa_p * prod(row["orderA"] for row in report.rows)
                assert product == prod(report.sylow_factors)
        assert instances >= 200


def test_criterion_6_smith_self_checks():
    with criterion(6, "1000 random matrices up to 8x8: U*A*V = D, unimodular", 30.0):
        rng = random.Random(6021023)
        for _ in range(1000):
            m = rng.randint(1, 8)
            n = rng.randint(1, 8)
            a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            dec = smith_normal_form(a)  # construction self-verifies
            assert len(dec.diagonal) == min(m, n)


def test_criterion_7_teichmuller_roots():
    with criterion(7, "unit roots: fixed points, reduction, multiplicativity"):
        for p in (3, 5, 7, 11, 13):
            for n in range(1, 9):
                modulus = p**n
                lifts = {a: teichmuller(a, p, n) for a in range(1, p)}
                for a, t in lifts.items():
                    assert pow(t.value, p - 1, modulus) == 1
                    assert t.value % p == a
                for a in range(1, p):
                    for b in range(1, p):
                        assert padic_mul(lifts[a], lifts[b]) == lifts[a * b % p]


def test_criterion_8_census_of_the_bouquet(tmp_path):
    with criterion(8, "all 16 assignments on the two-loop bouquet at p=5"):
        out = tmp_path / "census.ndjson"
        summary = run_census(bouquet(2), 5, str(out))
        assert summary["total_assignments"] == 16
        rows = read_census(str(out))
        assert len(rows) == 16
        by_key = {row["key"]: row for row in rows}
        # The worked first example appears with its invariants.
        reference = build_report(derive(bundled_spec("example1")))
        row = by_key["2,4"]
        assert row["pic0"] == list(reference.pic0)
        assert row["vanishing"] == []
        assert row["connected"]
        # Breadth-first search agrees with the subgroup criterion everywhere.
        assert all(r["connected"] == r["criterion_connected"] for r in rows)
