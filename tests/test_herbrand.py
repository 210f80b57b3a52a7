import json
import pathlib
from math import prod
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

import coverzeta.herbrand as hb
from coverzeta import VoltageSpec, bouquet, build_report, bundled_spec, derive
from coverzeta.arith import p_valuation
from coverzeta.census import census_row
from coverzeta.herbrand import PASS, TheoremReport, default_precision
from coverzeta.picard import PicardModule

GOLDENS = pathlib.Path(__file__).parent / "goldens"


def _main22(cover):
    return {row["i"]: row["verdicts"]["main22"] for row in build_report(cover).rows}


def test_main22_passes_on_examples(ex1_cover, ex2_cover, ex3_cover):
    for cover in (ex1_cover, ex2_cover, ex3_cover):
        verdicts = _main22(cover)
        assert all(v["status"] == PASS for v in verdicts.values())


def test_main22_matches_worked_orders(ex2_cover, ex3_cover):
    v2 = _main22(ex2_cover)
    assert set(v2) == {1, 2, 3}
    assert "5" in v2[2]["reason"]
    v3 = _main22(ex3_cover)
    assert set(v3) == set(range(1, 10))
    assert "121" in v3[1]["reason"] and "121" in v3[9]["reason"]


def test_main11_passes_and_locates_vanishing(ex3_cover, ex4_cover):
    r3 = build_report(ex3_cover).rows
    assert all(row["verdicts"]["main11"]["status"] == PASS for row in r3)
    assert {row["i"] for row in r3 if row["h_mod_p"] == 0} == {1, 9}
    assert {row["i"]: row["dimC"] for row in r3 if row["dimC"]} == {1: 1, 9: 1}
    r4 = build_report(ex4_cover).rows
    assert {row["i"] for row in r4 if row["h_mod_p"] == 0} == {3, 7}
    assert {row["i"]: row["dimC"] for row in r4 if row["dimC"]} == {3: 2, 7: 2}


def test_fitting_identity_on_examples(ex1_cover, ex2_cover):
    assert build_report(ex1_cover).global_verdicts["fitting"].status == PASS
    assert build_report(ex2_cover).global_verdicts["fitting"].status == PASS


def test_fitting_identity_skips_disconnected():
    # A report needs a connected cover; a census row is the one place that
    # marks a disconnected cover's verdicts SKIPPED.
    assert not derive(VoltageSpec(bouquet(2), 5, (1, 1))).is_connected()
    row = census_row(bouquet(2), 5, (1, 1), {})
    assert not row["connected"]
    assert row["verdicts"]["fitting"] == "SKIPPED"


def test_default_precision_rule(ex2_cover, ex3_cover):
    assert default_precision(PicardModule(ex2_cover)) == 3  # 5-part order 5
    assert default_precision(PicardModule(ex3_cover)) == 6  # 11-part order 11^4


def test_reports_are_deterministic(ex2_cover):
    assert build_report(ex2_cover).to_json() == build_report(ex2_cover).to_json()


@pytest.mark.parametrize("name", ["example1", "example2", "example3", "example4"])
def test_reports_match_goldens(name):
    cover = derive(bundled_spec(name))
    got = build_report(cover).to_json()
    want = (GOLDENS / f"{name}_report.json").read_text()
    assert got == want


# Strings with quotes, backslashes, control characters and non-ASCII text.
JSON_TEXT = st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\U0001f600') | st.characters())
JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**200)
    | st.integers(max_value=-(2**64), min_value=-(2**200))
    | JSON_TEXT
)
JSON_DOCUMENTS = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(JSON_TEXT, inner, max_size=4),
    max_leaves=40,
)


def _to_json(doc):
    """``TheoremReport.to_json`` on a report whose dict is ``doc``."""
    return TheoremReport.to_json(SimpleNamespace(to_dict=lambda: doc))


@settings(max_examples=150, deadline=None)
@given(JSON_DOCUMENTS)
@example({})
@example([])
@example({"a": [], "b": {}, "c": [{}, [[]]], "d": [None, True, False, -(2**70), 2**70, ""]})
def test_report_writer_matches_indented_json(doc):
    assert _to_json(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("doc", [1.5, (1, 2), {1: 2}, {"a": [{(1,): 2}]}, {1, 2}, object()])
def test_report_writer_refuses_other_types(doc):
    with pytest.raises(TypeError):
        _to_json(doc)


def test_report_contents_fourth_example(ex4_cover):
    report = build_report(ex4_cover)
    assert report.pic0 == (11, 11, 1353, 27060)
    assert report.sylow_factors == (11, 11, 11, 11)
    assert report.dim_C == 4
    assert [row["h_mod_p"] for row in report.rows] == [5, 5, 0, 8, 3, 8, 0, 5, 5]
    assert [row["dimC"] for row in report.rows] == [0, 0, 2, 0, 0, 0, 2, 0, 0]
    assert report.strict_dimension_inequality  # dim C = 4 > 0 + 2
    assert report.all_ok


def test_report_main22_main11_rows_consistent(ex3_cover):
    report = build_report(ex3_cover)
    for row in report.rows:
        assert (row["orderA"] > 1) == (row["dimC"] > 0)
        assert (row["valuation"] > 0) == (row["h_mod_p"] == 0)


def test_report_renders_padic_expansions(ex3_cover):
    report = build_report(ex3_cover)
    assert report.rows[0]["h_padic"].startswith("2*11^2 + 7*11^3 + 9*11^4")


def test_precision_retry_recovers(ex3_cover):
    # Ask for less than the valuation of the interesting L-values; the
    # report raises it to one more than the p-valuation of #Pic0 and passes.
    report = build_report(ex3_cover, precision=1)
    assert report.all_ok
    assert [row["valuation"] for row in report.rows] == [2, 0, 0, 0, 0, 0, 0, 0, 2]


@pytest.mark.parametrize("precision", [None, 1, 2, 7])
@pytest.mark.parametrize("name", ["example1", "example2", "example3", "example4"])
def test_every_l_value_is_at_the_report_precision(name, precision):
    # One precision K per report, at least the p-valuation of #Pic0 plus
    # one, which bounds every L-value's valuation from above.
    report = build_report(derive(bundled_spec(name)), precision)
    floor = p_valuation(prod(report.pic0), report.p) + 1
    k = report.precision
    assert k == (floor + 1 if precision is None else max(precision, floor))
    assert all(row["h_padic"].endswith(f"O({report.p}^{k})") for row in report.rows)
    assert all(row["valuation"] < floor for row in report.rows)
    assert report.all_ok


def test_nonpositive_precision_rejected(ex2_cover):
    for precision in (0, -3):
        with pytest.raises(ValueError, match="precision must be at least 1"):
            build_report(ex2_cover, precision)


@pytest.mark.parametrize("precision", [True, 3.0, 7.5])
def test_non_integer_precision_rejected(ex2_cover, precision):
    # bool passes isinstance(x, int), and a float would reach padic's pow.
    with pytest.raises(ValueError, match="and an int, got"):
        build_report(ex2_cover, precision)


def test_table_rendering(ex3_cover):
    table = build_report(ex3_cover).format_table()
    lines = table.strip().splitlines()
    assert len(lines) == 2 + 9
    assert lines[2].split("|")[0].strip() == "1"
    body = [line.split("|") for line in lines[2:]]
    assert [int(cells[1]) for cells in body] == [1, 0, 0, 0, 0, 0, 0, 0, 1]
    assert [int(cells[2]) for cells in body] == [0, 9, 2, 1, 8, 1, 2, 9, 0]


def test_json_schema_keys(ex2_cover):
    doc = json.loads(build_report(ex2_cover).to_json())
    assert set(doc["global"]) >= {"main11", "main22", "fitting", "duality", "dim_inequality"}
    for row in doc["rows"]:
        assert set(row) == {
            "i",
            "dimC",
            "h_mod_p",
            "orderA",
            "valuation",
            "h_padic",
            "verdicts",
        }
    assert {"p", "voltages", "base_vertices", "total_vertices"} <= set(doc["cover"])


def test_failed_report_carries_diagnostics(ex2_cover, monkeypatch):
    import coverzeta.herbrand as hb

    monkeypatch.setattr(hb, "duality_check", lambda eta1, precision=2: False)
    report = build_report(ex2_cover)
    assert not report.all_ok
    assert report.diagnostics is not None
    # The Laplacian as sparse rows of [column, entry] pairs in column order,
    # and its Smith diagonal, (1, ..., 1, factors, 0).
    from reference import laplacian_matrix, smith_normal_form

    rows = report.diagnostics["laplacian"]
    assert all(row == sorted(row) and all(x for _, x in row) for row in rows)
    n = ex2_cover.total.num_vertices
    dense = [[dict(row).get(j, 0) for j in range(n)] for row in rows]
    assert dense == laplacian_matrix(ex2_cover.total)
    assert report.diagnostics["invariant_factors"] == list(smith_normal_form(dense).diagonal)


@pytest.mark.parametrize("precision", [None, 1])
def test_report_computes_each_l_value_once(monkeypatch, precision):
    import coverzeta.groupring as groupring
    import coverzeta.herbrand as hb
    import coverzeta.picard as picard
    import coverzeta.zeta as zeta
    from coverzeta.serre import SerreGraph
    from coverzeta.voltage import DerivedCover

    # A fresh cover: its graphs have not yet searched for their connectivity.
    cover = derive(bundled_spec("example4"))
    # Deck maps are needed for the generator, whose matrix is read on Pic0
    # and on C, and for the units in the support of eta(1), which the
    # annihilation test transports: 6 of the 10 units of example4.
    fresh = derive(bundled_spec("example4"))
    eta = zeta.eta_at_one(fresh, zeta.equivariant_laplacian(fresh))
    units = {eta.group.generator} | {eta.group.element(k) for k, c in enumerate(eta.coeffs) if c}
    assert len(units) == 6
    targets = {
        "eta_at_one": (hb, zeta),
        "equivariant_laplacian": (hb, zeta),
        "PicardModule": (hb, picard),
        "picard_factors": (hb, picard),
        "unit_pivots": (zeta,),
        "berkowitz": (groupring, zeta),
    }
    calls = dict.fromkeys(targets, 0)
    l_keys = []
    cokernels = []
    searched = []
    total_laplacians = []
    base_laplacians = []
    deck_maps = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name, modules in targets.items():
        for module in modules:
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    real_l_value = hb.l_value

    def l_value(chi, *args, **kwargs):
        l_keys.append((chi.exponent, chi.precision))
        return real_l_value(chi, *args, **kwargs)

    real_cokernel = picard.cokernel

    def cokernel(reduced, *first):
        cokernels.append(len(reduced) + 1)
        return real_cokernel(reduced, *first)

    real_search = SerreGraph._reaches_every_vertex
    real_laplacian = SerreGraph.laplacian_rows

    def search(graph):
        searched.append(id(graph))
        return real_search(graph)

    def laplacian_rows(graph):
        if graph is cover.total:
            total_laplacians.append(graph)
        if graph is cover.base:
            base_laplacians.append(graph)
        return real_laplacian(graph)

    real_deck_map = DerivedCover._build_deck_map

    def build_deck_map(cover, tau):
        deck_maps.append(tau)
        return real_deck_map(cover, tau)

    monkeypatch.setattr(hb, "l_value", l_value)
    monkeypatch.setattr(picard, "cokernel", cokernel)
    monkeypatch.setattr(DerivedCover, "_build_deck_map", build_deck_map)
    monkeypatch.setattr(SerreGraph, "_reaches_every_vertex", search)
    monkeypatch.setattr(SerreGraph, "laplacian_rows", laplacian_rows)
    report = build_report(cover, precision=precision)
    assert report.all_ok
    assert calls == {
        "eta_at_one": 1,
        "equivariant_laplacian": 1,
        "PicardModule": 1,
        "picard_factors": 1,
        "unit_pivots": 1,
        "berkowitz": 1,
    }
    assert not hasattr(zeta, "eta_polynomial")
    # One L-value per nontrivial character, all at the report's precision.
    assert sorted(l_keys) == [(i, report.precision) for i in range(1, cover.p - 1)]
    assert len(l_keys) == cover.p - 2
    # One cokernel, with its tree count, per graph: the cover's and the base's.
    assert sorted(cokernels) == [cover.base.num_vertices, cover.total.num_vertices]
    assert searched == [id(cover.total)]  # the base was searched by derive
    # One sparse Laplacian per graph, shared by its tree count and its Pic0.
    assert len(total_laplacians) == 1
    assert len(base_laplacians) == 1
    assert sorted(deck_maps) == sorted(units)  # one build per unit used


def test_report_builds_no_dense_laplacian(tmp_path, monkeypatch):
    # A graph is its pairs: a passing report and a census read each graph
    # only through the members that read the pairs, and any other read is
    # refused.  The dense Laplacian is the tests' reference and the
    # diagnostics of a failing report, densified from the sparse rows; a
    # passing report carries none.
    from conftest import PAIR_READERS
    from coverzeta.census import read_census, run_census
    from coverzeta.serre import SerreGraph

    real = object.__getattribute__

    def refuse(graph, name):
        if not name.startswith("__") and name not in PAIR_READERS:
            raise AssertionError(f"graph member {name} read")
        return real(graph, name)

    monkeypatch.setattr(SerreGraph, "__getattribute__", refuse)
    for k in range(1, 5):
        report = build_report(derive(bundled_spec(f"example{k}")))
        assert report.all_ok and report.diagnostics is None
    out = tmp_path / "census.ndjson"
    summary = run_census(bundled_spec("example2").base, 5, str(out), budget=12)
    assert summary["processed"] == 12
    rows = read_census(str(out))
    assert len(rows) == 12 and any(row["connected"] for row in rows)
    assert all(set(row["verdicts"].values()) <= {"PASS", "SKIPPED"} for row in rows)


def test_report_reads_one_transport_and_one_eigenspace_per_character(
    monkeypatch, ex1_cover, ex4_cover
):
    import coverzeta.picard as picard
    from coverzeta.zeta import equivariant_laplacian, eta_at_one

    transported, eigenspaces = [], []
    real_transport, real_eigenspace = picard.PicardModule._transport, picard._eigenspace_dims

    def transport(pm, terms, *divisors):
        transported.append(sorted(tau for _, tau in terms))
        return real_transport(pm, terms, *divisors)

    def eigenspace(mats, p):
        eigenspaces.append([len(mat) for mat in mats])
        return real_eigenspace(mats, p)

    monkeypatch.setattr(picard.PicardModule, "_transport", transport)
    monkeypatch.setattr(picard, "_eigenspace_dims", eigenspace)

    def run(cover):
        transported.clear()
        eigenspaces.clear()
        assert build_report(cover).all_ok
        # The Picard module transports the generator g = 2 alone; the
        # annihilation test transports eta(1) once.
        eta = eta_at_one(cover, equivariant_laplacian(cover))
        support = sorted(eta.group.element(k) for k, c in enumerate(eta.coeffs) if c)
        assert transported == [[2], support]

    # Every character reads its eigenspaces of g from one table, taken by
    # one elimination over the layers of A and C.  A = 0 and C = 0 for
    # example1: only the empty matrix on C.
    run(ex1_cover)
    assert eigenspaces == [[0]]
    # A = (Z/11)^4 for example4: one layer of A, and C, both of dimension 4.
    run(ex4_cover)
    assert eigenspaces == [[4, 4]]


def test_report_reduces_each_basis_class_of_C_once(monkeypatch):
    import coverzeta.picard as picard

    # example4 has dim C = 4 and nine nontrivial characters.  Apart from
    # building echelon forms, a report reduces only the image of each basis
    # class of C under the deck generator, a divisor e_u - e_v, against the
    # Laplacian span: against the pivot rows of Pic0's first phase, then what
    # is left against the echelon form of its core mod p.
    cover = derive(bundled_spec("example4"))
    reduced = []
    real_reduce = picard._reduce

    def reduce(pivots, vec, p):
        reduced.append(sorted(vec.values()))
        return real_reduce(pivots, vec, p)

    monkeypatch.setattr(picard, "_reduce", reduce)
    report = build_report(cover)
    assert report.all_ok and report.dim_C == 4
    assert len(reduced) == 2 * 4
    assert all(values in ([-1, 1], [-1]) for values in reduced[::2])


def test_report_on_a_24_vertex_base():
    # A spanning tree on 24 vertices plus 3 edges at p = 5: far past what a
    # determinant over all column subsets could take.
    import random

    from conftest import dense_tree_count
    from coverzeta import SerreGraph

    rng = random.Random(1)
    while True:
        pairs = [(rng.randrange(v), v) for v in range(1, 24)]
        pairs += [tuple(rng.sample(range(24), 2)) for _ in range(3)]
        spec = VoltageSpec(SerreGraph(24, pairs), 5, tuple(rng.randint(1, 4) for _ in pairs))
        cover = derive(spec)
        if cover.is_connected():
            break
    report = build_report(cover)
    assert report.all_ok
    assert report.sylow_factors == (25, 25)
    assert prod(report.pic0) == dense_tree_count(cover.total)



def _scaled_l_value(real, factor):
    def scaled(*args, **kwargs):
        return real(*args, **kwargs) * factor

    return scaled


# Each case replaces one name (a dotted path, patched while example4's report
# is built: p = 11, A = (Z/11)^4, C = F_11^4 at characters 3 and 7, default
# precision 6) and gives the global verdicts that must then fail, with their
# exact reasons; every other global verdict stays as in the golden report.
FAIL_CASES = {
    "l_value_times_p": (
        "coverzeta.herbrand.l_value",
        lambda: _scaled_l_value(hb.l_value, 11),
        {
            "main22": "#component = 1 but |h|^-1 = 11",
            "main11": "dim = 0 inconsistent with h = 0",
            "fitting": "character 1: ideal p^1 != component order 1",
            "dim_inequality": "dim C = 4 < 9",
        },
    ),
    "l_value_times_0": (
        "coverzeta.herbrand.l_value",
        lambda: _scaled_l_value(hb.l_value, 0),
        {
            "main22": "L-value vanished mod 11^6; order side is 1",
            "main11": "dim = 0 inconsistent with h = 0",
            "fitting": "character 1: L-value vanished mod p^6",
            "dim_inequality": "dim C = 4 < 9",
        },
    ),
    "not_annihilated": (
        "coverzeta.picard.PicardModule.annihilated_by",
        lambda: lambda pm, elem: False,
        {"fitting": "special value does not annihilate the Picard group"},
    ),
    "trivial_character": (
        # chi(g) = 1 only at the trivial character: its layer ranks read (1,).
        "coverzeta.picard.PicardModule.layer_ranks",
        lambda: lambda pm, lam, real=PicardModule.layer_ranks: (1,) if lam == 1 else real(pm, lam),
        {"trivial_character": "trivial component order differs from p-part of kappa(X)"},
    ),
    "p_part_doubled": (
        "coverzeta.herbrand.p_part",
        lambda: lambda n, p, real=hb.p_part: 2 * real(n, p),
        {"order_product": "product 29282 != 14641"},
    ),
}


@pytest.mark.parametrize("case", sorted(FAIL_CASES))
def test_fail_branches_name_their_reasons(case, tmp_path, monkeypatch, capsys):
    from coverzeta.cli import main

    target, corrupted, failures = FAIL_CASES[case]
    want = json.loads((GOLDENS / "example4_report.json").read_text())["global"]
    for name, reason in failures.items():
        want[name] = {"status": "FAIL", "reason": reason}
    monkeypatch.setattr(target, corrupted())
    report = build_report(derive(bundled_spec("example4")))
    assert not report.all_ok
    assert {name: v.to_dict() for name, v in report.global_verdicts.items()} == want
    out = tmp_path / "report.json"
    assert main(["analyze", "example4", "--out", str(out)]) == 4
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert doc["global"] == want
    assert set(doc["diagnostics"]) == {
        "laplacian",
        "invariant_factors",
        "precision",
        "eta_at_one_coeffs",
    }


def _covers_for_precision_test():
    import random

    from conftest import random_connected_cover

    rng = random.Random(20261019)
    covers = [derive(bundled_spec(f"example{k}")) for k in range(1, 5)]
    covers += [random_connected_cover(rng, p) for p in (3, 5, 7, 11, 13) for _ in range(4)]
    return covers


def test_answer_does_not_depend_on_starting_precision():
    # h_mod_p and the valuation are read from the L-value at the report's
    # precision; neither, nor any verdict, may depend on the precision asked for.
    def answer(report):
        rows = [
            {k: row[k] for k in ("i", "dimC", "h_mod_p", "orderA", "valuation", "verdicts")}
            for row in report.rows
        ]
        return rows, {name: v.to_dict() for name, v in report.global_verdicts.items()}

    for cover in _covers_for_precision_test():
        default = build_report(cover)
        assert default.all_ok
        for precision in (1, 2):
            assert answer(build_report(cover, precision=precision)) == answer(default)
