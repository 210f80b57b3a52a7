"""The census builds one report per orbit of switching classes under the
power maps a -> a^k, k a unit mod p - 1, and reuses its fields."""

import hashlib
import json
import pathlib
from itertools import product
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import bench_inputs

import coverzeta.census as census
from coverzeta import SerreGraph, VoltageSpec, derive
from coverzeta.census import census_row, read_census, run_census
from coverzeta.cli import main
from coverzeta.specfile import load_base
from coverzeta.voltage import gauge
from reference import derived_pairs, scattered_relabeled_edges, search_gauge

GOLDENS = pathlib.Path(__file__).parent / "goldens"
# The triangle a-b-c with a loop at a, at p = 5: 256 assignments in 16
# switching classes of 16, written before rows were reused.
TRIANGLE = GOLDENS / "triangle_loop_base.json"
TRIANGLE_ROWS = GOLDENS / "triangle_loop_p5_census.ndjson"
# The two-loop bouquet at p = 11: 100 assignments, each its own switching
# class, written with one report per assignment.  At p = 5 and 7 every unit
# of Z/(p - 1) is +-1, and duality closes each vanishing set under negation,
# so only from p = 11 on does a wrong permutation of the vanishing exponents
# show: 16 of these rows have a vanishing set that x3 moves.
BOUQUET = GOLDENS / "bouquet2_base.json"
BOUQUET_ROWS = GOLDENS / "bouquet2_p11_census.ndjson"
# The path a-b-c with a second edge c-b and a loop at c, at p = 13: 20736
# assignments over a spanning tree of depth 2, so the potentials of two tree
# edges key the relabeling tables.  Its output is recorded by digest only.
PATH_LOOP = GOLDENS / "path_loop_base.json"
PATH_LOOP_SHA256 = GOLDENS / "path_loop_p13_census.sha256"
ROW_FIELDS = ("connected", "criterion_connected", "pic0", "vanishing", "verdicts")


def switch(base, p, voltages, units):
    """The voltages c_u^-1 a c_v on each edge u -> v, for units c_v."""
    return tuple(
        pow(units[u], -1, p) * a * units[v] % p for (u, v), a in zip(base.edge_pairs, voltages)
    )


def test_census_matches_the_golden_in_one_run(tmp_path):
    base, p = load_base(str(TRIANGLE))
    out = tmp_path / "rows.ndjson"
    assert run_census(base, p, str(out))["written"] == 256
    assert out.read_bytes() == TRIANGLE_ROWS.read_bytes()


def test_census_matches_the_golden_in_budgeted_chunks(tmp_path):
    # Each run seeds its table from the rows earlier runs wrote.
    out = tmp_path / "rows.ndjson"
    for budget in (37, 100, 1, None):
        base, p = load_base(str(TRIANGLE))
        run_census(base, p, str(out), budget=budget)
    lines = out.read_bytes().splitlines(keepends=True)
    assert [json.loads(x)["cursor"]["next_index"] for x in lines if b"cursor" in x] == [37, 137, 138]
    assert b"".join(x for x in lines if b"cursor" not in x) == TRIANGLE_ROWS.read_bytes()


def test_p11_census_matches_the_golden_in_one_run_and_in_chunks(tmp_path):
    connected = [r for r in read_census(str(BOUQUET_ROWS)) if r["connected"]]
    moved = [r for r in connected if {3 * i % 10 for i in r["vanishing"]} != set(r["vanishing"])]
    assert len(connected) == 72 and len(moved) == 16
    base, _ = load_base(str(BOUQUET))
    out = tmp_path / "rows.ndjson"
    assert run_census(base, 11, str(out))["written"] == 100
    assert out.read_bytes() == BOUQUET_ROWS.read_bytes()
    chunks = tmp_path / "chunks.ndjson"
    for budget in (13, 40, 1, None):
        run_census(load_base(str(BOUQUET))[0], 11, str(chunks), budget=budget)
    lines = chunks.read_bytes().splitlines(keepends=True)
    assert [json.loads(x)["cursor"]["next_index"] for x in lines if b"cursor" in x] == [13, 53, 54]
    assert b"".join(x for x in lines if b"cursor" not in x) == BOUQUET_ROWS.read_bytes()


def test_p13_census_matches_its_digest_in_one_run_and_in_chunks(tmp_path):
    want = PATH_LOOP_SHA256.read_text().split()[0]
    base, p = load_base(str(PATH_LOOP))
    out = tmp_path / "rows.ndjson"
    assert run_census(base, p, str(out))["written"] == 20736
    assert hashlib.sha256(out.read_bytes()).hexdigest() == want
    chunks = tmp_path / "chunks.ndjson"
    for budget in (5000, 9000, 1, None):
        run_census(load_base(str(PATH_LOOP))[0], p, str(chunks), budget=budget)
    lines = chunks.read_bytes().splitlines(keepends=True)
    rows = b"".join(x for x in lines if b"cursor" not in x)
    assert hashlib.sha256(rows).hexdigest() == want


def count_reports(monkeypatch):
    """The covers ``run_census`` builds a report for, as they are built."""
    built = []
    real = census.build_report
    monkeypatch.setattr(census, "build_report", lambda cover: built.append(cover) or real(cover))
    return built


def power(p, voltages, k):
    return tuple(pow(a, k, p) for a in voltages)


def units_mod(n):
    return [k for k in range(1, n) if gcd(k, n) == 1]


def switching_classes(base, p):
    """The classes of all assignments under every switching, by brute force."""
    seen, classes = set(), []
    for voltages in product(range(1, p), repeat=base.num_undirected_edges):
        if voltages not in seen:
            units = product(range(1, p), repeat=base.num_vertices)
            orbit = {switch(base, p, voltages, c) for c in units}
            seen |= orbit
            classes.append(orbit)
    return classes


def orbits(base, p):
    """Each assignment's orbit under every switching and every power map,
    by brute force, as a map from assignment to orbit."""
    orbit_of = {}
    for c in switching_classes(base, p):
        if min(c) not in orbit_of:
            orbit = frozenset(power(p, a, k) for a in c for k in units_mod(p - 1))
            orbit_of.update(dict.fromkeys(orbit, orbit))
    return orbit_of


def connected_orbits(base, p, orbit_of, assignments):
    """The orbits of those ``assignments`` whose covers are connected."""
    connected = (a for a in assignments if derive(VoltageSpec(base, p, a)).is_connected())
    return {orbit_of[tuple(a)] for a in connected}


def test_one_report_per_connected_switching_class(tmp_path, monkeypatch):
    # One report per orbit of connected switching classes under the power
    # maps: at p = 5 the unit 3 = -1 pairs the 12 connected classes.
    base, p = load_base(str(TRIANGLE))
    classes = switching_classes(base, p)
    assert sorted(map(len, classes)) == [(p - 1) ** (base.num_vertices - 1)] * 16
    connected = [c for c in classes if derive(VoltageSpec(base, p, min(c))).is_connected()]
    orbit_of = orbits(base, p)
    orbits_met = connected_orbits(base, p, orbit_of, orbit_of)
    built = count_reports(monkeypatch)
    run_census(base, p, str(tmp_path / "rows.ndjson"))
    assert len(connected) == 12
    assert len(built) == len(orbits_met) == 6
    firsts = {min(orbit) for orbit in orbits_met}
    assert {cover.spec.voltages for cover in built} == firsts
    for cover in built:  # each class keyed by its gauge-fixed voltages
        members = next(c for c in classes if cover.spec.voltages in c)
        assert len({gauge(VoltageSpec(base, p, a))[1] for a in members}) == 1


def connected_classes(base, p, rows):
    return {gauge(VoltageSpec(base, p, row["voltages"]))[1] for row in rows if row["connected"]}


def test_resumed_census_builds_no_report_for_a_written_class(tmp_path, monkeypatch):
    # Nor for a class of a written class's orbit under the power maps.
    base, p = load_base(str(TRIANGLE))
    orbit_of = orbits(base, p)
    out = tmp_path / "rows.ndjson"
    built = count_reports(monkeypatch)
    for budget in (37, 100, 1, None):
        rows = read_census(str(out)) if out.exists() else []
        written = connected_orbits(base, p, orbit_of, [r["voltages"] for r in rows])
        before = len(built)
        run_census(base, p, str(out), budget=budget)
        new = [orbit_of[cover.spec.voltages] for cover in built[before:]]
        assert len(new) == len(set(new)) and not written & set(new)
    # One report per connected orbit across the four runs, as in one run.
    written = connected_orbits(base, p, orbit_of, [r["voltages"] for r in read_census(str(out))])
    assert len(built) == len(written) == 6


def test_resumed_benchmark_round_builds_one_report_per_class(tmp_path, monkeypatch):
    # The benchmark's census round at seed 1: a budgeted run of 932 rows,
    # which meets all 182 connected classes, then one that resumes into the
    # same file.  Each run used to build the reports of its own classes, 364
    # in all; the resumed run now seeds every orbit from the first run's
    # rows, and the unit 5 = -1 mod 6 pairs the classes into 91 orbits.
    # Seeding keeps one table entry per orbit and derives one cover for it.
    inputs = bench_inputs()
    variant = inputs.census_variant(1)
    assert variant["budget"] == 932
    path = tmp_path / "base.json"
    path.write_text(json.dumps(variant["base"]))
    base, p = load_base(str(path))[0], inputs.CENSUS_P
    out = tmp_path / "rows.ndjson"
    built = count_reports(monkeypatch)
    run_census(base, p, str(out), budget=variant["budget"])
    first = len(built)
    derived, real_derive = [], census.derive
    with monkeypatch.context() as m:
        m.setattr(census, "derive", lambda spec: derived.append(spec) or real_derive(spec))
        _, start, classes = census._resume_state(str(out), base, p)
    assert start == 932 and len(classes) == len(derived) == 91
    run_census(base, p, str(out))
    rows = read_census(str(out))
    assert len(rows) == variant["total"] == 1296
    assert len(connected_classes(base, p, rows)) == 182
    orbits_met = connected_orbits(base, p, orbits(base, p), [r["voltages"] for r in rows])
    assert first == len(built) == len(orbits_met) == 91


def edit_orbit(orbit_of, lines, field, value, first_only):
    """Set a field of the written rows of the first connected row's orbit
    (``orbits``), or of that row alone; returns the orbit and the edited
    line numbers."""
    first = next(json.loads(x) for x in lines if b'"connected": true' in x)
    orbit = orbit_of[tuple(first["voltages"])]
    edited = []
    for i, line in enumerate(lines):
        doc = json.loads(line)
        if "key" in doc and doc["connected"] and tuple(doc["voltages"]) in orbit:
            doc[field] = value
            lines[i] = (json.dumps(doc, sort_keys=True) + "\n").encode()
            edited.append(i)
            if first_only:
                break
    return orbit, edited


def test_seeded_row_is_trusted_for_its_fields(tmp_path, monkeypatch):
    # A written row of the right shape gives its class its fields: the later
    # rows of the class copy them, after the switching check, with no report
    # for the class or for any class of its orbit.
    base, p = load_base(str(TRIANGLE))
    orbit_of = orbits(base, p)
    out = tmp_path / "rows.ndjson"
    run_census(base, p, str(out), budget=37)
    lines = out.read_bytes().splitlines(keepends=True)
    orbit, (line,) = edit_orbit(orbit_of, lines, "pic0", [2, 1000], first_only=True)
    out.write_bytes(b"".join(lines))
    built = count_reports(monkeypatch)
    run_census(base, p, str(out))
    key = connected_classes(base, p, [json.loads(lines[line])])
    later = [r for r in read_census(str(out))[37:] if connected_classes(base, p, [r]) == key]
    assert len(later) > 10 and all(r["pic0"] == [2, 1000] for r in later)
    assert orbit not in {orbit_of[cover.spec.voltages] for cover in built}


@pytest.mark.parametrize(
    "field, value",
    [
        ("pic0", None),
        ("pic0", [1, 12]),
        ("pic0", [3, "12"]),
        ("pic0", [12, 3]),
        ("vanishing", [0]),
        ("vanishing", [4]),
        ("vanishing", [True]),
        ("vanishing", [3, 1]),
        ("vanishing", [2, 2]),
        ("verdicts", {"main11": "PASS"}),
        ("verdicts", dict.fromkeys(census.VERDICTS, "SKIPPED")),
        ("verdicts", dict(dict.fromkeys(census.VERDICTS, "PASS"), extra="PASS")),
    ],
    ids=[
        "pic0_null",
        "pic0_factor_1",
        "pic0_string",
        "pic0_not_a_chain",
        "vanishing_0",
        "vanishing_p_minus_1",
        "vanishing_bool",
        "vanishing_unsorted",
        "vanishing_duplicate",
        "verdicts_missing",
        "verdicts_skipped",
        "verdicts_extra",
    ],
)
def test_misshapen_row_seeds_nothing(tmp_path, monkeypatch, field, value):
    # Connected rows whose fields are not what a report writes are kept as
    # written, and when no written row of their orbit seeds a class of it,
    # the first later row of the orbit gets a report, with the golden's
    # fields, and the rest of the orbit reuses it.
    base, p = load_base(str(TRIANGLE))
    orbit_of = orbits(base, p)
    out = tmp_path / "rows.ndjson"
    run_census(base, p, str(out), budget=37)
    lines = out.read_bytes().splitlines(keepends=True)
    orbit, edited = edit_orbit(orbit_of, lines, field, value, first_only=False)
    assert len(edited) > 1
    out.write_bytes(b"".join(lines))
    built = count_reports(monkeypatch)
    run_census(base, p, str(out))
    assert [orbit_of[c.spec.voltages] for c in built].count(orbit) == 1
    rows = out.read_bytes().splitlines(keepends=True)
    golden = TRIANGLE_ROWS.read_bytes().splitlines(keepends=True)
    assert rows[: len(lines)] == lines
    assert [r for r in rows if b"cursor" not in r][37:] == golden[37:]


def test_connected_row_over_a_disconnected_cover_exits_2(tmp_path, capsys):
    # (1, 1, 1, 1) leaves every fiber coordinate fixed, so its cover falls
    # apart; a row that says it is connected, with fields of the right
    # shape, is refused, and the file, a partly written last line included,
    # is left as it is.
    out = tmp_path / "rows.ndjson"
    doc = json.loads(TRIANGLE_ROWS.read_bytes().splitlines()[1])
    doc.update(key="1,1,1,1", voltages=[1, 1, 1, 1])
    data = (json.dumps(doc, sort_keys=True) + "\n").encode() + b'{"connected": tr'
    out.write_bytes(data)
    argv = ["census", str(TRIANGLE), "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "1,1,1,1" in err
    assert out.read_bytes() == data


@st.composite
def switched_assignments(draw):
    """A connected base on 2-4 vertices with loops and parallel edges, a
    prime, voltages, and units c_v to switch them by."""
    n = draw(st.integers(2, 4))
    pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3))
    pairs += pairs[: draw(st.integers(0, 2))]
    p = draw(st.sampled_from([3, 5, 7]))
    voltages = tuple(draw(st.integers(1, p - 1)) for _ in pairs)
    units = [draw(st.integers(1, p - 1)) for _ in range(n)]
    return n, pairs, p, voltages, units


@settings(max_examples=150, deadline=None)
@given(switched_assignments())
def test_switching_keeps_every_row_field(case):
    n, pairs, p, voltages, units = case
    base = SerreGraph(n, pairs)
    switched = switch(base, p, voltages, units)
    assert gauge(VoltageSpec(base, p, voltages))[1] == gauge(VoltageSpec(base, p, switched))[1]
    # Fresh base objects: nothing is shared between the two reports.
    row = census_row(SerreGraph(n, pairs), p, voltages, {})
    other = census_row(SerreGraph(n, pairs), p, switched, {})
    assert {k: row[k] for k in ROW_FIELDS} == {k: other[k] for k in ROW_FIELDS}
    # Through a table, the switched row reuses the first one's fields.
    classes = {}
    census_row(base, p, voltages, classes)
    assert census_row(base, p, switched, classes) == other
    assert len(classes) == row["connected"]


@st.composite
def powered_assignments(draw):
    """A connected base on 2-4 vertices with loops and parallel edges, a
    prime whose units mod p - 1 are not all +-1, voltages, and a unit k.
    Duality closes each vanishing set under negation, so k^-1 in place of
    k moves one only when k^2 != +-1 mod p - 1, as for 3 mod 16."""
    n = draw(st.integers(2, 4))
    pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3))
    p = draw(st.sampled_from([11, 13, 17]))
    voltages = tuple(draw(st.integers(1, p - 1)) for _ in pairs)
    k = draw(st.sampled_from(units_mod(p - 1)[1:]))
    return n, pairs, p, voltages, k


@settings(max_examples=150, deadline=None)
@given(powered_assignments())
def test_power_map_row_read_through_the_table_is_the_fresh_row(case):
    n, pairs, p, voltages, k = case
    base = SerreGraph(n, pairs)
    powered = power(p, voltages, k)
    key = gauge(VoltageSpec(base, p, voltages))[1]
    assert gauge(VoltageSpec(base, p, powered))[1] == power(p, key, k)
    # Fresh base objects: nothing is shared with the table's report.
    fresh = census_row(SerreGraph(n, pairs), p, powered, {})
    classes = {}
    census_row(base, p, voltages, classes)
    with mock.patch.object(census, "build_report", side_effect=AssertionError("report built")):
        assert census_row(base, p, powered, classes) == fresh
    # One entry for the orbit, which holds both classes.
    assert len(classes) == fresh["connected"]


@st.composite
def census_bases(draw, below=60):
    """A connected base on 1-5 vertices with at most 7 edges, loops and
    parallel edges, its tree edges in either orientation and all edges in
    a drawn order, an odd prime below ``below``, and voltages."""
    n = draw(st.integers(1, 5))
    pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs = [(v, u) if draw(st.booleans()) else (u, v) for u, v in pairs]
    pairs += draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=7 - len(pairs))
    )
    pairs = draw(st.permutations(pairs))
    p = draw(st.sampled_from([q for q in range(3, below, 2) if all(q % d for d in range(3, q, 2))]))
    voltages = tuple(draw(st.integers(1, p - 1)) for _ in pairs)
    return SerreGraph(n, pairs), p, voltages


@settings(max_examples=200, deadline=None)
@given(census_bases(), st.integers(0, 10**6))
def test_tables_match_the_references(case, pick):
    # The base's tree, the fibre blocks and the relabeling tables give what
    # the references build afresh, at every unit power.
    base, p, voltages = case
    spec = VoltageSpec(base, p, voltages)
    assert gauge(spec) == search_gauge(spec)
    cover = derive(spec)
    assert cover.total.edge_pairs == derived_pairs(spec)
    potential = gauge(spec)[0]
    units = units_mod(p - 1)
    for m in {1, units[pick % len(units)]}:
        assert census._relabeled_edges(cover, potential, m) == scattered_relabeled_edges(
            cover, potential, m
        )


@settings(max_examples=25, deadline=None)
@given(census_bases(below=14), st.lists(st.integers(0, 10**6), min_size=1, max_size=4))
def test_census_row_reads_the_same_row_from_filled_tables(case, picks):
    # A row computed with a fresh class table, which builds a report for
    # every connected row, equals the one read through a table that earlier
    # rows of the same base filled.
    base, p, voltages = case
    rows = [voltages] + [
        tuple(a * (1 + x % (p - 1)) % p for a in voltages) for x in picks
    ]
    classes = {}
    for voltages in rows + rows:
        assert census_row(base, p, voltages, classes) == census_row(base, p, voltages, {})
