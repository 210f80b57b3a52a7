"""The census builds one report per switching class and reuses its fields."""

import json
import pathlib
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from conftest import bench_inputs

import coverzeta.census as census
from coverzeta import SerreGraph, VoltageSpec, derive
from coverzeta.census import census_row, read_census, run_census
from coverzeta.cli import main
from coverzeta.specfile import load_base
from coverzeta.voltage import gauge

GOLDENS = pathlib.Path(__file__).parent / "goldens"
# The triangle a-b-c with a loop at a, at p = 5: 256 assignments in 16
# switching classes of 16, written before rows were reused.
TRIANGLE = GOLDENS / "triangle_loop_base.json"
TRIANGLE_ROWS = GOLDENS / "triangle_loop_p5_census.ndjson"
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


def count_reports(monkeypatch):
    """The covers ``run_census`` builds a report for, as they are built."""
    built = []
    real = census.build_report
    monkeypatch.setattr(census, "build_report", lambda cover: built.append(cover) or real(cover))
    return built


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


def test_one_report_per_connected_switching_class(tmp_path, monkeypatch):
    base, p = load_base(str(TRIANGLE))
    classes = switching_classes(base, p)
    assert sorted(map(len, classes)) == [(p - 1) ** (base.num_vertices - 1)] * 16
    connected = [c for c in classes if derive(VoltageSpec(base, p, min(c))).is_connected()]
    built = count_reports(monkeypatch)
    run_census(base, p, str(tmp_path / "rows.ndjson"))
    assert len(built) == len(connected) == 12
    firsts = {min(c) for c in connected}
    assert {cover.spec.voltages for cover in built} == firsts
    for cover in built:  # each class keyed by its gauge-fixed voltages
        members = next(c for c in classes if cover.spec.voltages in c)
        assert len({gauge(VoltageSpec(base, p, a))[1] for a in members}) == 1


def connected_classes(base, p, rows):
    return {gauge(VoltageSpec(base, p, row["voltages"]))[1] for row in rows if row["connected"]}


def test_resumed_census_builds_no_report_for_a_written_class(tmp_path, monkeypatch):
    base, p = load_base(str(TRIANGLE))
    out = tmp_path / "rows.ndjson"
    built = count_reports(monkeypatch)
    for budget in (37, 100, 1, None):
        written = connected_classes(base, p, read_census(str(out))) if out.exists() else set()
        before = len(built)
        run_census(base, p, str(out), budget=budget)
        new = [gauge(cover.spec)[1] for cover in built[before:]]
        assert len(new) == len(set(new)) and not written & set(new)
    # One report per connected class across the four runs, as in one run.
    assert len(built) == len(connected_classes(base, p, read_census(str(out)))) == 12


def test_resumed_benchmark_round_builds_one_report_per_class(tmp_path, monkeypatch):
    # The benchmark's census round at seed 1: a budgeted run of 932 rows,
    # which meets all 182 connected classes, then one that resumes into the
    # same file.  Each run used to build the reports of its own classes, 364
    # in all; the resumed run now seeds every class from the first run's rows.
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
    run_census(base, p, str(out))
    rows = read_census(str(out))
    assert len(rows) == variant["total"] == 1296
    assert first == len(built) == len(connected_classes(base, p, rows)) == 182


def edit_class(base, p, lines, field, value, first_only):
    """Set a field of the written rows of the first connected row's class,
    or of that row alone; returns the class and the edited line numbers."""
    first = next(json.loads(x) for x in lines if b'"connected": true' in x)
    key = gauge(VoltageSpec(base, p, first["voltages"]))[1]
    edited = []
    for i, line in enumerate(lines):
        doc = json.loads(line)
        if "key" in doc and doc["connected"] and connected_classes(base, p, [doc]) == {key}:
            doc[field] = value
            lines[i] = (json.dumps(doc, sort_keys=True) + "\n").encode()
            edited.append(i)
            if first_only:
                break
    return key, edited


def test_seeded_row_is_trusted_for_its_fields(tmp_path, monkeypatch):
    # A written row of the right shape gives its class its fields: the later
    # rows of the class copy them, after the switching check, with no report.
    base, p = load_base(str(TRIANGLE))
    out = tmp_path / "rows.ndjson"
    run_census(base, p, str(out), budget=37)
    lines = out.read_bytes().splitlines(keepends=True)
    key, _ = edit_class(base, p, lines, "pic0", [2, 1000], first_only=True)
    out.write_bytes(b"".join(lines))
    built = count_reports(monkeypatch)
    run_census(base, p, str(out))
    later = [r for r in read_census(str(out))[37:] if connected_classes(base, p, [r]) == {key}]
    assert len(later) > 10 and all(r["pic0"] == [2, 1000] for r in later)
    assert key not in {gauge(cover.spec)[1] for cover in built}


@pytest.mark.parametrize(
    "field, value",
    [
        ("pic0", None),
        ("pic0", [1, 12]),
        ("pic0", [3, "12"]),
        ("vanishing", [0]),
        ("vanishing", [4]),
        ("vanishing", [True]),
        ("verdicts", {"main11": "PASS"}),
        ("verdicts", dict.fromkeys(census.VERDICTS, "SKIPPED")),
        ("verdicts", dict(dict.fromkeys(census.VERDICTS, "PASS"), extra="PASS")),
    ],
    ids=[
        "pic0_null",
        "pic0_factor_1",
        "pic0_string",
        "vanishing_0",
        "vanishing_p_minus_1",
        "vanishing_bool",
        "verdicts_missing",
        "verdicts_skipped",
        "verdicts_extra",
    ],
)
def test_misshapen_row_seeds_nothing(tmp_path, monkeypatch, field, value):
    # Connected rows whose fields are not what a report writes are kept as
    # written, and when no written row of their class seeds it, the first
    # later row of the class gets a report, with the golden's fields.
    base, p = load_base(str(TRIANGLE))
    out = tmp_path / "rows.ndjson"
    run_census(base, p, str(out), budget=37)
    lines = out.read_bytes().splitlines(keepends=True)
    key, edited = edit_class(base, p, lines, field, value, first_only=False)
    assert len(edited) > 1
    out.write_bytes(b"".join(lines))
    built = count_reports(monkeypatch)
    run_census(base, p, str(out))
    assert [gauge(c.spec)[1] for c in built].count(key) == 1
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
    row = census_row(SerreGraph(n, pairs), p, voltages)
    other = census_row(SerreGraph(n, pairs), p, switched)
    assert {k: row[k] for k in ROW_FIELDS} == {k: other[k] for k in ROW_FIELDS}
    # Through a table, the switched row reuses the first one's fields.
    classes = {}
    census_row(base, p, voltages, classes)
    assert census_row(base, p, switched, classes) == other
    assert len(classes) == row["connected"]
