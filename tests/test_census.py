"""The census builds one report per switching class and reuses its fields."""

import json
import pathlib
from itertools import product

from hypothesis import given, settings, strategies as st

import coverzeta.census as census
from coverzeta import SerreGraph, VoltageSpec, derive
from coverzeta.census import census_row, run_census
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
    # Each run has its own table, so a class met in two runs is reported twice.
    out = tmp_path / "rows.ndjson"
    for budget in (37, 100, 1, None):
        base, p = load_base(str(TRIANGLE))
        run_census(base, p, str(out), budget=budget)
    lines = out.read_bytes().splitlines(keepends=True)
    assert [json.loads(x)["cursor"]["next_index"] for x in lines if b"cursor" in x] == [37, 137, 138]
    assert b"".join(x for x in lines if b"cursor" not in x) == TRIANGLE_ROWS.read_bytes()


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
    built = []
    real = census.build_report
    monkeypatch.setattr(census, "build_report", lambda cover: built.append(cover) or real(cover))
    run_census(base, p, str(tmp_path / "rows.ndjson"))
    assert len(built) == len(connected) == 12
    firsts = {min(c) for c in connected}
    assert {cover.spec.voltages for cover in built} == firsts
    for cover in built:  # each class keyed by its gauge-fixed voltages
        members = next(c for c in classes if cover.spec.voltages in c)
        assert len({gauge(VoltageSpec(base, p, a))[1] for a in members}) == 1


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
