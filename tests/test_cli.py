import contextlib
import io
import json
import os
import pathlib
import signal
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings, strategies as st

import coverzeta
from coverzeta import VoltageSpec, bundled_spec, spec_from_dict, spec_to_dict
from coverzeta.census import CensusFileError, read_census, run_census
from coverzeta.cli import main
from coverzeta.serre import bouquet
from coverzeta.specfile import dump_spec, load_spec
from coverzeta.voltage import gauge


GOLDENS = pathlib.Path(__file__).parent / "goldens"
# The DOT text of the four examples and the examples listing, byte for byte.
TEXT_GOLDENS = [(["dot", f"example{n}"], f"example{n}.dot") for n in range(1, 5)]
TEXT_GOLDENS.append((["examples"], "examples.txt"))


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_analyze_bundled_example_succeeds(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["analyze", "example1", "--out", str(out), "--table"])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["pic0"] == [3, 12]
    printed = capsys.readouterr().out
    assert "h(1, gamma^i) in F_5" in printed


def test_analyze_writes_report_to_stdout(capsys):
    code = main(["analyze", "example2"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["sylow_factors"] == [5]


def test_analyze_parse_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["analyze", str(path)]) == 2
    missing = write(tmp_path, "missing.json", {"p": 5, "vertices": ["a"]})
    assert main(["analyze", missing]) == 2
    bad_voltage = write(
        tmp_path,
        "bad_voltage.json",
        {"p": 5, "vertices": ["a"], "edges": [{"from": "a", "to": "a", "voltage": 5}]},
    )
    assert main(["analyze", bad_voltage]) == 2


def test_analyze_disconnected_cover(tmp_path):
    doc = {
        "p": 5,
        "vertices": ["a"],
        "edges": [
            {"from": "a", "to": "a", "voltage": 1},
            {"from": "a", "to": "a", "voltage": 1},
        ],
    }
    assert main(["analyze", write(tmp_path, "t.json", doc)]) == 3


def test_analyze_disconnected_base(tmp_path, capsys):
    doc = {
        "p": 5,
        "vertices": ["a", "b"],
        "edges": [{"from": "a", "to": "a", "voltage": 2}],
    }
    path = write(tmp_path, "split.json", doc)
    assert main(["analyze", path]) == 2
    assert "error: base graph must be connected" in capsys.readouterr().err
    assert main(["dot", path]) == 2
    assert "error:" in capsys.readouterr().err


def test_census_disconnected_base(tmp_path, capsys):
    base_path = write(
        tmp_path,
        "base.json",
        {"vertices": ["u", "v"], "edges": [{"from": "u", "to": "u"}]},
    )
    out = tmp_path / "c.ndjson"
    assert main(["census", base_path, "--p", "5", "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_verification_failure_exit_code(tmp_path, monkeypatch):
    import coverzeta.cli as cli_mod
    from coverzeta.herbrand import build_report as real_build

    def sabotaged(cover, precision=None):
        report = real_build(cover)
        report.global_verdicts["duality"] = type(
            report.global_verdicts["duality"]
        )("FAIL", "forced for the exit-code test")
        return report

    monkeypatch.setattr(cli_mod, "build_report", sabotaged)
    out = tmp_path / "r.json"
    assert main(["analyze", "example1", "--out", str(out)]) == 4


def test_analyze_precision_flag_and_env(tmp_path, monkeypatch):
    # The flag is the one way to set the precision: the environment is not read.
    out = tmp_path / "r.json"
    monkeypatch.setenv("HERBRAND_PRECISION", "6")
    assert main(["analyze", "example2", "--out", str(out), "--precision", "7"]) == 0
    assert json.loads(out.read_text())["precision"] == 7
    assert main(["analyze", "example2", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["precision"] == 3
    # A request below the p-valuation of #Pic0 plus one is raised to it.
    assert main(["analyze", "example3", "--out", str(out), "--precision", "1"]) == 0
    assert json.loads(out.read_text())["precision"] == 5


def test_analyze_rejects_nonpositive_precision_flag(tmp_path, capsys):
    out = tmp_path / "r.json"
    for value in ("-3", "0"):
        assert main(["analyze", "example2", "--out", str(out), "--precision", value]) == 2
        assert f"--precision must be a positive integer, got {value}" in capsys.readouterr().err
    assert not out.exists()
    assert main(["analyze", "example2", "--out", str(out), "--precision", "4"]) == 0
    assert json.loads(out.read_text())["precision"] == 4


def test_dot_bundled_example(capsys):
    assert main(["dot", "example1"]) == 0
    text = capsys.readouterr().out
    assert "graph base" in text and "graph cover" in text
    for s in range(1, 5):
        assert f'"v1:{s}"' in text
    assert text.count(" -- ") == 2 + 8


def test_dot_small_loop_cover(tmp_path, capsys):
    doc = {
        "p": 3,
        "vertices": ["a"],
        "edges": [{"from": "a", "to": "a", "voltage": 2}],
    }
    assert main(["dot", write(tmp_path, "b1.json", doc)]) == 0
    text = capsys.readouterr().out
    cover_part = text.split("graph cover")[1]
    assert '"a:1"' in cover_part and '"a:2"' in cover_part
    assert cover_part.count(" -- ") == 2


def test_dot_disconnected_warns_but_renders(tmp_path, capsys):
    doc = {
        "p": 5,
        "vertices": ["a"],
        "edges": [{"from": "a", "to": "a", "voltage": 1}],
    }
    assert main(["dot", write(tmp_path, "t.json", doc)]) == 0
    captured = capsys.readouterr()
    assert "disconnected" in captured.err
    assert "graph cover" in captured.out


@pytest.mark.parametrize("argv, golden", TEXT_GOLDENS)
def test_dot_and_examples_match_goldens(argv, golden, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDENS / golden).read_text()


def test_dot_and_examples_match_goldens_under_python_O():
    src = str(pathlib.Path(coverzeta.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for argv, golden in TEXT_GOLDENS:
        run = subprocess.run(
            [sys.executable, "-O", "-m", "coverzeta.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout == (GOLDENS / golden).read_text()


def test_census_bouquet_full_run(tmp_path):
    base_doc = {
        "vertices": ["v"],
        "edges": [
            {"from": "v", "to": "v"},
            {"from": "v", "to": "v"},
        ],
    }
    base_path = write(tmp_path, "base.json", base_doc)
    out = tmp_path / "census.ndjson"
    assert main(["census", base_path, "--p", "5", "--out", str(out)]) == 0
    rows = read_census(str(out))
    assert len(rows) == 16
    by_key = {row["key"]: row for row in rows}
    assert by_key["2,4"]["pic0"] == [3, 12]
    assert by_key["2,4"]["vanishing"] == []
    assert by_key["2,3"]["pic0"] == [2, 2, 8]
    assert by_key["1,1"]["connected"] is False
    assert by_key["1,1"]["verdicts"]["main22"] == "SKIPPED"
    for row in rows:
        assert row["connected"] == row["criterion_connected"]
        if row["connected"]:
            assert all(v == "PASS" for v in row["verdicts"].values())


def test_census_is_resumable(tmp_path):
    out = tmp_path / "census.ndjson"
    summary1 = run_census(bouquet(2), 5, str(out))
    assert summary1["written"] == 16
    summary2 = run_census(bouquet(2), 5, str(out))
    assert summary2["written"] == 0
    assert len(read_census(str(out))) == 16


def test_census_resumes_after_a_truncated_last_line(tmp_path):
    full = tmp_path / "full.ndjson"
    run_census(bouquet(2), 5, str(full))
    lines = full.read_text().splitlines(keepends=True)
    for cut in (0, 7):
        crashed = tmp_path / f"crashed{cut}.ndjson"
        crashed.write_text("".join(lines[:cut]) + lines[cut][:9])
        summary = run_census(bouquet(2), 5, str(crashed))
        assert summary["written"] == 16 - cut
        text = crashed.read_text()
        assert text.endswith("\n")
        assert all(json.loads(line) for line in text.splitlines())
        assert {row["key"]: row for row in read_census(str(crashed))} == {
            row["key"]: row for row in read_census(str(full))
        }


@pytest.mark.parametrize("torn", [b'{"key": "1,4", "p"', b'{"key": "4,\xff'])
def test_read_census_skips_a_torn_last_line(tmp_path, torn):
    out = tmp_path / "census.ndjson"
    run_census(bouquet(2), 5, str(out), budget=3)
    written = read_census(str(out))
    assert [row["key"] for row in written] == ["1,1", "1,2", "1,3"]
    out.write_bytes(out.read_bytes() + torn)
    assert read_census(str(out)) == written


@pytest.mark.parametrize(
    "line",
    [b"5\n", b"[1]\n", b'{"x": 1}\n', b"[" * 100000 + b"]" * 100000 + b"\n"],
    ids=["number", "list", "object_without_key_or_cursor", "nested_past_recursion_limit"],
)
def test_read_census_refuses_a_line_that_is_not_a_row_or_cursor(tmp_path, line):
    # The number and the list are JSON but not objects, the object has
    # neither a key nor a cursor, and the nesting is past the parser's
    # recursion limit.
    out = tmp_path / "census.ndjson"
    run_census(bouquet(2), 5, str(out), budget=3)
    out.write_bytes(out.read_bytes() + line)
    with pytest.raises(CensusFileError, match="line 5: not a census row or cursor"):
        read_census(str(out))


def test_census_budget_cursor(tmp_path):
    out = tmp_path / "census.ndjson"
    summary = run_census(bouquet(2), 5, str(out), budget=5)
    assert summary["cursor"] == 5
    lines = [json.loads(x) for x in out.read_text().splitlines() if x.strip()]
    assert lines[-1]["cursor"]["next_index"] == 5
    assert len(read_census(str(out))) == 5
    # The remainder completes on resume without a cursor row.
    summary = run_census(bouquet(2), 5, str(out))
    assert summary["cursor"] is None
    assert len(read_census(str(out))) == 16


@pytest.mark.parametrize("budget", [-2, True, 2.0, "2"])
def test_census_refuses_a_bad_budget_before_touching_its_file(tmp_path, budget):
    # A negative budget behind a budget-3 run appended the cursor
    # next_index: 1 after the file's next_index: 3.
    out = tmp_path / "census.ndjson"
    with pytest.raises(ValueError, match="budget"):
        run_census(bouquet(2), 5, str(out), budget=budget)
    assert not out.exists()
    run_census(bouquet(2), 5, str(out), budget=3)
    before = out.read_bytes()
    with pytest.raises(ValueError, match="budget"):
        run_census(bouquet(2), 5, str(out), budget=budget)
    assert out.read_bytes() == before


def test_census_budgeted_runs_advance(tmp_path):
    out = tmp_path / "census.ndjson"
    for k in (1, 2, 3):
        summary = run_census(bouquet(2), 5, str(out), budget=5)
        assert summary["cursor"] == 5 * k
        assert len(read_census(str(out))) == 5 * k
    summary = run_census(bouquet(2), 5, str(out), budget=5)
    assert summary["cursor"] is None
    docs = [json.loads(line) for line in out.read_text().splitlines()]
    assert [doc["cursor"]["next_index"] for doc in docs if "cursor" in doc] == [5, 10, 15]
    full = tmp_path / "full.ndjson"
    run_census(bouquet(2), 5, str(full))
    assert read_census(str(out)) == read_census(str(full))


def test_census_computes_the_base_picard_group_once(tmp_path, monkeypatch):
    # The covers of a census share one base graph, which keeps its Pic0: one
    # base cokernel, with its tree count, per run, however many of its
    # covers are connected.  The file takes one cover cokernel per orbit of
    # connected switching classes among its rows: the second run seeds the
    # classes of the first one's rows and builds reports only for the orbits
    # it meets first.
    import coverzeta.picard as picard

    sizes = []
    real = picard.cokernel

    def cokernel(reduced, *first):
        sizes.append(len(reduced) + 1)
        return real(reduced, *first)

    monkeypatch.setattr(picard, "cokernel", cokernel)
    out = tmp_path / "census.ndjson"
    per_run = []
    for runs in (1, 2):
        base = bundled_spec("example2").base
        run_census(base, 5, str(out), budget=12)
        assert sizes.count(base.num_vertices) == runs
        rows = read_census(str(out))[12 * (runs - 1) :]
        per_run.append(
            {gauge(VoltageSpec(base, 5, row["voltages"]))[1] for row in rows if row["connected"]}
        )
    # 10 classes in the first run's rows and 8 in the second's, 6 of them
    # shared; the unit 3 = -1 mod 4 pairs the 12 into orbits, one cover
    # cokernel each.
    assert [len(keys) for keys in per_run] == [10, 8]
    orbits = {frozenset({key, tuple(pow(a, 3, 5) for a in key)}) for key in per_run[0] | per_run[1]}
    assert len(per_run[0] | per_run[1]) == 12
    assert sizes.count(4 * base.num_vertices) == len(orbits) == 6


@pytest.mark.parametrize(
    "line",
    [
        b"not json",
        b"[1, 2]",
        b'"a row"',
        b"null",
        b'{"key": 5}',
        b'{"rows": 3}',
        b'{"cursor": 5}',
        b'{"cursor": {"total": 16}}',
        b'{"cursor": {"next_index": -1, "total": 16}}',
        b'{"cursor": {"next_index": "5", "total": 16}}',
        b'{"cursor": {"next_index": 5.0, "total": 16}}',
        b'{"cursor": {"next_index": true, "total": 16}}',
        b'{"cursor": {"next_index": 16, "total": 16}}',
        b'{"cursor": {"next_index": 99, "total": 16}}',
        b'{"key": "1,\xff"}',
    ],
    ids=[
        "not_json",
        "array",
        "string",
        "null",
        "key_not_string",
        "neither_key_nor_cursor",
        "cursor_not_object",
        "cursor_without_index",
        "negative_index",
        "string_index",
        "float_index",
        "bool_index",
        "index_at_total",
        "index_past_total",
        "not_utf8",
    ],
)
def test_census_refuses_an_output_file_that_is_not_a_census(tmp_path, capsys, line):
    base = write(tmp_path, "base.json", {"vertices": ["v"], "edges": [LOOP, LOOP]})
    out = tmp_path / "census.ndjson"
    run_census(bouquet(2), 5, str(out), budget=3)
    out.write_bytes(out.read_bytes() + line + b'\n{"key": "4,')  # and a torn last line
    before = out.read_bytes()
    assert main(["census", base, "--p", "5", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "line 5" in err
    assert out.read_bytes() == before


@pytest.mark.parametrize(
    "first, second, line",
    [
        ((3, "5", "20"), (3, "7", "5"), "line 1"),  # rows and cursor of another prime
        ((2, "5", "0"), (3, "5", "5"), "line 1"),  # a lone cursor over another base's 16
        ((3, "5", "64"), (2, "5", "16"), "line 1"),  # a finished census of three edges
    ],
    ids=["other_prime", "other_total", "other_edge_count"],
)
def test_census_refuses_to_resume_another_census(tmp_path, capsys, first, second, line):
    # Keys and cursor indices of one census mean nothing in another: a run
    # at p = 7 would start at index 20 of its own enumeration and skip the
    # assignments whose keys match p = 5 rows, and a two-edge run would
    # append its rows to a finished three-edge census, which has no cursor.
    def census(loops, p, budget):
        base = write(tmp_path, f"base{loops}.json", {"vertices": ["v"], "edges": [LOOP] * loops})
        return main(["census", base, "--p", p, "--out", str(out), "--budget", budget])

    out = tmp_path / "census.ndjson"
    assert census(*first) == 0
    before = out.read_bytes()
    capsys.readouterr()
    assert census(*second) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and line in err
    assert out.read_bytes() == before


def test_census_redoes_a_torn_last_line_that_is_not_utf8(tmp_path):
    out = tmp_path / "census.ndjson"
    run_census(bouquet(2), 5, str(out), budget=3)
    out.write_bytes(out.read_bytes() + b'{"key": "4,\xff')
    assert run_census(bouquet(2), 5, str(out))["written"] == 13
    assert len(read_census(str(out))) == 16


@pytest.mark.parametrize("newline", [b"", b"\n"], ids=["no_newline", "newline"])
def test_census_refuses_its_own_base_file_as_output(tmp_path, capsys, newline):
    # A one-line base file is JSON but not a census, whether or not its line
    # ends in a newline; without one it used to be cut back as a torn write
    # and replaced by the 16 rows.
    base = tmp_path / "base.json"
    base.write_bytes(json.dumps({"vertices": ["v"], "edges": [LOOP, LOOP]}).encode() + newline)
    before = base.read_bytes()
    assert main(["census", str(base), "--p", "5", "--out", str(base)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "line 1" in err
    assert base.read_bytes() == before


def test_census_keeps_a_complete_last_row_without_its_newline(tmp_path):
    full = tmp_path / "full.ndjson"
    run_census(bouquet(2), 5, str(full))
    lines = full.read_bytes().splitlines(keepends=True)
    out = tmp_path / "census.ndjson"
    out.write_bytes(b"".join(lines[:3]).rstrip(b"\n"))
    assert [row["key"] for row in read_census(str(out))] == ["1,1", "1,2", "1,3"]
    assert run_census(bouquet(2), 5, str(out))["written"] == 13
    assert out.read_bytes() == full.read_bytes()


@pytest.mark.parametrize("command", ["analyze", "dot", "census"])
def test_output_in_a_missing_directory_exits_2(tmp_path, capsys, command):
    spec = "example1"
    if command == "census":
        spec = write(tmp_path, "base.json", {"p": 5, "vertices": ["v"], "edges": [LOOP, LOOP]})
    out = tmp_path / "missing" / "out.txt"
    assert main([command, spec, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing" in err
    assert not out.parent.exists()


@pytest.mark.parametrize("command", ["analyze", "dot", "census"])
def test_input_that_is_not_utf8_exits_2(tmp_path, capsys, command):
    path = tmp_path / "input.json"
    path.write_bytes(b'{"p": 5, "vertices": ["\xff"], "edges": []}')
    assert main([command, str(path), "--out", str(tmp_path / "out.txt")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out.txt").exists()


# Nested past the JSON parser's recursion limit: RecursionError, not ValueError.
NESTED = "[" * 100000 + "]" * 100000


@pytest.mark.parametrize("command", ["analyze", "dot", "census"])
def test_deeply_nested_input_exits_2(tmp_path, capsys, command):
    path = tmp_path / "input.json"
    path.write_text(NESTED)
    assert main([command, str(path), "--out", str(tmp_path / "out.txt")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "out.txt").exists()


@pytest.mark.parametrize("command", ["analyze", "dot", "census"])
def test_a_huge_prime_exits_2_at_once(tmp_path, capsys, command):
    # 2^61 - 1 is prime: trial division took about 7.6e8 divisions on it.
    # The cover it gives is refused by its size before any table of p - 1
    # entries is built, and before census opens its output file.
    p = 2**61 - 1
    doc = {"p": p, "vertices": ["v"], "edges": [dict(LOOP, voltage=2)]}
    if command == "census":
        doc = {"p": p, "vertices": ["v"], "edges": [LOOP]}
    out = tmp_path / "out.txt"
    start = time.perf_counter()
    assert main([command, write(tmp_path, "huge.json", doc), "--out", str(out)]) == 2
    assert time.perf_counter() - start < 5
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"would have 1 x {p - 1} = {p - 1} vertices" in err
    assert not out.exists()


def test_census_refuses_a_deeply_nested_line_to_resume(tmp_path, capsys):
    base = write(tmp_path, "base.json", {"p": 5, "vertices": ["v"], "edges": [LOOP, LOOP]})
    out = tmp_path / "census.ndjson"
    run_census(bouquet(2), 5, str(out), budget=3)
    out.write_text(out.read_text() + NESTED + "\n")
    before = out.read_bytes()
    assert main(["census", base, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "line 5" in err
    assert out.read_bytes() == before


def test_census_of_two_vertex_base(tmp_path):
    base = bundled_spec("example2").base
    out = tmp_path / "census2.ndjson"
    summary = run_census(base, 5, str(out))
    assert summary["total_assignments"] == 256
    rows = read_census(str(out))
    by_key = {row["key"]: row for row in rows}
    # The worked assignment shows up with its vanishing exponent.
    assert by_key["2,4,2,1"]["vanishing"] == [2]
    assert by_key["2,4,2,1"]["pic0"][-2:] == [7, 420]
    # Regauging at the second vertex multiplies the three crossing edges by
    # the same unit and fixes the loop; the group is unchanged.
    regauged = by_key["2,3,4,2"]  # gauge unit 2: 4*2=3, 2*2=4, 1*2=2 mod 5
    assert regauged["pic0"] == by_key["2,4,2,1"]["pic0"]
    assert regauged["vanishing"] == by_key["2,4,2,1"]["vanishing"]
    for row in rows:
        assert row["connected"] == row["criterion_connected"]


def test_census_requires_prime(tmp_path):
    base_path = write(
        tmp_path, "base.json", {"vertices": ["v"], "edges": [{"from": "v", "to": "v"}]}
    )
    assert main(["census", base_path, "--out", str(tmp_path / "c.ndjson")]) == 2


LOOP = {"from": "v", "to": "v"}


@pytest.mark.parametrize(
    "command, doc, flags",
    [
        ("census", {"vertices": ["v"], "edges": [LOOP]}, ["--p", "4"]),
        ("census", {"vertices": ["v"], "edges": [LOOP]}, ["--p", "9"]),
        ("census", {"p": 5, "vertices": ["v"], "edges": [LOOP]}, ["--p", "0"]),
        ("census", {"p": "x", "vertices": ["v"], "edges": [LOOP]}, []),
        ("census", {"p": 5, "vertices": ["v"], "edges": [{"from": "v"}]}, []),
        ("census", {"p": 5, "vertices": ["v"], "edges": [LOOP]}, ["--budget", "-1"]),
        ("census", {"p": 5, "vertices": [1, "1"], "edges": [{"from": 1, "to": "1"}]}, []),
        (
            "dot",
            {"p": 5, "vertices": [1, "1"], "edges": [{"from": 1, "to": "1", "voltage": 2}]},
            [],
        ),
        ("dot", {"p": 5, "vertices": [["v"]], "edges": []}, []),
        ("analyze", {"p": 5, "vertices": ["v"], "edges": [{**LOOP, "voltage": 2.5}]}, []),
        ("analyze", {"p": 5, "vertices": ["v"], "edges": [{**LOOP, "voltage": "2"}]}, []),
        ("analyze", {"p": 5, "vertices": ["v"], "edges": [{**LOOP, "voltage": True}]}, []),
        ("analyze", {"p": 7.9, "vertices": ["v"], "edges": [{**LOOP, "voltage": 2}]}, []),
        ("analyze", {"p": 5.0, "vertices": ["v"], "edges": [{**LOOP, "voltage": 2}]}, []),
        ("dot", {"p": 5.0, "vertices": ["v"], "edges": [{**LOOP, "voltage": 2}]}, []),
        ("census", {"p": 5.0, "vertices": ["v"], "edges": [LOOP]}, []),
        ("census", {"p": True, "vertices": ["v"], "edges": [LOOP]}, ["--p", "5"]),
        ("analyze", {"p": 5, "vertices": "v", "edges": [{**LOOP, "voltage": 2}]}, []),
        (
            "census",
            {"p": 5, "vertices": "ab", "edges": [{"from": "a", "to": "b"}, {"from": "a", "to": "a"}]},
            [],
        ),
        ("analyze", {"p": 5, "vertices": {"v": 0}, "edges": [{**LOOP, "voltage": 2}]}, []),
        ("census", {"p": 5, "vertices": ["v"], "edges": ""}, []),
        ("dot", {"p": 5, "vertices": ["v"], "edges": {**LOOP, "voltage": 2}}, []),
        (
            "analyze",
            {"p": 5, "vertices": [1, True], "edges": [{"from": 1, "to": True, "voltage": 2}]},
            [],
        ),
        ("census", {"p": 5, "vertices": ["v", None], "edges": [{"from": "v", "to": None}]}, []),
        ("analyze", {"p": 5, "vertices": [1], "edges": [{"from": 1, "to": True, "voltage": 2}]}, []),
        ("census", {"p": 5, "vertices": [1], "edges": [{"from": 1.0, "to": 1}]}, []),
    ],
    ids=[
        "p_4",
        "p_9",
        "p_0_over_file_p",
        "p_not_an_integer",
        "edge_without_to",
        "negative_budget",
        "census_labels_clash",
        "dot_labels_clash",
        "dot_unhashable_label",
        "voltage_float",
        "voltage_string",
        "voltage_bool",
        "p_float_truncated",
        "p_float_integral",
        "dot_p_float",
        "census_p_float",
        "census_p_bool_under_flag",
        "vertices_string",
        "census_vertices_string",
        "vertices_object",
        "census_edges_string",
        "dot_edges_object",
        "label_bool",
        "census_label_null",
        "edge_end_bool",
        "census_edge_end_float",
    ],
)
def test_malformed_input_exits_2(tmp_path, capsys, command, doc, flags):
    out = tmp_path / "out.txt"
    path = write(tmp_path, "input.json", doc)
    assert main([command, path, "--out", str(out), *flags]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["analyze", "example1"], ["census", "base.json", "--p", "5"]],
    ids=["analyze", "census"],
)
def test_enumeration_budget_flag_is_gone(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--enumeration-budget", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --enumeration-budget 5" in capsys.readouterr().err


def test_analyze_dot_flag_is_gone(capsys):
    # coverzeta dot prints the drawings.
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "example1", "--dot"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --dot" in capsys.readouterr().err


def test_examples_listing(capsys, tmp_path):
    assert main(["examples"]) == 0
    out = capsys.readouterr().out
    for name in ("example1", "example2", "example3", "example4"):
        assert name in out
    target = tmp_path / "specs"
    assert main(["examples", "--write", str(target)]) == 0
    written = sorted(p.name for p in target.iterdir())
    assert written == [f"example{i}.json" for i in range(1, 5)]
    reloaded = load_spec(str(target / "example3.json"))
    assert spec_to_dict(reloaded) == spec_to_dict(bundled_spec("example3"))


def test_spec_round_trip(tmp_path):
    spec = bundled_spec("example4")
    path = tmp_path / "copy.json"
    dump_spec(spec, str(path))
    again = load_spec(str(path))
    assert spec_to_dict(again) == spec_to_dict(spec)
    assert spec_from_dict(spec_to_dict(spec)).voltages == spec.voltages


def test_repeated_main_calls_match_fresh_ones(tmp_path, capsys):
    # main builds its parser once per process; a parse error, then analyze,
    # then census must give the same outputs and exit codes with the kept
    # parser as with one built afresh for every call.
    from coverzeta.cli import build_parser

    loops = {"vertices": ["v"], "edges": [{"from": "v", "to": "v"}] * 2}
    base = write(tmp_path, "base.json", loops)
    calls = [
        ["analyze", "example1", "--bogus"],
        ["analyze", "example1"],
        ["census", base, "--p", "5", "--out", str(tmp_path / "census.ndjson")],
    ]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        (tmp_path / "census.ndjson").unlink(missing_ok=True)
        return code, captured.out, captured.err

    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run(argv))
    build_parser.cache_clear()
    kept = [run(argv) for argv in calls]
    assert build_parser.cache_info().misses == 1
    assert kept == fresh
    assert [code for code, _, _ in kept] == [2, 0, 0]
    assert "unrecognized arguments: --bogus" in kept[0][2]
    assert json.loads(kept[1][1])["pic0"] == [3, 12]
    assert kept[2][1].startswith("census: 16 new rows")


# Values that a mutation puts where a document holds a prime, a voltage, a
# label or an end: ints in and out of range, and every other JSON type.
ODD_VALUES = st.one_of(
    st.integers(-3, 60),
    st.sampled_from([2.5, 5.0, float("nan"), "5", "", True, False, None, [], {}, [5], {"p": 5}]),
)


@st.composite
def documents(draw):
    """A spec document on at most 6 vertices at an odd prime below 60,
    then a few mutations of its types, keys, voltages and primes."""
    p = draw(st.sampled_from([3, 5, 7, 11, 13, 17, 23, 31, 59]))
    n = draw(st.integers(1, 6))
    labels = [f"v{i}" for i in range(n)]
    ends = st.sampled_from(labels)
    edges = [
        {"from": labels[draw(st.integers(0, v - 1))], "to": labels[v], "voltage": draw(st.integers(1, p - 1))}
        for v in range(1, n)
    ]
    edges += draw(
        st.lists(
            st.fixed_dictionaries({"from": ends, "to": ends, "voltage": st.integers(1, p - 1)}),
            max_size=3,
        )
    )
    doc = {"p": p, "vertices": labels, "edges": edges}
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["p", "drop", "extra", "voltage", "end", "label", "vertices", "edges", "whole"]))
        if kind == "p":
            doc["p"] = draw(ODD_VALUES)
        elif kind == "drop" and doc:
            doc.pop(draw(st.sampled_from(sorted(doc))))
        elif kind == "extra":
            doc[draw(st.sampled_from(["q", "P", "edge", "voltage"]))] = draw(ODD_VALUES)
        elif kind in ("voltage", "end") and edges:
            edge = draw(st.sampled_from(edges))
            field = "voltage" if kind == "voltage" else draw(st.sampled_from(["from", "to"]))
            if draw(st.booleans()):
                edge.pop(field, None)
            else:
                edge[field] = draw(st.one_of(ODD_VALUES, st.just("v9")))
        elif kind == "label" and labels:
            labels[draw(st.integers(0, len(labels) - 1))] = draw(st.one_of(ODD_VALUES, st.just("v0")))
        elif kind in ("vertices", "edges"):
            doc[kind] = draw(ODD_VALUES)
        elif kind == "whole":
            return draw(ODD_VALUES)
    return doc


class CaseTimeout(BaseException):
    """A case that ran past its alarm; not an Exception, so no handler in
    the program under test can swallow it."""


def _on_alarm(signum, frame):
    raise CaseTimeout()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(documents(), st.sampled_from(["analyze", "dot", "census"]))
def test_every_document_is_answered_or_refused_promptly(doc, command):
    # Each input exits 0, 2, 3 or 4 within 5 s, with an error line when it
    # fails and never a traceback; a census takes a budget, so a base with
    # many assignments answers promptly too.
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        argv = [command, path, "--out", os.path.join(tmp, "out")]
        if command == "census":
            argv += ["--budget", "20"]
        err = io.StringIO()
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.alarm(5)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
    assert code in (0, 2, 3, 4)
    assert err.getvalue().startswith("error:") == (code != 0)
    assert "Traceback" not in err.getvalue()
