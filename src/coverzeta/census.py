"""Census of all voltage assignments on a base graph at a fixed prime.

Assignments are enumerated in lexicographic order over one orientation of the
edges.  Each row records connectivity (breadth-first search, checked against
the generated-subgroup criterion as ``census.connectivity``), Picard invariant
factors, the set of vanishing mod-p L-values, and verdict summaries.
Assignments that differ by switching, a' = c_u^-1 a c_v on each edge u -> v,
give covers that are isomorphic by (v, x) -> (v, x c_v), which commutes with
the deck group (Gross and Tucker, Topological Graph Theory, 1987), so their
rows agree but for the key and the voltages.  A run builds one report per
switching class and hands its fields to the later assignments of the class,
each after checking the isomorphism on its own cover (``census.switching``);
the table lives for one ``run_census`` call and holds no cover or report.  Output
is one JSON object per line; reruns skip keys already present, so runs are
resumable, also after a crash that left a partly written last line; a file
with any other line that is not a row or a cursor is refused, as is a row for
another prime or edge count or a cursor over another number of assignments.  A run cut short
by its budget ends with a cursor line, and the next run starts at the last
cursor in the file, so repeated budgeted runs advance through the assignments.
"""

from __future__ import annotations

import json
from contextlib import suppress
from itertools import islice, product
from typing import Iterable

from .arith import VerificationError
from .herbrand import build_report
from .serre import SerreGraph
from .voltage import DerivedCover, VoltageSpec, connected_by_voltage_criterion, derive, gauge

VERDICTS = ("main11", "main22", "fitting", "duality", "dim_inequality")


def assignment_key(voltages: Iterable[int]) -> str:
    return ",".join(str(a) for a in voltages)


def census_row(
    base: SerreGraph, p: int, voltages: tuple[int, ...], classes: dict | None = None
) -> dict:
    """The row of one assignment.

    ``classes`` maps each switching class met so far (its gauge-fixed
    voltages, ``gauge``) to the relabeled edges (``_relabeled_edges``) and
    the row fields of its first connected cover.  A later cover of the class
    takes those fields only if its own relabeled edges are the same: the two
    relabelings then make an isomorphism of the covers that commutes with
    the deck group, so Pic0, the L-values and every verdict agree.  If they
    differ, ``census.switching`` fails.  Without ``classes`` the row gets a
    table of its own, so a connected cover gets its own report.
    """
    spec = VoltageSpec(base, p, voltages)
    cover = derive(spec)
    connected = cover.is_connected()
    by_criterion = connected_by_voltage_criterion(spec)
    if connected != by_criterion:
        raise VerificationError(
            "census.connectivity",
            f"voltages {list(voltages)}: search {connected}, criterion {by_criterion}",
        )
    row = {
        "key": assignment_key(voltages),
        "p": p,
        "voltages": list(voltages),
        "connected": connected,
        "criterion_connected": by_criterion,
    }
    if not connected:
        row["pic0"] = None
        row["vanishing"] = None
        row["verdicts"] = dict.fromkeys(VERDICTS, "SKIPPED")
        return row
    classes = {} if classes is None else classes
    potential, key = gauge(spec)
    edges = _relabeled_edges(cover, potential)
    if key not in classes:
        report = build_report(cover)
        classes[key] = edges, (
            tuple(report.pic0),
            tuple(r["i"] for r in report.rows if r["h_mod_p"] == 0),
            tuple(report.global_verdicts[name].status for name in VERDICTS),
        )
    elif classes[key][0] != edges:
        raise VerificationError(
            "census.switching",
            f"voltages {list(voltages)}: the relabeled cover differs from "
            f"the first one of switching class {list(key)}",
        )
    pic0, vanishing, statuses = classes[key][1]
    row["pic0"] = list(pic0)
    row["vanishing"] = list(vanishing)
    row["verdicts"] = dict(zip(VERDICTS, statuses))
    return row


def _relabeled_edges(cover: DerivedCover, potential: list[int]) -> tuple[int, ...]:
    """The total graph's edges after relabeling (v, x) -> (v, x * phi(v)^-1),
    flat: the edge over base edge k from relabeled (u, t) sits at
    2 * (k * (p - 1) + t - 1) as its two relabeled ends.

    Equal tuples of two covers of one base map each edge of either onto the
    same relabeled edge, so the relabelings make an isomorphism of the total
    graphs, edge for edge; relabeling multiplies fiber coordinates on the
    right, so it commutes with the deck group.
    """
    p, f = cover.p, cover.fiber_size
    inverse = [pow(x, -1, p) for x in potential]

    def relabel(w: int) -> int:
        v, x = divmod(w, f)
        return v * f + (x + 1) * inverse[v] % p - 1

    flat = [-1] * (2 * cover.total.num_undirected_edges)
    for j, (w, w2) in enumerate(cover.total.edge_pairs):
        a = relabel(w)
        slot = 2 * (j - j % f + a % f)
        flat[slot], flat[slot + 1] = a, relabel(w2)
    return tuple(flat)


class CensusFileError(ValueError):
    """A census output file with a complete line that is not a row or a cursor."""


def _is_row(doc, p: int, num_edges: int) -> bool:
    """Whether a parsed line is a row of a census at p over ``num_edges``
    edges: its voltages are that many units mod p, and its key is theirs."""
    if not isinstance(doc, dict) or doc.get("p") != p:
        return False
    voltages = doc.get("voltages")
    return (
        type(voltages) is list
        and len(voltages) == num_edges
        and all(type(a) is int and 0 < a < p for a in voltages)
        and doc.get("key") == assignment_key(voltages)
    )


def _resume_state(out_path: str, p: int, num_edges: int) -> tuple[set[str], int]:
    """Keys of the rows already in the output file, which may not exist, and
    the index of the last cursor in it (0 without one).

    A run killed mid-write leaves a last line without its newline; the file
    is cut back to its last complete line, so that row is computed again and
    the next row does not land on the fragment.  Any other line that is not
    a row or a cursor raises ``CensusFileError`` and leaves the file as it is.
    So do lines whose keys and indices belong to another census: a row for a
    prime other than ``p``, a row whose voltages are not ``num_edges`` units
    mod p or whose key is not theirs, and a cursor over other than the
    (p - 1)^num_edges assignments; and so does a cursor at that total or
    past it, which no run writes.
    """
    total = (p - 1) ** num_edges
    done, start = set(), 0
    with suppress(FileNotFoundError), open(out_path, "rb+") as fh:
        data = fh.read()
        end = data.rfind(b"\n") + 1
        for number, line in enumerate(data[:end].splitlines(), 1):
            if not line.strip():
                continue
            try:
                doc = json.loads(line.decode("utf-8"))
            except ValueError:  # not UTF-8, or not JSON
                doc = None
            if _is_row(doc, p, num_edges):
                done.add(doc["key"])
                continue
            cursor = doc.get("cursor") if isinstance(doc, dict) else None
            start = cursor.get("next_index") if isinstance(cursor, dict) else None
            if type(start) is not int or not 0 <= start < total or cursor.get("total") != total:
                raise CensusFileError(
                    f"{out_path}, line {number}: not a row or cursor of the census "
                    f"at p = {p} over {total} assignments"
                )
        if end < len(data):
            fh.truncate(end)
    return done, start


def run_census(base: SerreGraph, p: int, out_path: str, budget: int | None = None) -> dict:
    """Append census rows to a newline-delimited JSON file; resumable.

    The run starts at the file's last cursor and takes at most ``budget``
    assignments.  Returns a summary dict; when the run stops before the last
    assignment it is partial, and both the file and the summary carry the
    cursor of the next assignment.
    """
    if not base.is_connected():
        raise ValueError("census base graph must be connected")
    num_edges = base.num_undirected_edges
    total = (p - 1) ** num_edges
    done, start = _resume_state(out_path, p, num_edges)
    processed = 0
    written = 0
    cursor = None
    stop = total if budget is None else min(total, start + budget)
    classes: dict = {}  # switching class -> its first cover's edges and fields
    with open(out_path, "a", encoding="utf-8") as fh:
        iterator = product(range(1, p), repeat=num_edges)
        for voltages in islice(iterator, start, stop):
            processed += 1
            key = assignment_key(voltages)
            if key in done:
                continue
            row = census_row(base, p, tuple(voltages), classes)
            fh.write(json.dumps(row, sort_keys=True) + "\n")
            written += 1
        if stop < total:
            cursor = stop
            fh.write(json.dumps({"cursor": {"next_index": cursor, "total": total}}) + "\n")
    return {
        "total_assignments": total,
        "processed": processed,
        "written": written,
        "cursor": cursor,
    }


def read_census(path: str) -> list[dict]:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                doc = json.loads(line)
                if "key" in doc:
                    rows.append(doc)
    return rows
