"""Census of all voltage assignments on a base graph at a fixed prime.

Assignments are enumerated in lexicographic order over one orientation of the
edges.  Each row records connectivity (breadth-first search, checked against
the generated-subgroup criterion as ``census.connectivity``), Picard invariant
factors, the set of vanishing mod-p L-values, and verdict summaries.
Assignments that differ by switching, a' = c_u^-1 a c_v on each edge u -> v,
give covers that are isomorphic by (v, x) -> (v, x c_v), which commutes with
the deck group (Gross and Tucker, Topological Graph Theory, 1987), so their
rows agree but for the key and the voltages.  A unit m mod p - 1 relabels
the fibers by s -> s^m, which takes the cover of a onto that of a^m and the
character chi_jm of the one to chi_j of the other, so their rows agree but
for the key, the voltages and the vanishing exponents, which m permutes.  A
run builds one report per orbit of switching classes under these power maps,
from a table with one entry per orbit (``census_row``) that holds no cover
or report; a resumed run seeds it from the first written row of each orbit,
so an orbit keeps its one report across the runs that write one file.
Output is one JSON object per line; reruns skip keys already present, so
runs are resumable, also after a crash that left a partly written last line,
which is not JSON;
a file with any other line that is not a row or a cursor is refused, as is a
row for another prime or edge count or a cursor over another number of
assignments.  A run cut short by its budget ends with a cursor line, and the
next run starts at the last cursor in the file, so repeated budgeted runs
advance through the assignments.
"""

from __future__ import annotations

import json
from contextlib import suppress
from functools import lru_cache
from itertools import islice, product
from math import gcd
from typing import Iterable

from .arith import VerificationError, is_odd_prime
from .herbrand import build_report
from .serre import SerreGraph
from .voltage import DerivedCover, VoltageSpec, connected_by_voltage_criterion, derive, gauge

VERDICTS = ("main11", "main22", "fitting", "duality", "dim_inequality")


def assignment_key(voltages: Iterable[int]) -> str:
    return ",".join(str(a) for a in voltages)


def census_row(base: SerreGraph, p: int, voltages: tuple[int, ...], classes: dict) -> dict:
    """The row of one assignment.

    ``classes`` maps the representative of each orbit met so far
    (``_representative``: the least key^m over the units m, and that m) to
    the cover of its voltages, as edges (``_relabeled_edges``), and the
    fields of the orbit's first connected cover, built here or seeded from a
    written row (``_seed_classes``), each vanishing exponent j kept as
    j * m^-1 (``_stored``).  A connected cover, relabeled by its potentials
    and then by s -> s^m, must give those edges, or ``census.switching``
    fails: that makes an isomorphism of the two covers taking the deck
    transformation of t to that of t^m, so Pic0 and the verdicts agree and
    L(Y, chi_jm) = L(Y_rep, chi_j), and the row's vanishing exponents are
    the kept j times m.
    """
    spec = VoltageSpec(base, p, voltages)
    cover = derive(spec)
    connected = cover.is_connected()
    potential, key = gauge(spec)
    by_criterion = connected_by_voltage_criterion(p, key)
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
    representative, m = _representative(p, key)
    edges = _relabeled_edges(cover, potential, m)
    if representative not in classes:
        report = build_report(cover)
        fields = (
            tuple(report.pic0),
            [r["i"] for r in report.rows if r["h_mod_p"] == 0],
            tuple(report.global_verdicts[name].status for name in VERDICTS),
        )
        classes[representative] = edges, _stored(fields, m, p)
    stored, (pic0, vanishing, statuses) = classes[representative]
    if stored != edges:
        raise VerificationError(
            "census.switching",
            f"voltages {list(voltages)}: the relabeled cover, raised to the power {m}, "
            f"differs from that of orbit {list(representative)}",
        )
    row["pic0"] = list(pic0)
    row["vanishing"] = sorted(j * m % (p - 1) for j in vanishing)
    row["verdicts"] = dict(zip(VERDICTS, statuses))
    return row


@lru_cache(maxsize=1 << 16)
def _representative(p: int, key: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """The least key^m, coefficientwise, over the units m mod p - 1, and the
    least such m: the key of its orbit under the power maps."""
    units = (m for m in range(1, p - 1) if gcd(m, p - 1) == 1)
    return min((tuple(pow(x, m, p) for x in key), m) for m in units)


def _stored(fields: tuple, m: int, p: int) -> tuple:
    """The fields of a cover whose gauge-fixed voltages the unit m carries to
    its orbit's representative, as the table keeps them: each vanishing
    exponent j as j * m^-1 mod p - 1, sorted."""
    pic0, vanishing, statuses = fields
    inverse = pow(m, -1, p - 1)
    return pic0, tuple(sorted(j * inverse % (p - 1) for j in vanishing)), statuses


@lru_cache(maxsize=None)
def _powers(p: int, m: int) -> tuple[int, ...]:
    """s^m - 1 at index s, for s in 1..p - 1; index 0 is unused."""
    return (-1,) + tuple(pow(s, m, p) - 1 for s in range(1, p))


def _relabeled_edges(cover: DerivedCover, potential: list[int], power: int) -> tuple[int, ...]:
    """The total graph's edges after relabeling (v, x) -> (v, x * phi(v)^-1),
    then (v, s) -> (v, s^power), flat: the edge over base edge k from
    relabeled (u, t) sits at 2 * (k * (p - 1) + t - 1) as its two relabeled
    ends.

    Equal tuples of two covers of one base map each edge of either onto the
    same relabeled edge, so the relabelings make an isomorphism of the total
    graphs, edge for edge; relabeling multiplies fiber coordinates on the
    right, so it commutes with the deck group, and a power map, a unit mod
    p - 1, takes the deck transformation of t to that of t^power.
    """
    p, f = cover.p, cover.fiber_size
    inverse = [pow(x, -1, p) for x in potential]
    powered = _powers(p, power)
    # The relabeled index of each total vertex (v, s), at v * f + s - 1.
    relabel = [v * f + powered[s * inverse[v] % p] for v in cover.base.vertices for s in range(1, p)]
    flat = [-1] * (2 * cover.total.num_undirected_edges)
    for j, (w, w2) in enumerate(cover.total.edge_pairs):
        a = relabel[w]
        slot = 2 * (j - j % f + a % f)
        flat[slot], flat[slot + 1] = a, relabel[w2]
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


def _written_fields(doc, p: int) -> tuple | None:
    """The Picard factors, vanishing exponents and verdict statuses of a
    connected row, as the tuples ``census_row`` keeps, if they have the shape
    a report writes: factors above 1, each dividing the next, exponents in
    1..p - 2 in increasing order, and each name of ``VERDICTS`` once, PASS
    or FAIL; otherwise None."""
    pic0, vanishing, verdicts = doc.get("pic0"), doc.get("vanishing"), doc.get("verdicts")
    if (
        type(pic0) is list
        and all(type(d) is int and d > 1 for d in pic0)
        and all(b % a == 0 for a, b in zip(pic0, pic0[1:]))
        and type(vanishing) is list
        and all(type(i) is int and 0 < i < p - 1 for i in vanishing)
        and all(i < j for i, j in zip(vanishing, vanishing[1:]))
        and type(verdicts) is dict
        and verdicts.keys() == set(VERDICTS)
        and all(status in ("PASS", "FAIL") for status in verdicts.values())
    ):
        return tuple(pic0), tuple(vanishing), tuple(verdicts[name] for name in VERDICTS)
    return None


def _resume_state(out_path: str, base: SerreGraph, p: int) -> tuple[set[str], int, dict]:
    """Keys of the rows already in the output file, which may not exist, the
    index of the last cursor in it (0 without one), and the class table of
    ``census_row`` seeded from its connected rows (``_seed_classes``).  The
    file is read line by line; of each connected row only the voltages and
    the fields (``_written_fields``) are kept, equal fields shared.

    A run killed mid-write leaves a last line without its newline that is
    not JSON; the file is cut back to its last complete line, so that row is
    computed again and the next row does not land on the fragment.  A last
    line without its newline that is JSON is complete and read as any other,
    and gets its newline once the file is accepted.  Any other line that is
    not a row or a cursor, the only line of a file that no census wrote
    included, raises ``CensusFileError`` and leaves the file as it is.
    So do lines whose keys and indices belong to another census: a row for a
    prime other than ``p``, a row whose voltages are not one unit mod p per
    base edge or whose key is not theirs, and a cursor over other than the
    (p - 1)^E assignments (E the base's edges); so does a cursor at that
    total or past it, which no run writes, and a connected row whose cover
    is not.
    """
    num_edges = base.num_undirected_edges
    total = (p - 1) ** num_edges
    done, start, seeds, shared, classes = set(), 0, [], {}, {}
    with suppress(FileNotFoundError), open(out_path, "rb+") as fh:
        end = 0  # the end of the last complete line
        newline = True  # whether the last line read ends in one
        for number, line in enumerate(fh, 1):
            newline = line.endswith(b"\n")
            if newline and not line.strip():
                end += len(line)
                continue
            try:
                doc = json.loads(line.decode("utf-8"))
            except (ValueError, RecursionError):  # not UTF-8, not JSON, or nested too deep
                if not newline:
                    break  # a torn write
                doc = None
            end += len(line)
            if _is_row(doc, p, num_edges):
                done.add(doc["key"])
                if doc.get("connected") is True and (fields := _written_fields(doc, p)):
                    seeds.append((tuple(doc["voltages"]), shared.setdefault(fields, fields)))
                continue
            cursor = doc.get("cursor") if isinstance(doc, dict) else None
            start = cursor.get("next_index") if isinstance(cursor, dict) else None
            if type(start) is not int or not 0 <= start < total or cursor.get("total") != total:
                raise CensusFileError(
                    f"{out_path}, line {number}: not a row or cursor of the census "
                    f"at p = {p} over {total} assignments"
                )
        classes = _seed_classes(base, p, seeds, out_path)
        if end < fh.tell():
            fh.truncate(end)
        elif not newline:  # a complete last line, written up to its newline
            fh.write(b"\n")
    return done, start, classes


def _seed_classes(base: SerreGraph, p: int, seeds: list, out_path: str) -> dict:
    """The class table of ``census_row``, seeded from written rows: the first
    seed of each orbit gives its own cover, relabeled onto the orbit's
    representative, and its written fields, stored as ``census_row`` stores
    a report's.  The fields are trusted as the report that wrote them; a
    later row of the orbit takes them only after ``census.switching``
    compares its cover with this one.  A seed whose cover is disconnected,
    although its row says connected, raises ``CensusFileError``."""
    classes: dict = {}
    for voltages, fields in seeds:
        spec = VoltageSpec(base, p, voltages)
        potential, key = gauge(spec)
        representative, m = _representative(p, key)
        if representative in classes:
            continue
        cover = derive(spec)
        if not cover.is_connected():
            raise CensusFileError(
                f"{out_path}: row {assignment_key(voltages)} says connected, "
                "but the cover of its voltages is not"
            )
        classes[representative] = _relabeled_edges(cover, potential, m), _stored(fields, m, p)
    return classes


def run_census(base: SerreGraph, p: int, out_path: str, budget: int | None = None) -> dict:
    """Append census rows to a newline-delimited JSON file; resumable.

    The run starts at the file's last cursor and takes at most ``budget``
    assignments.  Returns a summary dict; when the run stops before the last
    assignment it is partial, and both the file and the summary carry the
    cursor of the next assignment.  A bad p, base or budget raises
    ``ValueError`` before the file is read or opened.
    """
    if not is_odd_prime(p):
        raise ValueError(f"p must be an odd prime, got {p!r}")
    if budget is not None and (type(budget) is not int or budget < 0):
        raise ValueError(f"budget must be a non-negative int, got {budget!r}")
    if not base.is_connected():
        raise ValueError("census base graph must be connected")
    num_edges = base.num_undirected_edges
    total = (p - 1) ** num_edges
    # classes: orbit representative -> its cover's edges and fields
    done, start, classes = _resume_state(out_path, base, p)
    processed = 0
    written = 0
    cursor = None
    stop = total if budget is None else min(total, start + budget)
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
    """The rows of a census file.  A last line without its newline that is
    not JSON, which a run killed mid-write leaves and the next run computes
    again, is skipped; any other line that is not a JSON object with a
    ``key`` (a row) or a ``cursor`` raises ``CensusFileError``."""
    rows = []
    with open(path, "rb") as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
            except (ValueError, RecursionError):  # not UTF-8, not JSON, or nested too deep
                if not line.endswith(b"\n"):
                    break
                doc = None
            if not (isinstance(doc, dict) and ("key" in doc or "cursor" in doc)):
                raise CensusFileError(f"{path}, line {number}: not a census row or cursor")
            if "key" in doc:
                rows.append(doc)
    return rows
