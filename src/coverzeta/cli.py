"""Command-line front end.

Subcommands: ``analyze`` a cover spec and emit a verification report,
``dot`` render base and cover, ``census`` sweep all assignments on a base,
``examples`` list the bundled fixtures.  A report takes its L-values at one
p-adic precision, by default the p-valuation of #Pic0 plus two; ``--precision
N`` sets it to N, or to that valuation plus one if N is lower.  Exit codes: 0
success, 2 parse error (including a disconnected base graph, a precision
below 1, a census prime that is not an odd prime, a negative census budget,
an output file that cannot be written and a census file to resume that is
not a census), 3 disconnected cover, 4 verification failure: a FAIL verdict,
or an internal cross-check that raised ``VerificationError``.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .arith import VerificationError, is_odd_prime
from .census import CensusFileError, run_census
from .herbrand import build_report
from .specfile import (
    BUNDLED,
    SpecFileError,
    bundled_spec,
    dump_spec,
    load_base,
    load_spec,
    spec_to_dict,
)
from .voltage import DisconnectedCover, derive, require_connected_cover

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DISCONNECTED = 3
EXIT_VERIFICATION = 4


def _derive(spec):
    """The derived cover, or None after an error line if the base is disconnected."""
    try:
        return derive(spec)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def cmd_analyze(args) -> int:
    try:
        if args.precision is not None and args.precision < 1:
            raise ValueError(f"--precision must be a positive integer, got {args.precision}")
        spec = load_spec(args.spec)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    cover = _derive(spec)
    if cover is None:
        return EXIT_PARSE
    try:
        require_connected_cover(cover)
    except DisconnectedCover as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DISCONNECTED
    report = build_report(cover, precision=args.precision)
    if args.table:
        print(report.format_table())
    if args.dot:
        print(spec.base.to_dot("base"))
        print(cover.to_dot("cover"))
    payload = report.to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        print(payload, end="")
    return EXIT_OK if report.all_ok else EXIT_VERIFICATION


def cmd_dot(args) -> int:
    try:
        spec = load_spec(args.spec)
    except SpecFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    cover = _derive(spec)
    if cover is None:
        return EXIT_PARSE
    if not cover.is_connected():
        print("warning: derived cover is disconnected", file=sys.stderr)
    text = spec.base.to_dot("base") + "\n" + cover.to_dot("cover")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return EXIT_OK


def cmd_census(args) -> int:
    try:
        base, file_p = load_base(args.base)
    except SpecFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    p = file_p if args.p is None else args.p
    if p is None:
        print("error: prime p must come from --p or the base file", file=sys.stderr)
        return EXIT_PARSE
    if not is_odd_prime(p):
        print(f"error: p must be an odd prime, got {p}", file=sys.stderr)
        return EXIT_PARSE
    if args.budget is not None and args.budget < 0:
        print(f"error: --budget must not be negative, got {args.budget}", file=sys.stderr)
        return EXIT_PARSE
    if not base.is_connected():
        print("error: census base graph must be connected", file=sys.stderr)
        return EXIT_PARSE
    summary = run_census(base, p, args.out, budget=args.budget)
    print(
        f"census: {summary['written']} new rows of {summary['total_assignments']} "
        f"assignments -> {args.out}"
    )
    if summary["cursor"] is not None:
        print(f"partial run; resume from assignment index {summary['cursor']}")
    return EXIT_OK


def cmd_examples(args) -> int:
    for name in BUNDLED:
        spec = bundled_spec(name)
        doc = spec_to_dict(spec)
        print(
            f"{name}: p={doc['p']}, {len(doc['vertices'])} vertices, "
            f"{len(doc['edges'])} edges, voltages "
            + ",".join(str(e["voltage"]) for e in doc["edges"])
        )
        if args.write:
            os.makedirs(args.write, exist_ok=True)
            dump_spec(spec, os.path.join(args.write, f"{name}.json"))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coverzeta",
        description=(
            "Galois covers of graphs with deck group the units mod p: Picard "
            "groups, equivariant zeta special values, and eigenspace checks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="verify a cover spec and write a report")
    pa.add_argument("spec", help="spec file path or bundled example name")
    pa.add_argument("--table", action="store_true", help="print the character table")
    pa.add_argument("--dot", action="store_true", help="also print DOT drawings")
    pa.add_argument("--out", help="write the JSON report here instead of stdout")
    pa.add_argument(
        "--precision",
        type=int,
        help="p-adic precision of the L-values; a value below the p-valuation "
        "of #Pic0 plus one is raised to it",
    )
    pa.set_defaults(func=cmd_analyze)

    pd = sub.add_parser("dot", help="render base and derived cover as DOT")
    pd.add_argument("spec", help="spec file path or bundled example name")
    pd.add_argument("--out", help="write DOT text here instead of stdout")
    pd.set_defaults(func=cmd_dot)

    pc = sub.add_parser("census", help="sweep all voltage assignments on a base")
    pc.add_argument("base", help="voltage-free base spec file")
    pc.add_argument("--p", type=int, help="odd prime (may also come from the file)")
    pc.add_argument("--out", default="census.ndjson", help="newline-delimited output file")
    pc.add_argument("--budget", type=int, help="maximum number of assignments to process")
    pc.set_defaults(func=cmd_census)

    pe = sub.add_parser("examples", help="list bundled example fixtures")
    pe.add_argument("--write", help="also write the fixtures into this directory")
    pe.set_defaults(func=cmd_examples)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except VerificationError as exc:  # raised by build_report, and by census_row
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except (OSError, CensusFileError) as exc:  # an --out file that cannot be written or resumed
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
