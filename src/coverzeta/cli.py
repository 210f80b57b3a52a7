"""Command-line front end.

Subcommands: ``analyze`` a cover spec and emit a verification report,
``dot`` render base and cover, ``census`` sweep all assignments on a base,
``examples`` list the bundled fixtures.  A report takes its L-values at one
p-adic precision, by default the p-valuation of #Pic0 plus two; ``--precision
N`` sets it to N, or to that valuation plus one if N is lower.

The commands are plain call sequences into the library, which checks each
input once; ``main`` alone turns an error into an exit code, printed as
``error: <message>``.  Exit codes: 0 success; 2 a ``ValueError`` or
``OSError`` from reading, checking or writing an input or output (a spec,
base or census file that cannot be read or is malformed, a disconnected base
graph, a precision below 1, a census prime that is not an odd prime, a
cover of more than ``voltage.MAX_COVER_VERTICES`` vertices, a negative census
budget, an output file that cannot be written); 3
``DisconnectedCover``, the cover is not Galois with all of F_p^x; 4
``VerificationError``, an internal cross-check failed, or a report with a
FAIL verdict, which ``analyze`` returns.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .arith import VerificationError
from .census import run_census
from .herbrand import build_report
from .specfile import BUNDLED, bundled_spec, dump_spec, load_base, load_spec, spec_to_dict
from .voltage import DisconnectedCover, derive

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DISCONNECTED = 3
EXIT_VERIFICATION = 4


def _emit(text: str, out: str | None) -> None:
    """Write text to the file ``out``, or to stdout if none is given."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")


def cmd_analyze(args) -> int:
    if args.precision is not None and args.precision < 1:
        raise ValueError(f"--precision must be a positive integer, got {args.precision}")
    report = build_report(derive(load_spec(args.spec)), precision=args.precision)
    if args.table:
        print(report.format_table())
    _emit(report.to_json(), args.out)
    return EXIT_OK if report.all_ok else EXIT_VERIFICATION


def cmd_dot(args) -> int:
    spec = load_spec(args.spec)
    cover = derive(spec)
    if not cover.is_connected():
        print("warning: derived cover is disconnected", file=sys.stderr)
    _emit(spec.base.to_dot("base") + "\n" + cover.to_dot("cover"), args.out)
    return EXIT_OK


def cmd_census(args) -> int:
    base, file_p = load_base(args.base)
    p = file_p if args.p is None else args.p
    if p is None:
        raise ValueError("prime p must come from --p or the base file")
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
    except VerificationError as exc:  # a cross-check of a report or a census row
        code, error = EXIT_VERIFICATION, exc
    except DisconnectedCover as exc:
        code, error = EXIT_DISCONNECTED, exc
    except (ValueError, OSError) as exc:  # reading, checking or writing an input or output
        code, error = EXIT_PARSE, exc
    print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
