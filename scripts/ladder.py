#!/usr/bin/env python3
"""Check the report digests of one tier of the scaling ladder.

Usage:
    python scripts/ladder.py --tier {ci,slow}

``tests/goldens/ladder.json`` lists (p, n, seed, sha256, tier) for each cell
of the ladder: the cover is the benchmark generator's
``random_cover(random.Random(seed), p, n, 3)`` (``bench/inputs.py``), and
sha256 that of its ``report.to_json()``.  Each cell of the tier is analysed
in turn and one line printed with its size, digest and seconds, so the
cells' times show in a log.  Exits 1 at the first report that is not all_ok
or does not hash to its cell's sha256.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import random
import sys
import time

from coverzeta import build_report, derive, spec_from_dict

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
import inputs  # noqa: E402  (bench/inputs.py, which imports nothing of coverzeta)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tier", choices=["ci", "slow"], required=True)
    args = parser.parse_args()
    with open(ROOT / "tests" / "goldens" / "ladder.json", encoding="utf-8") as fh:
        cells = [cell for cell in json.load(fh) if cell["tier"] == args.tier]
    for cell in cells:
        p, n, seed = cell["p"], cell["n"], cell["seed"]
        cover = derive(spec_from_dict(inputs.random_cover(random.Random(seed), p, n, 3)))
        start = time.perf_counter()
        report = build_report(cover)
        seconds = time.perf_counter() - start
        got = hashlib.sha256(report.to_json().encode()).hexdigest()
        print(
            f"p = {p}, n = {n}, seed {seed}: N = {report.total_vertices}, "
            f"all_ok = {report.all_ok}, sha256 {got[:16]}, report {seconds:.2f} s",
            flush=True,
        )
        if not report.all_ok or got != cell["sha256"]:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
