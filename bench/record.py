#!/usr/bin/env python3
"""Regenerate pool.json and census_rows.json from the checked-out commit.

    python3 bench/record.py

Draws the wide_base and deep_fiber covers from fixed generator seeds, runs
each through ``coverzeta analyze`` under a time limit, and stores the
SHA-256 of its report and its median seconds over REPEATS runs.  A
deep_fiber cover that takes WALL_S or longer moves to deep_fiber_wall
instead of being dropped.  The slowest ANCHORS covers of a workload belong
to every fold, so the tail latency and peak memory of a run do not depend
on the fold its seed picks; the other covers are dealt to the folds so that
their sorted costs match rank by rank.
The census table holds the digest of every row of the canonical
theta-plus-loop census.

The files are the reference outputs: regenerate them only on a commit whose
outputs are known to be right, and say so in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

import inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work" / "record"

# workload -> strata of (p, base vertices, extra edges, covers).  wide_base
# report times are 0.2, 0.4 and 0.8 s for n = 10, 11, 12, and its anchors are
# all n = 12, so there are as many n = 10 covers per fold as n = 12 ones: the
# median report then falls inside the n = 11 group, not at a gap between sizes.
STRATA = {
    "wide_base": [(5, 10, 3, 28), (5, 11, 3, 20), (5, 12, 3, 10)],
    "deep_fiber": [(p, n, 2, 8) for p in (17, 19, 23, 29) for n in (2, 3, 4)],
}
ANCHORS = {"wide_base": 6, "deep_fiber": 8}
REPEATS = 3
RECORD_LIMIT_S = 20
WALL_S = 3.0


class Timeout(BaseException):
    pass


def _on_alarm(signum, frame):
    raise Timeout()


def analyze(cli, spec: dict) -> tuple[str | None, float | None]:
    """(report digest, median seconds), or (None, None) past the record limit."""
    path = WORK / "spec.json"
    out = WORK / "report.json"
    path.write_text(json.dumps(spec))
    times = []
    for _ in range(REPEATS):
        out.unlink(missing_ok=True)
        signal.setitimer(signal.ITIMER_REAL, RECORD_LIMIT_S)
        start = perf_counter()
        try:
            code = cli.main(["analyze", str(path), "--out", str(out)])
        except Timeout:
            return None, None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        times.append(perf_counter() - start)
        if code != 0:
            raise SystemExit(f"analyze exited {code} on {spec}")
        if times[-1] >= WALL_S:
            break
    return hashlib.sha256(out.read_bytes()).hexdigest(), statistics.median(times)


def record_pool(cli) -> dict:
    pool = {"deep_fiber_wall": []}
    for workload, strata in STRATA.items():
        pool[workload] = []
        for p, n, extra, count in strata:
            rng = random.Random(f"pool:{workload}:{p}:{n}")
            for k in range(count):
                spec = inputs.random_cover(rng, p, n, extra)
                digest, seconds = analyze(cli, spec)
                cover = {"id": f"{workload}-p{p}-n{n}-{k}", "p": p, "n": n, "spec": spec,
                         "digest": digest, "seconds": seconds, "fold": None}
                print(cover["id"], seconds, file=sys.stderr)
                if seconds is None or seconds >= WALL_S:
                    pool["deep_fiber_wall"].append(cover)
                else:
                    pool[workload].append(cover)
        deal(pool[workload], ANCHORS[workload])
    return pool


def deal(covers: list[dict], anchors: int) -> None:
    """Assign folds: the slowest covers to all folds (None), the rest in groups.

    Each group of FOLDS covers, taken in order of decreasing seconds, gives
    one cover to every fold; inside a group a cover goes to the fold holding
    the fewest covers of its (p, n) stratum, so folds also share the mix.
    """
    ranked = sorted(covers, key=lambda c: -c["seconds"])[anchors:]
    held: dict[tuple[int, int], list[int]] = {}
    for g, start in enumerate(range(0, len(ranked), inputs.FOLDS)):
        free = list(range(inputs.FOLDS))
        for cover in ranked[start : start + inputs.FOLDS]:
            counts = held.setdefault((cover["p"], cover["n"]), [0] * inputs.FOLDS)
            fold = min(free, key=lambda f: (counts[f], (f - g) % inputs.FOLDS))
            free.remove(fold)
            counts[fold] += 1
            cover["fold"] = fold


def record_census(cli) -> dict:
    base = {"vertices": ["a", "b"], "edges": [{"from": u, "to": v} for u, v in inputs.CENSUS_EDGES]}
    (WORK / "base.json").write_text(json.dumps(base))
    rows_path = WORK / "census.ndjson"
    rows_path.unlink(missing_ok=True)
    cli.main(["census", str(WORK / "base.json"), "--p", str(inputs.CENSUS_P), "--out", str(rows_path)])
    rows = [json.loads(line) for line in rows_path.read_text().splitlines()]
    return {"p": inputs.CENSUS_P, "base": base, "rows": {r["key"]: inputs.row_digest(r) for r in rows}}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from coverzeta import cli

    signal.signal(signal.SIGALRM, _on_alarm)
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            census = record_census(cli)
        (BENCH / "census_rows.json").write_text(json.dumps(census, indent=0, sort_keys=True) + "\n")
        pool = record_pool(cli)
        (BENCH / "pool.json").write_text(json.dumps(pool, indent=1) + "\n")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
