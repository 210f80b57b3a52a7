#!/usr/bin/env python3
"""Benchmark of coverzeta: one workload per process, a closed loop with one client.

Run from the repository root:

    python3 bench/run.py --workload census --seed 1 --seconds 25 --trace 0

The workload is repeated in rounds until ``--seconds`` have passed; the next
cover starts only when the last one has finished.  ``--trace 0`` prints the
end-to-end metrics of an untraced run, ``--trace 1`` the per-layer metrics of
a traced run (layers.py).  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
a fuller record goes to ``.bench_out/``.  Exit code 1 means a wrong output,
2 that the benchmark could not start.  README.md describes every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import inputs
import layers

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDENS = ROOT / "tests" / "goldens"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

WORKLOADS = ("census", "wide_base", "deep_fiber", "deep_fiber_wall")
EXAMPLES = ("example1", "example2", "example3", "example4")
SETUP_REPEATS = 7
TAIL_SAMPLES = 10
TAIL_ROUNDS = 2
# Per-operation limits (one CLI call), far from every time recorded on the
# seed commit: census parts take under 10 s, pool covers under 3 s, and
# every deep_fiber_wall cover over 3 s.
LIMIT_S = {"census": 60.0, "wide_base": 30.0, "deep_fiber": 30.0, "deep_fiber_wall": 1.0}

# Times other than setup_s are reported in reference seconds (ref_s): seconds
# scaled by PROBE_NOMINAL_S over the current time of a fixed probe kernel.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "ref_s"),
    ("ops_per_s", "1/ref_s"),
    ("latency_p50_s", "ref_s"),
    ("latency_tail_s", "ref_s"),
    ("peak_rss_mb", "MB"),
)
PROBE_NOMINAL_S = 0.002
PROBE_WINDOW = 5
CENSUS_PROBE_ROWS = 32


class _Cyclic:
    """A cyclic convolution element, the kind of object the probe multiplies."""

    __slots__ = ("c",)

    def __init__(self, c):
        self.c = tuple(c)

    def __add__(self, other):
        return _Cyclic(a + b for a, b in zip(self.c, other.c))

    def __mul__(self, other):
        n = len(self.c)
        out = [0] * n
        for i, a in enumerate(self.c):
            if a:
                for j, b in enumerate(other.c):
                    out[(i + j) % n] += a * b
        return _Cyclic(out)


def _bareiss(a) -> int:
    n = len(a)
    m = [row[:] for row in a]
    prev, sign = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


class Probe:
    """Tracks the speed of the machine with a fixed kernel of the program's kind.

    On a shared host the same work can take 30% more or less time from one
    minute to the next, and CPU time varies as much as wall time.  The kernel
    (fraction-free determinants of a fixed integer matrix and products of
    cyclic convolution elements, about 2 ms) is timed between operations;
    each operation's seconds are scaled by PROBE_NOMINAL_S over the median of
    the last PROBE_WINDOW probe times.  The kernel is the benchmark's own code,
    so a change to coverzeta cannot move it.
    """

    def __init__(self):
        rng = random.Random(0)
        self.matrix = [[rng.randint(-9, 9) for _ in range(14)] for _ in range(14)]
        self.times: list[float] = []

    def sample(self) -> None:
        start = perf_counter()
        for _ in range(4):
            _bareiss(self.matrix)
        x, acc = _Cyclic(range(1, 7)), _Cyclic([0] * 6)
        for k in range(120):
            acc = acc + x * _Cyclic([k % 5, 1, 0, 2, 0, 1])
        self.times.append(perf_counter() - start)

    def scale(self) -> float:
        recent = sorted(self.times[-PROBE_WINDOW:])
        return PROBE_NOMINAL_S / recent[len(recent) // 2]


class Round(NamedTuple):
    seconds: float
    latencies: list[float]
    scaled_seconds: float
    scaled_latencies: list[float]
    attempted: int
    failed: int


class OpTimeout(BaseException):
    """Raised by the interval timer; a BaseException so no handler in the program swallows it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


class Env:
    """Everything one run needs: the CLI module, inputs, files and checks."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.work = WORK / f"{workload}-{seed}-{os.getpid()}"
        self.cli = None
        self.covers: list[dict] = []
        self.variant: dict | None = None
        self.census_rows: dict[str, str] = {}
        self.trees: dict[str, int] = {}
        self.reports: dict[str, bytes] = {}
        self.answered: dict[str, int] = {}
        self.failures: list[dict] = []
        self.wrong = 0
        self.row_clock: list[tuple[float, float]] = []
        self.probe = Probe()

    def setup(self) -> None:
        """Import coverzeta afresh, generate the inputs and write them out."""
        for name in [m for m in sys.modules if m == "coverzeta" or m.startswith("coverzeta.")]:
            del sys.modules[name]
        self.cli = importlib.import_module("coverzeta.cli")
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        if self.workload == "census":
            self.variant = inputs.census_variant(self.seed)
            self._write("base.json", self.variant["base"])
        else:
            self.covers = inputs.pool_selection(inputs.load_pool(), self.workload, self.seed)
            for cover in self.covers:
                self._write(f"{cover['id']}.json", cover["spec"])

    def _write(self, name: str, doc: dict) -> None:
        with open(self.work / name, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)

    def input_hash(self) -> str:
        h = hashlib.sha256()
        for path in sorted(self.work.glob("*.json")):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
        return h.hexdigest()

    def determinant(self):
        return importlib.import_module("coverzeta.snf").integer_determinant

    def fail(self, op: str, reason: str, wrong: bool, **where) -> None:
        self.failures.append({"op": op, "reason": reason, **where})
        self.wrong += wrong


def call_cli(env: Env, argv: list[str], tracer: layers.Tracer | None):
    """Run the CLI in-process under the workload's limit: (exit code, error)."""
    signal.setitimer(signal.ITIMER_REAL, LIMIT_S[env.workload])
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            if tracer is None:
                return env.cli.main(argv), None
            return tracer.call("cli.main", env.cli.main, argv), None
    except OpTimeout:
        return None, f"time limit of {LIMIT_S[env.workload]} s reached"
    except (Exception, SystemExit) as exc:
        return None, f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def check_goldens(env: Env) -> int:
    """Compare the bundled examples byte for byte with tests/goldens/."""
    bad = 0
    for name in EXAMPLES:
        out = env.work / f"{name}.report"
        code, err = call_cli(env, ["analyze", name, "--out", str(out)], None)
        golden = (GOLDENS / f"{name}_report.json").read_bytes()
        if code != 0 or not out.is_file() or out.read_bytes() != golden:
            env.fail(name, err or f"exit {code}, report differs from tests/goldens", True)
            bad += 1
    return bad


def analyze_round(env: Env, tracer) -> Round:
    """One pass over the selected covers."""
    latencies, scaled = [], []
    failed = 0
    for cover in env.covers:
        spec = env.work / f"{cover['id']}.json"
        out = env.work / f"{cover['id']}.report"
        out.unlink(missing_ok=True)
        if tracer is not None:
            tracer.op = cover["id"]
        env.probe.sample()
        start = perf_counter()
        code, err = call_cli(env, ["analyze", str(spec), "--out", str(out)], tracer)
        latencies.append(perf_counter() - start)
        scaled.append(latencies[-1] * env.probe.scale())
        problem = err or check_output(env, cover, code, out)
        if problem:
            failed += 1
            env.fail(cover["id"], problem, wrong=err is None or "time limit" not in err, **where(cover))
        else:
            env.answered[cover["id"]] = env.answered.get(cover["id"], 0) + 1
    return Round(sum(latencies), latencies, sum(scaled), scaled, len(env.covers), failed)


def where(cover: dict) -> dict:
    return {"p": cover["p"], "n": cover["n"], "voltages": [e["voltage"] for e in cover["spec"]["edges"]]}


def check_output(env: Env, cover: dict, code, out: Path) -> str | None:
    """Exit code, recorded digest, and the same bytes in every round."""
    if code != 0:
        return f"exit code {code}"
    data = out.read_bytes()
    if cover["digest"] and hashlib.sha256(data).hexdigest() != cover["digest"]:
        return "report differs from the recorded digest"
    if env.reports.setdefault(cover["id"], data) != data:
        return "report differs from the one of an earlier round"
    return None


def check_reports(env: Env) -> int:
    """Verdicts and the Matrix-Tree count of every distinct report, after timing.

    Returns the number of operations whose report failed, all counted as wrong.
    """
    failed = 0
    for cover in env.covers:
        if cover["id"] not in env.reports or cover["id"] in env.trees:
            continue
        trees = inputs.cover_trees(cover["spec"], env.determinant())
        env.trees[cover["id"]] = trees
        problems = inputs.report_problems(json.loads(env.reports[cover["id"]]), trees)
        if problems:
            failed += env.answered[cover["id"]]
            env.fail(cover["id"], "; ".join(problems), True, **where(cover))
    return failed


def census_round(env: Env, tracer) -> Round:
    """A budgeted census, then a run resuming into the same file."""
    v = env.variant
    rows_path = env.work / "census.ndjson"
    rows_path.unlink(missing_ok=True)
    argv = ["census", str(env.work / "base.json"), "--p", str(inputs.CENSUS_P), "--out", str(rows_path)]
    env.row_clock.clear()
    if tracer is not None:
        tracer.op = f"census-{env.seed}"
    start = perf_counter()
    results = [call_cli(env, argv + ["--budget", str(v["budget"])], tracer), call_cli(env, argv, tracer)]
    seconds = perf_counter() - start
    latencies = [t for t, _ in env.row_clock]
    scaled = [t * k for t, k in env.row_clock]
    round_scale = statistics.median(k for _, k in env.row_clock) if env.row_clock else 1.0
    for code, err in results:
        if err or code != 0:
            env.fail("census", err or f"exit code {code}", wrong=err is None or "time limit" not in err)
    failed = v["total"] - check_census(env, rows_path)
    return Round(seconds, latencies, seconds * round_scale, scaled, v["total"], failed)


def check_census(env: Env, rows_path: Path) -> int:
    """Number of correct rows; each wrong or missing row is listed."""
    v = env.variant
    recorded = env.census_rows
    rows, cursors = {}, []
    if rows_path.is_file():
        for line in rows_path.read_text(encoding="utf-8").splitlines():
            doc = json.loads(line)
            if "cursor" in doc:
                cursors.append(doc["cursor"])
            elif doc["key"] in rows:
                env.fail("census", f"row {doc['key']} written twice", True)
            else:
                rows[doc["key"]] = doc
    if cursors != [{"next_index": v["budget"], "total": v["total"]}]:
        env.fail("census", f"cursor lines {cursors} after a first part of {v['budget']}", True)
    good = 0
    for key, row in rows.items():
        canon = inputs.canonical_key(v, row["voltages"])
        problem = None
        if recorded.get(canon) != inputs.row_digest(row):
            problem = f"row differs from the recorded row {canon}"
        elif row["connected"]:
            if key not in env.trees:
                env.trees[key] = inputs.census_trees(v, row["voltages"], env.determinant())
            if math.prod(row["pic0"]) != env.trees[key]:
                problem = f"prod(pic0) != {env.trees[key]} spanning trees"
        if problem:
            env.fail("census", problem, True, p=inputs.CENSUS_P, n=2, voltages=row["voltages"])
        else:
            good += 1
    missing = v["total"] - len(rows)
    if missing:
        env.fail("census", f"{missing} rows missing", False)
    return good


def install_row_clock(env: Env) -> None:
    """Time each census row at the name run_census looks up, with its probe scale."""
    census = importlib.import_module("coverzeta.census")
    row = census.census_row

    def timed_row(*args, **kwargs):
        if len(env.row_clock) % CENSUS_PROBE_ROWS == 0:
            env.probe.sample()
        start = perf_counter()
        try:
            return row(*args, **kwargs)
        finally:
            env.row_clock.append((perf_counter() - start, env.probe.scale()))

    census.census_row = timed_row


def tail(latencies: list[float], per_round: int) -> tuple[float, int]:
    """(value, q) of the tail percentile q, fixed by the size of a round.

    q is the highest whole percentile with at least TAIL_SAMPLES samples above
    it in TAIL_ROUNDS rounds.  Fixing it per workload, rather than per run,
    keeps it on the same cover when the host's speed changes how many rounds
    fit in the run; a run with more rounds has more samples above it.
    """
    k0 = TAIL_ROUNDS * per_round
    qs = [q for q in range(1, 100) if k0 - math.ceil(q * k0 / 100) >= TAIL_SAMPLES]
    q = max(qs, default=100)
    xs = sorted(latencies)
    return xs[max(math.ceil(q * len(xs) / 100), 1) - 1], q  # nearest rank


def measure(env: Env, seconds: float, trace: bool):
    """Rounds until the time is up; traced runs alternate untraced and traced rounds."""
    round_fn = census_round if env.workload == "census" else analyze_round
    tracer = layers.Tracer() if trace else None
    rounds = {False: [], True: []}
    deadline = perf_counter() + seconds
    k = 0
    while True:
        traced = trace and (k % 4 in (1, 2))  # U T T U U T ...: pairs alternate order
        if traced:
            tracer.install()
        try:
            rounds[traced].append(round_fn(env, tracer if traced else None))
        finally:
            if traced:
                tracer.uninstall()
        k += 1
        if perf_counter() >= deadline and (not trace or k % 2 == 0):
            return rounds, tracer


def timings(rounds: list[Round], scaled: bool) -> dict:
    """wall, throughput and latency figures, in seconds or reference seconds."""
    seconds = [r.scaled_seconds if scaled else r.seconds for r in rounds]
    latencies = [x for r in rounds for x in (r.scaled_latencies if scaled else r.latencies)]
    completed = sum(r.attempted - r.failed for r in rounds)
    tail_s, q = tail(latencies, rounds[0].attempted)
    return {
        "wall_s": statistics.median(seconds),
        "ops_per_s": completed / sum(seconds),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_s,
        "latency_tail_percentile": q,
        "latency_samples": len(latencies),
    }


def end_to_end(rounds: list[Round], setup_s: float) -> tuple[dict, dict]:
    attempted = sum(r.attempted for r in rounds)
    metrics = {
        "setup_s": setup_s,
        **timings(rounds, scaled=True),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw = timings(rounds, scaled=False)
    info = {
        "rounds": len(rounds),
        "latency_samples": raw.pop("latency_samples"),
        "latency_tail_percentile": raw.pop("latency_tail_percentile"),
        "failed_frac": sum(r.failed for r in rounds) / attempted,
        "round_s": [r.seconds for r in rounds],
        "round_ref_s": [r.scaled_seconds for r in rounds],
        "raw_seconds": {f"raw_{k}": v for k, v in raw.items()},
    }
    return {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END}, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "coverzeta").is_dir() or not GOLDENS.is_dir():
        print(f"error: no coverzeta sources under {SRC} or goldens under {GOLDENS}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _on_alarm)

    env = Env(args.workload, args.seed)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            env.setup()
            setups.append(perf_counter() - start)
        if env.workload == "census":
            env.census_rows = inputs.load_census_rows()
            install_row_clock(env)
        if check_goldens(env):
            return report(env, args, {}, {"attempted": len(EXAMPLES)}, None)
        rounds, tracer = measure(env, args.seconds, bool(args.trace))
        late = check_reports(env)
        metrics, info = end_to_end(rounds[False], statistics.median(setups))
        info["attempted"] = sum(r.attempted for r in rounds[False] + rounds[True])
        info["failed"] = sum(r.failed for r in rounds[False] + rounds[True]) + late
        if args.trace:
            traced, _ = end_to_end(rounds[True], 0.0)
            overhead = traced["wall_s"]["value"] - metrics["wall_s"]["value"]
            info["trace"] = {"untraced_wall_s": metrics["wall_s"]["value"], "traced_wall_s": traced["wall_s"]["value"],
                             "skipped_hooks": tracer.skipped}
            ops = sum(r.attempted for r in rounds[True])
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in tracer.metrics(ops, overhead).items()}
        return report(env, args, metrics, info, tracer)
    finally:
        shutil.rmtree(env.work, ignore_errors=True)


def report(env: Env, args, metrics: dict, info: dict, tracer) -> int:
    attempted = info.pop("attempted")
    failed = info.pop("failed", len(env.failures))
    record = {
        "workload": env.workload,
        "seed": env.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_sha256": env.input_hash(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "limit_s": LIMIT_S[env.workload],
        **info,
        "failures": env.failures,
    }
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{env.workload}-seed{env.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.dump(stem.with_suffix(".spans.json"))
    with open(stem.with_suffix(".json"), "w", encoding="utf-8") as fh:
        json.dump({**record, "metrics": metrics}, fh, indent=2)
    for f in env.failures[:20]:
        print(f"failed: {f}")
    if len(env.failures) > 20:
        print(f"failed: ... {len(env.failures) - 20} more in {stem.with_suffix('.json')}")
    for key in ("rounds", "latency_samples", "latency_tail_percentile", "failed_frac"):
        if key in record:
            print(f"{key:28} {record[key]}")
    for key, value in record.get("raw_seconds", {}).items():
        print(f"{key:28} {value:<14.6g} {'1/s' if key == 'raw_ops_per_s' else 's'}")
    for name, m in metrics.items():
        print(f"{name:28} {m['value']:<14.6g} {m['unit']}")
    print("record " + json.dumps({k: record[k] for k in ("input_sha256", "python", "nproc", "loadavg")}))
    correct = env.wrong == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
