"""Inputs of the coverzeta benchmark and the checks it makes on outputs.

Every cover a workload can run is generated here.  ``wide_base`` and
``deep_fiber`` covers live in ``pool.json``: ``record.py`` drew them once
from fixed generator seeds, ran each on the recorded commit, and stored the
report digest and time.  A run's ``--seed`` picks one fold of the pool (the
folds are dealt so that their recorded costs match) and an order within it.
The census base is generated from ``--seed`` directly: a relabelled theta
graph plus one loop, whose rows are checked against the canonical row table
in ``census_rows.json``.

Nothing here imports coverzeta.  The Matrix-Tree check rebuilds the derived
graph from the spec, so it shares no cover code with the program, and takes
the determinant routine as an argument.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

BENCH = Path(__file__).resolve().parent
POOL_FILE = BENCH / "pool.json"
CENSUS_FILE = BENCH / "census_rows.json"

FOLDS = 4
CENSUS_P = 7
# Theta graph (three parallel edges a-b) plus one loop at a.  Canonical edge
# order and orientation; variants permute, relabel and flip non-loop edges.
CENSUS_EDGES = (("a", "b"), ("a", "b"), ("a", "b"), ("a", "a"))
# Row fields that do not depend on labels, edge order or orientation.
CENSUS_INVARIANT_FIELDS = ("connected", "criterion_connected", "pic0", "vanishing", "verdicts")


def random_cover(rng: random.Random, p: int, n: int, extra: int) -> dict:
    """Spec dict of a random cover with a connected total graph.

    The base is a random spanning tree on n vertices plus ``extra`` random
    edges (loops allowed).  Voltages are redrawn only while the total graph
    is disconnected, which ``analyze`` rejects with exit code 3.
    """
    labels = [f"v{i}" for i in range(n)]
    pairs = [(rng.randrange(v), v) for v in range(1, n)]
    pairs += [(rng.randrange(n), rng.randrange(n)) for _ in range(extra)]
    while True:
        voltages = [rng.randint(1, p - 1) for _ in pairs]
        if total_connected(n, pairs, voltages, p):
            break
    return {
        "p": p,
        "vertices": labels,
        "edges": [
            {"from": labels[u], "to": labels[v], "voltage": a}
            for (u, v), a in zip(pairs, voltages)
        ],
    }


def total_edges(n: int, pairs, voltages, p: int) -> list[tuple[int, int]]:
    """Undirected edges of the derived graph; vertex (v, s) is v*(p-1)+s-1."""
    f = p - 1
    return [
        (u * f + s - 1, v * f + s * a % p - 1)
        for (u, v), a in zip(pairs, voltages)
        for s in range(1, p)
    ]


def total_connected(n: int, pairs, voltages, p: int) -> bool:
    size = n * (p - 1)
    parent = list(range(size))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in total_edges(n, pairs, voltages, p):
        parent[find(x)] = find(y)
    return len({find(x) for x in range(size)}) == 1


def base_pairs(doc: dict) -> tuple[int, list[tuple[int, int]]]:
    """Vertex count and edge index pairs of a spec or base dict."""
    index = {label: i for i, label in enumerate(doc["vertices"])}
    return len(index), [(index[e["from"]], index[e["to"]]) for e in doc["edges"]]


def spanning_trees(n: int, pairs, voltages, p: int, determinant) -> int:
    """Spanning-tree count of the derived graph (Matrix-Tree theorem)."""
    size = n * (p - 1)
    lap = [[0] * size for _ in range(size)]
    for x, y in total_edges(n, pairs, voltages, p):
        if x != y:
            lap[x][x] += 1
            lap[y][y] += 1
            lap[x][y] -= 1
            lap[y][x] -= 1
    return determinant([row[: size - 1] for row in lap[: size - 1]])


def report_problems(doc: dict, trees: int) -> list[str]:
    """Independent checks on one analyze report; empty when it passes."""
    problems = []
    statuses = [v["status"] for v in doc["global"].values()]
    statuses += [v["status"] for row in doc["rows"] for v in row["verdicts"].values()]
    if any(s not in ("PASS", "SKIPPED") for s in statuses):
        problems.append("a verdict is not PASS or SKIPPED")
    order = 1
    for d in doc["pic0"]:
        order *= d
    if order != trees:
        problems.append(f"prod(pic0) = {order} but the total graph has {trees} spanning trees")
    return problems


def load_pool() -> dict:
    with open(POOL_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def pool_selection(pool: dict, workload: str, seed: int) -> list[dict]:
    """One fold of the workload's pool, interleaved across strata.

    Strata are (p, n) pairs; consecutive covers come from different strata,
    so any prefix of the sequence has the fold's mix of sizes.
    """
    rng = random.Random(f"{workload}:{seed}")
    fold = seed % FOLDS
    covers = [c for c in pool[workload] if c["fold"] == fold or c["fold"] is None]
    strata: dict[tuple[int, int], list[dict]] = {}
    for c in covers:
        strata.setdefault((c["p"], c["n"]), []).append(c)
    keys = sorted(strata)
    for key in keys:
        rng.shuffle(strata[key])
    rng.shuffle(keys)
    out = []
    depth = max(len(v) for v in strata.values())
    for k in range(depth):
        out += [strata[key][k] for key in keys if k < len(strata[key])]
    return out


def census_variant(seed: int) -> dict:
    """Relabelled theta-plus-loop base and the budget of the first part.

    The seed draws the vertex labels, the edge order, the orientation of each
    non-loop edge and the first-part budget.  Returns the base spec, the edge
    permutation and flips that map variant edges back to the canonical ones,
    and the budget.
    """
    rng = random.Random(f"census:{seed}")
    names = rng.sample(["s", "t", "u", "w", "x", "y"], 2)
    label = {"a": names[0], "b": names[1]}
    # The loop vertex stays first: the vertex order fixes the Laplacian each
    # cover is reduced with, so every variant does the same arithmetic.
    vertices = [label["a"], label["b"]]
    order = list(range(len(CENSUS_EDGES)))
    rng.shuffle(order)  # order[j] = canonical edge shown at position j
    flips = [CENSUS_EDGES[c][0] != CENSUS_EDGES[c][1] and rng.random() < 0.5 for c in order]
    edges = []
    for c, flip in zip(order, flips):
        u, v = CENSUS_EDGES[c]
        if flip:
            u, v = v, u
        edges.append({"from": label[u], "to": label[v]})
    total = (CENSUS_P - 1) ** len(CENSUS_EDGES)
    return {
        "base": {"vertices": vertices, "edges": edges},
        "order": order,
        "flips": flips,
        "budget": rng.randrange(total // 4, 3 * total // 4),
        "total": total,
    }


def canonical_key(variant: dict, voltages: list[int]) -> str:
    canon = [0] * len(voltages)
    for j, (c, flip) in enumerate(zip(variant["order"], variant["flips"])):
        canon[c] = pow(voltages[j], -1, CENSUS_P) if flip else voltages[j]
    return ",".join(map(str, canon))


def row_digest(row: dict) -> str:
    body = {k: row[k] for k in CENSUS_INVARIANT_FIELDS}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()[:16]


def load_census_rows() -> dict[str, str]:
    with open(CENSUS_FILE, encoding="utf-8") as fh:
        return json.load(fh)["rows"]


def cover_trees(spec: dict, determinant) -> int:
    n, pairs = base_pairs(spec)
    voltages = [e["voltage"] for e in spec["edges"]]
    return spanning_trees(n, pairs, voltages, spec["p"], determinant)


def census_trees(variant: dict, voltages: list[int], determinant) -> int:
    n, pairs = base_pairs(variant["base"])
    return spanning_trees(n, pairs, voltages, CENSUS_P, determinant)
