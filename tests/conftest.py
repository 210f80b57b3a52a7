import importlib.util
import pathlib
import random

import pytest

from coverzeta import GroupRingElement, SerreGraph, VoltageSpec, bundled_spec, derive
from coverzeta.snf import integer_determinant
from reference import laplacian_matrix

ROOT = pathlib.Path(__file__).resolve().parent.parent

# The members of SerreGraph that reports and censuses read: the vertex count,
# the labels and the edge pairs, and what is computed from the pairs alone.
PAIR_READERS = frozenset({
    "_n", "_pairs", "_labels", "_connected", "_picard_factors", "num_vertices", "vertices",
    "label_of", "edge_pairs", "num_undirected_edges", "is_connected",
    "_reaches_every_vertex", "laplacian_rows",
})


def bench_inputs():
    """The benchmark's input generators (bench/inputs.py), loaded by path."""
    spec = importlib.util.spec_from_file_location("bench_inputs", ROOT / "bench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def ex1_cover():
    return derive(bundled_spec("example1"))


@pytest.fixture(scope="session")
def ex2_cover():
    return derive(bundled_spec("example2"))


@pytest.fixture(scope="session")
def ex3_cover():
    return derive(bundled_spec("example3"))


@pytest.fixture(scope="session")
def ex4_cover():
    return derive(bundled_spec("example4"))


def random_connected_base(rng: random.Random, max_vertices=4, max_edges=6) -> SerreGraph:
    """Random connected multigraph: a spanning tree plus extra edges/loops."""
    n = rng.randint(1, max_vertices)
    pairs = [(rng.randrange(v), v) for v in range(1, n)]
    extra_cap = max_edges - len(pairs)
    lo = 1 if n == 1 else 0
    for _ in range(rng.randint(lo, max(extra_cap, lo))):
        pairs.append((rng.randrange(n), rng.randrange(n)))
    return SerreGraph(n, pairs)


def random_connected_cover(rng: random.Random, p: int, max_vertices=4, max_edges=6):
    """Rejection-sample a voltage cover whose total graph is connected."""
    while True:
        base = random_connected_base(rng, max_vertices, max_edges)
        if base.num_undirected_edges == 0:
            continue
        voltages = tuple(rng.randint(1, p - 1) for _ in base.edge_pairs)
        spec = VoltageSpec(base, p, voltages)
        cover = derive(spec)
        if cover.is_connected():
            return cover


def dense_tree_count(g: SerreGraph) -> int:
    """Matrix-Tree count by the dense Bareiss determinant of the reduced
    Laplacian, independent of the sparse determinant the library uses."""
    return integer_determinant([row[:-1] for row in laplacian_matrix(g)[:-1]])


def evaluate_matrix(group, rows, chi):
    """Entrywise character values, as a dense matrix, of a square matrix over
    Z[G] given as sparse rows {column: coefficient vector}."""
    zero = (0,) * group.order
    return [
        [GroupRingElement(group, row.get(j, zero)).evaluate(chi) for j in range(len(rows))]
        for row in rows
    ]
