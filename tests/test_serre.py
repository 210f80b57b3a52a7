import re
from collections import Counter

import pytest
from hypothesis import given, strategies as st

import coverzeta.serre as serre
from conftest import PAIR_READERS
from coverzeta import SerreGraph, VoltageSpec, bouquet, build_report, bundled_spec, derive
from reference import (
    DirectedEdge,
    adjacency_count,
    cycle_graph,
    directed_edges,
    edge,
    edges_from,
    euler_characteristic,
    laplacian_matrix,
    path_graph,
    valence,
)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            min_size=0,
            max_size=8,
        )
    )
    return SerreGraph(n, pairs)


def test_valence_bouquet_two_loops():
    g = bouquet(2)
    assert valence(g, 0) == 4


def test_valence_path_endpoints():
    g = path_graph(2)
    assert valence(g, 0) == 1
    assert valence(g, 1) == 1


def test_valence_worked_base_graph():
    base = bundled_spec("example2").base
    assert valence(base, 0) == 5  # one loop plus three edges
    assert valence(base, 1) == 3


def test_valence_unknown_vertex():
    with pytest.raises(ValueError):
        valence(bouquet(1), 3)


def test_adjacency_count_loops():
    g = bouquet(2)
    assert adjacency_count(g, 0, 0) == 4


def test_adjacency_count_parallel_edges():
    g = SerreGraph(2, [(0, 1), (0, 1), (0, 1)])
    assert adjacency_count(g, 1, 0) == 3
    assert adjacency_count(g, 0, 1) == 3


@given(small_graphs())
def test_adjacency_count_symmetric(g):
    for u in g.vertices:
        for v in g.vertices:
            assert adjacency_count(g, u, v) == adjacency_count(g, v, u)


@given(small_graphs())
def test_valence_sum_is_directed_edge_count(g):
    assert sum(valence(g, v) for v in g.vertices) == len(directed_edges(g))


@given(small_graphs())
def test_edge_inversion_is_fixed_point_free_involution(g):
    for e in directed_edges(g):
        back = edge(g, e.inverse_id)
        assert back.inverse_id == e.id
        assert back.id != e.id
        assert back.origin == e.terminus
        assert back.terminus == e.origin


def test_euler_characteristic_examples():
    assert euler_characteristic(bouquet(2)) == -1
    assert euler_characteristic(bundled_spec("example3").base) == -2
    for n in range(1, 6):
        assert euler_characteristic(path_graph(n)) == 1


@given(small_graphs(), st.randoms(use_true_random=False))
def test_euler_characteristic_relabel_invariant(g, rng):
    order = list(g.vertices)
    rng.shuffle(order)
    relabel = {v: i for i, v in enumerate(order)}
    h = SerreGraph(g.num_vertices, [(relabel[u], relabel[v]) for u, v in g.edge_pairs])
    assert euler_characteristic(h) == euler_characteristic(g)


def test_connectivity():
    assert bouquet(2).is_connected()
    two_loops_apart = SerreGraph(2, [(0, 0), (1, 1)])
    assert not two_loops_apart.is_connected()
    assert not SerreGraph(0, []).is_connected()


def test_laplacian_cycle():
    assert laplacian_matrix(cycle_graph(3)) == [
        [2, -1, -1],
        [-1, 2, -1],
        [-1, -1, 2],
    ]


def test_laplacian_bouquet_is_zero():
    assert laplacian_matrix(bouquet(2)) == [[0]]


@given(small_graphs())
def test_laplacian_zero_sums_and_symmetry(g):
    lap = laplacian_matrix(g)
    n = g.num_vertices
    for i in range(n):
        assert sum(lap[i]) == 0
        assert sum(lap[j][i] for j in range(n)) == 0
        for j in range(n):
            assert lap[i][j] == lap[j][i]


def sparse_equals_dense(g):
    """Whether g's sparse Laplacian rows hold exactly the nonzero entries
    of its dense Laplacian."""
    dense = laplacian_matrix(g)
    nonzero = [{j: x for j, x in enumerate(row) if x} for row in dense]
    return g.laplacian_rows() == nonzero


@given(small_graphs())
def test_laplacian_rows_match_the_dense_laplacian(g):
    assert sparse_equals_dense(g)


def test_laplacian_rows_of_loops_and_isolated_vertices():
    # Vertex 2 carries only loops, which cancel on its diagonal; vertex 3
    # is isolated.  Both rows are empty, and no zero is stored.
    g = SerreGraph(4, [(0, 1), (1, 1), (2, 2), (2, 2), (0, 1)])
    assert g.laplacian_rows() == [{0: 2, 1: -2}, {0: -2, 1: 2}, {}, {}]
    assert laplacian_matrix(g)[2] == [0, 0, 0, 0]
    assert sparse_equals_dense(g)
    assert bouquet(3).laplacian_rows() == [{}]


def eager_edges(g):
    """The directed edges as the constructor once built them for every
    graph: edge 2k over pair k and its inverse 2k + 1."""
    edges = []
    for k, (u, v) in enumerate(g.edge_pairs):
        edges += [DirectedEdge(2 * k, u, v, 2 * k + 1), DirectedEdge(2 * k + 1, v, u, 2 * k)]
    return edges


@given(small_graphs())
def test_directed_edges_equal_the_eager_list(g):
    eager = eager_edges(g)
    assert directed_edges(g) == tuple(eager)
    assert directed_edges(g) is directed_edges(g)  # built once and kept
    for w in g.vertices:
        assert edges_from(g, w) == tuple(e for e in eager if e.origin == w)
        assert valence(g, w) == sum(e.origin == w for e in eager)
        for w2 in g.vertices:
            assert adjacency_count(g, w, w2) == sum(e.origin == w2 and e.terminus == w for e in eager)
    assert all(edge(g, e.id) is e for e in directed_edges(g))
    # The rows read off the pairs hold their entries in the order of the
    # pass over the directed edges they replace.
    rows = [{} for _ in g.vertices]
    for e in eager:
        w, w2 = e.terminus, e.origin
        if w != w2:
            rows[w2][w2] = rows[w2].get(w2, 0) + 1
            rows[w][w2] = rows[w].get(w2, 0) - 1
    assert [list(row.items()) for row in g.laplacian_rows()] == [list(row.items()) for row in rows]


def test_report_path_builds_no_directed_edge(monkeypatch):
    # The graph module defines no directed edge.  A report reads each graph
    # through its pairs: every member it reads is a pair reader, the pairs
    # themselves are read, and a graph keeps nothing but the pairs, its
    # labels and the two answers a census shares (connectivity, Pic0).
    assert not hasattr(serre, "DirectedEdge")
    read = Counter()
    real = object.__getattribute__
    monkeypatch.setattr(
        SerreGraph, "__getattribute__", lambda g, name: read.update([name]) or real(g, name)
    )
    covers = [derive(bundled_spec(f"example{k}")) for k in range(1, 5)]
    assert all(build_report(cover).all_ok for cover in covers)
    monkeypatch.undo()
    assert read["_pairs"] and {name for name in read if not name.startswith("__")} <= PAIR_READERS
    kept = {"_n", "_pairs", "_labels", "_connected", "_picard_factors"}
    for cover in covers:
        assert set(vars(cover.total)) == set(vars(cover.base)) == kept
        # The reference builds the directed edges on request, two per pair,
        # and its dense Laplacian holds the rows read off the pairs.
        assert directed_edges(cover.total) == tuple(eager_edges(cover.total))
        assert len(directed_edges(cover.total)) == 2 * cover.total.num_undirected_edges
        assert sparse_equals_dense(cover.total)


def test_constructor_validation():
    with pytest.raises(ValueError):
        SerreGraph(1, [(0, 1)])
    with pytest.raises(ValueError):
        SerreGraph(2, [], labels=["a", "a"])
    with pytest.raises(ValueError):
        SerreGraph(2, [], labels=["a"])
    # Non-integer vertex counts and ends are refused, not truncated.
    for count in (2.7, 2.0, True):
        with pytest.raises(ValueError, match="vertex count"):
            SerreGraph(count, [])
    for pair in ((0, 1.5), (True, 0), (0, 1.0), (0, "1")):
        with pytest.raises(ValueError, match="not an integer"):
            SerreGraph(2, [pair])


def test_isolated_vertices_accepted():
    g = SerreGraph(3, [(0, 1)])
    assert valence(g, 2) == 0
    assert not g.is_connected()


def test_dot_escapes_quotes_and_backslashes_in_labels():
    # Unescaped, a"b gave "a"b" and c\ gave "c\", whose closing quote is escaped.
    labels = ['a"b', "c\\", 'd\\"']
    base = SerreGraph(3, [(0, 1), (1, 2), (2, 0)], labels=labels)
    cover = derive(VoltageSpec(base, 3, (1, 1, 2)))
    string = re.compile(r'"((?:[^"\\]|\\.)*)"')  # a quoted DOT string
    for text, names in (
        (base.to_dot("base"), labels),
        (cover.to_dot("cover"), [f"{n}:{s}" for n in labels for s in (1, 2)]),
    ):
        lines = text.splitlines()[1:-1]
        # Every quote is in a string, so the rest of each line is plain DOT.
        assert {string.sub("X", line) for line in lines} == {"  X;", "  X -- X;"}
        declared = [string.search(line).group(1) for line in lines[: len(names)]]
        assert [re.sub(r"\\(.)", r"\1", name) for name in declared] == names


def test_dot_output_is_deterministic():
    g = SerreGraph(2, [(0, 1), (1, 1)], labels=["a", "b"])
    expected = 'graph base {\n  "a";\n  "b";\n  "a" -- "b";\n  "b" -- "b";\n}\n'
    assert g.to_dot("base") == expected
    assert g.to_dot("base") == g.to_dot("base")
