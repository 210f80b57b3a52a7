import pytest
from hypothesis import given, strategies as st

import coverzeta.serre as serre
from coverzeta import SerreGraph, bouquet, bundled_spec, cycle_graph, derive, path_graph
from coverzeta.serre import DirectedEdge


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
    assert g.valence(0) == 4


def test_valence_path_endpoints():
    g = path_graph(2)
    assert g.valence(0) == 1
    assert g.valence(1) == 1


def test_valence_worked_base_graph():
    base = bundled_spec("example2").base
    assert base.valence(0) == 5  # one loop plus three edges
    assert base.valence(1) == 3


def test_valence_unknown_vertex():
    with pytest.raises(ValueError):
        bouquet(1).valence(3)


def test_adjacency_count_loops():
    g = bouquet(2)
    assert g.adjacency_count(0, 0) == 4


def test_adjacency_count_parallel_edges():
    g = SerreGraph(2, [(0, 1), (0, 1), (0, 1)])
    assert g.adjacency_count(1, 0) == 3
    assert g.adjacency_count(0, 1) == 3


@given(small_graphs())
def test_adjacency_count_symmetric(g):
    for u in g.vertices:
        for v in g.vertices:
            assert g.adjacency_count(u, v) == g.adjacency_count(v, u)


@given(small_graphs())
def test_valence_sum_is_directed_edge_count(g):
    assert sum(g.valence(v) for v in g.vertices) == len(g.directed_edges)


@given(small_graphs())
def test_edge_inversion_is_fixed_point_free_involution(g):
    for e in g.directed_edges:
        back = g.edge(e.inverse_id)
        assert back.inverse_id == e.id
        assert back.id != e.id
        assert back.origin == e.terminus
        assert back.terminus == e.origin


def test_euler_characteristic_examples():
    assert bouquet(2).euler_characteristic() == -1
    assert bundled_spec("example3").base.euler_characteristic() == -2
    for n in range(1, 6):
        assert path_graph(n).euler_characteristic() == 1


@given(small_graphs(), st.randoms(use_true_random=False))
def test_euler_characteristic_relabel_invariant(g, rng):
    order = list(g.vertices)
    rng.shuffle(order)
    relabel = {v: i for i, v in enumerate(order)}
    h = SerreGraph(g.num_vertices, [(relabel[u], relabel[v]) for u, v in g.edge_pairs])
    assert h.euler_characteristic() == g.euler_characteristic()


def test_connectivity():
    assert bouquet(2).is_connected()
    two_loops_apart = SerreGraph(2, [(0, 0), (1, 1)])
    assert not two_loops_apart.is_connected()
    assert not SerreGraph(0, []).is_connected()


def test_laplacian_cycle():
    assert cycle_graph(3).laplacian_matrix() == [
        [2, -1, -1],
        [-1, 2, -1],
        [-1, -1, 2],
    ]


def test_laplacian_bouquet_is_zero():
    assert bouquet(2).laplacian_matrix() == [[0]]


@given(small_graphs())
def test_laplacian_zero_sums_and_symmetry(g):
    lap = g.laplacian_matrix()
    n = g.num_vertices
    for i in range(n):
        assert sum(lap[i]) == 0
        assert sum(lap[j][i] for j in range(n)) == 0
        for j in range(n):
            assert lap[i][j] == lap[j][i]


def sparse_equals_dense(g):
    """Whether g's sparse Laplacian rows hold exactly the nonzero entries
    of its dense Laplacian."""
    dense = g.laplacian_matrix()
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
    assert g.laplacian_matrix()[2] == [0, 0, 0, 0]
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
    assert g.directed_edges == tuple(eager)
    assert g.directed_edges is g.directed_edges  # built once and kept
    for w in g.vertices:
        assert g.edges_from(w) == tuple(e for e in eager if e.origin == w)
        assert g.valence(w) == sum(e.origin == w for e in eager)
        for w2 in g.vertices:
            assert g.adjacency_count(w, w2) == sum(e.origin == w2 and e.terminus == w for e in eager)
    assert all(g.edge(e.id) is e for e in g.directed_edges)
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
    # A derived cover's connectivity search and Laplacian rows read its
    # pairs; the directed edges are built only when asked for.
    made = []
    monkeypatch.setattr(serre, "DirectedEdge", lambda *a: made.append(a) or DirectedEdge(*a))
    for name in ("example1", "example2", "example3", "example4"):
        cover = derive(bundled_spec(name))
        assert cover.is_connected()
        assert cover.total.laplacian_rows()
        assert not SerreGraph(2, [(0, 0), (1, 1)]).is_connected()
        assert made == []
        assert cover.total.directed_edges == tuple(eager_edges(cover.total))
        assert len(made) == 2 * cover.total.num_undirected_edges
        made.clear()


def test_constructor_validation():
    with pytest.raises(ValueError):
        SerreGraph(1, [(0, 1)])
    with pytest.raises(ValueError):
        SerreGraph(2, [], labels=["a", "a"])
    with pytest.raises(ValueError):
        SerreGraph(2, [], labels=["a"])


def test_isolated_vertices_accepted():
    g = SerreGraph(3, [(0, 1)])
    assert g.valence(2) == 0
    assert not g.is_connected()


def test_dot_output_is_deterministic():
    g = SerreGraph(2, [(0, 1), (1, 1)], labels=["a", "b"])
    expected = 'graph base {\n  "a";\n  "b";\n  "a" -- "b";\n  "b" -- "b";\n}\n'
    assert g.to_dot("base") == expected
    assert g.to_dot("base") == g.to_dot("base")
