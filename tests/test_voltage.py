import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_connected_base, random_connected_cover
from coverzeta import (
    DisconnectedCover,
    SerreGraph,
    VoltageSpec,
    bouquet,
    bundled_spec,
    connected_by_voltage_criterion,
    cycle_voltage_subgroup,
    derive,
    picard_factors,
    require_connected_cover,
    spanning_tree_count,
)
from coverzeta.voltage import gauge
from reference import smith_normal_form


def test_derive_sizes_first_example(ex1_cover):
    assert ex1_cover.total.num_vertices == 4
    assert ex1_cover.total.num_undirected_edges == 8


def test_derive_sizes_third_example(ex3_cover):
    assert ex3_cover.total.num_vertices == 20
    assert ex3_cover.total.num_undirected_edges == 40


def test_trivial_voltages_give_disjoint_copies():
    base = bouquet(2)
    cover = derive(VoltageSpec(base, 5, (1, 1)))
    # Four components: the Laplacian's corank, which PicardModule relies on,
    # counts them.
    assert smith_normal_form(cover.total.laplacian_matrix()).diagonal.count(0) == 4
    assert cover.total.num_undirected_edges == 4 * base.num_undirected_edges
    with pytest.raises(DisconnectedCover):
        require_connected_cover(cover)


def test_bouquet_order4_voltages_give_doubled_cycle():
    # Both loop voltages of multiplicative order 4 trace out the same
    # 4-cycle on the fiber, so every edge of that cycle is doubled.
    cover = derive(VoltageSpec(bouquet(2), 5, (2, 3)))
    idx = {s: cover.vertex_at(0, s) for s in (1, 2, 3, 4)}
    for a, b in [(1, 2), (2, 4), (4, 3), (3, 1)]:
        assert cover.total.adjacency_count(idx[a], idx[b]) == 2
    for a, b in [(1, 4), (2, 3)]:
        assert cover.total.adjacency_count(idx[a], idx[b]) == 0
    assert spanning_tree_count(cover.total) == 32
    assert picard_factors(cover.total) == (2, 2, 8)


def test_derive_rejects_disconnected_base():
    base = SerreGraph(2, [(0, 0), (1, 1)])
    with pytest.raises(ValueError):
        derive(VoltageSpec(base, 5, (2, 2)))


def test_voltage_validation():
    with pytest.raises(ValueError):
        VoltageSpec(bouquet(1), 5, (0,))
    with pytest.raises(ValueError):
        VoltageSpec(bouquet(1), 5, (5,))
    with pytest.raises(ValueError):
        VoltageSpec(bouquet(2), 5, (2,))
    with pytest.raises(ValueError):
        VoltageSpec(bouquet(1), 9, (2,))


def test_reverse_orientation_carries_inverse_voltage():
    spec = VoltageSpec(bouquet(1), 7, (3,))
    assert spec.voltage(0) == 3
    assert spec.voltage(1) == 5  # 3 * 5 = 15 = 1 mod 7


def test_connected_single_loop_cover_is_cycle():
    cover = require_connected_cover(derive(VoltageSpec(bouquet(1), 5, (2,))))
    assert cover.total.num_vertices == 4
    assert all(cover.total.valence(w) == 2 for w in cover.total.vertices)
    assert cover.total.is_connected()


def test_second_example_cover_is_connected(ex2_cover):
    assert require_connected_cover(ex2_cover) is ex2_cover


def test_deck_action_identity_and_order(ex1_cover):
    for w in ex1_cover.total.vertices:
        assert ex1_cover.deck_act(1, w) == w
    w = 0
    for _ in range(4):
        w = ex1_cover.deck_act(2, w)
    assert w == 0  # 2 has order 4 in the units mod 5


@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 3))
def test_deck_action_composes(tau1, tau2, w):
    cover = derive(bundled_spec("example1"))
    lhs = cover.deck_act(tau1, cover.deck_act(tau2, w))
    rhs = cover.deck_act(tau1 * tau2 % 5, w)
    assert lhs == rhs


def test_deck_action_free_on_fibers(ex2_cover):
    for tau in range(2, 5):
        for w in ex2_cover.total.vertices:
            assert ex2_cover.deck_act(tau, w) != w


def test_deck_action_is_graph_automorphism(ex2_cover):
    g = ex2_cover.total
    for tau in range(1, 5):
        perm = ex2_cover.deck_vertex_map(tau)
        for u in g.vertices:
            for v in g.vertices:
                assert g.adjacency_count(perm[u], perm[v]) == g.adjacency_count(u, v)


def test_deck_maps_rotate_fibers_as_deck_act():
    # The maps are built by rotating each fiber; deck_act reads one vertex
    # through its fiber coordinates.
    rng = random.Random(17)
    covers = [derive(bundled_spec(f"example{k}")) for k in range(1, 5)]
    covers += [random_connected_cover(rng, p) for p in (3, 5, 7, 11, 13, 29) for _ in range(3)]
    for cover in covers:
        vertices = cover.total.vertices
        for tau in range(1, 2 * cover.p):
            if tau % cover.p:
                assert cover.deck_vertex_map(tau) == tuple(cover.deck_act(tau, w) for w in vertices)
        with pytest.raises(ValueError):
            cover.deck_vertex_map(cover.p)


def test_transversal_is_unit_section(ex2_cover):
    trans = ex2_cover.base_transversal()
    assert len(trans) == ex2_cover.base.num_vertices
    for v, w in enumerate(trans):
        assert ex2_cover.fiber_coords(w) == (v, 1)


def test_projection_preserves_valence(ex3_cover):
    for w in ex3_cover.total.vertices:
        v = ex3_cover.projection(w)
        assert ex3_cover.total.valence(w) == ex3_cover.base.valence(v)


def test_fiber_size_and_coordinates(ex1_cover):
    assert ex1_cover.fiber_size == 4
    for w in ex1_cover.total.vertices:
        v, s = ex1_cover.fiber_coords(w)
        assert ex1_cover.vertex_at(v, s) == w


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from([3, 5, 7]))
def test_subgroup_criterion_matches_bfs(seed, p):
    rng = random.Random(seed)
    base = random_connected_base(rng)
    if base.num_undirected_edges == 0:
        return
    voltages = tuple(rng.randint(1, p - 1) for _ in base.edge_pairs)
    spec = VoltageSpec(base, p, voltages)
    cover = derive(spec)
    assert connected_by_voltage_criterion(p, gauge(spec)[1]) == cover.is_connected()


def test_subgroup_criterion_values():
    spec = VoltageSpec(bouquet(2), 5, (2, 4))
    assert cycle_voltage_subgroup(5, gauge(spec)[1]) == frozenset({1, 2, 3, 4})
    spec_trivial = VoltageSpec(bouquet(2), 5, (1, 1))
    assert cycle_voltage_subgroup(5, gauge(spec_trivial)[1]) == frozenset({1})
    spec_half = VoltageSpec(bouquet(1), 5, (4,))
    assert cycle_voltage_subgroup(5, gauge(spec_half)[1]) == frozenset({1, 4})
    assert not connected_by_voltage_criterion(5, gauge(spec_half)[1])
