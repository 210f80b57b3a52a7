import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import dense_tree_count, random_connected_base, random_connected_cover
from coverzeta import (
    CyclicGroup,
    DisconnectedCover,
    PAdicInt,
    SerreGraph,
    VoltageSpec,
    bouquet,
    bundled_spec,
    connected_by_voltage_criterion,
    derive,
    is_odd_prime,
    picard_factors,
    require_connected_cover,
    teichmuller,
)
from coverzeta.census import run_census
from coverzeta.voltage import MAX_COVER_VERTICES, gauge
from reference import (
    adjacency_count,
    base_transversal,
    cycle_voltage_subgroup,
    deck_act,
    edge_voltage,
    edges_from,
    fiber_coords,
    laplacian_matrix,
    projection,
    smith_normal_form,
    valence,
    vertex_at,
)


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
    assert smith_normal_form(laplacian_matrix(cover.total)).diagonal.count(0) == 4
    assert cover.total.num_undirected_edges == 4 * base.num_undirected_edges
    with pytest.raises(DisconnectedCover):
        require_connected_cover(cover)


def test_bouquet_order4_voltages_give_doubled_cycle():
    # Both loop voltages of multiplicative order 4 trace out the same
    # 4-cycle on the fiber, so every edge of that cycle is doubled.
    cover = derive(VoltageSpec(bouquet(2), 5, (2, 3)))
    idx = {s: vertex_at(cover, 0, s) for s in (1, 2, 3, 4)}
    for a, b in [(1, 2), (2, 4), (4, 3), (3, 1)]:
        assert adjacency_count(cover.total, idx[a], idx[b]) == 2
    for a, b in [(1, 4), (2, 3)]:
        assert adjacency_count(cover.total, idx[a], idx[b]) == 0
    assert dense_tree_count(cover.total) == 32
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
    assert edge_voltage(spec, 0) == 3
    assert edge_voltage(spec, 1) == 5  # 3 * 5 = 15 = 1 mod 7


@pytest.mark.parametrize("voltage", [2.7, 2.0, True, "2"])
def test_voltages_must_be_integers(voltage):
    # int() would store 2.7 as 2 and True as 1; a voltage is a JSON integer.
    with pytest.raises(ValueError, match="is not an integer"):
        VoltageSpec(bouquet(1), 5, (voltage,))
    assert VoltageSpec(bouquet(1), 5, [2]).voltages == (2,)


def _trial_division(n):
    return n > 2 and n % 2 == 1 and all(n % d for d in range(3, math.isqrt(n) + 1, 2))


def test_primality_agrees_with_trial_division():
    assert [n for n in range(-3, 10**5) if is_odd_prime(n)] == [
        n for n in range(-3, 10**5) if _trial_division(n)
    ]
    # Above the trial-division range, Miller-Rabin: primes and products of
    # two primes either side of 2^20.
    rng = random.Random(7)
    for n in [rng.randrange(1 << 20, 1 << 24) | 1 for _ in range(500)] + [1048573 * 1048583]:
        assert is_odd_prime(n) == _trial_division(n), n


@pytest.mark.parametrize(
    "n, prime",
    [
        (3215031751, False),  # a strong pseudoprime to the bases 2, 3, 5 and 7
        (3825123056546413051, False),  # ... to the first nine prime bases
        (2**61 - 1, True),
        (2**89 - 1, True),
        ((2**61 - 1) * (2**31 - 1), False),
    ],
)
def test_primality_of_large_integers(n, prime):
    assert is_odd_prime(n) is prime


def test_cover_size_limit_names_the_size():
    # n (p - 1) vertices: at the limit a spec is accepted, above it refused
    # before the prime test, so even a prime of thousands of digits is
    # answered at once.
    limit = MAX_COVER_VERTICES
    assert limit >= 10**5
    VoltageSpec(SerreGraph(limit // 4, []), 5, ())
    with pytest.raises(ValueError, match=f"x 4 = {limit + 4} vertices"):
        VoltageSpec(SerreGraph(limit // 4 + 1, []), 5, ())
    huge = 2**61 - 1
    with pytest.raises(ValueError, match=f"would have 1 x {huge - 1} = {huge - 1} vertices"):
        VoltageSpec(bouquet(1), huge, (2,))
    with pytest.raises(ValueError, match="vertices, more than the limit"):
        VoltageSpec(bouquet(1), 10**4000 + 1, (2,))


@pytest.mark.parametrize("p", [5.0, True, "5"])
def test_primes_must_be_integers(p, tmp_path):
    # 5.0 passed as prime, and derive, a p-adic value or a census then failed
    # with TypeError (the census after creating its output file) or stored 7.0.
    # The cached builders hold an entry at 5 that 5.0 must not be read from.
    assert not is_odd_prime(p)
    assert teichmuller(2, 5, 3) and CyclicGroup.for_prime(5).generator == 2
    for build in (
        lambda: VoltageSpec(bouquet(2), p, (1, 2)),
        lambda: CyclicGroup(p, 2),
        lambda: CyclicGroup.for_prime(p),
        lambda: PAdicInt(p, 2, 7),
        lambda: teichmuller(2, p, 3),
    ):
        with pytest.raises(ValueError, match="odd prime"):
            build()
    out = tmp_path / "census.ndjson"
    with pytest.raises(ValueError, match="must be an odd prime"):
        run_census(bouquet(2), p, str(out))
    assert not out.exists()


def test_connected_single_loop_cover_is_cycle():
    cover = require_connected_cover(derive(VoltageSpec(bouquet(1), 5, (2,))))
    assert cover.total.num_vertices == 4
    assert all(valence(cover.total, w) == 2 for w in cover.total.vertices)
    assert cover.total.is_connected()


def test_second_example_cover_is_connected(ex2_cover):
    assert require_connected_cover(ex2_cover) is ex2_cover


def test_deck_action_identity_and_order(ex1_cover):
    for w in ex1_cover.total.vertices:
        assert deck_act(ex1_cover, 1, w) == w
    w = 0
    for _ in range(4):
        w = deck_act(ex1_cover, 2, w)
    assert w == 0  # 2 has order 4 in the units mod 5


@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 3))
def test_deck_action_composes(tau1, tau2, w):
    cover = derive(bundled_spec("example1"))
    lhs = deck_act(cover, tau1, deck_act(cover, tau2, w))
    rhs = deck_act(cover, tau1 * tau2 % 5, w)
    assert lhs == rhs


def test_deck_action_free_on_fibers(ex2_cover):
    for tau in range(2, 5):
        for w in ex2_cover.total.vertices:
            assert deck_act(ex2_cover, tau, w) != w


def test_deck_action_is_graph_automorphism(ex2_cover):
    g = ex2_cover.total
    for tau in range(1, 5):
        perm = ex2_cover.deck_vertex_map(tau)
        for u in g.vertices:
            for v in g.vertices:
                assert adjacency_count(g, perm[u], perm[v]) == adjacency_count(g, u, v)


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
                assert cover.deck_vertex_map(tau) == tuple(deck_act(cover, tau, w) for w in vertices)
        with pytest.raises(ValueError):
            cover.deck_vertex_map(cover.p)


def test_transversal_is_unit_section(ex2_cover):
    trans = base_transversal(ex2_cover)
    assert len(trans) == ex2_cover.base.num_vertices
    for v, w in enumerate(trans):
        assert fiber_coords(ex2_cover, w) == (v, 1)


def test_projection_preserves_valence(ex3_cover):
    for w in ex3_cover.total.vertices:
        v = projection(ex3_cover, w)
        assert valence(ex3_cover.total, w) == valence(ex3_cover.base, v)


def test_fiber_size_and_coordinates(ex1_cover):
    assert ex1_cover.fiber_size == 4
    for w in ex1_cover.total.vertices:
        v, s = fiber_coords(ex1_cover, w)
        assert vertex_at(ex1_cover, v, s) == w


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


ODD_PRIMES_BELOW_100 = [p for p in range(3, 100, 2) if all(p % d for d in range(3, p, 2))]


@st.composite
def gauge_fixed_voltages(draw):
    """An odd prime below 100 and a tuple of units mod it: the empty tuple,
    all ones, or units drawn from a few, so that they repeat."""
    p = draw(st.sampled_from(ODD_PRIMES_BELOW_100))
    size = draw(st.integers(0, 6))
    kind = draw(st.sampled_from(["any", "ones", "repeated"]))
    if kind == "ones":
        return p, (1,) * size
    units = st.integers(1, p - 1)
    if kind == "repeated":
        units = st.sampled_from(draw(st.lists(units, min_size=1, max_size=2)))
    return p, tuple(draw(st.lists(units, min_size=size, max_size=size)))


@settings(max_examples=400, deadline=None)
@given(gauge_fixed_voltages())
def test_criterion_by_logarithms_matches_the_generated_subgroup(case):
    # The gcd of the voltages' discrete logarithms with p - 1 against the
    # subgroup that the reference builds element by element.
    p, fixed = case
    assert connected_by_voltage_criterion(p, fixed) == (
        len(cycle_voltage_subgroup(p, fixed)) == p - 1
    )


def test_criterion_edge_cases():
    for p in ODD_PRIMES_BELOW_100:
        assert not connected_by_voltage_criterion(p, ())
        assert not connected_by_voltage_criterion(p, (1, 1, 1))
        assert connected_by_voltage_criterion(p, (1, CyclicGroup.for_prime(p).generator))
        assert connected_by_voltage_criterion(p, (p - 1,)) == (p == 3)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from([3, 5, 7, 11, 13]))
def test_derived_pairs_are_those_a_validating_graph_stores(seed, p):
    # Derived covers store their pairs unchecked; the checking constructor,
    # given the same pairs, must accept them and store the same tuple.
    rng = random.Random(seed)
    base = random_connected_base(rng, 5, 9)
    cover = derive(VoltageSpec(base, p, tuple(rng.randint(1, p - 1) for _ in base.edge_pairs)))
    checked = SerreGraph(cover.total.num_vertices, list(cover.total.edge_pairs))
    assert type(cover.total.edge_pairs) is tuple
    assert cover.total.edge_pairs == checked.edge_pairs
    assert cover.total.num_vertices == checked.num_vertices == base.num_vertices * (p - 1)
    assert vars(cover.total) == vars(checked)


def test_subgroup_criterion_values():
    spec = VoltageSpec(bouquet(2), 5, (2, 4))
    assert cycle_voltage_subgroup(5, gauge(spec)[1]) == frozenset({1, 2, 3, 4})
    spec_trivial = VoltageSpec(bouquet(2), 5, (1, 1))
    assert cycle_voltage_subgroup(5, gauge(spec_trivial)[1]) == frozenset({1})
    spec_half = VoltageSpec(bouquet(1), 5, (4,))
    assert cycle_voltage_subgroup(5, gauge(spec_half)[1]) == frozenset({1, 4})
    assert not connected_by_voltage_criterion(5, gauge(spec_half)[1])


def directed_edge_gauge(spec):
    """The potentials of ``gauge`` by the depth-first search over the
    directed edges, each vertex's out-edges in edge order: edge 2k out of u,
    then 2k + 1 out of v, for pair k = (u, v)."""
    p = spec.p
    potential = [None] * spec.base.num_vertices
    potential[0] = 1
    stack = [0]
    while stack:
        w = stack.pop()
        for e in edges_from(spec.base, w):
            if potential[e.terminus] is None:
                potential[e.terminus] = potential[w] * edge_voltage(spec, e.id) % p
                stack.append(e.terminus)
    return potential


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from([3, 5, 7, 11]))
def test_gauge_visits_the_pairs_in_directed_edge_order(seed, p):
    # The search over the pairs grows the same spanning tree, so the same
    # potentials and gauge-fixed voltages name each switching class.
    rng = random.Random(seed)
    base = random_connected_base(rng, 5, 9)
    spec = VoltageSpec(base, p, tuple(rng.randint(1, p - 1) for _ in base.edge_pairs))
    potential, fixed = gauge(spec)
    assert potential == directed_edge_gauge(spec)
    for (u, v), a, b in zip(base.edge_pairs, spec.voltages, fixed):
        assert b == potential[u] * a * pow(potential[v], -1, p) % p
