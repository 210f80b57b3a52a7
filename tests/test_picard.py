import random
from itertools import product
from math import prod

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import bench_inputs, dense_tree_count, random_connected_base, random_connected_cover
from coverzeta import (
    Character,
    build_report,
    bundled_spec,
    CyclicGroup,
    VoltageSpec,
    derive,
    picard_factors,
    PicardModule,
)
from coverzeta.picard import _pic0, _reduce, _reduced
from coverzeta.serre import SerreGraph
from coverzeta.arith import VerificationError, p_part, p_valuation
from coverzeta.groupring import GroupRingElement
from coverzeta.snf import integer_determinant, prime_field, unit_pivots
from coverzeta.specfile import spec_from_dict
from coverzeta.zeta import equivariant_laplacian, eta_at_one
from reference import (
    ModPEchelon,
    annihilated_on_generators,
    character_value,
    cycle_graph,
    deck_act,
    group_element,
    idempotent_mod,
    laplacian_matrix,
    path_graph,
    ring_mul,
    ring_one,
    ring_sub,
    smith_normal_form,
)


def c6_over_c3_cover():
    # Degree-2 cover of the triangle: voltages (1, 1, 2) mod 3 unroll it
    # into a hexagon.
    return derive(VoltageSpec(cycle_graph(3), 3, (1, 1, 2)))


def sylow_factors(pm):
    """The invariant factors p^a of A."""
    return tuple(pm.p**a for a in pm.exponents if a)


def chi_of_g(pm, chi) -> int:
    """chi(g) mod p for the deck generator g, also for a lifted character."""
    return character_value(chi, pm.generator) % pm.p


def order_A(pm, chi) -> int:
    """#e_chi A: p to the sum of the layer ranks at chi(g)."""
    return pm.p ** sum(pm.layer_ranks(chi_of_g(pm, chi)))


def dim_C(pm, chi) -> int:
    """dim e_chi C: the first layer rank r_1 of A at chi(g), which the
    Picard module checks against the eigenspace of g on C."""
    ranks = pm.layer_ranks(chi_of_g(pm, chi))
    return ranks[0] if ranks else 0


def trivial_order_matches(pm, kappa_base) -> bool:
    """Order of the trivial-character piece of A against the p-part of the
    base graph's spanning tree count."""
    return order_A(pm, Character(CyclicGroup.for_prime(pm.p), 0, 1)) == p_part(kappa_base, pm.p)


def test_picard_factors_of_plain_graphs():
    assert picard_factors(cycle_graph(3)) == (3,)
    assert picard_factors(cycle_graph(6)) == (6,)
    assert picard_factors(path_graph(4)) == ()


def test_picard_factors_match_dense_smith_form():
    rng = random.Random(63)
    noncyclic = 0
    for _ in range(80):
        g = random_connected_base(rng, 8, 14)
        diagonal = smith_normal_form(laplacian_matrix(g)).diagonal
        assert diagonal.count(0) == 1
        factors = picard_factors(g)
        assert factors == tuple(d for d in diagonal if d > 1)
        noncyclic += len(factors) > 1
    assert noncyclic >= 5


def test_picard_module_first_example(ex1_cover):
    pm = PicardModule(ex1_cover)
    assert pm.factors == (3, 12)
    assert pm.order == 36


def test_picard_module_hexagon_cover():
    pm = PicardModule(c6_over_c3_cover())
    assert pm.factors == (6,)


def test_spanning_tree_counts(ex1_cover):
    assert dense_tree_count(cycle_graph(3)) == 3
    assert dense_tree_count(path_graph(5)) == 1
    assert dense_tree_count(ex1_cover.total) == 36


def test_spanning_tree_count_rejects_disconnected():
    with pytest.raises(ValueError):
        picard_factors(SerreGraph(2, [(0, 0), (1, 1)]))
    assert dense_tree_count(SerreGraph(2, [(0, 0), (1, 1)])) == 0


@pytest.mark.parametrize(
    "rows",
    [
        [{0: 1, 1: 2}, {0: 2, 1: 1}],  # symmetric, det -3
        [{0: 2, 1: -1, 2: -1}, {0: -1, 1: 2, 2: -3}, {0: -1, 1: -3, 2: 2}],  # det -20
        _reduced(SerreGraph(3, [(1, 2), (1, 1)]).laplacian_rows()),  # vertex 0 isolated
        _reduced(SerreGraph(4, [(0, 1), (2, 3), (0, 1)]).laplacian_rows()),  # two components
    ],
    ids=["indefinite_2x2", "indefinite_3x3", "isolated_vertex", "two_components"],
)
def test_tree_count_refuses_a_matrix_that_is_not_positive_definite(rows):
    with pytest.raises(VerificationError) as exc:
        _pic0(rows)
    assert exc.value.check == "picard.tree_count"


def test_order_matches_tree_count_randomly():
    rng = random.Random(20)
    for p in (3, 5):
        for _ in range(8):
            cover = random_connected_cover(rng, p)
            pm = PicardModule(cover)
            assert pm.order == dense_tree_count(cover.total)


def test_sylow_modules_of_examples(ex1_cover, ex2_cover, ex3_cover, ex4_cover):
    assert sylow_factors(PicardModule(ex1_cover)) == ()
    assert sylow_factors(PicardModule(ex2_cover)) == (5,)
    assert sylow_factors(PicardModule(ex3_cover)) == (121, 121)
    assert sylow_factors(PicardModule(ex4_cover)) == (11, 11, 11, 11)


def test_eigenspace_orders_trivial_module(ex1_cover):
    pm = PicardModule(ex1_cover)
    g = CyclicGroup.for_prime(5)
    for i in range(4):
        assert order_A(pm, Character(g, i, 2)) == 1


def test_eigenspace_orders_worked_examples(ex2_cover, ex3_cover):
    g5 = CyclicGroup.for_prime(5)
    pm2 = PicardModule(ex2_cover)
    assert order_A(pm2, Character(g5, 2, 3)) == 5
    g11 = CyclicGroup.for_prime(11)
    pm3 = PicardModule(ex3_cover)
    assert order_A(pm3, Character(g11, 1, 4)) == 121
    assert order_A(pm3, Character(g11, 9, 4)) == 121
    assert order_A(pm3, Character(g11, 2, 4)) == 1


def test_eigenspace_orders_multiply_to_module_order(ex3_cover, ex4_cover):
    for cover in (ex3_cover, ex4_cover):
        p = cover.p
        pm = PicardModule(cover)
        g = CyclicGroup.for_prime(p)
        orders = [order_A(pm, Character(g, i, max([1, *pm.exponents]))) for i in range(p - 1)]
        assert prod(orders) == prod(sylow_factors(pm))


def test_eigenspace_order_reads_only_chi_mod_p(ex3_cover):
    # A = Z/121 + Z/121: a character at precision 1 sees the whole
    # component, not only its p-torsion.
    pm = PicardModule(ex3_cover)
    g11 = CyclicGroup.for_prime(11)
    assert max(pm.exponents) == 2
    assert order_A(pm, Character(g11, 1, 1)) == 121
    for i in range(10):
        orders = {order_A(pm, Character(g11, i, k)) for k in (1, 2, 5)}
        assert len(orders) == 1


def test_elementary_quotient_dimensions(ex1_cover, ex2_cover, ex3_cover, ex4_cover):
    for cover in (ex1_cover, ex2_cover, ex3_cover, ex4_cover):
        pm = PicardModule(cover)
        p_divisible = sum(1 for d in pm.factors if d % cover.p == 0)
        assert len(pm.deck) == p_divisible


def span_mod(p, rows):
    """The pivots of the kernel over F_p on integer rows, read mod p."""
    return unit_pivots([{j: x % p for j, x in row.items()} for row in rows], prime_field(p))[4]


def quotient_span(cover):
    """The span mod p of the Laplacian columns and e_0, by the kernel over
    F_p on all N + 1 rows, and the basis e_v - e_0 of C at its free columns;
    the Picard module reads C from Pic0's first phase instead."""
    n = cover.total.num_vertices
    span = span_mod(cover.p, [{0: 1}, *cover.total.laplacian_rows()])
    pivots = {c for _, c, _ in span}
    free = [v for v in range(n) if v not in pivots]
    return (span, cover.p), [[int(w == v) - int(w == 0) for w in range(n)] for v in free]


def residual(span, divisor) -> dict[int, int]:
    """Residual mod p of a degree-zero divisor against the span of the
    Laplacian columns and e_0."""
    assert sum(divisor) == 0
    pivots, p = span
    return _reduce(pivots, dict(enumerate(divisor)), p)


def in_sublattice(span, divisor) -> bool:
    """Whether an integer degree-zero divisor lies in p*Div0 + Pr."""
    return not any(residual(span, divisor))


def test_elementary_quotient_membership(ex2_cover):
    span, basis = quotient_span(ex2_cover)
    assert len(basis) == len(PicardModule(ex2_cover).deck)
    n = ex2_cover.total.num_vertices
    p = ex2_cover.p
    lap = laplacian_matrix(ex2_cover.total)
    # Laplacian columns are principal divisors, hence in the sublattice.
    for j in range(n):
        assert in_sublattice(span, [lap[i][j] for i in range(n)])
    # p times any degree-zero vector lies in it as well.
    for j in range(1, n):
        vec = [0] * n
        vec[0], vec[j] = -p, p
        assert in_sublattice(span, vec)
    # Basis representatives are nonzero classes.
    for eps in basis:
        assert sum(eps) == 0
        assert not in_sublattice(span, eps)


def test_eigenspace_dims_worked_examples(ex1_cover, ex4_cover):
    g5 = CyclicGroup.for_prime(5)
    pm1 = PicardModule(ex1_cover)
    for i in range(1, 4):
        assert dim_C(pm1, Character(g5, i, 1)) == 0
    g11 = CyclicGroup.for_prime(11)
    pm4 = PicardModule(ex4_cover)
    assert dim_C(pm4, Character(g11, 3, 1)) == 2
    assert dim_C(pm4, Character(g11, 7, 1)) == 2
    assert dim_C(pm4, Character(g11, 1, 1)) == 0


def test_eigenspace_dims_sum_to_total(ex3_cover, ex4_cover):
    for cover in (ex3_cover, ex4_cover):
        p = cover.p
        g = CyclicGroup.for_prime(p)
        pm = PicardModule(cover)
        dims = [dim_C(pm, Character(g, i, 1)) for i in range(p - 1)]
        assert sum(dims) == len(pm.deck)


def dense_rank_mod(rows, p) -> int:
    """Rank over F_p of dense integer rows, by Gauss-Jordan elimination in
    column order."""
    m = [[x % p for x in row] for row in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][c], -1, p)
        m[rank] = [x * inv % p for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


@st.composite
def multigraph_laplacians(draw, max_vertices=8):
    """Laplacian rows of a multigraph with loops and parallel edges, not
    necessarily connected, and a prime."""
    n = draw(st.integers(1, max_vertices))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    pairs = draw(st.lists(pair, max_size=3 * n))
    pairs += [pairs[0]] * draw(st.integers(0, 2)) if pairs else []  # parallel edges
    pairs += [(v, v) for v in draw(st.lists(st.integers(0, n - 1), max_size=2))]  # loops
    rows = SerreGraph(n, pairs).laplacian_rows()
    if draw(st.booleans()):
        rows = [{0: 1}, *rows]  # the unit row the Picard module adds for C
    return n, rows, draw(st.sampled_from([2, 3, 5, 7, 11]))


@settings(max_examples=200, deadline=None)
@given(multigraph_laplacians(), st.data())
def test_mod_p_echelon_matches_dense_elimination(case, data):
    n, rows, p = case
    dense = [[row.get(j, 0) for j in range(n)] for row in rows]
    span = span_mod(p, rows)
    pivots = {c for _, c, _ in span}
    assert len(span) == dense_rank_mod(dense, p)
    # The unit vectors at the free columns complete the span to F_p^n.
    free = [j for j in range(n) if j not in pivots]
    units = [[int(j == k) for j in range(n)] for k in free]
    assert len(free) == n - len(span)
    assert dense_rank_mod(dense + units, p) == n
    vector = st.lists(st.integers(-2 * p, 2 * p), min_size=n, max_size=n)
    v, w = data.draw(vector), data.draw(vector)
    a, b = data.draw(st.integers(0, p - 1)), data.draw(st.integers(0, p - 1))
    rv, rw = _reduce(span, dict(enumerate(v)), p), _reduce(span, dict(enumerate(w)), p)
    combined = _reduce(span, {j: a * x + b * y for j, (x, y) in enumerate(zip(v, w))}, p)
    # Linear, zero at every pivot, and congruent to the vector modulo the span.
    for j in range(n):
        assert combined.get(j, 0) == (a * rv.get(j, 0) + b * rw.get(j, 0)) % p
    assert not set(rv) & pivots
    assert all(0 < x < p for x in rv.values())
    difference = [x - rv.get(j, 0) for j, x in enumerate(v)]
    assert dense_rank_mod(dense + [difference], p) == len(span)


@st.composite
def sparse_rows_mod(draw):
    """Random sparse rows on n columns at a prime p, n or n + 1 of them (the
    span of the Laplacian and e_0 has N + 1 rows on N columns), some of them
    empty, with entries already reduced mod p, zeros among them, and a
    vector to reduce."""
    p = draw(st.sampled_from([3, 5, 7, 23]))
    n = draw(st.integers(1, 8))
    entry = st.dictionaries(st.integers(0, n - 1), st.integers(0, p - 1), max_size=n)
    rows = draw(st.lists(entry, min_size=n, max_size=n + 1))
    return p, n, rows, draw(st.dictionaries(st.integers(0, n - 1), st.integers(-p, p)))


@settings(max_examples=300, deadline=None)
@given(sparse_rows_mod())
@example((3, 1, [{0: 2}], {0: 1}))
@example((5, 1, [{}, {0: 0}], {0: 4}))
@example((7, 2, [{}, {0: 3, 1: 1}, {1: 6}], {0: 1, 1: -1}))
def test_kernel_over_f_p_matches_the_scan_echelon(case):
    # The kernel picks its pivot rows from a heap, the reference by a scan
    # of every active row: the same pivot columns in the same order, so the
    # same rank, and the same residual for any vector.
    p, n, rows, vec = case
    span, ref = span_mod(p, rows), ModPEchelon(p, rows)
    assert [c for _, c, _ in span] == list(ref.pivots)
    assert len(span) == ref.rank
    for vec in (vec, {0: 1}, {j: j + 1 for j in range(n)}):
        assert _reduce(span, vec, p) == ref.reduce(vec)


def act_divisor(cover, elem, divisor) -> list[int]:
    """Apply a group-ring element to a divisor through the deck action."""
    out = [0] * cover.total.num_vertices
    for k, c in enumerate(elem.coeffs):
        if c:
            perm = cover.deck_vertex_map(elem.group.element(k))
            for w, x in enumerate(divisor):
                out[perm[w]] += c * x
    return out


def enumerated_fixed_points(cover, f_lift) -> int:
    """Reference count: try every combination of the basis classes of C."""
    p = cover.p
    span, basis = quotient_span(cover)
    residuals = []
    for eps in basis:
        defect = [a - b for a, b in zip(act_divisor(cover, f_lift, eps), eps)]
        residuals.append(residual(span, defect))
    support = set().union(*residuals)
    count = 0
    for lam in product(range(p), repeat=len(basis)):
        count += not any(sum(c * r.get(j, 0) for c, r in zip(lam, residuals)) % p for j in support)
    return count


def check_fixed_point_counts(cover, max_classes=None) -> int:
    """Compare the enumerated fixed points of each idempotent with p^dim of
    its piece of C, for every character of a cover; returns dim C, or None
    when C has more than ``max_classes`` classes."""
    p = cover.p
    pm = PicardModule(cover)
    if max_classes is not None and p ** len(pm.deck) > max_classes:
        return None
    g = CyclicGroup.for_prime(p)
    for i in range(p - 1):
        chi = Character(g, i, 1)
        count = enumerated_fixed_points(cover, idempotent_mod(chi, 1))
        assert count == p ** dim_C(pm, chi)
    return len(pm.deck)


def test_fixed_point_sweep_agrees_with_projector(ex1_cover, ex2_cover, ex3_cover, ex4_cover):
    for cover in (ex1_cover, ex2_cover, ex3_cover, ex4_cover):
        check_fixed_point_counts(cover)
    rng = random.Random(42)
    dims = [
        check_fixed_point_counts(random_connected_cover(rng, p), max_classes=10**4)
        for p in (3, 5, 7)
        for _ in range(12)
    ]
    assert sum(1 for d in dims if d) >= 8


def test_act_divisor_permutes_coordinates(ex1_cover):
    group = CyclicGroup.for_prime(5)
    elem = group_element(group, 2)
    vec = [1, 0, 0, 0]
    out = act_divisor(ex1_cover, elem, vec)
    assert sum(out) == 1
    assert out[deck_act(ex1_cover, 2, 0)] == 1


def _mat_mul(a, b, p):
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]


def _kernel_dim(mat, p) -> int:
    """Dimension of the kernel of a square matrix over F_p."""
    rows = [list(row) for row in mat]
    rank = 0
    for col in range(len(mat)):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for r in range(len(rows)):
            if r != rank and rows[r][col] % p:
                c = rows[r][col] * inv
                rows[r] = [(x - c * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return len(mat) - rank


def test_deck_matrix_on_C_is_diagonalizable(ex1_cover, ex2_cover, ex3_cover, ex4_cover):
    # The deck generator has order p - 1, prime to p: its matrix N on C has
    # N^(p-1) = I, and its eigenspaces, one per character, fill C.
    rng = random.Random(8)
    covers = [ex1_cover, ex2_cover, ex3_cover, ex4_cover]
    covers += [random_connected_cover(rng, p, 5, 9) for p in (3, 5, 7, 11, 13) for _ in range(8)]
    split = 0
    for cover in covers:
        p = cover.p
        pm = PicardModule(cover)
        n = len(pm.deck)
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        power = identity
        for _ in range(p - 1):
            power = _mat_mul(power, pm.deck, p)
        assert power == identity
        g = CyclicGroup.for_prime(p)
        dims = []
        for i in range(p - 1):
            lam = pow(pm.generator, i, p)
            shifted = [
                [x - lam * (j == k) for j, x in enumerate(row)] for k, row in enumerate(pm.deck)
            ]
            dims.append(_kernel_dim(shifted, p))
            assert dims[-1] == dim_C(pm, Character(g, i, 1))
        assert sum(dims) == n
        split += sum(1 for d in dims if d) > 1
    assert split >= 3


def test_trivial_character_check_examples(ex1_cover, ex3_cover):
    for cover in (ex3_cover, ex1_cover):
        pm = PicardModule(cover)
        assert trivial_order_matches(pm, dense_tree_count(cover.base))
    cover = c6_over_c3_cover()
    pm = PicardModule(cover)
    assert sylow_factors(pm) == (3,)
    assert trivial_order_matches(pm, dense_tree_count(cover.base))


def test_trivial_component_orders(ex3_cover):
    # The trivial-character component has the order of the p-part of the
    # base tree count: 2 spanning trees for this base, so trivial component.
    pm = PicardModule(ex3_cover)
    g11 = CyclicGroup.for_prime(11)
    assert dense_tree_count(ex3_cover.base) == 2
    assert order_A(pm, Character(g11, 0, 2)) == 1
    # For the hexagon cover the whole 3-part is the trivial component.
    cover = c6_over_c3_cover()
    pm3 = PicardModule(cover)
    g3 = CyclicGroup.for_prime(3)
    assert order_A(pm3, Character(g3, 0, 1)) == 3


class DensePicardReference:
    """The Picard module as the integer Smith form U L V = D of the whole
    Laplacian gives it.  The deck action of every unit tau is U Pi_tau U^-1
    on the torsion coordinates plus the free one, ``action`` is its torsion
    block at the generator, and an element annihilates coker L when that
    block vanishes modulo each row's factor (exactly on the free row)."""

    def __init__(self, cover):
        lap = laplacian_matrix(cover.total)
        dec = smith_normal_form(lap)
        self.full_diagonal = dec.diagonal
        torsion = [i for i, d in enumerate(dec.diagonal) if d > 1]
        self.support = support = torsion + [dec.diagonal.index(0)]
        self.left = dec.left
        self.factors = tuple(dec.diagonal[i] for i in torsion)
        self.support_factors = self.factors + (0,)
        self.blocks = {}
        for tau in range(1, cover.p):
            pre = [0] * len(lap)
            for w, image in enumerate(cover.deck_vertex_map(tau)):
                pre[image] = w
            u, uinv = dec.left, dec.left_inverse
            self.blocks[tau] = [
                [sum(x * uinv[pre[k]][j] for k, x in enumerate(u[i])) for j in support]
                for i in support
            ]
        r = len(torsion)
        self.generator = CyclicGroup.for_prime(cover.p).generator
        block = self.blocks[self.generator]
        self.action = tuple(
            tuple(block[i][j] % self.factors[i] for j in range(r)) for i in range(r)
        )

    def coordinates(self, divisor):
        """The coordinates U x of a divisor x at the torsion rows and the free row."""
        return [sum(u * x for u, x in zip(self.left[i], divisor)) for i in self.support]

    def annihilated_by(self, elem):
        if elem.augmentation() != 0:
            return False
        terms = [(c, self.blocks[elem.group.element(k)]) for k, c in enumerate(elem.coeffs) if c]
        size = len(self.support_factors)
        for i, d in enumerate(self.support_factors):
            for j in range(size):
                v = sum(c * block[i][j] for c, block in terms)
                if (v != 0) if d == 0 else (v % d != 0):
                    return False
        return True


def route_covers():
    """Examples 1-4 and 45 random covers at p in {3, 5, 7, 11, 13}."""
    rng = random.Random(61)
    covers = [derive(bundled_spec(f"example{k}")) for k in range(1, 5)]
    for p, count, size in ((3, 10, 4), (5, 10, 4), (7, 10, 4), (11, 8, 3), (13, 7, 3)):
        covers += [random_connected_cover(rng, p, size) for _ in range(count)]
    return covers


@pytest.fixture(scope="module")
def route_pairs():
    return [(cover, PicardModule(cover), DensePicardReference(cover)) for cover in route_covers()]


def test_modular_route_matches_dense_smith_form(route_pairs):
    assert len(route_pairs) >= 49
    for cover, pm, ref in route_pairs:
        assert pm.factors == ref.factors
        # The Smith diagonal of the whole Laplacian, as a failing report's diagnostics give it.
        ones = (1,) * (cover.total.num_vertices - 1 - len(pm.factors))
        assert ones + pm.factors + (0,) == ref.full_diagonal
        assert pm.order == dense_tree_count(cover.total)


def test_generator_powers_match_dense_transport(route_pairs):
    # tau = g^k acts on Pic0 by action^k, composed with row i modulo factor
    # i.  In the dense route's Smith coordinates, U Pi_tau U^-1 must send
    # each generator w_j of the modular route to sum_i (action^k)_ij w_i.
    checked = 0
    for cover, pm, ref in route_pairs:
        p, r = cover.p, len(pm.factors)
        coker = _pic0(_reduced(cover.total.laplacian_rows()))[1]
        gens = [list(w) + [-sum(w)] for w in coker.generators]
        coords = [ref.coordinates(w) for w in gens]
        power = [[int(i == j) for j in range(r)] for i in range(r)]
        for k in range(p - 1):
            block = ref.blocks[pow(pm.generator, k, p)]
            for j in range(r):
                moved = [sum(b * x for b, x in zip(row, coords[j])) for row in block]
                image = [sum(row[j] * x for row, x in zip(power, col)) for col in zip(*coords)]
                for d, a, b in zip(ref.support_factors, moved, image):
                    assert (a - b) % d == 0 if d else a == b
            power = [
                [sum(x * y for x, y in zip(row, col)) % d for col in zip(*power)]
                for d, row in zip(pm.factors, pm.action)
            ]
            checked += r > 1 and k > 0
    assert checked >= 100


def test_modular_route_gives_the_same_character_pieces(route_pairs):
    nontrivial = 0
    for cover, pm, ref in route_pairs:
        p = cover.p
        assert pm.exponents == tuple(p_valuation(d, p) for d in ref.factors)
        g = CyclicGroup.for_prime(p)
        for i in range(p - 1):
            lifted = Character(g, i, max([1, *pm.exponents]))
            lam = pow(pm.generator, i, p)
            assert order_A(pm, lifted) == p ** sum(dense_layer_ranks(ref, p, lam))
            ranks = pm.layer_ranks(lam)
            assert list(ranks) == dense_layer_ranks(ref, p, lam)
            nontrivial += bool(ranks) and ranks[0] > 0
    assert nontrivial >= 10


def annihilation_candidates(rng, eta, exponent):
    """eta(1), 1, and three rounds of: a random element of augmentation 0,
    a multiple of eta(1), and multiples of the exponent of Pic0."""
    group = eta.group
    m = group.order
    elems = [eta, ring_one(group)]
    for _ in range(3):
        coeffs = [rng.randint(-4, 4) for _ in range(m - 1)]
        x = GroupRingElement(group, tuple(coeffs + [-sum(coeffs)]))
        y = GroupRingElement(group, tuple(rng.randint(-3, 3) for _ in range(m)))
        sigma = group_element(group, group.element(rng.randrange(1, m)))
        elems += [
            x,
            ring_mul(eta, y),
            ring_mul(ring_sub(sigma, ring_one(group)), exponent),
            ring_mul(x, exponent),
        ]
    return elems


def test_annihilation_matches_dense_route(route_pairs):
    rng = random.Random(62)
    verdicts = set()
    for cover, pm, ref in route_pairs:
        eta = eta_at_one(cover, equivariant_laplacian(cover))
        exponent = ref.factors[-1] if ref.factors else 1
        for elem in annihilation_candidates(rng, eta, exponent):
            verdict = pm.annihilated_by(elem)
            assert verdict == ref.annihilated_by(elem)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_annihilation_on_fibres_matches_the_generator_route(route_pairs):
    # The benchmark's deep_fiber covers with the most invariant factors,
    # where the generator route reads the most: r = 29 and r = 23.
    pool = {c["id"]: c for c in bench_inputs().load_pool()["deep_fiber"]}
    ids = ("deep_fiber-p29-n3-6", "deep_fiber-p23-n3-0")
    heavy = [derive(spec_from_dict(pool[i]["spec"])) for i in ids]
    pairs = [(cover, pm) for cover, pm, _ in route_pairs] + [(c, PicardModule(c)) for c in heavy]
    assert [len(pm.factors) for _, pm in pairs[-2:]] == [29, 23]
    rng = random.Random(64)
    for covers in (pairs[:-2], pairs[-2:]):
        verdicts = set()
        for cover, pm in covers:
            eta = eta_at_one(cover, equivariant_laplacian(cover))
            exponent = pm.factors[-1] if pm.factors else 1
            for elem in annihilation_candidates(rng, eta, exponent):
                verdict = pm.annihilated_by(elem)
                assert verdict == annihilated_on_generators(pm, elem)
                verdicts.add(verdict)
        assert verdicts == {True, False}


def test_annihilation_reads_one_divisor_per_fibre(route_pairs, monkeypatch):
    read = []
    real = PicardModule._transport

    def transport(pm, terms, divisors=None):
        read.append(divisors)
        return real(pm, terms, divisors)

    monkeypatch.setattr(PicardModule, "_transport", transport)
    for cover, pm, _ in route_pairs:
        read.clear()
        assert pm.annihilated_by(eta_at_one(cover, equivariant_laplacian(cover)))
        fibres = [((u * cover.fiber_size, 1),) for u in cover.base.vertices]
        assert [list(divisors) for divisors in read] == [fibres]


def transport_per_form(pm, coker, terms):
    """Reference for ``PicardModule._transport`` on Pic0 = ``coker``: each
    form f, extended by 0 at the last vertex, reads each deck element tau on
    each generator w as the sum of w_v (f[tau(v)] - f[tau(last)]) over the
    support of w, and row 0 as f[tau(last)]; all unreduced."""
    last = pm.cover.total.num_vertices - 1
    perms = [(c, pm.cover.deck_vertex_map(tau)) for c, tau in terms]
    gens = [[(v, x) for v, x in enumerate(w) if x] for w in coker.generators]
    out = []
    for f in coker.forms:
        f = f + (0,)
        row = [0] * (len(gens) + 1)
        for c, perm in perms:
            shift = f[perm[last]]
            row[0] += c * shift
            for j, g in enumerate(gens, 1):
                row[j] += c * sum(x * (f[perm[v]] - shift) for v, x in g)
        out.append(row)
    return out


def test_transport_matches_the_per_form_reference(route_pairs):
    rng = random.Random(63)
    augmentations = set()
    for cover, pm, _ in route_pairs:
        group = CyclicGroup.for_prime(cover.p)
        m = group.order
        coker = _pic0(_reduced(cover.total.laplacian_rows()))[1]
        eta = eta_at_one(cover, equivariant_laplacian(cover))
        elems = [eta.coeffs, [int(k == 1) for k in range(m)]]
        for _ in range(3):
            coeffs = [rng.randint(-4, 4) for _ in range(m - 1)]
            elems += [coeffs + [-sum(coeffs)], [rng.randint(-3, 3) for _ in range(m)]]
        for coeffs in elems:
            terms = [(c, group.element(k)) for k, c in enumerate(coeffs) if c]
            assert pm._transport(terms) == transport_per_form(pm, coker, terms)
            augmentations.add(sum(coeffs) != 0)
    assert augmentations == {True, False}


def smith_index_order(pm, chi):
    """#e_chi A as #A over the index in Z^r of the lattice spanned by the
    projector columns mod p^k, for chi lifted to precision k, and the
    relations diag(p^a): the image of e_chi in A = Z^r / diag(p^a), on the
    p-power rows and columns of g's matrix on Pic0."""
    keep = [i for i, a in enumerate(pm.exponents) if a]
    if not keep:
        return 1
    factors = sylow_factors(pm)
    p, r, k = pm.p, len(keep), max(pm.exponents)
    modulus, order = p**k, prod(factors)
    action = [[pm.action[i][j] % modulus for j in keep] for i in keep]
    lifted = Character(chi.group, chi.exponent, k)
    # powers[k] is the matrix of g^k, the inverse of sigma = g^-k.
    powers = [[[int(i == j) for j in range(r)] for i in range(r)]]
    while len(powers) < p - 1:
        powers.append(_mat_mul(action, powers[-1], modulus))
    proj = [[0] * r for _ in range(r)]
    for k, mat in enumerate(powers):
        v = character_value(lifted, pow(pm.generator, -k, p))
        for i in range(r):
            for j in range(r):
                proj[i][j] += v * mat[i][j]
    inv = pow(p - 1, -1, modulus)
    aug = [
        [x * inv % modulus for x in row] + [factors[i] * (i == j) for j in range(r)]
        for i, row in enumerate(proj)
    ]
    index = prod(smith_normal_form(aug).diagonal)
    assert index and order % index == 0
    return order // index


@pytest.fixture(scope="module")
def layered_covers():
    """route_covers(), then random covers with up to 6 vertices and 10 edges at
    p in {3, 5, 7}: the first 20 whose A has mixed exponents, e.g. Z/3 + Z/9,
    and the first 20 whose A does not."""
    rng = random.Random(64)
    mixed, plain = [], []
    for draw in range(6000):
        cover = random_connected_cover(rng, (3, 5, 7)[draw % 3], 6, 10)
        # Mixed exponents need #A >= p^3; skip the module when the tree count rules that out.
        if len(plain) == 20 and p_valuation(dense_tree_count(cover.total), cover.p) < 3:
            continue
        pm = PicardModule(cover)
        kind = mixed if len(set(sylow_factors(pm))) > 1 else plain
        if len(kind) < 20:
            kind.append((cover, pm))
        if len(mixed) == 20 and len(plain) == 20:
            break
    assert len(mixed) == 20 and len(plain) == 20
    fixed = [(cover, PicardModule(cover)) for cover in route_covers()]
    return fixed + mixed + plain


def test_layer_ranks_match_smith_index(layered_covers):
    mixed = 0
    for cover, pm in layered_covers:
        g = CyclicGroup.for_prime(cover.p)
        mixed += len(set(sylow_factors(pm))) > 1
        for i in range(cover.p - 1):
            chi = Character(g, i, 1)
            assert order_A(pm, chi) == smith_index_order(pm, chi)
    assert mixed >= 20


def test_layer_ranks_partition_each_layer(layered_covers):
    # The idempotents sum to 1, so on each layer p^(j-1) A / p^j A the
    # character pieces split the generators of exponent at least j.
    for cover, pm in layered_covers:
        ranks = [pm.layer_ranks(pow(pm.generator, i, cover.p)) for i in range(cover.p - 1)]
        for j in range(1, max(pm.exponents, default=0) + 1):
            assert sum(r[j - 1] for r in ranks) == sum(a >= j for a in pm.exponents)
        if not sylow_factors(pm):
            assert ranks == [()] * (cover.p - 1)


@pytest.mark.parametrize("p, n", [(19, 4), (29, 2), (101, 3)])
def test_covers_past_the_dense_smith_form(p, n):
    # At these sizes the transforms of the dense Smith form of the whole
    # Laplacian reach tens of thousands of bits; kappa has under 400.  The
    # dense Bareiss determinant checks the sparse one behind the report.
    inputs = bench_inputs()
    doc = inputs.random_cover(random.Random(1), p, n, 3)
    report = build_report(derive(spec_from_dict(doc)))
    assert report.all_ok
    assert prod(report.pic0) == inputs.cover_trees(doc, integer_determinant)


def test_quotient_of_a_wide_ladder_cover():
    # p = 23 over a 24-vertex base, N = 528: a dense mod-p span took over a
    # second here.  dim C, from the span, matches the Sylow rank, from the
    # elimination modulo kappa.
    doc = bench_inputs().random_cover(random.Random(1), 23, 24, 3)
    report = build_report(derive(spec_from_dict(doc)))
    assert report.total_vertices == 528
    assert report.all_ok
    assert report.dim_C == len(report.sylow_factors)


def dense_layer_ranks(ref, p, lam):
    """Layer ranks of A at chi(g) = lam from the dense reference: on the
    Smith generators of exponent at least j, the lam-eigenspace of g's block."""
    exponents = [p_valuation(d, p) for d in ref.factors]
    ranks = []
    for j in range(1, max(exponents, default=0) + 1):
        layer = [i for i, a in enumerate(exponents) if a >= j]
        shifted = [[ref.action[i][k] - lam * (i == k) for k in layer] for i in layer]
        ranks.append(len(layer) - dense_rank_mod(shifted, p))
    return ranks


def test_report_picard_numbers_match_the_dense_reference(layered_covers):
    # Examples 1-4, random covers and covers whose A has mixed exponents: the
    # report's Sylow factors, dim C, each row's dimC and orderA, and the
    # trivial_character and order_product verdicts, against the dense Smith
    # form of the whole Laplacian and g's matrix from it.
    for cover, _ in layered_covers:
        p = cover.p
        ref = DensePicardReference(cover)
        report = build_report(cover)
        sylow = tuple(p ** p_valuation(d, p) for d in ref.factors if d % p == 0)
        assert report.sylow_factors == sylow
        assert report.dim_C == len(sylow)
        orders = []
        for row in report.rows:
            ranks = dense_layer_ranks(ref, p, pow(ref.generator, row["i"], p))
            assert row["dimC"] == (ranks[0] if ranks else 0)
            assert row["orderA"] == p ** sum(ranks)
            orders.append(row["orderA"])
        kappa_part = p ** p_valuation(dense_tree_count(cover.base), p)
        trivial = p ** sum(dense_layer_ranks(ref, p, 1)) == kappa_part
        verdicts = report.global_verdicts
        assert (verdicts["trivial_character"].status == "PASS") == trivial
        product = prod(orders) * kappa_part == prod(sylow)
        assert (verdicts["order_product"].status == "PASS") == product
