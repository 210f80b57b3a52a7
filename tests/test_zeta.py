import random
from fractions import Fraction
from math import gcd, prod

import pytest

from conftest import evaluate_matrix, random_connected_cover
from coverzeta import (
    Character,
    CyclicGroup,
    GroupRingElement,
    VoltageSpec,
    bouquet,
    derive,
    duality_check,
    equivariant_laplacian,
    eta_at_one,
    l_value,
    PAdicInt,
    PicardModule,
)
from coverzeta.groupring import berkowitz
from coverzeta.snf import integer_determinant
from coverzeta.zeta import cyclotomic, orbit_norms
from reference import (
    _int_poly_det,
    contragredient,
    cycle_graph,
    directed_edges,
    edges_from,
    equivariant_adjacency,
    eta_polynomial,
    euler_characteristic,
    fiber_coords,
    laplacian_matrix,
    path_graph,
    ring_add,
    ring_mul,
    ring_one,
    truncated_convolution,
    valence,
)


def brute_force_closed_reduced_paths(g, max_length):
    """Count closed edge sequences with no backtracking, by explicit search."""
    edges = directed_edges(g)
    counts = []
    for m in range(1, max_length + 1):
        total = 0
        stack = [(e, e, 1) for e in edges]
        while stack:
            first, last, length = stack.pop()
            if length == m:
                if last.terminus == first.origin and first.id != last.inverse_id:
                    total += 1
                continue
            for nxt in edges_from(g, last.terminus):
                if nxt.id != last.inverse_id:
                    stack.append((first, nxt, length + 1))
        counts.append(total)
    return counts


def test_eta_constant_coefficient_is_identity(ex1_cover, ex2_cover, ex3_cover):
    for cover in (ex1_cover, ex2_cover, ex3_cover):
        poly = eta_polynomial(cover)
        assert poly.coefficient(0) == ring_one(poly.group)
        assert poly.degree <= 2 * cover.base.num_vertices


def test_eta_involution_invariance(ex2_cover, ex4_cover):
    for cover in (ex2_cover, ex4_cover):
        poly = eta_polynomial(cover)
        assert poly.is_involution_invariant()
        assert poly.involution_applied() == poly


def test_eta_at_one_known_coefficients(ex1_cover, ex2_cover):
    # Hand expansion of the 1x1 and 2x2 determinants; coefficients are in
    # generator-power order (1, 2, 4, 3) for the generator 2 mod 5.
    assert eta_at_one(ex1_cover, equivariant_laplacian(ex1_cover)).coeffs == (4, -1, -2, -1)
    assert eta_at_one(ex2_cover, equivariant_laplacian(ex2_cover)).coeffs == (12, -5, -2, -5)


def test_eta_at_one_augmentation_vanishes(ex1_cover, ex2_cover, ex3_cover, ex4_cover):
    for cover in (ex1_cover, ex2_cover, ex3_cover, ex4_cover):
        assert eta_at_one(cover, equivariant_laplacian(cover)).augmentation() == 0


def test_eta_augmentation_vanishes_on_random_covers():
    rng = random.Random(4)
    for p in (3, 5):
        for _ in range(5):
            cover = random_connected_cover(rng, p)
            assert eta_at_one(cover, equivariant_laplacian(cover)).augmentation() == 0


def _total_graph_adjacency(cover):
    """A over Z[G] read from the total graph: entry (i, j) collects s^(-1) for
    each directed edge from the point (j, s) to the unit-1 point over i."""
    group = CyclicGroup.for_prime(cover.p)
    n = cover.base.num_vertices
    adjacency = [[[0] * group.order for _ in range(n)] for _ in range(n)]
    for e in directed_edges(cover.total):
        i, t = fiber_coords(cover, e.terminus)
        if t == 1:
            j, s = fiber_coords(cover, e.origin)
            adjacency[i][j][group.index_of(pow(s, -1, cover.p))] += 1
    return adjacency


def test_adjacency_matches_the_total_graph(ex1_cover, ex2_cover, ex3_cover, ex4_cover):
    # The base-edge rule against the edges of the total graph, entry by entry.
    # The transpose of A has the same determinant, so eta(1) and the L-values
    # would not notice a builder that swapped i and j; this comparison does.
    rng = random.Random(14)
    covers = [ex1_cover, ex2_cover, ex3_cover, ex4_cover]
    covers += [random_connected_cover(rng, p) for p in (3, 5, 7, 11) for _ in range(10)]
    pairs = [sorted(pair) for cover in covers[4:] for pair in cover.base.edge_pairs]
    assert any(u == v for u, v in pairs)
    assert any(pairs.count(pair) > 1 for pair in pairs if pair[0] != pair[1])
    for cover in covers:
        assert equivariant_adjacency(cover) == _total_graph_adjacency(cover)


def test_laplacian_is_sparse_and_read_in_place():
    # Densified, the sparse rows are D - A with A read off the total graph, on
    # random covers with loops and parallel edges.  They store the diagonal
    # and at most one entry per directed edge, no two rows are one object, and
    # the entries are tuples, which neither route of eta(1) nor the L-values
    # change.
    rng = random.Random(23)
    covers = [random_connected_cover(rng, p) for p in (3, 5, 7, 11) for _ in range(10)]
    pairs = [sorted(pair) for cover in covers for pair in cover.base.edge_pairs]
    assert any(u == v for u, v in pairs)
    assert any(pairs.count(pair) > 1 for pair in pairs if pair[0] != pair[1])
    for cover in covers:
        base, group = cover.base, CyclicGroup.for_prime(cover.p)
        n = base.num_vertices
        lap = equivariant_laplacian(cover)
        zero = (0,) * group.order
        dense = [[list(row.get(j, zero)) for j in range(n)] for row in lap]
        expected = [[[-c for c in x] for x in row] for row in _total_graph_adjacency(cover)]
        for i in range(n):
            expected[i][i][0] += valence(base, i)
        assert dense == expected
        assert sum(map(len, lap)) <= n + 2 * base.num_undirected_edges
        assert len({id(row) for row in lap}) == n
        assert all(type(x) is tuple for row in lap for x in row.values())
        snapshot = [dict(row) for row in lap]
        eta1 = eta_at_one(cover, lap)
        for i in range(group.order):
            l_value(Character(group, i, 1), eta1, lap)
            l_value(Character(group, i, 2), eta1, lap)
        assert lap == snapshot


def test_adjacency_transpose_is_involution(ex3_cover):
    group = CyclicGroup.for_prime(ex3_cover.p)
    adj = [
        [GroupRingElement(group, tuple(x)) for x in row] for row in equivariant_adjacency(ex3_cover)
    ]
    g = ex3_cover.base.num_vertices
    for i in range(g):
        for j in range(g):
            assert adj[j][i] == adj[i][j].involution()


def test_l_values_first_example(ex1_cover):
    g5 = CyclicGroup.for_prime(5)
    lap = equivariant_laplacian(ex1_cover)
    eta1 = eta_at_one(ex1_cover, lap)
    values = [l_value(Character(g5, i, 1), eta1, lap) for i in (1, 2, 3)]
    assert values == [1, 4, 1]


def test_l_values_third_example(ex3_cover):
    g11 = CyclicGroup.for_prime(11)
    lap = equivariant_laplacian(ex3_cover)
    eta1 = eta_at_one(ex3_cover, lap)
    values = [l_value(Character(g11, i, 1), eta1, lap) for i in range(1, 10)]
    assert values == [0, 9, 2, 1, 8, 1, 2, 9, 0]


def test_l_value_trivial_character_vanishes(ex1_cover, ex2_cover):
    g5 = CyclicGroup.for_prime(5)
    for cover in (ex1_cover, ex2_cover):
        lap = equivariant_laplacian(cover)
        eta1 = eta_at_one(cover, lap)
        assert l_value(Character(g5, 0, 1), eta1, lap) == 0
        assert PAdicInt(5, 3, l_value(Character(g5, 0, 3), eta1, lap)).is_zero()


def test_l_value_padic_leading_digits(ex2_cover):
    g5 = CyclicGroup.for_prime(5)
    lap = equivariant_laplacian(ex2_cover)
    h = PAdicInt(5, 4, l_value(Character(g5, 2, 4), eta_at_one(ex2_cover, lap), lap))
    assert h.valuation() == 1
    assert h.digits()[1] == 4


def test_special_value_annihilates_picard_group(ex1_cover, ex2_cover):
    rng = random.Random(9)
    covers = [ex1_cover, ex2_cover] + [random_connected_cover(rng, 5) for _ in range(4)]
    for cover in covers:
        pm = PicardModule(cover)
        assert pm.annihilated_by(eta_at_one(cover, equivariant_laplacian(cover)))


def test_nonannihilating_element_detected(ex1_cover):
    pm = PicardModule(ex1_cover)
    one = ring_one(CyclicGroup.for_prime(5))
    assert not pm.annihilated_by(one)


def test_duality_on_examples(ex1_cover, ex4_cover):
    lap = equivariant_laplacian(ex1_cover)
    eta1 = eta_at_one(ex1_cover, lap)
    assert duality_check(eta1)
    assert duality_check(eta_at_one(ex4_cover, equivariant_laplacian(ex4_cover)))
    g5 = CyclicGroup.for_prime(5)
    h1 = l_value(Character(g5, 1, 1), eta1, lap)
    h3 = l_value(Character(g5, 3, 1), eta1, lap)
    assert h1 == h3


def duality_by_characters(eta1, precision):
    """Reference for ``duality_check``: chi(eta(1)) against chi*(eta(1)) for
    each of the p - 1 characters modulo p and for its Teichmuller lift
    modulo p^precision, 4(p - 1) evaluations in all."""
    group = eta1.group
    for i in range(group.order):
        chi = Character(group, i, 1)
        star = contragredient(chi)
        if eta1.evaluate(chi) != eta1.evaluate(star):
            return False
        lifted = Character(group, i, precision)
        if eta1.evaluate(lifted) != eta1.evaluate(contragredient(lifted)):
            return False
    return True


def test_duality_check_matches_the_character_loop():
    # On eta(1) of random covers, and on random elements: arbitrary ones,
    # ones symmetric only modulo p^precision, and ones symmetric only
    # modulo p^(precision - 1), which the lifted characters tell apart.
    rng = random.Random(41)
    verdicts = []
    for p in (3, 5, 7, 11, 13):
        group = CyclicGroup.for_prime(p)
        for precision in (1, 2, 3):
            cover = random_connected_cover(rng, p)
            elements = [eta_at_one(cover, equivariant_laplacian(cover))]
            for shift in (None, precision, precision - 1):
                y = GroupRingElement(group, tuple(rng.randint(-50, 50) for _ in range(p - 1)))
                r = [rng.randint(-50, 50) for _ in range(p - 1)]
                if shift is None:
                    elements.append(y)
                else:
                    s = ring_add(y, y.involution())
                    c = tuple(a + p**shift * b for a, b in zip(s.coeffs, r))
                    elements.append(GroupRingElement(group, c))
            for x in elements:
                verdict = duality_check(x, precision)
                assert verdict == duality_by_characters(x, precision)
                verdicts.append(verdict)
    assert True in verdicts and False in verdicts
    assert verdicts.count(False) >= 20


def test_palindromic_table_fourth_example(ex4_cover):
    g11 = CyclicGroup.for_prime(11)
    lap = equivariant_laplacian(ex4_cover)
    eta1 = eta_at_one(ex4_cover, lap)
    values = [l_value(Character(g11, i, 1), eta1, lap) for i in range(1, 10)]
    assert values == values[::-1]


def test_self_contragredient_middle_character(ex2_cover):
    g5 = CyclicGroup.for_prime(5)
    chi = Character(g5, 2, 1)
    assert contragredient(chi) == chi


def reciprocal_zeta(g, u):
    """Ihara's formula: 1/zeta(u) = (1 - u^2)^(E - V) det(I - A u + (D - I) u^2)."""
    u = Fraction(u)
    det = sum(c * u**k for k, c in enumerate(_int_poly_det(g)))
    return det * (1 - u * u) ** -euler_characteristic(g)


def hashimoto_traces(g, max_length):
    """tr B^m, m = 1..max_length, for the non-backtracking edge matrix B."""
    edges = directed_edges(g)
    b = [[int(e.terminus == f.origin and e.inverse_id != f.id) for f in edges] for e in edges]
    power, traces = b, []
    for _ in range(max_length):
        traces.append(sum(power[i][i] for i in range(len(edges))))
        power = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in power]
    return traces


def path_counts_from_determinant(g, max_length):
    """N_m, the coefficients of u d/du log zeta(u), by Newton's identities on
    the reciprocal zeta polynomial f: sum_{k < m} f_k N_(m-k) = -m f_m."""
    f = _int_poly_det(g)
    for _ in range(-euler_characteristic(g)):
        f = [a - b for a, b in zip(f + [0, 0], [0, 0] + f)]  # times 1 - u^2
    f += [0] * max_length
    counts = []
    for m in range(1, max_length + 1):
        counts.append(-m * f[m] - sum(f[k] * counts[m - k - 1] for k in range(1, m)))
    return counts


def test_zeta_inverse_at_zero_is_one():
    for g in (bouquet(2), cycle_graph(3), cycle_graph(5), path_graph(3)):
        assert reciprocal_zeta(g, 0) == 1


def test_zeta_inverse_cycle_at_one_vanishes():
    assert reciprocal_zeta(cycle_graph(3), 1) == 0


def test_zeta_inverse_of_tree_is_trivial():
    for u in (Fraction(1, 2), Fraction(-2, 3), 2):
        assert reciprocal_zeta(path_graph(4), u) == 1


def test_zeta_inverse_cycle_closed_form():
    # A cycle of length n has reciprocal zeta (1 - u^n)^2.
    for n in (3, 4, 5):
        for u in (Fraction(1, 2), 2, -1):
            expected = (1 - Fraction(u) ** n) ** 2
            assert reciprocal_zeta(cycle_graph(n), u) == expected


def test_path_counts_three_ways():
    for g in (bouquet(2), cycle_graph(3), bouquet(1)):
        brute = brute_force_closed_reduced_paths(g, 6)
        assert hashimoto_traces(g, 6) == brute
        assert path_counts_from_determinant(g, 6) == brute


def test_path_counts_on_a_cover():
    cover = derive(VoltageSpec(bouquet(2), 5, (2, 4)))
    brute = brute_force_closed_reduced_paths(cover.total, 5)
    assert hashimoto_traces(cover.total, 5) == brute
    assert path_counts_from_determinant(cover.total, 5) == brute


def circulant_determinant(poly):
    """Z[u]-determinant of the circulant of an element of Z[G][u]."""
    m = poly.group.order
    width = m * poly.degree + 1  # the determinant's degree is at most m * poly.degree
    entries = [
        [[c.coeffs[(i - j) % m] for c in poly.coeffs] + [0] * (width - len(poly.coeffs)) for j in range(m)]
        for i in range(m)
    ]
    det = list(berkowitz(entries, truncated_convolution(1, width)))
    while len(det) > 1 and not det[-1]:
        det.pop()
    return det


def test_total_determinant_is_norm_of_eta_polynomial(ex1_cover, ex2_cover):
    # det(I - A_Y u + Q_Y u^2) over Z[u] is the determinant of the regular
    # representation of its group-ring determinant: for commuting blocks
    # det(M) = det(det_R M) (Kovacs, Silver and Williams, 1999).
    rng = random.Random(8)
    covers = [ex1_cover, ex2_cover]
    covers += [random_connected_cover(rng, p, 3, 5) for p in (3, 5, 7) for _ in range(6)]
    checked = 0
    for cover in covers:
        if cover.total.num_vertices <= 20:
            assert _int_poly_det(cover.total) == circulant_determinant(eta_polynomial(cover))
            checked += 1
    assert checked >= 15


def test_eta_polynomial_reaches_degree_2n(ex1_cover, ex2_cover):
    # The u^(2n) coefficient is det(D - I), the product of the base valences
    # less one.  When none of them is 1 the degree is 2n, so the truncation at
    # u^(2n+1) keeps every coefficient.
    rng = random.Random(29)
    covers = [ex1_cover, ex2_cover, derive(VoltageSpec(bouquet(2), 5, (2, 4)))]
    covers += [random_connected_cover(rng, p, 4, 8) for p in (3, 5, 7) for _ in range(8)]
    tight = 0
    for cover in covers:
        base = cover.base
        n = base.num_vertices
        top = prod(valence(base, i) - 1 for i in range(n))
        poly = eta_polynomial(cover)
        assert poly.coefficient(2 * n) == ring_mul(ring_one(poly.group), top)
        assert _int_poly_det(base)[2 * n :] == ([top] if top else [])
        tight += top != 0
    assert tight >= 8


def test_l_value_cross_check_runs_for_lifted_characters(ex3_cover):
    g11 = CyclicGroup.for_prime(11)
    lap = equivariant_laplacian(ex3_cover)
    eta1 = eta_at_one(ex3_cover, lap)
    for i in (1, 2, 5):
        out = l_value(Character(g11, i, 5), eta1, lap)
        assert out in range(11**5)


def test_eta_rejects_disconnected_cover():
    from coverzeta import DisconnectedCover

    cover = derive(VoltageSpec(bouquet(2), 5, (1, 1)))
    with pytest.raises(DisconnectedCover):
        eta_at_one(cover, equivariant_laplacian(cover))
    with pytest.raises(DisconnectedCover):
        eta_polynomial(cover)


def test_equivariant_laplacian_evaluates_to_base_laplacian(ex2_cover):
    # The trivial character turns the group-ring Laplacian into the base one.
    g5 = CyclicGroup.for_prime(5)
    lap = equivariant_laplacian(ex2_cover)
    evaluated = evaluate_matrix(g5, lap, Character(g5, 0, 1))
    base_lap = laplacian_matrix(ex2_cover.base)
    assert [[x % 5 for x in row] for row in base_lap] == evaluated


def orbit_norm_covers(ex1_cover, ex2_cover, ex3_cover, ex4_cover):
    """Examples 1-4 and random covers with p - 1 = 2q (p = 23, 47) and with
    p - 1 highly composite (p = 31, 61)."""
    rng = random.Random(15)
    covers = [ex1_cover, ex2_cover, ex3_cover, ex4_cover]
    return covers + [random_connected_cover(rng, p, 3, 4) for p in (23, 47, 31, 61) for _ in range(2)]


def test_orbit_norms_multiply_to_the_circulant_determinant(
    ex1_cover, ex2_cover, ex3_cover, ex4_cover
):
    # C + J, with C the circulant of eta(1) and J all ones, has the value
    # chi(eta(1)) at each nontrivial chi and aug(eta(1)) + p - 1 = p - 1 at
    # the trivial one, so det(C + J)/(p - 1) is the product of the
    # nontrivial values, which the orbit norms group by character order.
    for cover in orbit_norm_covers(ex1_cover, ex2_cover, ex3_cover, ex4_cover):
        eta1 = eta_at_one(cover, equivariant_laplacian(cover))
        c, m = eta1.coeffs, len(eta1.coeffs)
        det = integer_determinant([[c[(i - j) % m] + 1 for j in range(m)] for i in range(m)])
        norms = orbit_norms(eta1)
        assert sorted(norms) == [d for d in range(2, m + 1) if m % d == 0]
        assert det % m == 0 and prod(norms.values()) == det // m


def test_each_orbit_norm_is_the_product_of_its_character_values(
    ex1_cover, ex2_cover, ex3_cover, ex4_cover
):
    # Mod p^K, at the Teichmuller lifts of the characters of order d.
    for cover in orbit_norm_covers(ex1_cover, ex2_cover, ex3_cover, ex4_cover):
        eta1 = eta_at_one(cover, equivariant_laplacian(cover))
        group, m, modulus = eta1.group, eta1.group.order, cover.p**3
        for d, norm in orbit_norms(eta1).items():
            value = 1
            for i in range(m):
                if m // gcd(i, m) == d:
                    value = value * eta1.evaluate(Character(group, i, 3)) % modulus
            assert norm % modulus == value


def test_cyclotomic_polynomials_factor_x_to_the_d_minus_one():
    # x^d - 1 is the product of Phi_e over the divisors e of d.
    for d in range(1, 61):
        product = [1]
        for e in range(1, d + 1):
            if d % e == 0:
                phi = cyclotomic(e)
                out = [0] * (len(product) + len(phi) - 1)
                for i, a in enumerate(product):
                    for j, b in enumerate(phi):
                        out[i + j] += a * b
                product = out
        assert product == [-1] + [0] * (d - 1) + [1]
    assert cyclotomic(12) == (1, 0, -1, 0, 1)
