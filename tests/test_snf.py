import random
from collections import Counter
from math import gcd, prod

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import bench_inputs, random_connected_cover
from coverzeta import (
    CyclicGroup,
    VerificationError,
    bundled_spec,
    derive,
    integer_determinant,
    snf,
    spec_from_dict,
)
from coverzeta.picard import _reduced
from coverzeta.serre import SerreGraph
from coverzeta.snf import (
    _eliminate,
    _replay,
    _sort_diagonal,
    INTEGERS,
    cokernel,
    det_mod,
    unit_pivots,
)
from reference import cycle_graph, laplacian_matrix, smith_normal_form


@st.composite
def int_matrices(draw, max_dim=5, bound=9):
    m = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))
    return [
        [draw(st.integers(-bound, bound)) for _ in range(n)] for _ in range(m)
    ]


def test_divisibility_normalization():
    dec = smith_normal_form([[2, 0], [0, 3]])
    assert dec.diagonal == (1, 6)


def test_zero_matrix():
    dec = smith_normal_form([[0, 0], [0, 0], [0, 0]])
    assert dec.diagonal == (0, 0)


def test_cycle_laplacian_diagonal():
    dec = smith_normal_form(laplacian_matrix(cycle_graph(3)))
    assert dec.diagonal == (1, 3, 0)


@settings(max_examples=150, deadline=None)
@given(int_matrices())
def test_decomposition_self_checks(a):
    # Construction verifies U*A*V = D, the divisibility chain, and that the
    # tracked inverses certify unimodularity; here we re-check the chain.
    dec = smith_normal_form(a)
    diag = dec.diagonal
    for x, y in zip(diag, diag[1:]):
        assert (x == 0 and y == 0) or (x != 0 and y % x == 0)
        assert x >= 0 and y >= 0


def test_cokernel_identity_trivial():
    assert smith_normal_form([[1, 0], [0, 1]]).diagonal == (1, 1)


def test_cokernel_of_connected_laplacian_has_free_rank_one():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(2, 5)
        pairs = [(rng.randrange(v), v) for v in range(1, n)]
        for _ in range(rng.randint(0, 4)):
            pairs.append((rng.randrange(n), rng.randrange(n)))
        g = SerreGraph(n, pairs)
        diagonal = smith_normal_form(laplacian_matrix(g)).diagonal
        assert diagonal.count(0) == 1
        minor = [row[: n - 1] for row in laplacian_matrix(g)[: n - 1]]
        assert prod(d for d in diagonal if d) == integer_determinant(minor)


@settings(max_examples=60, deadline=None)
@given(int_matrices(max_dim=4), st.integers(1, 3), st.sampled_from([2, 3, 5]))
def test_invariant_factors_mod_prime_power(a, k, p):
    # Working modulo p^k is the same as adjoining p^k times the identity;
    # the resulting factors must be the gcds of the integer factors with p^k.
    m = len(a)
    q = p**k
    augmented = [row + [q if i == j else 0 for j in range(m)] for i, row in enumerate(a)]
    got = sorted(d for d in smith_normal_form(augmented).diagonal if d > 1)
    diag = smith_normal_form(a).diagonal
    expected = sorted(
        x
        for x in (gcd(d, q) for d in list(diag) + [0] * (m - len(diag)))
        if x > 1
    )
    assert got == expected


def test_integer_determinant():
    assert integer_determinant([[2, 1], [1, 2]]) == 3
    assert integer_determinant([[0, 1], [1, 0]]) == -1
    assert integer_determinant([[1, 2], [2, 4]]) == 0
    assert integer_determinant([]) == 1
    rng = random.Random(3)
    for _ in range(30):
        a = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
        cofactor = (
            a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
        )
        assert integer_determinant(a) == cofactor


def test_ragged_matrix_rejected():
    with pytest.raises(ValueError):
        smith_normal_form([[1, 2], [3]])


def dense_factors(a):
    """Reference: invariant factors above 1 from the dense integer Smith form."""
    return tuple(d for d in smith_normal_form(a).diagonal if d > 1)


def rows(a):
    """A dense matrix as the sparse rows {column: entry} that the
    elimination modulo kappa takes, without zero entries."""
    return [{j: x for j, x in enumerate(row) if x} for row in a]


@st.composite
def smooth_nonsingular(draw, max_dim=5):
    """A diagonal of products of 2s and 3s under random unimodular row and
    column steps: the determinant carries repeated small primes, so pivots
    that are not units modulo it, and Bezout steps, occur."""
    n = draw(st.integers(1, max_dim))
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = draw(st.sampled_from([1, 1, 2, 3, 4, 6, 8, 9, 12, 18, 36]))
    for _ in range(draw(st.integers(0, 3 * n * n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        c = draw(st.integers(-3, 3))
        if i != j and draw(st.booleans()):
            a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        elif i != j:
            for row in a:
                row[i] += c * row[j]
    return a


@settings(max_examples=150, deadline=None)
@given(smooth_nonsingular())
def test_cokernel_mod_matches_dense_smith_form(a):
    det, coker = cokernel(rows(a))
    assert det == integer_determinant(a)
    assert coker.factors == dense_factors(a)


@st.composite
def square_matrices(draw, max_dim=5, bound=12):
    n = draw(st.integers(1, max_dim))
    return [[draw(st.integers(-bound, bound)) for _ in range(n)] for _ in range(n)]


@settings(max_examples=150, deadline=None)
@given(square_matrices())
def test_cokernel_mod_matches_dense_smith_form_on_random_matrices(a):
    det, coker = cokernel(rows(a))
    assert det == integer_determinant(a)  # negative values included
    if det == 0:
        assert coker is None
        return
    assert coker.factors == dense_factors(a)
    assert len(coker.forms) == len(coker.generators) == len(coker.factors)


def test_cokernel_mod_of_a_unimodular_matrix_is_trivial():
    for a, det in (([[2, 1], [1, 1]], 1), ([[2, 3], [3, 5]], 1), ([[3, 5], [2, 3]], -1), ([], 1)):
        assert cokernel(rows(a)) == (det, snf.Cokernel((), (), ()))


def test_cokernel_mod_bezout_steps():
    # kappa = 6 and the pivot 2 does not divide the 3 below it (a recorded
    # Bezout row step) or beside it (an unrecorded Bezout column step).
    ops = []
    _eliminate([[2, 0], [3, 3]], 6, range(2), ops)
    assert any(len(op) == 6 for op in ops)
    for a in ([[2, 0], [3, 3]], [[2, 3], [0, 3]]):
        assert cokernel(rows(a))[1].factors == (6,)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([2, 3, 4, 5, 6, 8, 9, 10, 12, 18, 25, 27, 36]), max_size=6))
@example([4, 6, 9])
@example([2, 2, 3, 8])
@example([420, 7])
def test_sort_diagonal_matches_dense_smith_form(summands):
    # The gcd/lcm steps give the Smith diagonal of diag(summands), 1s first;
    # U times the U^-1 of the tracked columns is the identity modulo kappa,
    # and row i of U kills every relation g_k e_k modulo d_i.
    kappa = prod(summands)
    diagonal, rows, cols = _sort_diagonal(summands, kappa)
    n = len(summands)
    dense = [[g * (i == k) for k in range(n)] for i, g in enumerate(summands)]
    assert tuple(diagonal) == (smith_normal_form(dense).diagonal if n else ())
    for i, row in enumerate(rows):
        assert [sum(x * y for x, y in zip(row, col)) % kappa for col in cols] == [
            int(i == j) % kappa for j in range(n)
        ]
        assert all(x * g % diagonal[i] == 0 for x, g in zip(row, summands))


def replay_per_factor(ops, f: list[int], w: list[int], kappa: int) -> None:
    """Reference: one form f and one generator w replayed on their own,
    modulo kappa, as f^T U and U^-1 w."""
    for op in reversed(ops):
        if len(op) == 3:
            i, k, m = op  # E = I - m e_i e_k^T
            f[k] = (f[k] - m * f[i]) % kappa
            w[i] = (w[i] + m * w[k]) % kappa
        else:
            i, k, s, t, u, v = op  # E = [[s, t], [u, v]] on rows i, k
            f[i], f[k] = (s * f[i] + u * f[k]) % kappa, (t * f[i] + v * f[k]) % kappa
            w[i], w[k] = (v * w[i] - t * w[k]) % kappa, (s * w[k] - u * w[i]) % kappa


def assert_one_replay_matches_per_factor_replays(a) -> snf.Cokernel:
    """Run ``cokernel`` on sparse rows a, capturing its one replay modulo the
    exponent, and replay each factor's starting form and generator on its
    own modulo kappa: they must agree modulo d_i and the exponent, and with
    the certified presentation, which is returned."""
    seen = []

    def capture(ops, forms, gens, modulus):
        start = [list(map(list, zip(*forms))), list(map(list, zip(*gens)))]
        _replay(ops, forms, gens, modulus)
        seen.append((list(ops), start, forms, gens, modulus))

    with pytest.MonkeyPatch.context() as m:
        m.setattr(snf, "_replay", capture)
        det, coker = cokernel(a)
    [(ops, (forms0, gens0), forms, gens, e)] = seen
    assert e == (coker.factors[-1] if coker.factors else 1)
    for c, d in enumerate(coker.factors):
        f, w = forms0[c], gens0[c]
        replay_per_factor(ops, f, w, abs(det))
        assert [x % d for x in f] == [row[c] % d for row in forms] == list(coker.forms[c])
        assert [x % e for x in w] == [row[c] for row in gens] == list(coker.generators[c])
    return coker


def test_one_replay_matches_per_factor_replays_on_covers():
    rng = random.Random(23)
    covers = [derive(bundled_spec(f"example{k}")) for k in range(1, 5)]
    covers += [random_connected_cover(rng, p, 4, 7) for p in (3, 5, 7, 11, 13) for _ in range(8)]
    ranks = []
    for cover in covers:
        coker = assert_one_replay_matches_per_factor_replays(_reduced(cover.total.laplacian_rows()))
        ranks.append(len(coker.factors))
    assert max(ranks) >= 4


@settings(max_examples=100, deadline=None)
@given(smooth_nonsingular())
@example([[1, 1, 1], [4, 2, 4], [3, 6, 6]])  # its core needs a Bezout row step
def test_one_replay_matches_per_factor_replays_with_bezout_steps(a):
    assert_one_replay_matches_per_factor_replays(rows(a))


@st.composite
def connected_multigraphs(draw, max_vertices=8):
    """A random connected multigraph, loops included: a random spanning
    tree plus random extra edges, some of them repeated."""
    n = draw(st.integers(2, max_vertices))
    pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    extra = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    pairs += draw(st.lists(extra, max_size=3 * n))
    pairs += pairs[: draw(st.integers(0, len(pairs)))]  # multiple edges
    return SerreGraph(n, pairs)


@settings(max_examples=200, deadline=None)
@given(connected_multigraphs())
def test_cokernel_mod_of_reduced_laplacians(g):
    # The library's sparse L0 against the dense reduced Laplacian, and its
    # determinant against the tree count by diagonal pivots.
    a = [row[:-1] for row in laplacian_matrix(g)[:-1]]
    reduced = _reduced(g.laplacian_rows())
    kappa = integer_determinant(a)
    assert kappa > 0
    assert tree_count(reduced) == kappa
    det, coker = cokernel(reduced)
    assert det == kappa
    assert coker.factors == dense_factors(a)


def tree_count(reduced):
    """Reference tree count kappa = det L0 of a connected graph, from the
    sparse rows of its reduced Laplacian, by Bareiss elimination with
    diagonal pivots.

    Each step pivots at (r, r) of the shortest active row r (ties: the
    lowest) and, as diagonal pivots keep L0's pattern symmetric, updates
    only the rows that row r names.  The k-th pivot is a leading principal
    minor in pivot order, so the last is det L0, and all are positive when
    L0 is positive definite, as for a connected graph (Sylvester); the
    first that is not raises.  A row stored with divisor t stands for
    itself times prev / t.
    """
    rows = {i: dict(row) for i, row in enumerate(reduced)}
    div, prev = [1] * len(reduced), 1
    while rows:
        r = min(rows, key=lambda i: len(rows[i]))
        top, s = rows.pop(r), div[r]
        pivot = top.pop(r, 0) * prev // s
        if pivot <= 0:
            raise VerificationError("picard.tree_count", f"pivot {pivot} at row {r}")
        tail = {j: y * prev // s for j, y in top.items()}
        for i in top:
            row, t = rows[i], div[i]
            x = row.pop(r)
            for j, z in tail.items():
                row[j] = row.get(j, 0) * pivot - x * z
            # Entries outside the tail are nonzero and only take the scaling.
            rows[i] = {j: (y if j in tail else y * pivot) // t for j, y in row.items() if y}
            div[i] = pivot
        prev = pivot
    return prev


def counting(calls, real):
    """``real`` wrapped to append its arguments to ``calls``."""

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    return wrapper


def reduced_gcd(kappa):
    """math.gcd, refusing any first argument not reduced modulo kappa: phase
    2 takes gcd(x, kappa) of the core entries x it searches."""

    def checked(x, y):
        assert y == kappa and 0 < x < kappa, f"gcd({x}, {y})"
        return gcd(x, y)

    return checked


@st.composite
def unit_seeded(draw, max_dim=7, bound=30):
    """Square integer matrices with some entries +-1 among larger ones, so
    that phase 1 takes some pivots and leaves a core for phase 2."""
    n = draw(st.integers(1, max_dim))
    a = [[draw(st.integers(-bound, bound)) for _ in range(n)] for _ in range(n)]
    for _ in range(draw(st.integers(1, 2 * n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        a[i][j] = draw(st.sampled_from([-1, 1]))
    return a


@settings(max_examples=200, deadline=None)
@given(unit_seeded())
def test_cokernel_mod_of_unit_seeded_matrices(a):
    det = integer_determinant(a)
    assume(det != 0)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(snf, "gcd", reduced_gcd(abs(det)))
        got, coker = cokernel(rows(a))
    assert got == det
    assert coker.factors == dense_factors(a)


def test_cokernel_mod_phase_1_clears_a_unimodular_matrix(monkeypatch):
    # A product of unitriangular matrices, det -1.  Every pivot over Z is
    # +-1, so phase 1 empties the matrix and phase 2, whose pivot search
    # takes gcds with kappa, never starts.
    a = [[1, 3, 0, -2], [2, 7, 5, -4], [-3, -8, 4, 8], [0, 4, 22, -3]]
    assert integer_determinant(a) == -1
    searched = []
    monkeypatch.setattr(snf, "gcd", counting(searched, snf.gcd))
    unit, ids, core, ops, _ = unit_pivots(rows(a), INTEGERS)
    assert (unit, ids, core) == (-1, [], [])
    assert ops == [(1, 0, 2), (2, 0, -3), (2, 1, 1), (3, 1, 4), (3, 2, -2)]
    assert cokernel(rows(a)) == (-1, snf.Cokernel((), (), ()))
    assert searched == []


@settings(max_examples=150, deadline=None)
@given(square_matrices(max_dim=5, bound=9))
def test_cokernel_mod_without_unit_entries(a):
    # With no entry +-1 phase 1 takes no pivot, so it pushes no row back
    # on its heap, and the core is all of a.
    a = [[2 * x if abs(x) == 1 else x for x in row] for row in a]
    kappa = abs(integer_determinant(a))
    assume(kappa != 0)
    pushed = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(snf, "heappush", counting(pushed, snf.heappush))
        assert unit_pivots(rows(a), INTEGERS)[1:3] == (list(range(len(a))), a)
        assert cokernel(rows(a))[1].factors == dense_factors(a)
    assert pushed == []


def test_cokernel_mod_core_needs_bezout_steps(monkeypatch):
    # Phase 1 pivots at (0, 0) and leaves the core [[-2, 0], [3, 3]], which
    # phase 2 reduces modulo kappa = 6 to [[4, 0], [3, 3]]; its pivot 4 has
    # gcd 2 with kappa, which does not divide the 3 below it.
    a = [[1, 1, 1], [4, 2, 4], [3, 6, 6]]
    assert integer_determinant(a) == -6
    monkeypatch.setattr(snf, "gcd", reduced_gcd(6))
    unit, ids, core, ops, _ = unit_pivots(rows(a), INTEGERS)
    assert (unit, ids, core, ops) == (1, [1, 2], [[-2, 0], [3, 3]], [(1, 0, 4), (2, 0, 3)])
    _, pivots = _eliminate(core, 6, ids, ops)
    assert any(len(op) == 6 for op in ops[2:])
    assert pivots[0][0] == 1
    det, coker = cokernel(rows(a))
    assert det == -6
    assert coker.factors == (6,) == dense_factors(a)


@settings(max_examples=200, deadline=None)
@given(unit_seeded(), st.sampled_from([3, 5, 7]))
def test_unit_pivots_take_one_path_over_every_ring(a, p):
    # The kernel has no path of its own for a ring: an integer matrix over Z,
    # and the same matrix as constants c * 1 over Z[G], whose units among
    # them are +-1 as over Z, take the same pivots and steps.
    ring = CyclicGroup.for_prime(p).ring

    def embed(c):
        return (c,) + ring.zero[1:]

    scale, ids, core, ops, pivots = unit_pivots([dict(enumerate(row)) for row in a], INTEGERS)
    embedded = unit_pivots([{j: embed(x) for j, x in enumerate(row)} for row in a], ring)
    assert embedded == (
        embed(scale),
        ids,
        [[embed(x) for x in row] for row in core],
        [(i, r, embed(m)) for i, r, m in ops],
        [({j: embed(y) for j, y in row.items()}, c, embed(x)) for row, c, x in pivots],
    )
    assert scale * integer_determinant(core) == integer_determinant(a)

@st.composite
def moduli(draw):
    """Moduli of each kind ``det_mod`` serves: powers of 2, prime powers p^K
    (the L-values), B^m - 1 with B odd (the substitution route, always
    even) and composites of small primes (kappa)."""
    kind = draw(st.sampled_from(["2^k", "p^K", "B^m - 1", "composite"]))
    if kind == "2^k":
        return 2 ** draw(st.integers(1, 70))
    if kind == "p^K":
        return draw(st.sampled_from([3, 5, 7, 11, 13])) ** draw(st.integers(1, 6))
    if kind == "B^m - 1":
        return (2 * draw(st.integers(1, 60)) + 1) ** draw(st.integers(1, 6)) - 1
    return prod(draw(st.lists(st.sampled_from([2, 3, 4, 5, 6, 9, 12]), min_size=1, max_size=6)))


@st.composite
def matrices_mod(draw, max_dim=6):
    """A square matrix and a modulus m.  Entries run past m and below 0, some
    columns are multiples of m's least prime factor, so they hold no unit
    and the Bezout steps run, and the rows are permuted, so that odd pivot
    permutations occur."""
    m = draw(moduli())
    n = draw(st.integers(1, max_dim))
    a = [[draw(st.integers(-3 * m, 3 * m)) for _ in range(n)] for _ in range(n)]
    f = next(q for q in range(2, m + 1) if m % q == 0)
    for j in draw(st.sets(st.integers(0, n - 1))):
        for row in a:
            row[j] *= f
    return [a[i] for i in draw(st.permutations(range(n)))], m


@st.composite
def sparse_matrices_mod(draw, max_dim=7):
    """A sparse square matrix and a modulus m: a permuted diagonal, so that
    the pivots take either parity, and up to two more entries a row.
    Entries with a factor f of m are no unit of Z/m, and rows scaled by f
    hold none; a row may also be left zero."""
    m = draw(moduli())
    f = next(q for q in range(2, m + 1) if m % q == 0)
    n = draw(st.integers(1, max_dim))
    entries = st.one_of(st.integers(-3 * m, 3 * m), st.integers(-3 * m, 3 * m).map(f.__mul__))
    a = [[0] * n for _ in range(n)]
    for i, k in enumerate(draw(st.permutations(range(n)))):
        a[i][k] = draw(entries)
        for j in draw(st.lists(st.integers(0, n - 1), max_size=2)):
            a[i][j] = draw(entries)
    for i in draw(st.sets(st.integers(0, n - 1))):
        a[i] = [f * x for x in a[i]]
    return a, m


@settings(max_examples=400, deadline=None)
@given(st.one_of(matrices_mod(), sparse_matrices_mod()))
def test_det_mod_matches_the_integer_determinant(case):
    a, m = case
    assert det_mod(a, m) == integer_determinant(a) % m


def test_det_mod_bezout_steps_and_signs(monkeypatch):
    # No entry of these is a unit: the first needs a Bezout row step, the
    # second a column step (2 does not divide the 3 beside it).
    steps = []
    monkeypatch.setattr(snf, "_xgcd", counting(steps, snf._xgcd))
    for a, m in (
        ([[2, 3], [3, 2]], 6),
        ([[2, 3], [0, 2]], 6),
        ([[4, 6, 9], [6, 9, 4], [9, 4, 6]], 36),
        ([[6, 10, 15], [10, 15, 6], [15, 6, 10]], 30),
    ):
        assert det_mod(a, m) == integer_determinant(a) % m
    assert len(steps) >= 4
    # Every pivot of a permutation matrix is 1, so only the sign remains.
    for perm, sign in (((1, 0), -1), ((1, 2, 0), 1), ((3, 0, 1, 2), -1), ((0, 2, 1, 4, 3), 1)):
        a = [[int(j == k) for j in range(len(perm))] for k in perm]
        assert det_mod(a, 2**64) == sign % 2**64
        assert det_mod(a, 7**3) == sign % 7**3


def test_det_mod_edge_cases():
    assert det_mod([], 5) == 1
    assert det_mod([[3]], 1) == det_mod([], 1) == 0
    assert det_mod([[4, 2], [2, 1]], 8) == 0
    m = 3**5 - 1
    # Units times a permutation, of either parity.
    for perm, sign in (((0,), 1), ((1, 0), -1), ((1, 2, 0), 1), ((3, 0, 1, 2), -1)):
        a = [[5 * (j == k) for j in range(len(perm))] for k in perm]
        assert det_mod(a, m) == sign * 5 ** len(perm) % m
    # 2 is no unit modulo the even m; nor is any entry of rows 0 and 1 below,
    # nor of the multiples of row 2 that clear its unit 1 from them.
    assert det_mod([[2]], m) == 2
    a = [[2, 0, 4], [4, 6, 2], [1, 3, 5]]
    assert det_mod(a, m) == integer_determinant(a) % m
    # Zero rows, and entries 0 and m, which are zero modulo m.
    assert det_mod([[0, 0], [0, 0]], m) == 0
    assert det_mod([[0, 0], [0, m]], m) == 0
    assert det_mod([[m, 1], [1, 0]], m) == m - 1
    with pytest.raises(ValueError):
        det_mod([[1, 2]], 5)


def eliminate_reference(mat, modulus, ids, ops):
    """``snf._eliminate`` with the pivot search that reads every entry until
    it meets a unit, taking the gcd of each with the modulus, at every step."""
    ids = list(ids)
    sign, pivots = 1, []
    while mat:
        g, k = modulus, None
        for i, row in enumerate(mat):
            row[:] = [x % modulus for x in row]
            for j, x in enumerate(row):
                if x and (h := gcd(x, modulus)) < g:
                    g, k, c = h, i, j
                    if g == 1:
                        break
            if g == 1 and k is not None:
                break
        else:
            if k is None:
                break
            while bad := [(i, c) for i, row in enumerate(mat) if row[c] % g] or [
                (k, j) for j, y in enumerate(mat[k]) if y % g
            ]:
                (i, j), x = bad[0], mat[k][c]
                y = mat[i][j]
                h, s, t = snf._xgcd(x, y)
                u, v = -(y // h), x // h
                if j == c:
                    p, q = mat[k], mat[i]
                    mat[k] = [(s * a + t * b) % modulus for a, b in zip(p, q)]
                    mat[i] = [(u * a + v * b) % modulus for a, b in zip(p, q)]
                    ops.append((ids[k], ids[i], s, t, u, v))
                else:
                    for row in mat:
                        a, b = row[c], row[j]
                        row[c], row[j] = (s * a + t * b) % modulus, (u * a + v * b) % modulus
                g = gcd(mat[k][c], modulus)
        top, r = mat.pop(k), ids.pop(k)
        x = top.pop(c)
        reduced = modulus // g
        inverse = pow(x // g, -1, reduced)
        for i, row in enumerate(mat):
            y = row.pop(c) % modulus
            if y:
                m = y // g * inverse % reduced
                mat[i] = [a - m * b for a, b in zip(row, top)]
                ops.append((ids[i], r, m))
        if (k + c) % 2:
            sign = -sign
        pivots.append((r, x))
    return sign, pivots


@st.composite
def multiples_mod(draw, max_dim=6):
    """A square matrix whose entries share a factor f of the modulus, with
    some rows scaled by a further factor, so that no entry is a unit and the
    least gcd with the modulus rises from step to step."""
    f = draw(st.sampled_from([2, 3, 4, 6]))
    m = f * draw(st.sampled_from([4, 6, 8, 9, 12, 25, 36]))
    n = draw(st.integers(1, max_dim))
    a = [[f * draw(st.integers(-2 * m, 2 * m)) for _ in range(n)] for _ in range(n)]
    for i in draw(st.sets(st.integers(0, n - 1))):
        a[i] = [draw(st.sampled_from([2, 3])) * x for x in a[i]]
    return a, m


@settings(max_examples=300, deadline=None)
@given(st.one_of(matrices_mod(), multiples_mod()))
def test_eliminate_matches_the_full_pivot_search(case):
    # Once a search finds the least gcd g dividing every entry, later ones
    # stop at the first entry of gcd g; pivots, signs and steps are those of
    # the search that reads every entry.
    mat, modulus = case
    ops, ref_ops = [], []
    ids = range(100, 100 + len(mat))
    got = _eliminate([row[:] for row in mat], modulus, ids, ops)
    assert got == eliminate_reference([row[:] for row in mat], modulus, ids, ref_ops)
    assert ops == ref_ops


def test_eliminate_matches_the_full_pivot_search_on_a_cover_core(monkeypatch):
    # At p = 101 over 3 base vertices (seed 0) Pic0 has 101 invariant
    # factors, so few core entries are units modulo kappa.
    doc = bench_inputs().random_cover(random.Random(0), 101, 3, 3)
    reduced = _reduced(derive(spec_from_dict(doc)).total.laplacian_rows())
    unit, ids, core, _, _ = unit_pivots(reduced, INTEGERS)
    kappa = abs(unit * integer_determinant(core))
    searched, real = Counter(), gcd

    def counted(side):
        return lambda x, y: searched.update([side]) or real(x, y)

    monkeypatch.setattr(snf, "gcd", counted("stopping"))
    monkeypatch.setitem(globals(), "gcd", counted("full"))
    ops, ref_ops = [], []
    got = _eliminate([row[:] for row in core], kappa, ids, ops)
    assert got == eliminate_reference([row[:] for row in core], kappa, ids, ref_ops)
    assert ops == ref_ops
    assert len(got[1]) == len(core) == 101
    # The full search takes about 316k gcds here, the stopping one about 9k.
    assert 10 * searched["stopping"] < searched["full"]
