"""Smith normal forms over Z, and cokernels of nonsingular matrices modulo
their determinant; all arithmetic is in Python integers.

``smith_normal_form`` is the dense route with full transforms, for small
matrices; in the package it only sorts ``cokernel_mod``'s summands.  Pivots
are the nonzero entries of least absolute value (ties: lowest row, then
column), and every call verifies U*A*V = D and that the tracked inverses of
U and V multiply to the identity.

``integer_determinant`` is a dense Bareiss determinant; it serves the small
dense matrices (the multiplication matrices of the class number's orbit
norms, character-evaluated Laplacians, the substitution route of eta(1)) and
is the independent reference for the tree count kappa, which ``picard``
takes from sparse rows.

``cokernel_mod`` presents coker A for a square A, given as sparse rows
{column: entry}, with kappa = |det A| > 0.  On those rows (Dumas, Saunders
and Villard) it pivots on entries +-1 over Z, then on the small core left
modulo kappa, which kills coker A (the modulus method of Domich, Kannan and
Trotter); it replays the rows of U it needs from its row operations and
certifies the result without transforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from math import gcd, prod
from operator import mul

from .arith import VerificationError

Matrix = list[list[int]]


def _identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _mat_mul(a, b) -> Matrix:
    out = []
    for ai in a:
        oi = [0] * (len(b[0]) if b else 0)
        for c, bk in zip(ai, b):
            if c:
                oi = [x + c * y for x, y in zip(oi, bk)]
        out.append(oi)
    return out


def integer_determinant(a) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination.

    Step k sets row_i = (P_k row_i - row_i[k] pivot_row) / P_(k-1), P_k the
    k-th pivot, so a row that is zero in the pivot column is only scaled.
    That scaling is deferred: a row stored with divisor P_s stands for
    itself times P_k / P_s.
    """
    m = [(list(map(int, row)), 1) for row in a]
    for row, _ in m:
        if len(row) != len(m):
            raise ValueError("matrix is not square")
    if not m:
        return 1
    sign, prev = 1, 1
    while len(m) > 1:
        k = next((k for k, (row, _) in enumerate(m) if row[0]), None)
        if k is None:
            return 0
        if k:
            m[0], m[k] = m[k], m[0]
            sign = -sign
        (top, s), rest = m[0], m[1:]
        pivot, tail = top[0] * prev // s, [x * prev // s for x in top[1:]]
        m = [
            ([(x * pivot - row[0] * y) // t for x, y in zip(row[1:], tail)], pivot)
            if row[0]
            else (row[1:], t)
            for row, t in rest
        ]
        prev = pivot
    [(row, s)] = m
    return sign * row[0] * prev // s


@dataclass(frozen=True)
class SmithDecomposition:
    """U * A * V = D with D diagonal and d_1 | d_2 | ... | d_r >= 0."""

    matrix: tuple[tuple[int, ...], ...]
    left: tuple[tuple[int, ...], ...]
    left_inverse: tuple[tuple[int, ...], ...]
    right: tuple[tuple[int, ...], ...]
    right_inverse: tuple[tuple[int, ...], ...]
    diagonal: tuple[int, ...]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def smith_normal_form(a) -> SmithDecomposition:
    """Smith decomposition of an integer matrix, with self-verification.

    Entries in a pivot row/column are cleared with single unimodular 2x2
    Bezout transforms rather than repeated quotient steps; this keeps the
    coefficient growth of the worked matrix and the transforms polynomial.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    for row in a:
        if len(row) != n:
            raise ValueError("ragged matrix")
    d = [list(map(int, row)) for row in a]
    u, uinv = _identity(m), _identity(m)
    v, vinv = _identity(n), _identity(n)

    def row_swap(i, k):
        d[i], d[k] = d[k], d[i]
        u[i], u[k] = u[k], u[i]
        for r in uinv:
            r[i], r[k] = r[k], r[i]

    def row_add(i, k, c):
        # row_i += c * row_k
        d[i] = [x + c * y for x, y in zip(d[i], d[k])]
        u[i] = [x + c * y for x, y in zip(u[i], u[k])]
        for r in uinv:
            r[k] -= c * r[i]

    def row_negate(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]
        for r in uinv:
            r[i] = -r[i]

    def row_combine(t, i):
        # Unimodular transform of rows (t, i) making d[t][t] = gcd and
        # d[i][t] = 0.  E = [[x, y], [-b/g, a/g]], so E^-1 = [[a/g, -y], [b/g, x]].
        a_, b_ = d[t][t], d[i][t]
        if b_ == 0:
            return
        if a_ != 0 and b_ % a_ == 0:
            row_add(i, t, -(b_ // a_))
            return
        g, x, y = _xgcd(a_, b_)
        ag, bg = a_ // g, b_ // g
        d[t], d[i] = (
            [x * p + y * q for p, q in zip(d[t], d[i])],
            [-bg * p + ag * q for p, q in zip(d[t], d[i])],
        )
        u[t], u[i] = (
            [x * p + y * q for p, q in zip(u[t], u[i])],
            [-bg * p + ag * q for p, q in zip(u[t], u[i])],
        )
        for r in uinv:
            r[t], r[i] = ag * r[t] + bg * r[i], -y * r[t] + x * r[i]

    def col_swap(j, k):
        for r in d:
            r[j], r[k] = r[k], r[j]
        for r in v:
            r[j], r[k] = r[k], r[j]
        vinv[j], vinv[k] = vinv[k], vinv[j]

    def col_combine(t, j):
        # Unimodular transform of columns (t, j) making d[t][t] = gcd and
        # d[t][j] = 0.  F = [[x, -b/g], [y, a/g]], so F^-1 = [[a/g, b/g], [-y, x]].
        a_, b_ = d[t][t], d[t][j]
        if b_ == 0:
            return
        if a_ != 0 and b_ % a_ == 0:
            q = -(b_ // a_)
            for r in d:
                r[j] += q * r[t]
            for r in v:
                r[j] += q * r[t]
            vinv[t] = [x - q * y for x, y in zip(vinv[t], vinv[j])]
            return
        g, x, y = _xgcd(a_, b_)
        ag, bg = a_ // g, b_ // g
        for r in d:
            r[t], r[j] = x * r[t] + y * r[j], -bg * r[t] + ag * r[j]
        for r in v:
            r[t], r[j] = x * r[t] + y * r[j], -bg * r[t] + ag * r[j]
        vinv[t], vinv[j] = (
            [ag * p + bg * q for p, q in zip(vinv[t], vinv[j])],
            [-y * p + x * q for p, q in zip(vinv[t], vinv[j])],
        )

    def find_pivot(t):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = d[i][j]
                if x != 0 and (best is None or abs(x) < abs(d[best[0]][best[1]])):
                    best = (i, j)
        return best

    t = 0
    while t < min(m, n):
        pos = find_pivot(t)
        if pos is None:
            break
        i, j = pos
        if i != t:
            row_swap(t, i)
        if j != t:
            col_swap(t, j)
        while True:
            for i in range(m):
                if i != t:
                    row_combine(t, i)
            for j in range(n):
                if j != t:
                    col_combine(t, j)
            if any(d[i][t] for i in range(m) if i != t):
                continue  # column clearing re-dirtied by the column pass
            # Force divisibility: pivot must divide the remaining submatrix.
            pivot = d[t][t]
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if d[i][j] % pivot != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_add(t, offender, 1)
        if d[t][t] < 0:
            row_negate(t)
        t += 1

    diag = tuple(d[i][i] for i in range(min(m, n)))
    dec = SmithDecomposition(
        matrix=tuple(tuple(map(int, row)) for row in a),
        left=tuple(tuple(r) for r in u),
        left_inverse=tuple(tuple(r) for r in uinv),
        right=tuple(tuple(r) for r in v),
        right_inverse=tuple(tuple(r) for r in vinv),
        diagonal=diag,
    )
    _verify(dec, d)
    return dec


def _verify(dec: SmithDecomposition, d: Matrix) -> None:
    m, n = len(dec.left), len(dec.right)
    uav = _mat_mul(_mat_mul(dec.left, dec.matrix), dec.right)
    for i in range(m):
        for j in range(n):
            want = dec.diagonal[i] if i == j and i < len(dec.diagonal) else 0
            if uav[i][j] != want:
                raise VerificationError("snf.transform", f"U*A*V != D at ({i}, {j})")
            if d[i][j] != want:
                raise VerificationError("snf.diagonal", f"worked matrix not diagonal at ({i}, {j})")
    for i in range(len(dec.diagonal) - 1):
        a, b = dec.diagonal[i], dec.diagonal[i + 1]
        if a < 0 or b < 0:
            raise VerificationError("snf.sign", f"negative invariant factor among {a}, {b}")
        if not ((a == 0 and b == 0) or (a != 0 and b % a == 0)):
            raise VerificationError("snf.divisibility", f"{a} does not divide {b}")
    if _mat_mul(dec.left, dec.left_inverse) != _identity(m):
        raise VerificationError("snf.left_unimodular", "U * U^-1 is not the identity")
    if _mat_mul(dec.right, dec.right_inverse) != _identity(n):
        raise VerificationError("snf.right_unimodular", "V * V^-1 is not the identity")


@dataclass(frozen=True)
class Cokernel:
    """coker a = Z^n / a Z^n as the sum of Z/d_i over ``factors`` d_i > 1.

    Row vector ``forms[i]`` (mod d_i) reads coordinate i of a class; column
    vector ``generators[j]`` (mod kappa) represents the j-th generator.
    """

    factors: tuple[int, ...]
    forms: tuple[tuple[int, ...], ...]
    generators: tuple[tuple[int, ...], ...]


def cokernel_mod(a: list[dict[int, int]], kappa: int) -> Cokernel:
    """Cokernel of a square integer matrix with |det a| = kappa > 0, given
    as sparse rows {column: entry} with columns in range(len(a)).

    Each pivot x of the elimination mod kappa contributes a summand
    Z/gcd(x, kappa), each row left zero a summand Z/kappa.  The dense Smith
    form of the small diagonal of summands above 1 sorts them into
    invariant factors, and its transforms give the rows of U and columns of
    U^-1 to replay.
    """
    n = len(a)
    summands, ops = _eliminate_mod(a, kappa)
    torsion = [(r, g) for r, g in summands if g > 1]
    dec = smith_normal_form([[g * (r == s) for s, _ in torsion] for r, g in torsion])
    keep = [i for i, d in enumerate(dec.diagonal) if d > 1]
    forms, gens = [[0] * n for _ in keep], [[0] * n for _ in keep]
    for f, w, i in zip(forms, gens, keep):
        for k, (r, _) in enumerate(torsion):
            f[r], w[r] = dec.left[i][k], dec.left_inverse[k][i]
        _replay(ops, f, w, kappa)
    factors = tuple(dec.diagonal[i] for i in keep)
    coker = Cokernel(
        factors,
        tuple(tuple(x % d for x in f) for f, d in zip(forms, factors)),
        tuple(map(tuple, gens)),
    )
    _certify(a, kappa, coker)
    return coker


def _eliminate_mod(a: list[dict[int, int]], kappa: int):
    """Diagonalize a, given as sparse rows, modulo kappa by sparse row and
    column operations.

    Returns ``(summands, ops)``: ``summands`` lists (row, gcd(pivot, kappa))
    per pivot and (row, kappa) per row left zero; ``ops`` records the row
    operations in order, ``(i, r, m)`` for row_i -= m row_r and
    ``(r, i, s, t, u, v)`` for (row_r, row_i) <- (s row_r + t row_i,
    u row_r + v row_i).  Column operations go unrecorded: the cokernel's
    forms and generators only need U.

    Phase 1 pivots over Z on entries +-1, which are unimodular: the
    shortest live row of a heap keyed by length pivots at its +-1 column
    with the fewest active rows (ties: the lowest), or, holding none, leaves
    the heap until an update pushes it back.  The core left has the same
    cokernel; its entries are minors of a.  Phase 2 reduces it modulo kappa
    and pivots on an entry x of least gcd g with kappa, ties broken by the
    Markowitz count (row length - 1)(column length - 1); while g does not
    divide some entry y of its row or column, a Bezout step on the two rows
    or columns replaces x by gcd(x, y), which strictly lowers g.  Each
    phase clears the pivot column by row steps and its row by column steps.
    """
    rows = [{j: x for j, x in row.items() if x} for row in a]
    cols: list[set[int]] = [set() for _ in a]
    for i, row in enumerate(rows):
        for j in row:
            cols[j].add(i)
    active, ops, summands = set(range(len(a))), [], []

    def put(i, j, x):
        if x:
            rows[i][j] = x
            cols[j].add(i)
        else:
            rows[i].pop(j, None)
            cols[j].discard(i)

    def retire(r, g):
        for j in rows[r]:
            cols[j].discard(r)
        active.discard(r)
        summands.append((r, g))

    heap = sorted((len(row), i) for i, row in enumerate(rows))  # sorted, so a heap
    while heap:  # phase 1
        size, r = heappop(heap)
        live = r in active and size == len(rows[r])  # not pivoted, nor pushed again since
        units = [j for j, x in rows[r].items() if x in (1, -1)] if live else ()
        if units:
            c = min(units, key=lambda j: (len(cols[j]), j))
            for i in cols[c] - {r}:
                m = rows[i][c] * rows[r][c]  # the pivot +-1 is its own inverse
                for j, y in rows[r].items():
                    put(i, j, rows[i].get(j, 0) - m * y)
                ops.append((i, r, m))
                heappush(heap, (len(rows[i]), i))
            retire(r, 1)
    for i in active:  # phase 2
        for j, x in list(rows[i].items()):
            put(i, j, x % kappa)
    while any(rows[i] for i in active):
        best = (kappa, 0, 0, 0)
        for i in active:
            for j, x in rows[i].items():
                cost = (len(rows[i]) - 1) * (len(cols[j]) - 1)
                if best[0] > 1 or cost < best[1]:  # no gcd is below 1
                    best = min(best, (gcd(x, kappa), cost, i, j))
        _, _, r, c = best
        while True:
            x = rows[r][c]
            g = gcd(x, kappa)
            bad = [(i, c) for i in cols[c] if rows[i][c] % g] or [
                (r, j) for j, y in rows[r].items() if y % g
            ]
            if not bad:
                break
            i, j = bad[0]
            y = rows[i][j]
            h, s, t = _xgcd(x, y)
            u, v = -(y // h), x // h
            if j == c:
                pairs = [((r, k), (i, k)) for k in rows[r].keys() | rows[i].keys()]
                ops.append((r, i, s, t, u, v))
            else:
                pairs = [((k, c), (k, j)) for k in cols[c] | cols[j]]
            for (i1, j1), (i2, j2) in pairs:
                p, q = rows[i1].get(j1, 0), rows[i2].get(j2, 0)
                put(i1, j1, (s * p + t * q) % kappa)
                put(i2, j2, (u * p + v * q) % kappa)
        modulus = kappa // g
        inverse = pow(x // g, -1, modulus)
        for i in cols[c] - {r}:
            m = rows[i][c] // g * inverse % modulus
            for j, y in rows[r].items():
                put(i, j, (rows[i].get(j, 0) - m * y) % kappa)
            ops.append((i, r, m))
        retire(r, g)
    return summands + [(r, kappa) for r in sorted(active)], ops


def _replay(ops, f: list[int], w: list[int], kappa: int) -> None:
    """Turn f into f^T U and w into U^-1 w, modulo kappa, in place.

    U = E_T ... E_1 is the product of the recorded row operations, so
    f^T U = f^T E_T ... E_1 and U^-1 w = E_1^-1 ... E_T^-1 w: both replay
    the record backwards, touching two entries per operation.
    """
    for op in reversed(ops):
        if len(op) == 3:
            i, k, m = op  # E = I - m e_i e_k^T
            f[k] = (f[k] - m * f[i]) % kappa
            w[i] = (w[i] + m * w[k]) % kappa
        else:
            i, k, s, t, u, v = op  # E = [[s, t], [u, v]] on rows i, k
            f[i], f[k] = (s * f[i] + u * f[k]) % kappa, (t * f[i] + v * f[k]) % kappa
            w[i], w[k] = (v * w[i] - t * w[k]) % kappa, (s * w[k] - u * w[i]) % kappa


def _certify(a: list[dict[int, int]], kappa: int, coker: Cokernel) -> None:
    """Certify coker a = sum of Z/d_i without any transform.

    phi = (forms[i] mod d_i) kills the columns of a, so it is well defined
    on coker a; it sends generator j to the j-th unit vector, so it is onto;
    and both groups have order kappa = |det a|, so it is an isomorphism.
    """
    factors = coker.factors
    for x, y in zip(factors, factors[1:]):
        if y % x:
            raise VerificationError("snf.cokernel_divisibility", f"{x} does not divide {y}")
    if prod(factors) != kappa:
        raise VerificationError(
            "snf.cokernel_order", f"invariant factors multiply to {prod(factors)}, not {kappa}"
        )
    columns: list[list[tuple[int, int]]] = [[] for _ in a]
    for i, row in enumerate(a):
        for j, x in row.items():
            columns[j].append((i, x))
    for i, (d, f) in enumerate(zip(factors, coker.forms)):
        if any(sum(f[k] * x for k, x in col) % d for col in columns):
            raise VerificationError("snf.cokernel_relations", f"form {i} does not kill a mod {d}")
        if any((sum(map(mul, f, w)) - (i == j)) % d for j, w in enumerate(coker.generators)):
            raise VerificationError(
                "snf.cokernel_generators", f"form {i} misreads a generator mod {d}"
            )
