"""Smith normal form over Z with transformation matrices.

All arithmetic uses Python integers, so there is no overflow.  Pivots are the
nonzero entries of least absolute value (ties: lowest row, then column), which
keeps coefficient growth modest and makes runs reproducible.  Every call
verifies U*A*V = D and certifies unimodularity of U and V by checking the
tracked inverses multiply to the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import VerificationError

Matrix = list[list[int]]


def _identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _mat_mul(a, b) -> Matrix:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            c = ai[k]
            if c == 0:
                continue
            bk = b[k]
            for j in range(cols):
                oi[j] += c * bk[j]
    return out


def integer_determinant(a) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    n = len(a)
    if n == 0:
        return 1
    m = [list(map(int, row)) for row in a]
    for row in m:
        if len(row) != n:
            raise ValueError("matrix is not square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


@dataclass(frozen=True)
class SmithDecomposition:
    """U * A * V = D with D diagonal and d_1 | d_2 | ... | d_r >= 0."""

    matrix: tuple[tuple[int, ...], ...]
    left: tuple[tuple[int, ...], ...]
    left_inverse: tuple[tuple[int, ...], ...]
    right: tuple[tuple[int, ...], ...]
    right_inverse: tuple[tuple[int, ...], ...]
    diagonal: tuple[int, ...]

    @property
    def rows(self) -> int:
        return len(self.left)

    @property
    def cols(self) -> int:
        return len(self.right)


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
    m, n = dec.rows, dec.cols
    uav = _mat_mul(_mat_mul([list(r) for r in dec.left], [list(r) for r in dec.matrix]),
                   [list(r) for r in dec.right])
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
    if _mat_mul([list(r) for r in dec.left], [list(r) for r in dec.left_inverse]) != _identity(m):
        raise VerificationError("snf.left_unimodular", "U * U^-1 is not the identity")
    if _mat_mul([list(r) for r in dec.right], [list(r) for r in dec.right_inverse]) != _identity(n):
        raise VerificationError("snf.right_unimodular", "V * V^-1 is not the identity")
