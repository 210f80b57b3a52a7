"""Determinants over Z and modulo M, cokernels of nonsingular matrices, and
the one sparse elimination on unit pivots (``unit_pivots``) over a ring
record (``Ring``): Z (``INTEGERS``), F_p (``prime_field``) or Z[G]
(``groupring.CyclicGroup.ring``), which certifies each result in that ring's
own arithmetic.

``cokernel`` gives det A and coker A for a square A given as sparse rows
(Dumas, Saunders and Villard): ``unit_pivots`` over Z leaves a dense core
whose Bareiss determinant gives det A, and ``_eliminate`` reduces the core
modulo kappa = |det A|, which kills coker A (Domich, Kannan and Trotter), on
units and, where none is left, after Bezout steps of determinant 1 (Cohen,
GTM 138, 2.4), as ``det_mod`` does for any modulus.  2x2 gcd/lcm steps sort
its summands into invariant factors, one replay of its row operations modulo
the exponent gives the forms and generators, certified without transforms.
"""

from __future__ import annotations

import random
from bisect import bisect, insort
from dataclasses import dataclass
from functools import cache, lru_cache, partial, reduce
from heapq import heappop, heappush
from math import gcd, prod
from operator import neg
from typing import Callable

from .arith import VerificationError

Matrix = list[list[int]]


def _identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


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


@dataclass(frozen=True)
class Cokernel:
    """coker a = Z^n / a Z^n as the sum of Z/d_i over ``factors`` d_i > 1.

    Row vector ``forms[i]`` (mod d_i) reads coordinate i of a class; column
    vector ``generators[j]`` (mod d_r, which kills coker a) is generator j.
    """

    factors: tuple[int, ...]
    forms: tuple[tuple[int, ...], ...]
    generators: tuple[tuple[int, ...], ...]


def cokernel(a: list[dict[int, int]], first=None) -> tuple[int, Cokernel | None]:
    """det a and coker a (None when det a = 0) for a square integer matrix of
    sparse rows, columns in range(len(a)), after ``first`` = its unit pivots.

    Each pivot x of the core's elimination modulo kappa = |det a| gives a
    summand Z/gcd(x, kappa), each row left zero Z/kappa.  ``_sort_diagonal``
    sorts the summands above 1 into invariant factors, and one ``_replay``
    carries its rows of U and columns of U^-1 back to a, modulo the exponent.
    """
    unit, ids, core, ops, _ = first or unit_pivots(a, INTEGERS)
    det = unit * integer_determinant(core)
    if not det:
        return 0, None
    kappa = abs(det)
    summands = dict.fromkeys(ids, kappa)
    summands.update((r, gcd(x, kappa)) for r, x in _eliminate(core, kappa, ids, ops)[1])
    torsion = [(r, g) for r, g in summands.items() if g > 1]
    diagonal, left, right = _sort_diagonal([g for _, g in torsion], kappa)
    keep = [i for i, d in enumerate(diagonal) if d > 1]
    factors = tuple(diagonal[i] for i in keep)
    e = factors[-1] if factors else 1
    # Entry k of either list holds coordinate k of every form, or generator.
    forms, gens = [[0] * len(keep) for _ in a], [[0] * len(keep) for _ in a]
    for k, (r, _) in enumerate(torsion):
        forms[r], gens[r] = ([m[i][k] % e for i in keep] for m in (left, right))
    _replay(ops, forms, gens, e)
    coker = Cokernel(
        factors,
        tuple(tuple(x % d for x in f) for f, d in zip(zip(*forms), factors)),
        tuple(zip(*gens)),
    )
    _certify(a, kappa, coker)
    return det, coker


def _sort_diagonal(summands: list[int], modulus: int):
    """Sort D = diag(summands) into U D V = diag(d), d_1 | d_2 | ..., by steps
    (a, b) -> (g, ab/g) that make entry i divide each later one: s a + t b = g,
    U = [[s, t], [-b/g, a/g]], U^-1 = [[a/g, -t], [b/g, s]] and V = [[1, -t b/g],
    [1, s a/g]].  Returns d, the rows of U and the columns of U^-1 mod ``modulus``."""
    d, rows, cols = list(summands), _identity(len(summands)), _identity(len(summands))
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            a, b = d[i], d[j]
            if b % a:
                g, s, t = _xgcd(a, b)
                d[i], d[j], x, y = g, a // g * b, a // g, b // g
                ri, rj, ci, cj = rows[i], rows[j], cols[i], cols[j]
                rows[i] = [(s * p + t * q) % modulus for p, q in zip(ri, rj)]
                rows[j] = [(x * q - y * p) % modulus for p, q in zip(ri, rj)]
                cols[i] = [(x * p + y * q) % modulus for p, q in zip(ci, cj)]
                cols[j] = [(s * q - t * p) % modulus for p, q in zip(ci, cj)]
    return d, rows, cols


@dataclass(frozen=True)
class Ring:
    """A commutative ring, maybe with zero divisors, as ``unit_pivots`` takes
    it: elements compare with ==; ``inverse(x)`` is None where the kernel may
    not pivot; ``neg(x)`` is -x, ``fma(x, m, y)`` is x + m y and
    ``scalar(c)`` is the integer c times one."""

    zero: object
    one: object
    inverse: Callable
    neg: Callable
    fma: Callable
    scalar: Callable


# Z on Python integers, pivoting on +-1.
INTEGERS = Ring(0, 1, {1: 1, -1: -1}.get, neg, lambda x, m, y: x + m * y, int)


@cache
def prime_field(p: int) -> Ring:
    """F_p on residues in range(p), each but 0 a unit."""
    inverse = {x: pow(x, -1, p) for x in range(1, p)}.get
    return Ring(0, 1, inverse, lambda x: -x % p, lambda x, m, y: (x + m * y) % p, p.__rmod__)


def unit_pivots(a: list[dict], ring: Ring):
    """Sparse elimination on unit pivots over ``ring`` of the rows ``a``,
    {column: element}, columns in range(len(a)): ``(scale, ids, core, ops,
    pivots)``, certified, with det a = scale * det(core) for a square a.

    The shortest row of a heap keyed by length, where a row is queued again
    as it shrinks, at its length when a shorter entry of it comes up, and
    after a step if it held no unit, pivots at its unit column with the
    fewest active rows, ties to the lowest, which row steps ``(i, r, m)``,
    row_i -= m row_r, clear.  ``pivots`` lists (row, column, pivot) in order,
    each row frozen without its pivot; the rows ``ids`` and columns left, in
    order, form the dense ``core`` (empty: det 1); scale is the pivots'
    product times the sign of the matching.  Over Z the core has coker a.
    """
    zero, inverse, neg, fma = ring.zero, ring.inverse, ring.neg, ring.fma
    rows = list(map(dict, a))  # copies, from which a row holding zeros drops them
    rows = [{j: x for j, x in r.items() if x != zero} if zero in r.values() else r for r in rows]
    cols: list[set[int]] = [set() for _ in a]
    for i, row in enumerate(rows):
        for j in row:
            cols[j].add(i)
    match, order, scale, ops = {}, [], ring.one, []  # match: row -> column
    heap = sorted((len(row), i) for i, row in enumerate(rows))  # sorted, so a heap
    queued = [len(row) for row in rows]  # the one length each row is queued at
    while heap:
        size, r = heappop(heap)
        top = rows[r]
        if r in match or size != queued[r]:  # pivoted, or queued again since
            continue
        if size < len(top):  # grown since: queued again at its length
            heappush(heap, (len(top), r))
            queued[r] = len(top)
            continue
        units = [j for j, x in top.items() if inverse(x) is not None]
        if not units:
            queued[r] = len(a) + 1  # the next step that changes the row queues it
            continue
        c = min(zip(map(len, map(cols.__getitem__, units)), units))[1]
        pivot = top.pop(c)  # no row keeps column c, so cols[c] is not read again
        minus = neg(inverse(pivot))
        cols[c].discard(r)
        for i in cols[c]:
            row = rows[i]
            m = fma(zero, row.pop(c), minus)  # row_i += m row_r
            for j, y in top.items():
                if j in row:
                    if (x := fma(row[j], m, y)) != zero:
                        row[j] = x
                    else:
                        del row[j]
                        cols[j].discard(i)
                elif (x := fma(zero, m, y)) != zero:  # m y may be 0 over zero divisors
                    row[j] = x
                    cols[j].add(i)
            ops.append((i, r, neg(m)))
            if len(row) < queued[i]:
                heappush(heap, (len(row), i))
                queued[i] = len(row)
        for j in top:
            cols[j].discard(r)
        scale = fma(zero, scale, pivot)
        match[r] = c
        order.append((r, c, pivot))
    sign, ids, free = _matching(match, len(a))
    if sign < 0:
        scale = neg(scale)
    core = [[rows[i].get(j, zero) for j in free] for i in ids]
    _certify_pivots(a, ring, rows, order, (scale, ids, core, ops))
    return scale, ids, core, ops, [(rows[r], c, x) for r, c, x in order]


def _matching(match: dict[int, int], n: int):
    """Complete ``match``, each pivot row -> its column, by the rows left and
    the columns left, both in order, consuming it: the permutation's sign,
    (-1)^(n - its cycles), the rows left and the columns left."""
    ids = [i for i in range(n) if i not in match]
    free = sorted(set(range(n)).difference(match.values()))
    match.update(zip(ids, free))
    cycles = 0
    for i in range(n):
        if (j := match.pop(i, None)) is not None:  # a cycle starts at i: walk it
            cycles += 1
            while (j := match.pop(j, None)) is not None:
                pass
    return (-1) ** (n - cycles), ids, free


@lru_cache(maxsize=256)
def _vector(n: int) -> tuple[int, ...]:
    """The certificate's seeded vector of length n, entries below 2^30."""
    return tuple(random.Random(n).choices(range(1 << 30), k=n))


def _certify_pivots(a, ring: Ring, rows, order, result) -> None:
    """The check ``snf.unit_pivots`` on the kernel's ``result``, in the ring,
    linear in a, the steps and the result (Freivalds; Kaltofen, Nehring and
    Saunders).  Structure: the pivots, (r, c, pivot) in ``order``, are units on
    distinct rows and columns, each pivot row zero at its own and earlier pivot
    columns, each row left at all of them, the core those rows on the other
    columns; no step adds a row to itself.  Scale: the pivots' product, negated
    for an odd count of inversions of the matching.  Row steps: undone on B x,
    B the final rows with pivots, they give a x, x seeded integers below 2^30
    times one: a wrong row passes with chance <= 2^-30 over a free Z-module
    (Z, Z[G]), about 1/p over F_p.  A call without pivots must return a
    itself, densified: no steps, every row left, scale one and core a, each
    compared exactly, with no arithmetic."""
    scale, ids, core, ops = result
    n, zero, fma = len(a), ring.zero, ring.fma
    if not order:
        if ops or scale != ring.one or ids != list(range(n)) or core != [
            [row.get(j, zero) for j in range(n)] for row in a
        ]:
            raise VerificationError("snf.unit_pivots", "a call without pivots does not return a")
        return
    prows, pcols, pivots = list(zip(*order)) or [(), (), ()]
    tails, done = list(map(rows.__getitem__, prows)), set()
    for r, c in zip(prows, pcols):
        done.add(c)
        if not done.isdisjoint(rows[r]):
            raise VerificationError("snf.unit_pivots", f"pivot row {r} is not zero at the pivots")
    free = sorted(set(range(n)).difference(done))
    if (
        min(len(done), len(set(prows))) < len(order) or None in map(ring.inverse, pivots)
        or ids != sorted(set(range(n)).difference(prows))
        or [len(row) for row in core] != [len(free)] * len(ids)
        or not all(map(done.isdisjoint, map(rows.__getitem__, ids)))
        or any(i == r for i, r, _ in ops)
    ):
        raise VerificationError("snf.unit_pivots", "the pivots are not units of a core off them")
    perm = dict(zip(prows + tuple(ids), pcols + tuple(free)))  # row -> column
    seen, inversions = [], 0
    for j in map(perm.__getitem__, range(n)):
        inversions += len(seen) - bisect(seen, j)
        insort(seen, j)
    product = reduce(partial(fma, zero), pivots, ring.one)
    if (ring.neg(product) if inversions % 2 else product) != scale:
        raise VerificationError("snf.unit_pivots", f"scale {scale} != the signed product")
    x = list(map(ring.scalar, _vector(n)))

    def dot(terms):  # the sum of e x_j over the pairs (j, e)
        acc = zero
        for j, e in terms:
            acc = fma(acc, x[j], e)
        return acc

    bx = dict(zip(ids, (dot(zip(free, row)) for row in core)))
    bx.update((r, fma(dot(t.items()), x[c], v)) for r, t, c, v in zip(prows, tails, pcols, pivots))
    for i, r, m in reversed(ops):  # undo row_i -= m row_r
        bx[i] = fma(bx[i], m, bx[r])
    if any(bx[i] != dot(row.items()) for i, row in enumerate(a)):
        raise VerificationError("snf.unit_pivots", "the recorded steps do not take a to B")


def det_mod(rows, modulus: int) -> int:
    """Determinant of a square integer matrix modulo ``modulus`` >= 1, in
    range(modulus), by ``_eliminate``."""
    mat = [list(row) for row in rows]
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("matrix is not square")
    det, pivots = _eliminate(mat, modulus, range(n), [])
    for _, x in pivots:
        det = det * x % modulus
    return det % modulus if len(pivots) == n else 0


def _eliminate(mat: Matrix, modulus: int, ids, ops: list):
    """Eliminate a square integer matrix modulo ``modulus``, consuming ``mat``,
    whose row k has id ``ids[k]``.

    Each step pivots on the first entry x, in row order, that is a unit.
    With none left it takes the first entry x of least gcd g with the modulus
    and, while g does not divide some y in x's column or row, a Bezout step
    of determinant 1 on the two rows or columns replaces x by gcd(x, y),
    which strictly lowers g.  Row steps clear x's column; x's row goes with
    it, as g divides the row, and det = +-x det(rest).  Rows are reduced as
    the search reads them; a cleared row takes m times the reduced pivot row,
    so its entries grow by less than modulus^2 a step.

    Once a search that read every entry finds g dividing all of them, every
    later entry is a multiple of g, as steps only combine entries modulo a
    multiple of g: no gcd falls below g, so later searches stop at the first
    entry of gcd g, the one a search of every entry would take.

    Row steps are appended to ``ops`` as ``_replay`` reads them.
    Returns ``(sign, pivots)``, pivots listing (id, x) in order: the rows not
    listed are left zero, and if none is, det = sign * prod(x) mod modulus.
    """
    ids = list(ids)
    sign, pivots, floor = 1, [], 1  # no entry has a gcd below floor
    while mat:
        g, k = modulus, None
        for i, row in enumerate(mat):
            row[:] = [x % modulus for x in row]
            for j, x in enumerate(row):
                if x and (h := gcd(x, modulus)) < g:
                    g, k, c = h, i, j
                    if g == floor:
                        break
            if g == floor and k is not None:
                break
        else:  # every row is reduced and holds no entry of gcd floor
            if k is None:  # every entry is 0
                break
            if all(x % g == 0 for row in mat for x in row):
                floor = g
            while bad := [(i, c) for i, row in enumerate(mat) if row[c] % g] or [
                (k, j) for j, y in enumerate(mat[k]) if y % g
            ]:
                (i, j), x = bad[0], mat[k][c]
                y = mat[i][j]
                h, s, t = _xgcd(x, y)
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


def _replay(ops, forms: list[list[int]], gens: list[list[int]], modulus: int) -> None:
    """Turn each form f into f^T U and each generator w into U^-1 w, modulo
    ``modulus``, in place; ``forms[k]`` and ``gens[k]`` list their coordinate k.

    U = E_T ... E_1 is the product of the recorded row operations, so
    f^T U = f^T E_T ... E_1 and U^-1 w = E_1^-1 ... E_T^-1 w: both replay the
    record once backwards.  The generators start on the core, and phase 1
    never changes a row it has pivoted on, so its steps leave them unchanged.
    """
    width = range(len(forms[0]) if forms else 0)
    for op in reversed(ops):
        fi, fk, wi, wk = forms[op[0]], forms[op[1]], gens[op[0]], gens[op[1]]
        if len(op) == 3:
            m = op[2]  # E = I - m e_i e_k^T
            for c in width:
                fk[c] = (fk[c] - m * fi[c]) % modulus
            if any(wk):
                for c in width:
                    wi[c] = (wi[c] + m * wk[c]) % modulus
        else:
            s, t, u, v = op[2:]  # E = [[s, t], [u, v]] on rows i, k
            for c in width:
                fi[c], fk[c] = (s * fi[c] + u * fk[c]) % modulus, (t * fi[c] + v * fk[c]) % modulus
                wi[c], wk[c] = (v * wi[c] - t * wk[c]) % modulus, (s * wk[c] - u * wi[c]) % modulus


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
    gens = [[(k, x) for k, x in enumerate(w) if x] for w in coker.generators]
    for i, (d, f) in enumerate(zip(factors, coker.forms)):
        image = [0] * len(a)  # f^T a, read through the rows of a
        for c, row in zip(f, a):
            if c:
                for j, x in row.items():
                    image[j] += c * x
        if any(x % d for x in image):
            raise VerificationError("snf.cokernel_relations", f"form {i} does not kill a mod {d}")
        if any((sum(f[k] * x for k, x in w) - (i == j)) % d for j, w in enumerate(gens)):
            raise VerificationError(
                "snf.cokernel_generators", f"form {i} misreads a generator mod {d}"
            )
