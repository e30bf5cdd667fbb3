"""Exact integer linear algebra: determinants, ranks, Smith forms,
free quotients, minor enumeration, wedge expansion.

Everything works on plain ``list[list[int]]`` matrices with Python's
arbitrary-precision integers; no floating point is used anywhere.
All pivot choices follow fixed deterministic rules so that repeated
runs produce identical certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import TorsionDetected

__all__ = [
    "Smith",
    "det",
    "rank",
    "smith",
    "invariant_factors",
    "quotient_projection",
    "minors_all",
    "wedge_expand",
    "identity",
    "mat_mul",
]


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    if not a:
        return []
    inner = len(a[0])
    if inner == 0:
        return [[] for _ in a]
    ncols = len(b[0]) if b else 0
    return [
        [sum(row[k] * b[k][j] for k in range(inner)) for j in range(ncols)]
        for row in a
    ]


def det(m: list[list[int]]) -> int:
    """Determinant by fraction-free (Bareiss) elimination.

    The intermediate entries are minors of the input, so every
    division below is exact.
    """
    n = len(m)
    if n == 0:
        return 1
    a = [row[:] for row in m]
    sign = 1
    prev = 1
    for t in range(n - 1):
        if a[t][t] == 0:
            piv = next((i for i in range(t + 1, n) if a[i][t] != 0), None)
            if piv is None:
                return 0
            a[t], a[piv] = a[piv], a[t]
            sign = -sign
        for i in range(t + 1, n):
            ait = a[i][t]
            att = a[t][t]
            arow = a[i]
            trow = a[t]
            for j in range(t + 1, n):
                arow[j] = (arow[j] * att - ait * trow[j]) // prev
            arow[t] = 0
        prev = a[t][t]
    return sign * a[n - 1][n - 1]


def rank(m: list[list[int]]) -> int:
    """Rank over Q, computed fraction-free."""
    if not m or not m[0]:
        return 0
    a = [row[:] for row in m]
    nr, nc = len(a), len(a[0])
    prev = 1
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        arc = a[r][c]
        for i in range(r + 1, nr):
            aic = a[i][c]
            arow = a[i]
            rrow = a[r]
            for j in range(c + 1, nc):
                arow[j] = (arow[j] * arc - aic * rrow[j]) // prev
            arow[c] = 0
        prev = arc
        r += 1
        if r == nr:
            break
    return r


@dataclass
class Smith:
    """Certified Smith decomposition: u @ m @ v == d.

    u and v are unimodular; vinv is v's inverse, tracked during the
    reduction so quotient computations can section the projection.
    The diagonal of d is nonnegative and forms a divisibility chain.
    """

    u: list[list[int]]
    d: list[list[int]]
    v: list[list[int]]
    vinv: list[list[int]]

    def diagonal(self) -> list[int]:
        return [self.d[i][i] for i in range(min(len(self.d), len(self.d[0]) if self.d else 0))]


def smith(m: list[list[int]]) -> Smith:
    """Smith normal form with transform certificates.

    Pivot rule: among remaining entries, smallest absolute value,
    ties broken by lowest row then column index.
    """
    nr = len(m)
    nc = len(m[0]) if m else 0
    a = [row[:] for row in m]
    u = identity(nr)
    v = identity(nc)
    vinv = identity(nc)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]
        vinv[i], vinv[j] = vinv[j], vinv[i]

    def row_sub(i, j, q):
        # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_sub(j, i, q):
        # col_j -= q * col_i ; vinv gets the inverse row operation
        for row in a:
            row[j] -= q * row[i]
        for row in v:
            row[j] -= q * row[i]
        vinv[i] = [x + q * y for x, y in zip(vinv[i], vinv[j])]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(nr, nc):
        best = None
        best_abs = None
        for i in range(t, nr):
            for j in range(t, nc):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < best_abs):
                    best = (i, j)
                    best_abs = abs(x)
        if best is None:
            break
        if best[0] != t:
            swap_rows(t, best[0])
        if best[1] != t:
            swap_cols(t, best[1])
        for i in range(t + 1, nr):
            q = a[i][t] // a[t][t]
            if q:
                row_sub(i, t, q)
        for j in range(t + 1, nc):
            q = a[t][j] // a[t][t]
            if q:
                col_sub(j, t, q)
        if any(a[i][t] for i in range(t + 1, nr)) or any(
            a[t][j] for j in range(t + 1, nc)
        ):
            continue  # residues are smaller than the pivot; reselect
        offender = None
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if a[i][j] % a[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_sub(t, offender, -1)  # pull the bad row up, then repeat
            continue
        if a[t][t] < 0:
            negate_row(t)
        t += 1
    return Smith(u, a, v, vinv)


def invariant_factors(m: list[list[int]]) -> list[int]:
    """Nonzero invariant factors, positive, in divisibility order."""
    return [x for x in smith(m).diagonal() if x != 0]


def quotient_projection(
    rows: list[list[int]], ncols: int | None = None
) -> tuple[int, list[list[int]], list[list[int]]]:
    """Present Z^n modulo the span of ``rows`` as a free module.

    Returns (k, pi, sigma): pi is a k x n projection whose columns are
    the classes of the standard generators, sigma an n x k section
    with pi @ sigma = I.  Raises TorsionDetected when the quotient
    has a finite cyclic summand, i.e. some invariant factor exceeds 1.
    """
    if ncols is None:
        if not rows:
            raise ValueError("ncols required for an empty relation list")
        ncols = len(rows[0])
    if not rows:
        return ncols, identity(ncols), identity(ncols)
    s = smith(rows)
    diag = s.diagonal()
    nonzero = [x for x in diag if x != 0]
    r = len(nonzero)
    if any(x != 1 for x in nonzero):
        raise TorsionDetected(
            f"quotient has invariant factors {nonzero}", factors=nonzero
        )
    k = ncols - r
    pi = [[s.v[j][r + a] for j in range(ncols)] for a in range(k)]
    sigma = [[s.vinv[r + a][j] for a in range(k)] for j in range(ncols)]
    return k, pi, sigma


def minors_all(m: list[list[int]], allowed=(-1, 0, 1)):
    """First square submatrix whose determinant is not allowed.

    Enumeration is by size ascending, then lexicographic row and
    column subsets; returns (rows, cols, value) or None.  ``allowed``
    may be a container of values or a predicate.
    """
    if not m or not m[0]:
        return None
    ok = allowed if callable(allowed) else (lambda x, _a=allowed: x in _a)
    nr, nc = len(m), len(m[0])
    for size in range(1, min(nr, nc) + 1):
        for rsub in combinations(range(nr), size):
            for csub in combinations(range(nc), size):
                sub = [[m[i][j] for j in csub] for i in rsub]
                d = det(sub)
                if not ok(d):
                    return rsub, csub, d
    return None


def _det_small(sub: list[list[int]]) -> int:
    n = len(sub)
    if n == 1:
        return sub[0][0]
    if n == 2:
        return sub[0][0] * sub[1][1] - sub[0][1] * sub[1][0]
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = sub
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    return det(sub)


def wedge_expand(vectors: list[list[int]], n: int) -> dict[tuple[int, ...], int]:
    """Expand v_1 ^ ... ^ v_m over the standard monomial basis of Z^n.

    The coefficient of e_T is the maximal minor of the column matrix
    (v_1 | ... | v_m) on the rows T.  Returns a sparse dict without
    zero entries; the empty product is {(): 1}.
    """
    m = len(vectors)
    if m == 0:
        return {(): 1}
    if m > n:
        return {}
    support = [i for i in range(n) if any(v[i] for v in vectors)]
    out: dict[tuple[int, ...], int] = {}
    for idx in combinations(support, m):
        sub = [[v[i] for v in vectors] for i in idx]
        coef = _det_small(sub)
        if coef:
            out[idx] = coef
    return out
