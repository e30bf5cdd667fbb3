"""Exact integer linear algebra: determinants, ranks, Smith forms,
free quotients, the minor table, wedge expansion.

Everything works on plain ``list[list[int]]`` matrices with Python's
arbitrary-precision integers; no floating point is used anywhere.
All pivot choices follow fixed deterministic rules so that repeated
runs produce identical certificates.

``minors_all`` never runs a determinant per submatrix.  It expands
each minor along its lowest row over the nonzero minors one size
smaller, so its cost follows the number of nonzero minors rather than
the number of square submatrices; a minor with no nonzero expansion
term is 0 and needs no entry.
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


def minors_all(m: list[list[int]]):
    """First square submatrix whose determinant is not 0, 1 or -1.

    Returns (rows, cols, value) for the first violator in the order
    size ascending, then lexicographic row subset, then lexicographic
    column subset; None when every minor is in {0, +1, -1}.

    The minors are built size by size from a table of the nonzero
    minors of the size below, ``{row mask: {column mask: value}}``.  A
    size-k minor on rows R and columns C is expanded along its lowest
    row r0 over the (k-1)-minors on R - {r0}, and each term is reached
    from a nonzero smaller minor by adding a row below its lowest row
    and a column where that row is nonzero.  Pruning the zeros is
    exact: a minor none of whose terms is reached has only zero terms,
    so it is 0, which is allowed.  No violator of size k is missed
    either, since all of them are in the table when it is read, and
    the least (rows, cols) among them is the one the plain enumeration
    meets first.
    """
    if not m or not m[0]:
        return None
    entries = [[(1 << j, v) for j, v in enumerate(row) if v] for row in m]
    table = {1 << r: dict(row) for r, row in enumerate(entries) if row}
    while table:
        bad = [
            (_bits(rmask), _bits(cmask), v)
            for rmask, cols in table.items()
            for cmask, v in cols.items()
            if v * v != 1
        ]
        if bad:
            return min(bad)
        larger = {}
        for rmask, cols in table.items():
            for r0 in range((rmask & -rmask).bit_length() - 1):
                acc: dict[int, int] = {}
                for cmask, v in cols.items():
                    for bit, a in entries[r0]:
                        if cmask & bit:
                            continue
                        # r0 is the first row; the column's position is
                        # the number of columns of cmask before it
                        term = -a * v if (cmask & (bit - 1)).bit_count() & 1 else a * v
                        key = cmask | bit
                        acc[key] = acc.get(key, 0) + term
                acc = {cmask: v for cmask, v in acc.items() if v}
                if acc:
                    larger[rmask | 1 << r0] = acc
        table = larger
    return None


def _bits(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


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
