"""Exact integer linear algebra: determinants, ranks, Smith forms,
the free quotients of a bipartite block, the minor table, the
exterior-power table.

Everything works on plain ``list[list[int]]`` matrices with Python's
arbitrary-precision integers; no floating point is used anywhere.
All pivot choices follow fixed deterministic rules so that repeated
runs produce identical certificates.

``minors_all`` and ``wedge_expand`` share one primitive, `_wedge`: it
wedges a sparse vector, given as (bit, value) pairs, into a sparse
exterior element keyed by bitmask, the sign of each term being the
parity of the set bits below the new bit.  ``minors_all`` uses it to
expand each minor along its lowest row over the nonzero minors one
size smaller, so its cost follows the number of nonzero minors rather
than the number of square submatrices; a minor with no nonzero
expansion term is 0 and needs no entry.  ``wedge_expand`` uses it to
build the image of every basis subset from the image of that subset
less its lowest element, one wedge step per subset.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import TorsionDetected

__all__ = [
    "Smith",
    "det",
    "rank",
    "smith",
    "invariant_factors",
    "block_quotient",
    "minors_all",
    "wedge_expand",
    "identity",
]


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


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

    u and v are unimodular; uinv and vinv are their inverses, tracked
    during the reduction (one update per row or column operation) so
    quotient computations can section their projections.  The diagonal
    of d is nonnegative and forms a divisibility chain.
    """

    u: list[list[int]]
    d: list[list[int]]
    v: list[list[int]]
    uinv: list[list[int]]
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
    uinv = identity(nr)
    v = identity(nc)
    vinv = identity(nc)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]
        for row in uinv:
            row[i], row[j] = row[j], row[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]
        vinv[i], vinv[j] = vinv[j], vinv[i]

    def row_sub(i, j, q):
        # row_i -= q * row_j ; uinv gets the inverse column operation
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]
        for row in uinv:
            row[j] += q * row[i]

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
        for row in uinv:
            row[i] = -row[i]

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
    return Smith(u, a, v, uinv, vinv)


def invariant_factors(m: list[list[int]]) -> list[int]:
    """Nonzero invariant factors, positive, in divisibility order."""
    return [x for x in smith(m).diagonal() if x != 0]


def block_quotient(
    b: list[list[int]], ncols: int
) -> tuple[int, tuple[list[list[int]], list[list[int]]], tuple[list[list[int]], list[list[int]]]]:
    """The free quotients on both sides of one block, from one Smith form.

    ``b`` has ``len(b)`` rows and ``ncols`` columns.  Returns
    (r, (pi_row, sigma_row), (pi_col, sigma_col)) with r = rank b:

    - the row side presents Z^rows modulo the columns of b.  pi_row is
      the (rows - r) x rows tail of u, so pi_row @ b = 0, and sigma_row
      the matching rows x (rows - r) columns of uinv;
    - the column side presents Z^ncols modulo the rows of b.  pi_col
      is the (ncols - r) x ncols transpose of the tail columns of v, so
      b @ pi_col^T = 0, and sigma_col the matching rows of vinv,
      transposed;

    and pi @ sigma = I on each side.  With u b v = d, the columns of b
    span uinv's first r columns times d and its rows span d times
    vinv's first r rows, which the tails of u and v annihilate.  Both
    quotients are free exactly when every invariant factor is 1;
    otherwise this raises TorsionDetected.
    """
    nr = len(b)
    if not nr:
        eye = identity(ncols)
        return 0, ([], []), (eye, [row[:] for row in eye])
    s = smith(b)
    nonzero = [x for x in s.diagonal() if x != 0]
    if any(x != 1 for x in nonzero):
        raise TorsionDetected(
            f"quotient has invariant factors {nonzero}", factors=nonzero
        )
    r = len(nonzero)
    pi_row = s.u[r:]
    sigma_row = [row[r:] for row in s.uinv]
    pi_col = [[row[r + a] for row in s.v] for a in range(ncols - r)]
    sigma_col = [[s.vinv[r + a][y] for a in range(ncols - r)] for y in range(ncols)]
    return r, (pi_row, sigma_row), (pi_col, sigma_col)


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
                # r0 is the first row of the larger minor
                acc = _wedge(entries[r0], cols)
                if acc:
                    larger[rmask | 1 << r0] = acc
        table = larger
    return None


def _bits(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _wedge(vector: list[tuple[int, int]], element: dict[int, int]) -> dict[int, int]:
    """vector ^ element, with zero coefficients dropped.

    ``vector`` lists (1 << i, v_i) for its nonzero entries; ``element``
    maps the bitmask of each basis monomial to its coefficient.  Putting
    e_i in front of e_U takes one transposition per element of U below
    i, so the term's sign is the parity of those bits.
    """
    acc: dict[int, int] = {}
    for mask, v in element.items():
        for bit, a in vector:
            if mask & bit:
                continue
            term = -a * v if (mask & (bit - 1)).bit_count() & 1 else a * v
            key = mask | bit
            acc[key] = acc.get(key, 0) + term
    return {mask: v for mask, v in acc.items() if v}


def wedge_expand(
    columns: list[list[tuple[int, int]]], base: dict[int, int]
) -> list[dict[int, int]]:
    """The exterior-power table of ``columns`` over ``base``.

    Entry T (a bitmask over the columns) is c_t1 ^ ... ^ c_tm ^ base for
    the columns t1 < ... < tm in T, as a sparse element keyed by
    bitmask; with base {0: 1} that is the table of minors of the column
    matrix on the columns T.  Entry 0 is ``base``, and each further
    entry is its lowest column wedged into the entry of T less that
    column, so the whole table costs one `_wedge` per subset.
    """
    table = [base]
    for t in range(1, 1 << len(columns)):
        low = t & -t
        table.append(_wedge(columns[low.bit_length() - 1], table[t ^ low]))
    return table
