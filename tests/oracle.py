"""Independent reference implementations used only by the test suite.

Everything here is deliberately naive or delegated to sympy so that it
shares no code with the package under test.  The one exception is the
dense n x n state-module presentation, which reduces its relation rows
with the package's `smith` (itself checked against sympy) so that the
block presentation of `state_module` can be compared with it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import sympy
from sympy.matrices.normalforms import smith_normal_form

from graphlink.errors import TorsionDetected
from graphlink.intlinalg import smith


def mat_mul(a, b):
    """Plain matrix product of two lists of rows."""
    ncols = len(b[0]) if b else 0
    return [[sum(x * b[k][j] for k, x in enumerate(row)) for j in range(ncols)] for row in a]


def det_cofactor(m):
    """Determinant by recursive cofactor expansion. Exponential; n <= 6."""
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in m[1:]]
        total += (-1) ** j * m[0][j] * det_cofactor(minor)
    return total


def det_fraction(m):
    """Determinant by plain Gaussian elimination with Fractions."""
    rows = [[Fraction(x) for x in row] for row in m]
    n = len(rows)
    total = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            total = -total
        total *= rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] / rows[c][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return int(total)


def first_bad_minor(m):
    """(rows, cols, value) of the first minor outside {0, +1, -1}, or None.

    Every square submatrix gets its own determinant, in the order size
    ascending, then lexicographic row subset, then column subset.
    """
    if not m or not m[0]:
        return None
    nr, nc = len(m), len(m[0])
    for size in range(1, min(nr, nc) + 1):
        for rsub in combinations(range(nr), size):
            for csub in combinations(range(nc), size):
                d = det_fraction([[m[i][j] for j in csub] for i in rsub])
                if d not in (-1, 0, 1):
                    return rsub, csub, d
    return None


def wedge_product(vectors, n):
    """Expand v_1 ^ ... ^ v_m over the standard monomial basis of Z^n.

    The coefficient of e_T is the maximal minor of the column matrix
    (v_1 | ... | v_m) on the rows T, one cofactor determinant per row
    subset in lexicographic order.  Zero coefficients are left out; the
    empty product is {(): 1}.
    """
    m = len(vectors)
    out = {}
    for rows in combinations(range(n), m):
        coef = det_cofactor([[v[i] for v in vectors] for i in rows])
        if coef:
            out[rows] = coef
    return out


def principal_pivot_transform(m, idx):
    """The principal pivot transform of square ``m`` at the index list
    ``idx``, whose principal block must be invertible: with that block
    P, the rest Q and the off blocks B (idx rows) and C (idx columns),
    the result has P^-1, -P^-1 B, C P^-1 and Q - C P^-1 B in place."""
    n, k = len(m), len(idx)
    aug = [
        [Fraction(m[i][j]) for j in idx] + [Fraction(int(r == c)) for c in range(k)]
        for r, i in enumerate(idx)
    ]
    for c in range(k):
        piv = next(r for r in range(c, k) if aug[r][c] != 0)
        aug[c], aug[piv] = aug[piv], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for r in range(k):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    inv = [row[k:] for row in aug]
    pos = {i: a for a, i in enumerate(idx)}
    out = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i in pos and j in pos:
                out[i][j] = inv[pos[i]][pos[j]]
            elif i in pos:
                out[i][j] = -sum(inv[pos[i]][b] * m[idx[b]][j] for b in range(k))
            elif j in pos:
                out[i][j] = sum(m[i][idx[a]] * inv[a][pos[j]] for a in range(k))
            else:
                out[i][j] = m[i][j] - sum(
                    m[i][idx[a]] * inv[a][b] * m[idx[b]][j]
                    for a in range(k)
                    for b in range(k)
                )
    return out


def rank_fraction(m):
    """Rank over Q by plain Gaussian elimination with Fractions."""
    rows = [[Fraction(x) for x in row] for row in m]
    ncols = len(m[0]) if m else 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c] / rows[r][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def rank_mod2(m):
    """Rank over GF(2) by plain Gaussian elimination on 0/1 lists."""
    rows = [[x % 2 for x in row] for row in m]
    ncols = len(m[0]) if m else 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                rows[i] = [a ^ b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def invariant_factors_sympy(m):
    """Nonzero invariant factors (positive, divisibility chain) via sympy."""
    if not m or not m[0]:
        return []
    d = smith_normal_form(sympy.Matrix(m))
    out = []
    for i in range(min(d.rows, d.cols)):
        v = abs(d[i, i])
        if v != 0:
            out.append(int(v))
    out.sort()
    return out


def cokernel_sympy(rel_rows, n):
    """(free rank, sorted torsion factors > 1) of Z^n / row span."""
    if not rel_rows:
        return n, []
    facs = invariant_factors_sympy(rel_rows)
    return n - len(facs), sorted(f for f in facs if f > 1)


def homology_block_sympy(d_in, d_out, dim):
    """(betti, torsion>1 list) of ker(d_out)/im(d_in).

    d_in maps a lower degree into this one, d_out maps out of it; both
    are given as entry lists with columns indexed by this degree's
    generators (d_in: dim columns is wrong way round -- d_in has `dim`
    ROWS).  Pass [] for a missing map.
    """
    rank_out = rank_fraction(d_out) if d_out and d_out[0] else 0
    if d_in and d_in[0]:
        facs = invariant_factors_sympy(d_in)
        rank_in = len(facs)
        torsion = sorted(f for f in facs if f > 1)
    else:
        rank_in = 0
        torsion = []
    return dim - rank_out - rank_in, torsion


def relation_rows(g, s):
    """The n x n relation rows R(s) of the state module V(s): row i is
    [i not in s] e_i - sum over j in s of sgn_j A_ij e_j."""
    inside = [j for j in range(g.n) if s >> j & 1]
    rows = []
    for i in range(g.n):
        row = [0] * g.n
        if not s >> i & 1:
            row[i] = 1
        for j in inside:
            row[j] += -g.signs[j] * g.adj[i][j]
        rows.append(row)
    return rows


def quotient_projection(rows, ncols):
    """Present Z^ncols modulo the span of ``rows`` as a free module.

    Returns (k, pi, sigma): pi is a k x ncols projection whose columns
    are the classes of the standard generators, sigma an ncols x k
    section with pi @ sigma = I.  Raises TorsionDetected when some
    invariant factor exceeds 1.
    """
    if not rows:
        eye = [[int(i == j) for j in range(ncols)] for i in range(ncols)]
        return ncols, eye, [row[:] for row in eye]
    s = smith(rows)
    nonzero = [x for x in s.diagonal() if x != 0]
    if any(x != 1 for x in nonzero):
        raise TorsionDetected(f"quotient has invariant factors {nonzero}", factors=nonzero)
    r = len(nonzero)
    k = ncols - r
    pi = [[s.v[j][r + a] for j in range(ncols)] for a in range(k)]
    sigma = [[s.vinv[r + a][j] for a in range(k)] for j in range(ncols)]
    return k, pi, sigma


def grading_i(g, s):
    """Cube height of state s by its per-vertex definition: each
    negative vertex inside s and each positive vertex outside it counts
    one arrow taken from the bottom of the cube."""
    total = 0
    for v in range(g.n):
        inside = s >> v & 1
        total += inside if g.signs[v] == -1 else 1 - inside
    return total


def coordinate_is_source(g, s, v):
    """Whether the cube arrow in coordinate v leaves state s: a positive
    vertex leaves s, a negative vertex joins it."""
    inside = bool(s >> v & 1)
    return inside == (g.signs[v] == 1)
