import random

from graphlink.intlinalg import (
    block_quotient,
    det,
    identity,
    invariant_factors,
    minors_all,
    rank,
    smith,
    wedge_expand,
)
from graphlink.errors import TorsionDetected
from graphlink.pu import random_pu_graph

from oracle import (
    cokernel_sympy,
    det_cofactor,
    first_bad_minor,
    invariant_factors_sympy,
    mat_mul,
    rank_fraction,
    wedge_product,
)

import pytest

# Skew-symmetric matrix of the odd 4-cycle; its determinant is the
# smallest witness that a state determinant can exceed 1.
ODD_SQUARE = [
    [0, 1, 1, 0],
    [-1, 0, 0, 1],
    [-1, 0, 0, -1],
    [0, -1, 1, 0],
]


def random_matrix(rng, rows, cols, lo=-3, hi=3):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def test_det_base_cases():
    assert det([]) == 1
    assert det([[2]]) == 2
    assert det([[0, 1], [-1, 0]]) == 1


def test_det_odd_square_is_four():
    assert det(ODD_SQUARE) == 4


def test_det_matches_cofactor_oracle():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n, n)
        assert det(m) == det_cofactor(m)


def test_rank_matches_fraction_oracle():
    rng = random.Random(11)
    for _ in range(200):
        r = rng.randint(0, 5)
        c = rng.randint(1, 5)
        m = random_matrix(rng, r, c)
        assert rank(m) == rank_fraction(m)
    assert rank([]) == 0


def test_smith_diag_2_3():
    s = smith([[2, 0], [0, 3]])
    assert [s.d[i][i] for i in range(2)] == [1, 6]


def test_smith_certificates_and_divisibility():
    rng = random.Random(13)
    for _ in range(150):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        m = random_matrix(rng, r, c)
        s = smith(m)
        assert mat_mul(mat_mul(s.u, m), s.v) == s.d
        assert det(s.u) in (1, -1)
        assert det(s.v) in (1, -1)
        assert mat_mul(s.u, s.uinv) == identity(r)
        assert mat_mul(s.v, s.vinv) == identity(c)
        diag = [s.d[i][i] for i in range(min(r, c))]
        assert all(x >= 0 for x in diag)
        for a, b in zip(diag, diag[1:]):
            assert b == 0 or (a != 0 and b % a == 0)
        assert invariant_factors(m) == invariant_factors_sympy(m)


def test_smith_deterministic():
    m = [[4, 2, 2], [2, 8, 6], [2, 6, 10]]
    first = smith(m)
    again = smith([row[:] for row in m])
    assert first.u == again.u and first.v == again.v and first.d == again.d


def test_block_quotient_pendant_edge_block():
    # A part-0 vertex joined to two part-1 vertices: its generator is
    # killed by the column sum, and the two part-1 generators are
    # identified up to sign by the one row x_a + x_b = 0, so the column
    # side is Z with them mapping to opposite units.
    r, (pi_row, sigma_row), (pi_col, sigma_col) = block_quotient([[1, 1]], 2)
    assert r == 1
    assert pi_row == [] and sigma_row == [[]]
    assert pi_col[0][0] == -pi_col[0][1]
    assert abs(pi_col[0][0]) == 1
    assert mat_mul(pi_col, sigma_col) == [[1]]


def test_block_quotient_annihilates_relations_and_sections():
    rng = random.Random(17)
    sides_seen = set()
    for _ in range(150):
        nr = rng.randint(0, 4)
        nc = rng.randint(1, 5)
        b = random_matrix(rng, nr, nc, -2, 2)
        b_t = [[b[x][y] for x in range(nr)] for y in range(nc)] if nr else []
        try:
            r, (pi_row, sigma_row), (pi_col, sigma_col) = block_quotient(b, nc)
        except TorsionDetected as exc:
            facs = invariant_factors_sympy(b)
            assert any(f > 1 for f in facs)
            assert exc.factors == facs
            continue
        facs = invariant_factors_sympy(b)
        assert all(f == 1 for f in facs) and r == len(facs)
        # row side: Z^nr modulo the columns of b
        assert len(pi_row) == cokernel_sympy(b_t, nr)[0] == nr - r
        assert mat_mul(pi_row, sigma_row) == identity(nr - r)
        for y in range(nc):
            assert all(sum(p[x] * b[x][y] for x in range(nr)) == 0 for p in pi_row)
        # column side: Z^nc modulo the rows of b
        assert len(pi_col) == cokernel_sympy(b, nc)[0] == nc - r
        assert mat_mul(pi_col, sigma_col) == identity(nc - r)
        for row in b:
            assert all(sum(p[y] * row[y] for y in range(nc)) == 0 for p in pi_col)
        sides_seen.add((bool(pi_row), bool(pi_col)))
    assert sides_seen == {(False, False), (False, True), (True, False), (True, True)}


def test_block_quotient_torsion():
    with pytest.raises(TorsionDetected):
        block_quotient([[2, 0]], 2)


def test_minors_all_finds_first_violation():
    # Bipartite block of the odd square: the single 2x2 minor is 2.
    assert minors_all([[1, 1], [-1, 1]]) == ((0, 1), (0, 1), 2)
    assert minors_all([[1, 0], [0, 1]]) is None
    # Size-ascending order: a bad 1x1 entry wins over any 2x2 minor.
    assert minors_all([[2, 0], [0, 3]]) == ((0,), (0,), 2)


def test_minors_all_matches_reference_enumeration():
    # The witness, not only the verdict, must match the enumeration of
    # every submatrix; one-entry perturbations of PU matrices put the
    # first violation past the 1 x 1 minors.
    rng = random.Random(7)
    matrices = []
    for _ in range(400):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        weights = rng.choice([(1, 1, 1, 1, 1), (6, 3, 3, 1, 1), (8, 3, 3, 0, 0)])
        vals = rng.choices([0, 1, -1, 2, -2], weights=weights, k=nr * nc)
        matrices.append([vals[i * nc:(i + 1) * nc] for i in range(nr)])
    for n in range(2, 9):
        for seed in range(2):
            g = random_pu_graph(n, seed=seed)
            b = g.bipartite_block((1 << n) - 1)[2]
            for m in (b, [list(row) for row in g.adj]):
                if not m or not m[0]:
                    continue
                matrices.append(m)
                for _ in range(2):
                    bent = [row[:] for row in m]
                    i, j = rng.randrange(len(bent)), rng.randrange(len(bent[0]))
                    bent[i][j] = rng.choice([-1, 1]) if bent[i][j] == 0 else rng.choice([0, -bent[i][j], 2])
                    matrices.append(bent)
    sizes = set()
    for m in matrices:
        got = minors_all(m)
        assert got == first_bad_minor(m), m
        sizes.add(None if got is None else len(got[0]))
    assert {None, 1, 2, 3} <= sizes


def _sparse(v):
    return [(1 << i, x) for i, x in enumerate(v) if x]


def test_wedge_expand_small():
    assert wedge_expand([], {0: 1}) == [{0: 1}]
    assert wedge_product([], 3) == {(): 1}
    assert wedge_expand([_sparse([0, 2, 0])], {0: 1}) == [{0: 1}, {0b010: 2}]
    assert wedge_product([[0, 2, 0]], 3) == {(1,): 2}
    # (e0 + e1) ^ e1 = e0 ^ e1
    assert wedge_expand([_sparse([1, 1, 0]), _sparse([0, 1, 0])], {0: 1})[0b11] == {0b011: 1}
    assert wedge_product([[1, 1, 0], [0, 1, 0]], 3) == {(0, 1): 1}
    # e1 ^ e0 = -(e0 ^ e1), both as a product and over the base e0
    assert wedge_expand([_sparse([0, 1])], {0b01: 1}) == [{0b01: 1}, {0b11: -1}]
    assert wedge_product([[0, 1], [1, 0]], 2) == {(0, 1): -1}


def test_wedge_expand_alternating_and_minors():
    rng = random.Random(23)
    for _ in range(50):
        n = rng.randint(2, 5)
        v = [rng.randint(-2, 2) for _ in range(n)]
        assert wedge_expand([_sparse(v), _sparse(v)], {0: 1})[0b11] == {}
        assert wedge_product([v, v], n) == {}
        columns = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(1, 4))]
        base = [rng.randint(-1, 1) for _ in range(n)]
        plain = wedge_expand([_sparse(c) for c in columns], {0: 1})
        wedged = wedge_expand([_sparse(c) for c in columns], dict(_sparse(base)))
        for t in range(1 << len(columns)):
            chosen = [c for b, c in enumerate(columns) if t >> b & 1]
            for table, vectors in ((plain, chosen), (wedged, chosen + [base])):
                want = wedge_product(vectors, n)
                got = {
                    tuple(i for i in range(n) if mask >> i & 1): x
                    for mask, x in table[t].items()
                }
                assert got == want
        a, b = columns[0], v
        for (i, j), coef in wedge_product([a, b], n).items():
            assert coef == a[i] * b[j] - a[j] * b[i] != 0
