import random

from graphlink.intlinalg import (
    det,
    identity,
    invariant_factors,
    minors_all,
    quotient_projection,
    rank,
    smith,
    wedge_expand,
)
from graphlink.errors import TorsionDetected
from graphlink.pu import random_pu_graph

from oracle import (
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


def test_quotient_projection_pendant_edge_state():
    # Relation rows of the one-edge graph at the state {u}: the x_u
    # relation is zero and x_v - x_u = 0, so the quotient is Z with
    # both generators mapping to the same unit.
    k, pi, sigma = quotient_projection([[0, 0], [-1, 1]])
    assert k == 1
    assert pi[0][0] == pi[0][1]
    assert abs(pi[0][0]) == 1
    assert mat_mul(pi, sigma) == [[1]]


def test_quotient_projection_annihilates_relations_and_sections():
    rng = random.Random(17)
    for _ in range(150):
        rows = rng.randint(0, 4)
        n = rng.randint(1, 5)
        rel = random_matrix(rng, rows, n, -2, 2)
        try:
            k, pi, sigma = quotient_projection(rel, n)
        except TorsionDetected:
            facs = invariant_factors_sympy(rel)
            assert any(f > 1 for f in facs)
            continue
        assert all(f == 1 for f in invariant_factors_sympy(rel))
        assert k == n - len(invariant_factors_sympy(rel))
        assert mat_mul(pi, sigma) == identity(k)
        for row in rel:
            assert all(
                sum(pi[a][j] * row[j] for j in range(n)) == 0 for a in range(k)
            )


def test_quotient_projection_torsion():
    with pytest.raises(TorsionDetected):
        quotient_projection([[2, 0]])


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
