from __future__ import annotations

import random

import pytest

from graphlink.errors import (
    BadDirections,
    BadNeighborhood,
    BadSigns,
    DuplicateName,
    GraphSyntaxError,
    GraphTooLarge,
    MoveFailed,
    NeighborhoodMixedParts,
    NotAdjacent,
    NotInverseConfiguration,
    NotIsolated,
    NotPU,
    NotTwins,
    PUViolation,
    ScriptError,
    SignsNotOpposite,
    UnknownVertex,
)
from graphlink.fixtures import fixture
from graphlink.graphs import build_graph
from graphlink.moves import (
    Move,
    apply_R,
    apply_script,
    flip_edge_macro,
    fresh_names,
    omega1_add,
    omega1_remove,
    omega2_add,
    omega2_remove,
    omega3_backward,
    omega3_forward,
    omega4,
    parse_script,
    serialize_script,
)
from graphlink.pu import is_pu, random_pu_graph

from oracle import principal_pivot_transform


def test_r_reverses_and_is_involution():
    e1 = fixture("E1")
    once = apply_R(e1, "u")
    assert once.adj[0][1] == -1 and once.adj[1][0] == 1
    assert once.signs == e1.signs and once.parts == e1.parts
    assert apply_R(once, "u") == e1
    assert apply_R(once, "v") == e1

    lone = fixture("UNKNOT_NEG")
    assert apply_R(lone, "v") == lone


def test_r_unknown_vertex():
    with pytest.raises(UnknownVertex):
        apply_R(fixture("E1"), "nope")


def test_omega1_add_to_empty_gives_unknot():
    empty = build_graph((), ())
    assert omega1_add(empty, "-", name="v", part=0) == fixture("UNKNOT_NEG")
    assert omega1_add(empty, "+", name="v", part=0) == fixture("UNKNOT_POS")


def test_omega1_roundtrip_and_errors():
    e1 = fixture("E1")
    grown = omega1_add(e1, "+", name="x", part=1)
    assert grown.n == 3
    assert grown.degree(2) == 0
    assert omega1_remove(grown, "x") == e1
    with pytest.raises(NotIsolated):
        omega1_remove(e1, "u")
    with pytest.raises(DuplicateName):
        omega1_add(e1, "+", name="u")
    auto = omega1_add(e1, "-")
    assert auto.names[-1] == "z0"


@pytest.mark.parametrize("sign", ["+1", "1", 0, 2, "x"])
def test_move_rejects_a_bad_sign(sign):
    with pytest.raises(GraphSyntaxError, match="bad sign"):
        omega1_add(fixture("E1"), sign)


def test_omega2_add_remove_roundtrip_on_e1():
    e1 = fixture("E1")
    grown = omega2_add(e1, ("w", "w2"), ("+", "-"), ("v",), "o")
    assert grown.n == 4
    assert grown.parts[2:] == (0, 0)
    assert grown.adj[2][1] == 1 and grown.adj[3][1] == 1
    assert is_pu(grown) is None
    assert omega2_remove(grown, "w", "w2") == e1


def test_omega2_guard_rejects_odd_square():
    path = build_graph(
        (("p0", 0, "-"), ("p1", 1, "-"), ("p2", 0, "-")),
        (("p0", "p1"), ("p1", "p2")),
    )
    assert is_pu(path) is None
    with pytest.raises(PUViolation) as info:
        omega2_add(path, ("w", "w2"), ("+", "-"), ("p0", "p2"), "oo")
    assert info.value.witness is not None
    assert info.value.witness.det == 4
    assert len(info.value.witness.state) == 4

    ok = omega2_add(path, ("w", "w2"), ("+", "-"), ("p0", "p2"), "oi")
    assert ok.n == 5
    unguarded = omega2_add(
        path, ("w", "w2"), ("+", "-"), ("p0", "p2"), "oo", require_pu=False
    )
    assert is_pu(unguarded) is not None


def test_omega2_precondition_errors():
    e1 = fixture("E1")
    with pytest.raises(SignsNotOpposite):
        omega2_add(e1, ("a", "b"), ("+", "+"), ("v",), "o")
    with pytest.raises(NeighborhoodMixedParts):
        omega2_add(e1, ("a", "b"), ("+", "-"), ("u", "v"), "oo")
    with pytest.raises(BadDirections):
        omega2_add(e1, ("a", "b"), ("+", "-"), ("v",), "oi")
    with pytest.raises(BadDirections):
        omega2_add(e1, ("a", "b"), ("+", "-"), ("v",), "x")
    with pytest.raises(DuplicateName):
        omega2_add(e1, ("u", "b"), ("+", "-"), ("v",), "o")
    with pytest.raises(DuplicateName):
        omega2_add(e1, ("a", "a"), ("+", "-"), ("v",), "o")


def test_omega2_remove_rejects_non_twins():
    e1 = fixture("E1")
    with pytest.raises(NotTwins):
        omega2_remove(e1, "u", "v")
    grown = omega2_add(e1, ("w", "w2"), ("+", "-"), ("v",), "o")
    bent = apply_R(grown, "w2")
    with pytest.raises(NotTwins):
        omega2_remove(bent, "w", "w2")
    same_sign = build_graph((("a", 0, "+"), ("b", 0, "+")), ())
    with pytest.raises(NotTwins):
        omega2_remove(same_sign, "a", "b")


def test_omega2_allows_empty_neighborhood():
    e1 = fixture("E1")
    grown = omega2_add(e1, ("a", "b"), ("-", "+"), (), "")
    assert grown.n == 4
    assert grown.degree(2) == 0 and grown.degree(3) == 0
    assert omega2_remove(grown, "a", "b") == e1


def test_omega3_forward_untwists():
    om3 = fixture("OM3")
    out = omega3_forward(om3, "u", "v", "w")
    iu, iv, iw, it = (out.index(x) for x in ("u", "v", "w", "t"))
    assert list(out.neighbors(iu)) == [it]
    assert out.adj[iu][it] == 1
    assert out.signs[iv] == 1 and out.signs[iw] == 1
    assert out.signs[iu] == -1
    assert out.parts[iu] == out.parts[iv]
    assert out.adj[iv][it] == om3.adj[iv][it]


def test_omega3_forward_precondition_errors():
    om3 = fixture("OM3")
    relabeled = build_graph(
        (("u", 0, "-"), ("v", 1, "-"), ("w", 1, "+"), ("t", 0, "-")),
        (("u", "v"), ("u", "w"), ("v", "t")),
    )
    with pytest.raises(BadSigns):
        omega3_forward(relabeled, "u", "v", "w")
    small = build_graph(
        (("u", 0, "-"), ("v", 1, "-"), ("w", 1, "-")), (("u", "v"),)
    )
    with pytest.raises(BadNeighborhood):
        omega3_forward(small, "u", "v", "w")
    reversed_at_u = apply_R(om3, "u")
    with pytest.raises(BadDirections):
        omega3_forward(reversed_at_u, "u", "v", "w")
    with pytest.raises(BadNeighborhood):
        omega3_forward(om3, "u", "v", "v")


def test_omega3_forward_rejects_row_difference_two():
    odd4 = fixture("ODD4")
    with pytest.raises(NotPU) as info:
        omega3_forward(odd4, "u", "v", "w")
    assert info.value.witness == "t"


def test_omega3_roundtrip_on_fixture():
    om3 = fixture("OM3")
    fwd = omega3_forward(om3, "u", "v", "w")
    assert omega3_backward(fwd, "u", "v", "w") == om3
    with pytest.raises(NotInverseConfiguration):
        omega3_backward(om3, "u", "v", "w")


def test_omega3_roundtrip_random():
    rng = random.Random(11)
    seen_notpu = 0
    seen_ok = 0
    for _ in range(60):
        m = rng.randint(1, 4)
        outer = [(f"t{k}", 0, "-") for k in range(m)]
        vertices = [("u", 0, "-"), ("v", 1, "-"), ("w", 1, "-")] + outer
        edges = [("u", "v"), ("u", "w")]
        row_v = [rng.choice((-1, 0, 1)) for _ in range(m)]
        row_w = [rng.choice((-1, 0, 1)) for _ in range(m)]
        for k in range(m):
            if row_v[k] == 1:
                edges.append(("v", f"t{k}"))
            elif row_v[k] == -1:
                edges.append((f"t{k}", "v"))
            if row_w[k] == 1:
                edges.append(("w", f"t{k}"))
            elif row_w[k] == -1:
                edges.append((f"t{k}", "w"))
        g = build_graph(tuple(vertices), tuple(edges))
        if any(abs(a - b) == 2 for a, b in zip(row_v, row_w)):
            with pytest.raises(NotPU):
                omega3_forward(g, "u", "v", "w")
            seen_notpu += 1
            continue
        fwd = omega3_forward(g, "u", "v", "w")
        assert omega3_backward(fwd, "u", "v", "w") == g
        assert omega3_forward(omega3_backward(fwd, "u", "v", "w"), "u", "v", "w") == fwd
        seen_ok += 1
    assert seen_notpu > 5 and seen_ok > 5


def test_omega4_on_single_edge():
    e1 = fixture("E1")
    out = omega4(e1, "u", "v")
    assert out.signs == (1, 1)
    assert out.adj[0][1] == -1 and out.adj[1][0] == 1
    assert out.parts == e1.parts


def test_omega4_collapses_even_square():
    even4 = fixture("EVEN4")
    out = omega4(even4, "u1", "v1")
    i_u1, i_v1, i_u2, i_v2 = (out.index(x) for x in ("u1", "v1", "u2", "v2"))
    assert out.adj[i_u2][i_v2] == 0 and out.adj[i_v2][i_u2] == 0
    assert out.adj[i_u1][i_v1] == -1
    assert out.adj[i_u1][i_v2] == even4.adj[i_u1][i_v2]
    assert out.adj[i_u2][i_v1] == even4.adj[i_u2][i_v1]
    assert out.signs[i_u1] == 1 and out.signs[i_v1] == 1
    assert out.signs[i_u2] == -1 and out.signs[i_v2] == -1


def test_omega4_not_adjacent():
    with pytest.raises(NotAdjacent):
        omega4(fixture("EVEN4"), "u1", "u2")


def _omega4_formula(g, u, v):
    p, q = g.index(u), g.index(v)
    a = g.adj
    n = g.n
    out = [list(row) for row in a]
    out[p][q] = -a[p][q]
    out[q][p] = a[p][q]
    for i in range(n):
        for j in range(n):
            if i in (p, q) or j in (p, q) or i == j:
                continue
            out[i][j] = a[i][j] - a[p][q] * a[i][p] * a[j][q] + a[p][q] * a[i][q] * a[j][p]
    return out


def test_omega4_matches_pivot_formula_and_preserves_pu():
    rng = random.Random(23)
    checked = 0
    for seed in range(40):
        g = random_pu_graph(rng.randint(3, 7), seed=seed)
        edges = g.edges()
        if not edges:
            continue
        i, j = rng.choice(edges)
        u, v = g.names[i], g.names[j]
        out = omega4(g, u, v)
        formula = _omega4_formula(g, u, v)
        assert [list(row) for row in out.adj] == formula
        assert all(x in (-1, 0, 1) for row in formula for x in row)
        assert is_pu(out) is None
        again = omega4(out, u, v)
        assert again == g
        checked += 1
    assert checked >= 30


def test_omega4_is_the_principal_pivot_transform():
    # Omega4 at the edge (u, v) is D (P sigma) D, where P is the principal
    # pivot transform of A at {u, v}, sigma swaps rows and columns u and
    # v, and D negates row and column u; PU is therefore preserved.
    checked = 0
    for n in range(2, 9):
        for seed in range(20):
            g = random_pu_graph(n, seed=seed)
            for i, j in g.edges():
                p = principal_pivot_transform([list(row) for row in g.adj], [i, j])
                swap = {i: j, j: i}
                d = [-1 if a == i else 1 for a in range(n)]
                want = [
                    [d[a] * p[swap.get(a, a)][swap.get(b, b)] * d[b] for b in range(n)]
                    for a in range(n)
                ]
                out = omega4(g, g.names[i], g.names[j])
                assert [list(row) for row in out.adj] == want
                assert is_pu(out) is None
                checked += 1
    assert checked == 398


def test_omega4_double_restores_fixtures():
    for name, pair in (("E1", ("u", "v")), ("EVEN4", ("u1", "v1"))):
        g = fixture(name)
        assert omega4(omega4(g, *pair), *pair) == g


def test_flip_edge_macro_on_e1():
    e1 = fixture("E1")
    script, out = flip_edge_macro(e1, "u", "v")
    assert out.names == e1.names and out.signs == e1.signs
    assert out.adj[0][1] == -1 and out.adj[1][0] == 1
    assert [m.op for m in script] == ["O2+!", "O2+!", "O4", "O4", "O2-", "O2-"]
    replayed = apply_script(e1, serialize_script(script))
    assert replayed == out
    assert is_pu(out) is None


def test_flip_edge_macro_on_even4():
    even4 = fixture("EVEN4")
    script, out = flip_edge_macro(even4, "u1", "v1")
    i, j = even4.index("u1"), even4.index("v1")
    assert out.adj[i][j] == -even4.adj[i][j]
    for a in range(even4.n):
        for b in range(even4.n):
            if {a, b} != {i, j}:
                assert out.adj[a][b] == even4.adj[a][b]
    assert is_pu(out) is not None


def test_flip_edge_macro_random_edges():
    rng = random.Random(5)
    flipped = 0
    for seed in range(25):
        g = random_pu_graph(rng.randint(3, 6), seed=100 + seed)
        edges = g.edges()
        if not edges:
            continue
        i, j = rng.choice(edges)
        script, out = flip_edge_macro(g, g.names[i], g.names[j])
        assert out.adj[i][j] == -g.adj[i][j]
        assert apply_script(g, script) == out
        flipped += 1
    assert flipped >= 15


def test_flip_edge_macro_skips_taken_names():
    e1 = omega1_add(fixture("E1"), "+", name="z0", part=1)
    assert fresh_names(e1, 2) == ["z1", "z2"]
    script, out = flip_edge_macro(e1, "u", "v")
    assert "z0" not in {m.args[0] for m in script}
    assert out.adj[0][1] == -1


@pytest.mark.parametrize("n, seed", [(13, 1), (16, 0)])
def test_flip_edge_macro_round_trips_up_to_the_size_guard(n, seed):
    # The macro parks four twins, so its intermediates have n + 4 vertices.
    g = random_pu_graph(n, seed=seed)
    i, j = g.edges()[0]
    u, v = g.names[i], g.names[j]
    _, once = flip_edge_macro(g, u, v)
    assert once.adj[i][j] == -g.adj[i][j]
    _, twice = flip_edge_macro(once, u, v)
    assert twice == g


def test_size_guard_bounds_script_results_and_guarded_twins():
    g = random_pu_graph(16, seed=0)
    for script, index in (
        ("O1+ z 0 -\n", 0),
        ("R v0\nO2+! za zb + N= dirs=\n", 1),
        ("O2+ za zb + N= dirs=\nO2- za zb\n", 0),
    ):
        with pytest.raises(MoveFailed) as info:
            apply_script(g, script)
        assert info.value.index == index
        assert isinstance(info.value.cause, GraphTooLarge)


def test_script_roundtrip_every_opcode():
    text = (
        "# comment line\n"
        "R u\n"
        "\n"
        "O1+ x 1 +\n"
        "O1- x\n"
        "O2+ a b + N=v dirs=o\n"
        "O2+! c d - N= dirs=\n"
        "O2- a b\n"
        "O3 u v w  # trailing comment\n"
        "O3inv u v w\n"
        "O4 u v\n"
    )
    moves = parse_script(text)
    assert [m.op for m in moves] == [
        "R", "O1+", "O1-", "O2+", "O2+!", "O2-", "O3", "O3inv", "O4",
    ]
    again = parse_script(serialize_script(moves))
    assert again == moves


def test_script_parse_errors_carry_line_numbers():
    cases = (
        ("R u v", 1),
        ("XX u", 1),
        ("R u\nO1+ x 2 +", 2),
        ("O1+ x 0 *", 1),
        ("O2+ a b + N=v dirs=oo", 1),
        ("O2+ a b + dirs=o N=v", 1),
        ("O2+ a b ? N=v dirs=o", 1),
        ("O2+ a b + N=v dirs=ox", 1),
    )
    for text, lineno in cases:
        with pytest.raises(ScriptError) as info:
            parse_script(text)
        assert info.value.line == lineno


def test_apply_script_empty_and_involution():
    e1 = fixture("E1")
    assert apply_script(e1, "") == e1
    assert apply_script(e1, "R u\nR u\n") == e1


def test_apply_script_reports_failing_index():
    e1 = fixture("E1")
    with pytest.raises(MoveFailed) as info:
        apply_script(e1, "R u\nO1- u\n")
    assert info.value.index == 1
    assert isinstance(info.value.cause, NotIsolated)


def test_moves_preserve_pu():
    rng = random.Random(31)
    for seed in range(12):
        g = random_pu_graph(rng.randint(3, 6), seed=200 + seed)
        v = rng.choice(g.names)
        assert is_pu(apply_R(g, v)) is None
        assert is_pu(omega1_add(g, rng.choice("+-"))) is None
        part0 = [g.names[t] for t in range(g.n) if g.parts[t] == 0]
        k = rng.randint(0, min(2, len(part0)))
        nbrs = tuple(rng.sample(part0, k))
        dirs = "".join(rng.choice("oi") for _ in nbrs)
        try:
            grown = omega2_add(g, tuple(fresh_names(g, 2)), ("+", "-"), nbrs, dirs)
        except PUViolation:
            continue
        assert is_pu(grown) is None
