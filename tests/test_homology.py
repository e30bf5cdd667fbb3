from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import graphlink.homology
from graphlink.cube import (
    EdgeAssignment,
    classify_face,
    cube_edges,
    edge_map,
    faces,
    solve_edge_assignment,
    state_module,
)
from graphlink.errors import DSquaredNonzero, InternalInvariantError
from graphlink.fixtures import fixture
from graphlink.graphs import build_graph
from graphlink.homology import (
    align_and_compare,
    build_complex,
    euler,
    f2_homology,
    format_table,
    integer_homology,
    khovanov,
    uct_check,
    BigradedGroups,
    ChainComplex,
)
from graphlink.moves import apply_R, omega1_add, omega2_add
from graphlink.pu import random_pu_graph
from oracle import homology_block_sympy, rank_mod2

GOLDEN = Path(__file__).parent / "golden"


def test_unknot_golden_values():
    assert khovanov(fixture("UNKNOT_NEG")).groups == {(1, 2): (1, ())}
    assert khovanov(fixture("UNKNOT_POS")).groups == {(0, -1): (1, ())}


def test_e1_golden_value():
    assert khovanov(fixture("E1")).groups == {(1, 0): (1, ()), (1, 2): (1, ())}


def test_empty_graph_value():
    empty = build_graph((), ())
    assert khovanov(empty).groups == {(0, 0): (1, ())}
    c = build_complex(empty, solve_edge_assignment(empty))
    assert c.generators == {(0, 0): [(0, 0)]}


def test_unknot_neg_complex_structure():
    g = fixture("UNKNOT_NEG")
    c = build_complex(g, solve_edge_assignment(g, "X"))
    dims = {k: len(v) for k, v in c.generators.items()}
    assert dims == {(0, 0): 1, (1, 0): 1, (1, 2): 1}
    assert [abs(x) for row in c.dense(0, 0) for x in row] == [1]
    assert (1, 0) not in c.boundaries


def test_e1_complex_structure():
    g = fixture("E1")
    c = build_complex(g, solve_edge_assignment(g, "X"))
    by_i = {}
    for (i, _), block in c.generators.items():
        by_i[i] = by_i.get(i, 0) + len(block)
    assert by_i == {0: 1, 1: 4, 2: 1}


def assert_matches_reference(c):
    hz = integer_homology(c)
    for (i, q), block in c.generators.items():
        d_in = c.dense(i - 1, q)
        d_out = c.dense(i, q)
        betti, torsion = homology_block_sympy(d_in, d_out, len(block))
        assert hz.groups.get((i, q), (0, ()))[0] == betti
        assert list(hz.groups.get((i, q), (0, ()))[1]) == torsion


def test_integer_homology_matches_reference_solver():
    rng = random.Random(13)
    for seed in range(10):
        g = random_pu_graph(rng.randint(2, 5), seed=1300 + seed)
        kind = rng.choice("XY")
        assert_matches_reference(build_complex(g, solve_edge_assignment(g, kind)))


# One graph per size 2..7, plus the two among seeds 1500-1539 at sizes
# 4-7 whose homology has torsion.
@pytest.mark.parametrize(
    "n, seed", [(n, 1500 + n) for n in range(2, 8)] + [(6, 1530), (7, 1514)]
)
def test_sparse_blocks_against_dense_references(n, seed):
    g = random_pu_graph(n, seed=seed)
    for kind in "XY":
        c = build_complex(g, solve_edge_assignment(g, kind))
        for block in c.boundaries.values():
            assert all(v for row in block.values() for v in row.values())
        assert_matches_reference(c)
        expected = {}
        for (i, q), block in c.generators.items():
            dim = len(block) - rank_mod2(c.dense(i, q)) - rank_mod2(c.dense(i - 1, q))
            if dim:
                expected[(i, q)] = dim
        assert f2_homology(c) == expected


def test_f2_channel_reduces_entries_that_are_not_units_over_z():
    # d = [[2, 3], [4, 0]] has Smith form diag(1, 12) over Z and is
    # [[0, 1], [0, 0]] mod 2: the mod-2 cancellation must pivot on the 3
    # and drop the even entries rather than leave them as a remnant.
    gens = [(0, 0), (1, 0)]
    c = ChainComplex({(0, 0): gens, (1, 0): gens}, {(0, 0): {0: {0: 2, 1: 3}, 1: {0: 4}}})
    assert rank_mod2(c.dense(0, 0)) == 1
    assert f2_homology(c) == {(0, 0): 1, (1, 0): 1}
    assert integer_homology(c).groups == {(1, 0): (0, (12,))}
    assert uct_check(integer_homology(c), f2_homology(c))


def test_output_independent_of_hash_seed():
    code = (
        "from graphlink.fixtures import fixture\n"
        "from graphlink.homology import format_table, khovanov\n"
        "print(format_table(khovanov(fixture('THETA11'))))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", code],
            env={**env, "PYTHONHASHSEED": seed},
            stdout=subprocess.PIPE,
            text=True,
        )
        for seed in ("1", "2")
    ]
    outs = [p.communicate(timeout=300)[0] for p in procs]
    assert [p.returncode for p in procs] == [0, 0]
    assert outs[0] == outs[1] == GOLDEN.joinpath("theta11.table").read_text()


def test_euler_and_uct_on_corpus():
    rng = random.Random(14)
    for seed in range(8):
        g = random_pu_graph(rng.randint(2, 6), seed=1400 + seed)
        c = build_complex(g, solve_edge_assignment(g, rng.choice("XY")))
        hz = integer_homology(c)
        hf2 = f2_homology(c)
        assert uct_check(hz, hf2)
        chi = euler(c)
        betti_sum: dict[int, int] = {}
        for (i, q), (betti, _) in hz.groups.items():
            betti_sum[q] = betti_sum.get(q, 0) + (-1) ** i * betti
        assert chi == {q: v for q, v in betti_sum.items() if v}


def test_uct_negative_control():
    g = fixture("E1")
    hz = khovanov(g)
    hf2 = khovanov(g, coefficients="f2")
    assert uct_check(hz, hf2)
    corrupted = dict(hf2)
    corrupted[(1, 0)] = corrupted.get((1, 0), 0) + 1
    assert not uct_check(hz, corrupted)
    doctored = BigradedGroups({**hz.groups, (5, 5): (2, ())})
    assert not uct_check(doctored, hf2)


def test_dsquared_negative_control():
    g = build_graph((("a", 0, "-"), ("b", 1, "-")), ())
    good = solve_edge_assignment(g, "X")
    build_complex(g, good)
    bad_signs = dict(good.signs)
    key = (0, 0)
    bad_signs[key] = -bad_signs[key]
    bad = EdgeAssignment(kind="X", convention=good.convention, signs=bad_signs)
    with pytest.raises(DSquaredNonzero) as exc:
        build_complex(g, bad)
    assert exc.value.witness[:4] == (0, "a", "b", "A")
    assert exc.value.witness[4] != 0
    assert "class A face (0; a, b)" in str(exc.value)


def assert_witness_on_edge(g, witness, source, coordinate, convention):
    """The witness names a face through edge (source, coordinate), with
    that face's class."""
    corner, na, nb, cls, value = witness
    a, b = g.index(na), g.index(nb)
    assert a < b and value != 0
    assert coordinate in (a, b)
    other = b if coordinate == a else a
    assert source in (corner, corner ^ (1 << other))
    assert classify_face(g, corner, a, b, convention).cls == cls


@pytest.mark.parametrize("cls", ["A", "C"])
def test_dsquared_names_the_face_of_a_flipped_edge(cls):
    g = fixture("EVEN4")
    asg = solve_edge_assignment(g, "X")
    s, i, j = next(f for f in faces(g) if classify_face(g, *f, asg.convention).cls == cls)
    bad = dict(asg.signs)
    bad[(s, i)] = -bad[(s, i)]
    with pytest.raises(DSquaredNonzero) as exc:
        build_complex(g, EdgeAssignment(asg.kind, asg.convention, bad))
    assert_witness_on_edge(g, exc.value.witness, s, i, asg.convention)


@pytest.mark.parametrize("kind", ["X", "Y"])
def test_dsquared_names_the_least_broken_face(kind):
    # One flipped edge sign breaks every A and C face through that edge;
    # the witness is the least of them by (corner, i, j), whatever the
    # module bases.  On random_pu_graph(4, seed=2) the first broken entry
    # in generator order lies on another face for half of the edges.
    for g in (fixture("EVEN4"), random_pu_graph(4, seed=2)):
        asg = solve_edge_assignment(g, kind)
        for s, i in asg.signs:
            broken = [
                (c, a, b)
                for c, a, b in faces(g)
                if i in (a, b)
                and s in (c, c ^ (1 << (a + b - i)))
                and classify_face(g, c, a, b).cls in ("A", "C")
            ]
            bad = dict(asg.signs)
            bad[(s, i)] = -bad[(s, i)]
            with pytest.raises(DSquaredNonzero) as exc:
                build_complex(g, EdgeAssignment(kind, asg.convention, bad))
            corner, a, b = min(broken)
            cls = classify_face(g, corner, a, b).cls
            assert exc.value.witness[:4] == (corner, g.names[a], g.names[b], cls)


def replace_edge_map(monkeypatch, source, coordinate, table):
    """Make `build_complex` read ``table`` for the cube edge leaving
    ``source`` along ``coordinate``; every other edge keeps its map."""
    real = graphlink.homology.edge_map

    def patched(g, e):
        if (e.source, e.coordinate) == (source, coordinate):
            return table
        return real(g, e)

    monkeypatch.setattr(graphlink.homology, "edge_map", patched)


@pytest.mark.parametrize("kind", ["X", "Y"])
def test_dsquared_checks_zero_face_composites(monkeypatch, kind):
    # Flat-top face (111; v1, v2): corners 111 and 001 have corank 1,
    # 101 and 011 corank 2.  Its plain edge 101 -> 001 gets a map that is
    # well graded but sends a wedge to a nonzero class, so the composite
    # through 101 no longer vanishes; both kinds must catch it.
    g = random_pu_graph(3, seed=3)
    assert classify_face(g, 0b111, 1, 2).raw == 4
    assert [g.corank(s) for s in (0b111, 0b101, 0b011, 0b001)] == [1, 2, 2, 1]
    asg = solve_edge_assignment(g, kind)
    rank_t = state_module(g, 0b001).rank
    replace_edge_map(monkeypatch, 0b101, 2, [
        {(1 << t.bit_count()) - 1: 1} if t.bit_count() <= rank_t else {}
        for t in range(1 << state_module(g, 0b101).rank)
    ])
    with pytest.raises(DSquaredNonzero) as exc:
        build_complex(g, asg)
    assert_witness_on_edge(g, exc.value.witness, 0b101, 2, asg.convention)


def test_build_complex_rejects_a_misgraded_edge_map(monkeypatch):
    # A wedge edge sends the empty wedge to the class w, of degree 1;
    # sending it to the empty wedge instead keeps the cube height step
    # but moves the entry two quantum degrees up.
    g = random_pu_graph(3, seed=3)
    asg = solve_edge_assignment(g)
    e = next(e for e in cube_edges(g) if e.kind == "Wedge")
    table = list(edge_map(g, e))
    table[0] = {0: 1}
    replace_edge_map(monkeypatch, e.source, e.coordinate, table)
    i = g.grading_i(e.source)
    q = g.corank(e.source) + i
    with pytest.raises(InternalInvariantError) as exc:
        build_complex(g, asg)
    assert str(exc.value) == f"boundary entry moves ({i},{q}) to ({i + 1},{q + 2})"


def test_khovanov_keeps_no_edge_maps():
    g = fixture("THETA11")
    khovanov(g)
    assert "edge_map" not in g._cache
    assert {"state_module", "face_type"} <= set(g._cache)


def test_kind_independence_exact():
    for name in ("UNKNOT_NEG", "UNKNOT_POS", "E1", "EVEN4", "OM3"):
        g = fixture(name)
        assert khovanov(g, "X").groups == khovanov(g, "Y").groups


def test_gauge_flipped_assignment_same_homology():
    g = fixture("EVEN4")
    asg = solve_edge_assignment(g, "X")
    corner = 0b0011
    flipped = dict(asg.signs)
    touched = 0
    for (s, i) in list(flipped):
        if s == corner or s ^ (1 << i) == corner:
            flipped[(s, i)] = -flipped[(s, i)]
            touched += 1
    assert touched > 0 and flipped != asg.signs
    other = EdgeAssignment(kind="X", convention=asg.convention, signs=flipped)
    h1 = integer_homology(build_complex(g, asg))
    h2 = integer_homology(build_complex(g, other))
    assert h1.groups == h2.groups


def test_align_and_compare():
    h = khovanov(fixture("E1"))
    same = align_and_compare(h, h)
    assert same.equal and (same.di, same.dq) == (0, 0)

    neg = khovanov(fixture("UNKNOT_NEG"))
    pos = khovanov(fixture("UNKNOT_POS"))
    cmp = align_and_compare(neg, pos)
    assert cmp.equal and (cmp.di, cmp.dq) == (1, 3)

    diff = align_and_compare(neg, h)
    assert not diff.equal
    assert "vs" in diff.report

    trivial = BigradedGroups({})
    assert align_and_compare(trivial, trivial).equal
    assert not align_and_compare(trivial, h).equal


def test_move_shifts_frozen():
    e1 = fixture("E1")
    h = khovanov(e1)
    cases = (
        (apply_R(e1, "u"), (0, 0)),
        (omega1_add(e1, "-"), (-1, -2)),
        (omega1_add(e1, "+"), (0, 1)),
        (omega2_add(e1, ("w", "w2"), ("+", "-"), ("v",), "o"), (-1, -1)),
    )
    for moved, shift in cases:
        cmp = align_and_compare(h, khovanov(moved))
        assert cmp.equal
        assert (cmp.di, cmp.dq) == shift


def test_khovanov_options():
    g = fixture("E1")
    assert khovanov(g, coefficients="f2") == {(1, 0): 1, (1, 2): 1}
    with pytest.raises(ValueError):
        khovanov(g, coefficients="q")


def test_format_table():
    assert format_table(khovanov(fixture("UNKNOT_NEG"))) == "h 1 2 1 -"
    assert format_table(khovanov(fixture("E1"))) == "h 1 0 1 -\nh 1 2 1 -"
    assert format_table(BigradedGroups({(0, 1): (2, (2, 4))})) == "h 0 1 2 2,4"
    assert format_table(BigradedGroups({})) == ""
