from __future__ import annotations

import random
from dataclasses import replace

import pytest

import graphlink.homology
from graphlink import cube
from graphlink.cube import (
    DEFAULT_CONVENTION,
    CubeEdge,
    classify_face,
    cube_edges,
    edge_map,
    faces,
    solve_edge_assignment,
    state_module,
    validate_cube_parity,
    xi_zero,
)
from graphlink.errors import (
    AssignmentInfeasible,
    InternalInvariantError,
    LemmaViolation,
    NotAFace,
    TorsionDetected,
)
from graphlink.fixtures import fixture
from graphlink.graphs import LabeledGraph, build_graph
from graphlink.pu import random_pu_graph

from oracle import (
    class_of,
    det_fraction,
    mat_mul,
    projection,
    quotient_projection,
    relation_rows,
    section,
    wedge_product,
)


def test_default_convention_is_signed():
    assert DEFAULT_CONVENTION == "signed"


def test_state_modules_on_e1():
    e1 = fixture("E1")
    assert state_module(e1, 0b00).rank == 0
    assert state_module(e1, 0b11).rank == 0
    only_u = state_module(e1, 0b01)
    assert only_u.rank == 1
    assert class_of(only_u, 0) == class_of(only_u, 1)
    assert abs(class_of(only_u, 0)[0]) == 1
    only_v = state_module(e1, 0b10)
    assert class_of(only_v, 0) == tuple(-x for x in class_of(only_v, 1))


def test_state_module_rank_matches_corank_and_memoizes():
    rng = random.Random(3)
    for seed in range(10):
        g = random_pu_graph(rng.randint(2, 6), seed=300 + seed)
        for s in g.all_states():
            sm = state_module(g, s)
            assert sm.rank == g.corank(s)
            assert state_module(g, s) is sm


def test_projection_section_identity():
    rng = random.Random(4)
    for seed in range(8):
        g = random_pu_graph(rng.randint(2, 6), seed=400 + seed)
        for s in g.all_states():
            sm = state_module(g, s)
            sigma = section(sm)
            for a, prow in enumerate(projection(sm)):
                for b in range(sm.rank):
                    value = sum(prow[j] * sigma[j][b] for j in range(g.n))
                    assert value == (1 if a == b else 0)
                for r in relation_rows(g, s):
                    assert sum(prow[j] * r[j] for j in range(g.n)) == 0


def test_xi_zero_examples_and_alternation():
    e1 = fixture("E1")
    assert xi_zero(e1, 0b00, 0) is True
    assert xi_zero(e1, 0b01, 1) is False
    rng = random.Random(5)
    for seed in range(10):
        g = random_pu_graph(rng.randint(2, 6), seed=500 + seed)
        for s in g.all_states():
            for i in range(g.n):
                assert xi_zero(g, s, i) != xi_zero(g, s ^ (1 << i), i)


def test_cube_edges_shape_and_kinds():
    e1 = fixture("E1")
    edges = cube_edges(e1)
    assert len(edges) == 4
    by_pair = {(e.source, e.target): e.kind for e in edges}
    assert by_pair[(0b00, 0b01)] == "Wedge"
    assert by_pair[(0b00, 0b10)] == "Wedge"
    assert by_pair[(0b01, 0b11)] == "Plain"
    assert by_pair[(0b10, 0b11)] == "Plain"

    pos = fixture("UNKNOT_POS")
    edges = cube_edges(pos)
    assert len(edges) == 1
    assert edges[0].source == 0b1 and edges[0].target == 0b0

    rng = random.Random(6)
    for seed in range(6):
        g = random_pu_graph(rng.randint(2, 6), seed=600 + seed)
        edges = cube_edges(g)
        assert len(edges) == g.n * 2 ** (g.n - 1)
        for e in edges:
            delta = g.corank(e.target) - g.corank(e.source)
            assert delta == (1 if e.kind == "Wedge" else -1)


def test_edge_maps_on_small_fixtures():
    # A wedge edge out of a rank-0 state sends 1 to the class w of the
    # edge's generator in the target, a unit whose sign is fixed by the
    # target's basis.
    e1 = fixture("E1")
    (w,) = class_of(state_module(e1, 0b01), 0)
    assert abs(w) == 1
    grow = edge_map(e1, CubeEdge(0b00, 0b01, 0, "Wedge"))
    assert grow == [{0b1: w}]
    shrink = edge_map(e1, CubeEdge(0b01, 0b11, 1, "Plain"))
    assert shrink == [{0: 1}, {}]

    neg = fixture("UNKNOT_NEG")
    (w,) = class_of(state_module(neg, 0b1), 0)
    assert abs(w) == 1
    assert edge_map(neg, CubeEdge(0b0, 0b1, 0, "Wedge")) == [{0b1: w}]


def test_edge_map_assertions_hold_on_corpus():
    rng = random.Random(7)
    for seed in range(8):
        g = random_pu_graph(rng.randint(2, 6), seed=700 + seed)
        for e in cube_edges(g):
            image = edge_map(g, e)
            assert len(image) == 2 ** state_module(g, e.source).rank


def _reference_edge_map(g, e):
    """The edge map with one cofactor expansion per basis subset, as
    a list indexed by source basis mask of {target basis mask: coef}."""
    src, tgt = state_module(g, e.source), state_module(g, e.target)
    pi, sigma = projection(tgt), section(src)
    columns = [
        [sum(pi[a][j] * sigma[j][b] for j in range(g.n)) for a in range(tgt.rank)]
        for b in range(src.rank)
    ]
    w = list(class_of(tgt, e.coordinate))
    out = []
    for mask in range(1 << src.rank):
        subset = tuple(b for b in range(src.rank) if mask >> b & 1)
        vectors = [columns[b] for b in subset]
        if e.kind == "Wedge":
            vectors = [w] + vectors
        image = wedge_product(vectors, tgt.rank)
        out.append({sum(1 << a for a in rows): v for rows, v in image.items()})
    return out


def test_edge_maps_match_reference_expansion():
    graphs = [fixture("THETA11")]
    graphs += [random_pu_graph(n, seed=seed) for n in range(2, 9) for seed in range(3)]
    kinds = set()
    for g in graphs:
        for e in cube_edges(g):
            got = edge_map(g, e)
            want = _reference_edge_map(g, e)
            assert len(got) == len(want)
            for mask, image in enumerate(want):
                assert got[mask] == image, (e, mask)
            kinds.add(e.kind)
    assert kinds == {"Plain", "Wedge"}


def _with_module(g, s, **changes):
    """Cache a doctored copy of V(s) on g."""
    g._cache["state_module"][s] = replace(state_module(g, s), **changes)


@pytest.mark.parametrize("corruption, message", [
    ("entry off the section's support", "keeps relation"),
    ("negated row", "does not invert section"),
    ("negated section column", "does not invert section"),
])
def test_state_module_certificate_rejects_a_corrupted_projection(monkeypatch, corruption, message):
    # On each side of the block, pi is a tail of u or v and sigma the
    # matching part of uinv or vinv.  Changing pi in a column where
    # sigma's row is zero keeps pi sigma = I but breaks pi R^T = 0;
    # negating a row of pi or a column of sigma does the opposite.
    g = random_pu_graph(6, seed=1)
    real = cube.block_quotient

    def corrupted(b, ncols):
        r, *sides = real(b, ncols)
        for pi, sigma in sides:
            if not pi:
                continue
            if corruption == "negated row":
                pi[0] = [-x for x in pi[0]]
            elif corruption == "negated section column":
                for row in sigma:
                    row[0] = -row[0]
            else:
                j = next((j for j, row in enumerate(sigma) if not any(row)), None)
                if j is not None:
                    pi[0][j] += 1
        return r, *sides

    monkeypatch.setattr(cube, "block_quotient", corrupted)
    raised = []
    for s in g.all_states():
        try:
            state_module(g, s)
        except InternalInvariantError as exc:
            assert message in str(exc) and f"at state {s:b}" in str(exc)
            assert s not in g._cache["state_module"]
            raised.append(s)
    assert raised


def test_state_module_freeness_check_fires_on_odd4():
    g = fixture("ODD4")
    with pytest.raises(TorsionDetected, match=r"invariant factors \[1, 2\]") as info:
        state_module(g, 0b1111)
    assert 2 in info.value.factors
    assert 0b1111 not in g._cache["state_module"]
    for s in range(0b1111):
        assert state_module(g, s).rank == g.corank(s)


def test_state_module_rank_is_checked_against_corank(monkeypatch):
    g = random_pu_graph(4, seed=1)
    real = LabeledGraph.corank
    monkeypatch.setattr(LabeledGraph, "corank", lambda self, s: real(self, s) + 1)
    with pytest.raises(LemmaViolation, match=r"rank V\(s\) = \d+ but cor A\(s\)"):
        state_module(g, 0b0101)
    assert 0b0101 not in g._cache.get("state_module", {})


def test_state_module_matches_the_dense_presentation_up_to_basis():
    # The n x n presentation Z^n / R(s) and the block presentation give
    # the same module: T = pi_new sigma_old is unimodular and carries
    # pi_old to pi_new.
    graphs = [fixture("THETA11")]
    graphs += [random_pu_graph(n, seed=seed) for n in range(2, 9) for seed in range(3)]
    for g in graphs:
        for s in g.all_states():
            sm = state_module(g, s)
            k, pi_old, sigma_old = quotient_projection(relation_rows(g, s), g.n)
            assert sm.rank == k, (g.names, s)
            pi = projection(sm)
            t = mat_mul(pi, sigma_old)
            assert det_fraction(t) in (1, -1), (g.names, s)
            assert mat_mul(t, pi_old) == [list(row) for row in pi], (g.names, s)


def test_plain_edge_with_a_live_target_class_is_ill_defined():
    g = random_pu_graph(4, seed=1)
    e = next(e for e in cube_edges(g) if e.kind == "Plain" and state_module(g, e.target).rank)
    classes = list(state_module(g, e.target).classes)
    classes[e.coordinate] = ((1, 1),)
    _with_module(g, e.target, classes=tuple(classes))
    with pytest.raises(InternalInvariantError, match="ill defined"):
        edge_map(g, e)


@pytest.mark.parametrize("kind, message", [
    ("Plain", "not surjective"),
    ("Wedge", "not injective"),
])
def test_edge_map_rejects_a_section_that_loses_rank(kind, message):
    g = random_pu_graph(4, seed=1)
    e = next(
        e for e in cube_edges(g)
        if e.kind == kind and state_module(g, e.target).rank and state_module(g, e.source).rank
    )
    src = state_module(g, e.source)
    _with_module(g, e.source, section_columns=((),) * src.rank)
    with pytest.raises(InternalInvariantError, match=message):
        edge_map(g, e)


def test_classify_small_faces():
    e1 = fixture("E1")
    assert classify_face(e1, 0, 0, 1, "inner").cls == "X"
    assert classify_face(e1, 0, 0, 1, "signed").cls == "Y"
    assert classify_face(e1, 0, 0, 1, "signed").raw == 4

    iso_neg = build_graph((("a", 0, "-"), ("b", 1, "-")), ())
    assert classify_face(iso_neg, 0b00, 0, 1) == classify_face(iso_neg, 0, 0, 1)
    assert classify_face(iso_neg, 0b00, 0, 1).raw == 1
    assert classify_face(iso_neg, 0b00, 0, 1).cls == "A"

    iso_pos = build_graph((("a", 0, "+"), ("b", 1, "+")), ())
    assert classify_face(iso_pos, 0b11, 0, 1).raw == 2
    assert classify_face(iso_pos, 0b11, 0, 1).cls == "C"

    mixed = build_graph((("a", 0, "-"), ("b", 1, "+")), ())
    assert classify_face(mixed, 0b10, 0, 1).raw == 3
    assert classify_face(mixed, 0b10, 0, 1).cls == "C"


@pytest.mark.parametrize("raw", [4, 5])
def test_class_ratio_rejects_classes_that_are_not_unit_multiples(raw):
    # Face types 4 and 5 compare the classes of x_i and x_j at a middle
    # or far corner; doubling x_i's class at every corner that can be
    # read leaves no unit ratio.
    g = fixture("EVEN4")
    s, i, j = next(f for f in faces(g) if classify_face(g, *f).raw == raw)
    g._cache.pop("face_type")
    bi, bj = 1 << i, 1 << j
    for corner in (s ^ bi, s ^ bj, s ^ bi ^ bj):
        classes = list(state_module(g, corner).classes)
        classes[i] = tuple((bit, 2 * v) for bit, v in classes[i])
        _with_module(g, corner, classes=tuple(classes))
    with pytest.raises(LemmaViolation, match="not unit multiples"):
        classify_face(g, s, i, j)


def test_classification_builds_no_edge_maps(monkeypatch):
    def refuse(g, e):
        raise AssertionError(f"edge map built for {e}")

    monkeypatch.setattr(cube, "edge_map", refuse)
    monkeypatch.setattr(graphlink.homology, "edge_map", refuse)
    g = fixture("THETA11")
    assert validate_cube_parity(g).ok
    for kind in "XY":
        solve_edge_assignment(g, kind)
    # Every cached face shares one of the seven interned face types.
    assert len({id(ft) for ft in g._cache["face_type"].values()}) <= 7


def test_classify_rejects_non_faces():
    e1 = fixture("E1")
    with pytest.raises(NotAFace):
        classify_face(e1, 0, 0, 0)
    with pytest.raises(NotAFace):
        classify_face(e1, 0b01, 0, 1)
    with pytest.raises(ValueError):
        classify_face(e1, 0, 0, 1, "bogus")


def test_face_census_frozen():
    even4 = fixture("EVEN4")
    raw = {}
    cls = {}
    for s, i, j in faces(even4):
        ft = classify_face(even4, s, i, j, "signed")
        raw[ft.raw] = raw.get(ft.raw, 0) + 1
        cls[ft.cls] = cls.get(ft.cls, 0) + 1
    assert raw == {1: 6, 3: 8, 4: 4, 5: 6}
    assert cls == {"A": 12, "C": 8, "Y": 4}

    om3 = fixture("OM3")
    raw = {}
    cls = {}
    for s, i, j in faces(om3):
        ft = classify_face(om3, s, i, j, "signed")
        raw[ft.raw] = raw.get(ft.raw, 0) + 1
        cls[ft.cls] = cls.get(ft.cls, 0) + 1
    assert raw == {1: 3, 2: 3, 3: 8, 4: 8, 5: 2}
    assert cls == {"A": 4, "C": 12, "X": 3, "Y": 5}


def test_conventions_agree_off_zero_faces():
    rng = random.Random(8)
    for seed in range(8):
        g = random_pu_graph(rng.randint(2, 6), seed=800 + seed)
        for s, i, j in faces(g):
            a = classify_face(g, s, i, j, "inner")
            b = classify_face(g, s, i, j, "signed")
            assert a.raw == b.raw
            if a.raw != 4:
                assert a.cls == b.cls
            else:
                assert {a.cls, b.cls} <= {"X", "Y"}


def test_solve_edge_assignment_small():
    neg = fixture("UNKNOT_NEG")
    asg = solve_edge_assignment(neg, "X")
    assert set(asg.signs.values()) == {1}

    e1 = fixture("E1")
    asg_x = solve_edge_assignment(e1, "X")
    assert sorted(asg_x.signs.values()) == [-1, 1, 1, 1]
    asg_y = solve_edge_assignment(e1, "Y")
    assert set(asg_y.signs.values()) == {1}
    again = solve_edge_assignment(e1, "X")
    assert again.signs == asg_x.signs

    with pytest.raises(ValueError):
        solve_edge_assignment(e1, "Z")


def test_solve_edge_assignment_feasible_on_corpus():
    rng = random.Random(9)
    for seed in range(8):
        g = random_pu_graph(rng.randint(2, 6), seed=900 + seed)
        for kind in ("X", "Y"):
            asg = solve_edge_assignment(g, kind)
            assert len(asg.signs) == g.n * 2 ** (g.n - 1)
            for s, i, j in faces(g):
                cls = classify_face(g, s, i, j).cls
                bi, bj = 1 << i, 1 << j
                minus = sum(
                    asg.signs[key] == -1
                    for key in ((s, i), (s, j), (s ^ bi, j), (s ^ bj, i))
                )
                even_classes = ("A", "X") if kind == "X" else ("A", "Y")
                assert (minus % 2 == 0) == (cls in even_classes)


def test_cube_parity_clean_under_signed():
    for name in ("E1", "EVEN4", "OM3"):
        rep = validate_cube_parity(fixture(name), "signed")
        assert rep.ok
    assert validate_cube_parity(fixture("E1"), "signed").violations == []


def test_census_violations_exactly_when_solve_fails():
    # The cube is contractible, so the A+X (A+Y) faces of every 3-subcube
    # are even exactly when the kind X (Y) sign system is solvable; the
    # validate battery relies on this to decide parity by its solves.
    outcomes = {"signed": set(), "inner": set()}
    for n in range(2, 9):
        for seed in range(6):
            g = random_pu_graph(n, seed=seed)
            for convention, seen in outcomes.items():
                rep = validate_cube_parity(g, convention)
                for kind in "XY":
                    odd = any((c["A"] + c[kind]) % 2 for _, _, c in rep.violations)
                    try:
                        solve_edge_assignment(g, kind, convention)
                        infeasible = False
                    except AssignmentInfeasible:
                        infeasible = True
                    assert odd == infeasible, (n, seed, convention, kind)
                    seen.add(infeasible)
    assert outcomes == {"signed": {False}, "inner": {False, True}}


def test_rejected_convention_regression():
    g = random_pu_graph(4, seed=5000)
    assert validate_cube_parity(g, "signed").ok
    rep = validate_cube_parity(g, "inner")
    assert len(rep.violations) == 2
    with pytest.raises(AssignmentInfeasible):
        solve_edge_assignment(g, "X", "inner")
    solve_edge_assignment(g, "X", "signed")
