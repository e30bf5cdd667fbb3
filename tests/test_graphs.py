import random
import warnings
from itertools import combinations

import pytest

from graphlink.cube import cube_edges, faces
from graphlink.errors import (
    DuplicateEdge,
    DuplicateName,
    GraphSyntaxError,
    GraphTooLarge,
    SamePartEdge,
    SelfLoop,
)
from graphlink.fixtures import FIXTURES, fixture, fixture_text
from graphlink.graphs import (
    build_graph,
    names_to_state,
    parse_graph,
    parse_unoriented,
    serialize_graph,
    state_names,
)
from graphlink.pu import random_pu_graph

import oracle


def random_bipartite(rng, n):
    verts = [
        (f"v{i}", rng.randint(0, 1), rng.choice("+-")) for i in range(n)
    ]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if verts[i][1] != verts[j][1] and rng.random() < 0.5:
                edges.append(
                    (verts[i][0], verts[j][0]) if rng.random() < 0.5 else (verts[j][0], verts[i][0])
                )
    return build_graph(verts, edges)


def test_e1_matrices():
    g = fixture("E1")
    assert g.names == ("u", "v")
    assert [list(r) for r in g.adj] == [[0, 1], [-1, 0]]
    rows, cols, b = g.bipartite_block(0b11)
    assert (rows, cols, b) == ([0], [1], [[1]])
    assert g.corank(names_to_state(g, ["u"])) == 1
    assert g.corank(0b11) == 0
    assert g.corank(0) == 0


def test_e1_gradings():
    g = fixture("E1")
    assert [g.grading_i(s) for s in g.all_states()] == [0, 1, 1, 2]


def test_grading_anchor_positive_vertex():
    g = fixture("UNKNOT_POS")
    # the cube source is the all-positive state
    assert g.grading_i(0b1) == 0
    assert g.grading_i(0b0) == 1
    assert g.coordinate_is_source(0b1, 0)
    assert not g.coordinate_is_source(0b0, 0)


def test_cube_bit_formulas_match_the_per_vertex_definitions():
    fixtures = [fixture(name) for name in FIXTURES]
    randoms = [random_pu_graph(n, seed=seed) for n in range(2, 9) for seed in range(3)]
    for g in fixtures + randoms:
        leaving = {}
        for s in g.all_states():
            assert g.grading_i(s) == oracle.grading_i(g, s), (g.names, s)
            leaving[s] = [v for v in range(g.n) if oracle.coordinate_is_source(g, s, v)]
            got = [v for v in range(g.n) if g.coordinate_is_source(s, v)]
            assert got == leaving[s], (g.names, s)
        want = [(s, i, j) for s, vs in leaving.items() for i, j in combinations(vs, 2)]
        assert faces(g) == want, g.names
        if g in randoms:
            edges = [(s, v) for s, vs in leaving.items() for v in vs]
            assert [(e.source, e.coordinate) for e in cube_edges(g)] == edges, g.names


def test_odd4_adjacency():
    g = fixture("ODD4")
    assert g.names == ("u", "v", "w", "t")
    assert [list(r) for r in g.adj] == [
        [0, 1, 1, 0],
        [-1, 0, 0, 1],
        [-1, 0, 0, -1],
        [0, -1, 1, 0],
    ]


def test_theta11_shape():
    g = fixture("THETA11")
    assert g.n == 11
    assert len(g.edges()) == 12
    assert all(s == -1 for s in g.signs)


def test_fixture_files_are_canonical():
    for name in FIXTURES:
        text = fixture_text(name)
        assert serialize_graph(parse_graph(text)) == text


def test_block_reassembly():
    rng = random.Random(31)
    for _ in range(60):
        g = random_bipartite(rng, rng.randint(1, 7))
        for state in g.all_states():
            rows, cols, b = g.bipartite_block(state)
            order = rows + cols
            expect = [[g.adj[i][j] for j in order] for i in order]
            k = len(rows)
            rebuilt = [
                [
                    b[i][j - k]
                    if i < k <= j
                    else (-b[j][i - k] if j < k <= i else 0)
                    for j in range(len(order))
                ]
                for i in range(len(order))
            ]
            assert rebuilt == expect


def test_parse_errors_carry_line_numbers():
    with pytest.raises(GraphSyntaxError) as e:
        parse_graph("vertex a 0\n")
    assert e.value.line == 1
    with pytest.raises(DuplicateName) as e:
        parse_graph("vertex a 0 -\nvertex a 1 -\n")
    assert e.value.line == 2
    with pytest.raises(SelfLoop) as e:
        parse_graph("vertex a 0 -\nedge a a\n")
    assert e.value.line == 2
    with pytest.raises(SamePartEdge) as e:
        parse_graph("vertex a 0 -\nvertex b 0 -\n\nedge a b\n")
    assert e.value.line == 4
    with pytest.raises(DuplicateEdge) as e:
        parse_graph("vertex a 0 -\nvertex b 1 -\nedge a b\nedge b a\n")
    assert e.value.line == 4
    with pytest.raises(GraphSyntaxError):
        parse_graph("vertex a 0 -\nvertex b 1 -\nuedge a b\n")


def test_comments_and_blanks_ignored():
    g = parse_graph("# heading\nvertex a 0 -  # trailing\n\nvertex b 1 +\nedge a b\n")
    assert g.names == ("a", "b")
    assert g.signs == (-1, 1)


def test_roundtrip_random():
    rng = random.Random(37)
    for _ in range(40):
        g = random_bipartite(rng, rng.randint(1, 8))
        text = serialize_graph(g)
        assert serialize_graph(parse_graph(text)) == text


def test_parse_unoriented_allows_same_part_uedges():
    u = parse_unoriented(
        "vertex a 0 -\nvertex b 0 -\nvertex c 1 -\nuedge a b\nedge a c\n"
    )
    assert u.undirected == ((0, 1),)
    assert u.directed == ((0, 2),)


def test_size_guard():
    verts = [(f"v{i}", i % 2, "-") for i in range(17)]
    with pytest.raises(GraphTooLarge):
        build_graph(verts, [])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = build_graph([(f"v{i}", i % 2, "-") for i in range(13)], [])
    with pytest.warns(UserWarning, match="13 vertices: state enumeration") as record:
        g.all_states()
    assert record[0].filename == __file__


def test_state_names():
    g = fixture("ODD4")
    assert state_names(g, 0b1010) == ("v", "t")
    assert names_to_state(g, ("v", "t")) == 0b1010
