import random
import warnings

import pytest

from graphlink.errors import NotBipartite, StructureMismatch
from graphlink.fixtures import fixture
from graphlink.graphs import UnorientedGraph, build_graph, parse_unoriented
from graphlink.intlinalg import det, minors_all
from graphlink.pu import (
    METHODS,
    all_chordless_even,
    chordless_cycles,
    compare_orientations,
    cycle_parity,
    find_pu_orientation,
    is_pu,
    random_pu_graph,
)


def strip_orientation(g):
    pairs = tuple((min(i, j), max(i, j)) for i, j in g.edges())
    return UnorientedGraph(g.names, g.parts, g.signs, (), pairs)


def test_fixture_verdicts():
    assert is_pu(fixture("E1")) is None
    assert is_pu(fixture("EVEN4")) is None
    assert is_pu(fixture("OM3")) is None
    for method in METHODS:
        assert is_pu(fixture("THETA11"), method) is None


def test_odd4_counterexample():
    ce = is_pu(fixture("ODD4"))
    assert ce is not None
    assert ce.state == ("u", "v", "w", "t")
    assert ce.det == 4
    assert abs(ce.minor) == 2
    ce2 = is_pu(fixture("ODD4"), "state-dets")
    assert ce2.det == 4 and sorted(ce2.state) == sorted(("u", "v", "w", "t"))
    ce3 = is_pu(fixture("ODD4"), "minors-a")
    assert abs(ce3.minor) > 1


@pytest.mark.parametrize("k", range(2, 8))
def test_odd_cycle_fails_only_at_its_full_block(k):
    # A chordless 2k-cycle with one edge reversed is odd: every proper
    # minor of its k x k block is in {0, +1, -1} and the block itself
    # is -2, so skipping zero minors must still reach the largest one.
    n = 2 * k
    verts = [(f"c{i}", i % 2, "+") for i in range(n)]
    edges = [("c1", "c0")] + [(f"c{i}", f"c{(i + 1) % n}") for i in range(1, n)]
    g = build_graph(verts, edges)
    assert cycle_parity(g, tuple(range(n))) == 1
    block = g.bipartite_block((1 << n) - 1)[2]
    assert minors_all(block) == (tuple(range(k)), tuple(range(k)), -2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # state-dets above 12 vertices
        for method in ("minors-b", "state-dets"):
            ce = is_pu(g, method)
            assert ce.det == 4 and ce.state == g.names
        ce = is_pu(g, "minors-a")
    assert ce.rows == g.names[0::2] and ce.cols == g.names[1::2]
    assert ce.minor == -2


def test_methods_agree_on_random_graphs():
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randint(1, 7)
        verts = [(f"v{i}", rng.randint(0, 1), rng.choice("+-")) for i in range(n)]
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if verts[i][1] != verts[j][1] and rng.random() < 0.5:
                    e = (verts[i][0], verts[j][0])
                    edges.append(e if rng.random() < 0.5 else e[::-1])
        g = build_graph(verts, edges)
        verdicts = {m: is_pu(g, m) is None for m in METHODS}
        assert len(set(verdicts.values())) == 1


def test_pu_closed_under_induced_subgraphs():
    rng = random.Random(43)
    for seed in range(10):
        g = random_pu_graph(rng.randint(2, 7), 0.5, seed=seed)
        for state in g.all_states():
            idx = g.state_indices(state)
            verts = [(g.names[i], g.parts[i], g.signs[i]) for i in idx]
            keep = set(idx)
            edges = [
                (g.names[i], g.names[j])
                for i, j in g.edges()
                if i in keep and j in keep
            ]
            assert is_pu(build_graph(verts, edges)) is None


def test_chordless_cycle_parity_fixtures():
    assert all_chordless_even(fixture("E1")) is None
    assert all_chordless_even(fixture("EVEN4")) is None
    odd = all_chordless_even(fixture("ODD4"))
    assert odd is not None and len(odd) == 4 and set(odd) == {"u", "v", "w", "t"}


def test_theta11_has_three_even_eights():
    g = fixture("THETA11")
    adj = [[x != 0 for x in row] for row in g.adj]
    cycles = list(chordless_cycles(adj))
    assert len(cycles) == 3
    for cyc in cycles:
        assert len(cyc) == 8
        codirectional = sum(
            1 for t in range(8) if g.adj[cyc[t]][cyc[(t + 1) % 8]] == 1
        )
        assert codirectional == 4
        assert cycle_parity(g, cyc) == 0
    assert all_chordless_even(g) is None


def test_pu_implies_chordless_even():
    for seed in range(15):
        g = random_pu_graph(6, 0.6, seed=seed)
        assert all_chordless_even(g) is None


def test_find_pu_orientation_rejects_non_bipartite():
    u = parse_unoriented(
        "vertex a 0 -\nvertex b 1 -\nvertex c 0 -\nuedge a b\nuedge b c\nuedge a c\n"
    )
    with pytest.raises(NotBipartite):
        find_pu_orientation(u)


def test_find_pu_orientation_even4_underlying():
    g = find_pu_orientation(strip_orientation(fixture("EVEN4")))
    assert g is not None
    assert is_pu(g) is None
    assert all_chordless_even(g) is None


def test_find_pu_orientation_respects_fixed_edges():
    # fix three edges of the square so only the fourth is free
    e = fixture("EVEN4")
    fixed = [(i, j) for i, j in e.edges()][:3]
    free = [(i, j) for i, j in e.edges()][3:]
    u = UnorientedGraph(
        e.names, e.parts, e.signs, tuple(fixed), tuple((min(p), max(p)) for p in free)
    )
    g = find_pu_orientation(u)
    assert g is not None
    for i, j in fixed:
        assert g.adj[i][j] == 1
    assert is_pu(g) is None


def test_orientation_recovered_up_to_reversions():
    for seed in range(12):
        g = random_pu_graph(6, 0.5, seed=100 + seed)
        found = find_pu_orientation(strip_orientation(g))
        assert found is not None
        alpha = compare_orientations(found, g)
        assert alpha is not None
        # applying the reversions really does map one to the other
        flip = set(alpha)
        n = g.n
        adj = [
            [
                -found.adj[i][j]
                if (g.names[i] in flip) != (g.names[j] in flip)
                else found.adj[i][j]
                for j in range(n)
            ]
            for i in range(n)
        ]
        assert [list(r) for r in adj] == [list(r) for r in g.adj]


def test_compare_orientations_lex_smallest():
    g1 = fixture("E1")
    assert compare_orientations(g1, g1) == ()
    g2 = build_graph([("u", 0, "-"), ("v", 1, "-")], [("v", "u")])
    alpha = compare_orientations(g1, g2)
    # both {u} and {v} work; the lexicographically smaller tuple wins
    assert alpha == ("u",)


def test_compare_orientations_mismatch():
    with pytest.raises(StructureMismatch):
        compare_orientations(fixture("E1"), fixture("UNKNOT_NEG"))
    g2 = build_graph([("u", 0, "-"), ("v", 1, "+")], [("u", "v")])
    with pytest.raises(StructureMismatch):
        compare_orientations(fixture("E1"), g2)


def test_random_pu_graph_deterministic_and_pu():
    a = random_pu_graph(6, 0.5, seed=5)
    b = random_pu_graph(6, 0.5, seed=5)
    assert a == b
    assert is_pu(a) is None
    assert det(a.induced((1 << a.n) - 1)) in (0, 1)
