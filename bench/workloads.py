"""The benchmark's four workloads: seeded corpora and their checks.

Each workload builds a list of operations from the seed and writes the
graph and script files they read.  An operation is one or more
`graphlink` subcommands run in-process through `graphlink.cli.main`, so
every operation parses its graphs afresh, as a `graphlink` process does.

Random graphs are drawn as size classes: set-up draws a fixed pool of
`random_pu_graph` candidates per slot and keeps the one closest to a
target, so that one seed's corpus costs about what another's does.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

import graphlink as gl
from graphlink.errors import GraphlinkError
from graphlink.moves import Move

import checks

# Target generator count sum_s 2^cor(s) per vertex count, near the
# median of random_pu_graph(n).  At n = 10 the target sits in the dense
# cluster of the distribution, where the cancellation's fill-in, and so
# the operation's time, varies least from graph to graph.
GEN_TARGET = {4: 45, 5: 120, 6: 260, 7: 610, 8: 1340, 9: 3090, 10: 5500}


@dataclass
class Op:
    """One timed operation: `graphlink` argument lists run in order."""

    calls: list[list[str]]
    data: dict = field(default_factory=dict)


def generators(g: gl.LabeledGraph) -> int:
    return sum(1 << g.corank(s) for s in g.all_states())


def draw(rng: random.Random, n: int, pool: int, key, accept=None):
    """Draw `pool` acceptable candidates of random_pu_graph(n) and return
    (graph, accepted value) of the one with the smallest key(graph)."""
    best = None
    found = 0
    for _ in range(pool * 50):
        g = gl.random_pu_graph(n, seed=rng.randrange(2**31))
        got = accept(g, rng) if accept else True
        if got is None:
            continue
        k = key(g)
        if best is None or k < best[0]:
            best = (k, g, got)
        found += 1
        if found == pool:
            break
    if best is None:
        raise RuntimeError(f"no acceptable random_pu_graph({n}) in {pool * 50} draws")
    return best[1], best[2]


def near_target(n: int):
    target = GEN_TARGET[n]
    return lambda g: abs(generators(g) - target)


def write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def edge_names(g: gl.LabeledGraph) -> list[tuple[str, str]]:
    return [(g.names[i], g.names[j]) for i, j in g.edges()]


# -- homology-large ---------------------------------------------------------


def build_homology(seed: int, smoke: bool, work: Path) -> list[Op]:
    rng = random.Random(f"homology-large:{seed}")
    theta = gl.fixture_text("THETA11")
    n, pool = (7, 4) if smoke else (10, 32)
    g, _ = draw(rng, n, pool, near_target(n))
    text = gl.serialize_graph(g)
    return [
        Op([["homology", write(work / "theta11.graph", theta)]],
           {"graph": theta, "published": checks.THETA11_TABLE}),
        Op([["homology", write(work / "random.graph", text)]],
           {"graph": text, "published": None}),
    ]


def check_homology(op: Op, results) -> list[str]:
    (rc, out), = results
    return checks.check_homology(rc, out, op.data["graph"], op.data["published"])


# -- invariance-small -------------------------------------------------------

# Move types in the order they cycle, with how many vertices each adds.
# Every operation's result has the cycle's size: 6, 7, 8, 7 and 8 vertices
# in the five cycles, so both homology computations of an operation are
# of one size, and the median and p75 fall inside the 7- and 8-vertex
# groups rather than between groups.
INVARIANCE_MOVES = [
    ("R", 0), ("O1+ -", 1), ("O1+ +", 1), ("O2+", 2),
    ("O3", 0), ("O3inv", 0), ("O4", 0), ("macro", 0),
]
INVARIANCE_SIZES = [6, 7, 8, 7, 8]


def omega3_site(g: gl.LabeledGraph, rng: random.Random):
    """Switch g so that some negative degree-2 vertex u with negative
    neighbours v, w admits O3; returns (switched graph, (u, v, w),
    forward result) or None."""
    sites = []
    for u in range(g.n):
        nbrs = g.neighbors(u)
        if g.signs[u] == -1 and len(nbrs) == 2 and all(g.signs[x] == -1 for x in nbrs):
            sites.append((u, *nbrs))
    rng.shuffle(sites)
    for u, v, w in sites:
        h = g
        for x in (v, w):
            if h.adj[u][x] != 1:
                h = gl.apply_R(h, g.names[x])
        triple = (g.names[u], g.names[v], g.names[w])
        try:
            out = gl.omega3_forward(h, *triple)
        except GraphlinkError:
            continue
        if gl.is_pu(out) is None:
            return h, triple, out
    return None


def pu_flip(g: gl.LabeledGraph, rng: random.Random):
    """(edge, macro script) for an edge whose flip stays PU, or None."""
    edges = edge_names(g)
    rng.shuffle(edges)
    for u, v in edges:
        script, flipped = gl.flip_edge_macro(g, u, v)
        if gl.is_pu(flipped) is None:
            return (u, v), script
    return None


def twin_move(g: gl.LabeledGraph, rng: random.Random, names: tuple[str, str]) -> Move:
    """A guarded O2+ whose result is PU: a random neighbourhood within
    one part if one of a few draws stays PU, else a copy of a vertex's
    row (twins beside an existing vertex never leave the PU class)."""
    sign = rng.choice("+-")
    other = "-" if sign == "+" else "+"
    for _ in range(6):
        part = rng.randint(0, 1)
        side = [v for v in range(g.n) if g.parts[v] == part]
        if not side:
            continue
        nbrs = rng.sample(side, rng.randint(1, len(side)))
        dirs = "".join(rng.choice("oi") for _ in nbrs)
        nn = tuple(g.names[v] for v in nbrs)
        moved = gl.omega2_add(g, names, (sign, other), nn, dirs, require_pu=False)
        if gl.is_pu(moved) is None:
            return Move("O2+", (*names, sign, "N=" + ",".join(nn), "dirs=" + dirs))
    return copy_twins(g, rng, names, sign)


def copy_twins(g: gl.LabeledGraph, rng: random.Random, names, sign: str, part=None) -> Move:
    """Guarded O2+ adding twins with the row of a random vertex
    (of `part` when given), so the result stays PU."""
    pool = [v for v in range(g.n) if g.degree(v) and (part is None or g.parts[v] == part)]
    x = rng.choice(pool or [v for v in range(g.n) if g.degree(v)])
    nbrs = g.neighbors(x)
    nn = ",".join(g.names[y] for y in nbrs)
    dirs = "".join("o" if g.adj[x][y] == 1 else "i" for y in nbrs)
    return Move("O2+", (*names, sign, "N=" + nn, "dirs=" + dirs))


def build_invariance(seed: int, smoke: bool, work: Path) -> list[Op]:
    rng = random.Random(f"invariance-small:{seed}")
    ops = []
    sizes, pool = ([6], 2) if smoke else (INVARIANCE_SIZES, 8)
    for k in range(len(sizes) * len(INVARIANCE_MOVES)):
        kind, grows = INVARIANCE_MOVES[k % len(INVARIANCE_MOVES)]
        n = sizes[k // len(INVARIANCE_MOVES)] - grows
        key = near_target(n)
        if kind in ("O3", "O3inv"):
            g, (h, triple, out) = draw(rng, n, pool, key, omega3_site)
            g, script = (h, f"O3 {' '.join(triple)}") if kind == "O3" else (
                out, f"O3inv {' '.join(triple)}")
        elif kind == "macro":
            g, (_, moves) = draw(rng, n, pool, key, pu_flip)
            script = gl.serialize_script(moves)
        else:
            g, _ = draw(rng, n, pool, key, lambda h, r: True if h.edges() else None)
            if kind == "R":
                script = f"R {rng.choice(g.names)}"
            elif kind.startswith("O1+"):
                script = f"O1+ z0 {rng.randint(0, 1)} {kind[-1]}"
            elif kind == "O2+":
                script = twin_move(g, rng, ("t0", "t1")).line()
            else:
                script = "O4 {} {}".format(*rng.choice(edge_names(g)))
        gpath = write(work / f"inv{k}.graph", gl.serialize_graph(g))
        spath = write(work / f"inv{k}.moves", script + "\n")
        ops.append(Op([["invariance", gpath, spath]], {"shift": checks.MOVE_SHIFT[kind]}))
    return ops


def check_invariance(op: Op, results) -> list[str]:
    (rc, out), = results
    return checks.check_invariance(rc, out, op.data["shift"])


# -- validate ---------------------------------------------------------------


def build_validate(seed: int, smoke: bool, work: Path) -> list[Op]:
    rng = random.Random(f"validate:{seed}")
    sizes = [5, 6] if smoke else ([8] * 19 + [9]) * 2
    ops = []
    for k, n in enumerate(sizes):
        g, _ = draw(rng, n, 2 if smoke else 6, near_target(n))
        text = gl.serialize_graph(g)
        path = write(work / f"val{k}.graph", text)
        ops.append(Op([["validate", path, "--negative-control"]], {"graph": text}))
    return ops


def check_validate(op: Op, results) -> list[str]:
    (rc, out), = results
    return checks.check_validate(rc, out, op.data["graph"])


# -- moves-pu ---------------------------------------------------------------

MAX_VERTICES = 16


def pendant_edge(g: gl.LabeledGraph, rng: random.Random):
    """A directed edge at a degree-1 vertex, or None; flipping it is a
    switch of one side, so the flip keeps the graph PU."""
    ends = [v for v in range(g.n) if g.degree(v) == 1]
    if not ends:
        return None
    v = rng.choice(ends)
    w = g.neighbors(v)[0]
    return (g.names[v], g.names[w]) if g.adj[v][w] == 1 else (g.names[w], g.names[v])


def balance(g: gl.LabeledGraph) -> int:
    return abs(2 * sum(g.parts) - g.n)


def smaller_part(g: gl.LabeledGraph) -> int:
    return 1 if 2 * sum(g.parts) < g.n else 0


def moves_script(g: gl.LabeledGraph, rng: random.Random, keep_twins: int):
    """Draw a script on g: R, the edge-flip macro (on up to 12 vertices),
    O1+/O4/O1-, `keep_twins` kept twin pairs, and one twin pair added and
    removed again.  Returns (moves, final graph, records for the macro
    and twin checks)."""
    moves: list[Move] = []
    records = []

    def step(move: Move):
        # Twins copying a vertex's row stay PU, so set-up skips the guard
        # that the timed replay runs.
        nonlocal g
        unguarded = Move("O2+!", move.args) if move.op == "O2+" else move
        g = gl.apply_script(g, [unguarded])
        moves.append(move)

    step(Move("R", (rng.choice(g.names),)))
    if g.n + 4 <= MAX_VERTICES:  # the macro parks four vertices
        u, v = pendant_edge(g, rng)
        macro, flipped = gl.flip_edge_macro(g, u, v)
        if gl.is_pu(flipped) is not None:
            raise RuntimeError(f"flip of pendant edge {u} {v} left the PU class")
        records.append(("macro", gl.serialize_graph(g), gl.serialize_graph(flipped), u, v))
        moves.extend(macro)
        g = flipped
    step(Move("O1+", ("y0", str(rng.randint(0, 1)), rng.choice("+-"))))
    step(Move("O4", rng.choice(edge_names(g))))
    step(Move("O1-", ("y0",)))
    for j in range(keep_twins):
        step(copy_twins(g, rng, (f"t{j}a", f"t{j}b"), rng.choice("+-"), smaller_part(g)))
    before = gl.serialize_graph(g)
    step(copy_twins(g, rng, ("ua", "ub"), rng.choice("+-"), smaller_part(g)))
    step(Move("O2-", ("ua", "ub")))
    records.append(("twins", before, gl.serialize_graph(g)))
    return moves, g, records


def build_moves(seed: int, smoke: bool, work: Path) -> list[Op]:
    rng = random.Random(f"moves-pu:{seed}")
    ops = []
    count, pool = (3, 2) if smoke else (64, 2)
    for k in range(count):
        n = (6 if smoke else 10) + k % 5
        keep = min(k % 3, (MAX_VERTICES - 2 - n) // 2)
        base, _ = draw(rng, n, pool, balance, pendant_edge)
        moves, final, records = moves_script(base, rng, keep)
        expected = gl.serialize_graph(final)
        gpath = write(work / f"mv{k}.graph", gl.serialize_graph(base))
        spath = write(work / f"mv{k}.moves", gl.serialize_script(moves))
        upath = write(work / f"mv{k}.open.graph", checks.unoriented_text(expected))
        out = str(work / f"mv{k}.out.graph")
        ops.append(Op(
            [["apply", gpath, spath, "-o", out], ["check-pu", out], ["orient", upath]],
            {"expected": expected, "out": out, "records": records},
        ))
    return ops


def check_moves(op: Op, results) -> list[str]:
    (rc_apply, _), (rc_pu, out_pu), (rc_orient, out_orient) = results
    expected = op.data["expected"]
    try:
        applied = Path(op.data["out"]).read_text(encoding="utf-8")
    except OSError:
        applied = ""
    alpha = None
    if rc_orient == 0:
        try:
            alpha = gl.compare_orientations(gl.parse_graph(out_orient), gl.parse_graph(expected))
        except GraphlinkError:
            alpha = None
    problems = checks.check_moves(
        rc_apply, applied, expected, rc_pu, out_pu, rc_orient, out_orient, alpha
    )
    for record in op.data["records"]:
        if record[0] == "macro":
            _, before, after, u, v = record
            if not checks.differs_at_exactly(checks.parse_graph(before), checks.parse_graph(after), u, v):
                problems.append(f"macro on {u} {v} changed more than that edge")
        elif not checks.same_graph(checks.parse_graph(record[1]), checks.parse_graph(record[2])):
            problems.append("O2+ followed by O2- did not restore the graph")
    return problems


WORKLOADS = {
    "homology-large": (build_homology, check_homology),
    "invariance-small": (build_invariance, check_invariance),
    "validate": (build_validate, check_validate),
    "moves-pu": (build_moves, check_moves),
}
