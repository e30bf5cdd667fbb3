"""Output checks computed apart from graphlink.

Nothing here imports graphlink.  Graph files are read by a parser of
this module's own, determinants and ranks come from exact elimination
written here, and the expected values are either mathematical facts
(graded Euler characteristic, the move shift table, the switch relation)
or the table published in README.md.  Every check returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb

# The THETA11 table as README.md publishes it under
# "graphlink homology theta11.graph".
THETA11_TABLE = """\
h 4 0 1 -
h 5 2 0 8
h 6 4 1 3
h 7 6 1 -
h 8 8 2 -
h 9 10 1 -
h 10 12 1 -
h 11 14 1 -
"""

# Bigrading shift (di, dq) that `graphlink invariance` reports for one
# move of each kind, as (before groups) = (after groups) shifted.
MOVE_SHIFT = {
    "R": (0, 0),
    "O1+ -": (-1, -2),
    "O1+ +": (0, 1),
    "O2+": (-1, -1),
    "O3": (0, 0),
    "O3inv": (0, 0),
    "O4": (0, 0),
    "macro": (0, 0),
}


@dataclass
class Graph:
    """A labeled oriented graph as read from the text format."""

    names: list[str]
    parts: list[int]
    signs: list[int]
    adj: list[list[int]]

    @property
    def n(self) -> int:
        return len(self.names)


def parse_graph(text: str) -> Graph:
    """Read `vertex`, `edge` and `uedge` lines; `uedge` gives 0 entries
    in `adj` and is only used to compare underlying edges."""
    names: list[str] = []
    parts: list[int] = []
    signs: list[int] = []
    pairs: list[tuple[str, str, int]] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].split()
        if not line:
            continue
        if line[0] == "vertex" and len(line) == 4 and line[3] in "+-":
            names.append(line[1])
            parts.append(int(line[2]))
            signs.append(1 if line[3] == "+" else -1)
        elif line[0] in ("edge", "uedge") and len(line) == 3:
            pairs.append((line[1], line[2], 1 if line[0] == "edge" else 0))
        else:
            raise ValueError(f"unreadable graph line {raw!r}")
    index = {name: k for k, name in enumerate(names)}
    adj = [[0] * len(names) for _ in names]
    for a, b, directed in pairs:
        i, j = index[a], index[b]
        adj[i][j], adj[j][i] = directed, -directed
    return Graph(names, parts, signs, adj)


def unoriented_text(text: str) -> str:
    """The same graph with every edge direction left open."""
    return re.sub(r"(?m)^edge ", "uedge ", text)


def _eliminate(m: list[list[int]]) -> tuple[int, Fraction]:
    """Gaussian elimination over Q: (rank, product of pivots with the
    sign of the row swaps)."""
    a = [[Fraction(x) for x in row] for row in m]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    r = 0
    sign = 1
    prod = Fraction(1)
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if a[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        p = a[r][c]
        prod *= p
        for i in range(r + 1, nrows):
            f = a[i][c] / p
            if f:
                row, top = a[i], a[r]
                for j in range(c, ncols):
                    if top[j]:
                        row[j] -= f * top[j]
        r += 1
    return r, sign * prod


def rank_q(m: list[list[int]]) -> int:
    return _eliminate(m)[0] if m else 0


def det_q(m: list[list[int]]) -> int:
    if not m:
        return 1
    r, d = _eliminate(m)
    if r < len(m):
        return 0
    assert d.denominator == 1
    return int(d)


def principal(g: Graph, state: int) -> list[list[int]]:
    idx = [v for v in range(g.n) if state >> v & 1]
    return [[g.adj[a][b] for b in idx] for a in idx]


def pu_violation(g: Graph) -> tuple[int, int] | None:
    """(state, det) of the first principal minor outside {0, 1}, or None."""
    for s in range(1 << g.n):
        d = det_q(principal(g, s))
        if d not in (0, 1):
            return s, d
    return None


def height(g: Graph, state: int) -> int:
    """Cube height i(s): negative vertices inside plus positive outside."""
    return sum(
        1
        for v in range(g.n)
        if bool(state >> v & 1) == (g.signs[v] == -1)
    )


def graded_euler(g: Graph) -> dict[int, int]:
    """sum_s (-1)^i(s) sum_k C(cor s, k) at q = cor s - 2k + i(s)."""
    chi: dict[int, int] = {}
    for s in range(1 << g.n):
        m = principal(g, s)
        cor = len(m) - rank_q(m)
        i = height(g, s)
        for k in range(cor + 1):
            q = cor - 2 * k + i
            chi[q] = chi.get(q, 0) + (-1) ** i * comb(cor, k)
    return {q: v for q, v in chi.items() if v}


def parse_table(text: str) -> dict[tuple[int, int], tuple[int, tuple[int, ...]]]:
    """`h <i> <q> <betti> <torsion|->` lines into {(i, q): (betti, torsion)}."""
    table = {}
    for line in text.splitlines():
        tok = line.split()
        if len(tok) != 5 or tok[0] != "h":
            raise ValueError(f"unreadable homology line {line!r}")
        tors = () if tok[4] == "-" else tuple(int(x) for x in tok[4].split(","))
        table[(int(tok[1]), int(tok[2]))] = (int(tok[3]), tors)
    return table


def table_euler(table) -> dict[int, int]:
    chi: dict[int, int] = {}
    for (i, q), (betti, _) in table.items():
        chi[q] = chi.get(q, 0) + (-1) ** i * betti
    return {q: v for q, v in chi.items() if v}


def check_homology(rc: int, out: str, graph_text: str, published: str | None) -> list[str]:
    """Exit 0, a readable table, the graded Euler characteristic, and the
    published table where one exists."""
    if rc != 0:
        return [f"homology exited {rc}"]
    try:
        table = parse_table(out)
    except ValueError as exc:
        return [str(exc)]
    problems = []
    want = graded_euler(parse_graph(graph_text))
    got = table_euler(table)
    if got != want:
        problems.append(f"Euler characteristic {got} != {want}")
    if published is not None and table != parse_table(published):
        problems.append("table differs from the published one")
    return problems


def check_invariance(rc: int, out: str, shift: tuple[int, int]) -> list[str]:
    want = f"Equal({shift[0]},{shift[1]})"
    if rc != 0 or out.strip() != want:
        return [f"invariance gave {out.strip()!r} (exit {rc}), expected {want}"]
    return []


def check_validate(rc: int, out: str, graph_text: str) -> list[str]:
    """Exit 0, every battery line PASS including the negative control,
    and the input confirmed PU over every state."""
    problems = []
    lines = out.splitlines()
    if rc != 0:
        problems.append(f"validate exited {rc}")
    if len(lines) < 3:
        problems.append(f"validate printed {len(lines)} lines")
    for line in lines:
        tok = line.split()
        if len(tok) < 2 or tok[1] != "PASS":
            problems.append(f"battery line {line!r}")
    if not any(line.startswith("negative-control PASS") for line in lines):
        problems.append("no passing negative-control line")
    bad = pu_violation(parse_graph(graph_text))
    if bad is not None:
        problems.append(f"input not PU: det {bad[1]} at state {bad[0]:b}")
    return problems


def switched(g: Graph, alpha) -> Graph:
    """R(alpha): reverse every edge with exactly one end in alpha."""
    inside = [name in set(alpha) for name in g.names]
    adj = [
        [-x if inside[i] != inside[j] else x for j, x in enumerate(row)]
        for i, row in enumerate(g.adj)
    ]
    return Graph(list(g.names), list(g.parts), list(g.signs), adj)


def same_graph(a: Graph, b: Graph) -> bool:
    return (a.names, a.parts, a.signs, a.adj) == (b.names, b.parts, b.signs, b.adj)


def differs_at_exactly(before: Graph, after: Graph, u: str, v: str) -> bool:
    """`after` is `before` with the edge u-v reversed and nothing else."""
    if (before.names, before.parts, before.signs) != (after.names, after.parts, after.signs):
        return False
    i, j = before.names.index(u), before.names.index(v)
    if before.adj[i][j] == 0:
        return False
    for a in range(before.n):
        for b in range(before.n):
            flipped = {a, b} == {i, j}
            if after.adj[a][b] != (-1 if flipped else 1) * before.adj[a][b]:
                return False
    return True


def check_moves(
    rc_apply: int,
    applied: str,
    expected: str,
    rc_pu: int,
    out_pu: str,
    rc_orient: int,
    out_orient: str,
    alpha,
) -> list[str]:
    """One replayed script: the applied graph equals the expected result,
    `check-pu` says PU, and the orientation found is the result up to the
    switch set `alpha` (None when no switch set relates them)."""
    problems = []
    if rc_apply != 0:
        return [f"apply exited {rc_apply}"]
    result = parse_graph(expected)
    if not same_graph(parse_graph(applied), result):
        problems.append("applied graph differs from the expected result")
    if rc_pu != 0 or out_pu.strip() != "PU":
        problems.append(f"check-pu printed {out_pu.strip()!r} (exit {rc_pu})")
    if rc_orient != 0:
        problems.append(f"orient exited {rc_orient}")
    elif alpha is None:
        problems.append("orientation not related to the result by switches")
    elif not same_graph(switched(parse_graph(out_orient), alpha), result):
        problems.append(f"switching the orientation at {alpha} misses the result")
    if result.n <= 10:
        bad = pu_violation(result)
        if bad is not None:
            problems.append(f"result not PU: det {bad[1]} at state {bad[0]:b}")
    return problems
