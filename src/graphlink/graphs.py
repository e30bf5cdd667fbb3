"""Labeled oriented bipartite graphs and their state matrices.

A graph carries, per vertex, a part (0 or 1) and a sign label (+1 or
-1).  Orientation is stored as a skew-symmetric adjacency matrix over
Z with entries 0, +1, -1: a[i][j] == 1 exactly when the edge runs
from vertex i to vertex j.  Edges join vertices of different parts
only; loops and multiple edges never occur.

States (vertex subsets) are passed around as bitmasks over vertex
indices.  Graphs are immutable values after construction; the mutable
dicts attached to an instance are memo caches only and never take
part in equality.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass, field
from functools import cached_property

from .errors import (
    DuplicateEdge,
    DuplicateName,
    GraphSyntaxError,
    GraphTooLarge,
    SamePartEdge,
    SelfLoop,
    UnknownVertex,
)
from .intlinalg import rank

__all__ = [
    "MAX_VERTICES",
    "WARN_VERTICES",
    "LabeledGraph",
    "UnorientedGraph",
    "build_graph",
    "parse_graph",
    "parse_unoriented",
    "serialize_graph",
    "load_graph",
    "state_names",
    "names_to_state",
]

MAX_VERTICES = 16
WARN_VERTICES = 12
_PACKAGE = __name__.rpartition(".")[0] + "."


def _check_size(n: int) -> None:
    if n > MAX_VERTICES:
        raise GraphTooLarge(f"{n} vertices exceeds the supported maximum of {MAX_VERTICES}")


def _outside_stacklevel() -> int:
    """The `warnings.warn` stacklevel, for a call made from the caller of
    this function, that names the first frame outside this package."""
    level, frame = 1, sys._getframe(1)
    while frame is not None and frame.f_globals.get("__name__", "").startswith(_PACKAGE):
        level += 1
        frame = frame.f_back
    return level


@dataclass
class LabeledGraph:
    names: tuple[str, ...]
    parts: tuple[int, ...]
    signs: tuple[int, ...]
    adj: tuple[tuple[int, ...], ...]
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def n(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise UnknownVertex(f"no vertex named {name!r}") from None

    def neighbors(self, i: int) -> list[int]:
        return [j for j in range(self.n) if self.adj[i][j] != 0]

    def degree(self, i: int) -> int:
        return sum(1 for x in self.adj[i] if x != 0)

    def edges(self) -> list[tuple[int, int]]:
        """Directed edges (src, dst), sorted."""
        return [
            (i, j)
            for i in range(self.n)
            for j in range(self.n)
            if self.adj[i][j] == 1
        ]

    # -- state matrices -------------------------------------------------

    def state_indices(self, state: int) -> list[int]:
        return [i for i in range(self.n) if state >> i & 1]

    def induced(self, state: int) -> list[list[int]]:
        """Adjacency of the induced subgraph, rows in index order."""
        idx = self.state_indices(state)
        return [[self.adj[i][j] for j in idx] for i in idx]

    def bipartite_block(self, state: int) -> tuple[list[int], list[int], list[list[int]]]:
        """Rows over part-0 state vertices, columns over part-1 ones.

        The induced adjacency reassembles from the returned block B as
        [[0, B], [-B^T, 0]] once the state is reordered part 0 first.
        """
        rows = [i for i in self.state_indices(state) if self.parts[i] == 0]
        cols = [j for j in self.state_indices(state) if self.parts[j] == 1]
        return rows, cols, [[self.adj[i][j] for j in cols] for i in rows]

    def corank(self, state: int) -> int:
        cache = self._cache.setdefault("corank", {})
        got = cache.get(state)
        if got is None:
            _, _, b = self.bipartite_block(state)
            # rank A(s) = 2 rank B(s) for the skew block structure
            got = bin(state).count("1") - 2 * rank(b)
            cache[state] = got
        return got

    @cached_property
    def plus(self) -> int:
        """Mask of the + vertices: the state at the bottom of the cube."""
        return sum(1 << v for v, sign in enumerate(self.signs) if sign == 1)

    def grading_i(self, state: int) -> int:
        """Height of a state in the cube: arrows add negative vertices
        and remove positive ones, so count where it differs from `plus`."""
        return (state ^ self.plus).bit_count()

    def coordinate_is_source(self, state: int, v: int) -> bool:
        """True when the cube arrow in coordinate v leaves this state."""
        return not (state ^ self.plus) >> v & 1

    def all_states(self):
        """Every state as a bitmask.  Above WARN_VERTICES this warns that
        the enumeration is exponential, naming the calling line outside
        the package."""
        if self.n > WARN_VERTICES:
            warnings.warn(
                f"{self.n} vertices: state enumeration is exponential and will be slow",
                stacklevel=_outside_stacklevel(),
            )
        return range(1 << self.n)


@dataclass
class UnorientedGraph:
    """Parse result for files that may leave edge directions open.

    ``directed`` edges are (src, dst) index pairs fixed by the file;
    ``undirected`` edges are index pairs whose direction is free.
    Same-part edges are tolerated here and rejected only when an
    orientation is actually requested.
    """

    names: tuple[str, ...]
    parts: tuple[int, ...]
    signs: tuple[int, ...]
    directed: tuple[tuple[int, int], ...]
    undirected: tuple[tuple[int, int], ...]


def build_graph(vertices, edges) -> LabeledGraph:
    """Construct from (name, part, sign) triples and (src, dst) name pairs.

    Signs may be given as '+'/'-' or +1/-1.
    """
    names = []
    parts = []
    signs = []
    for name, part, sign in vertices:
        if name in names:
            raise DuplicateName(f"vertex {name!r} declared twice")
        names.append(name)
        parts.append(int(part))
        signs.append(_sign_value(sign))
    _check_size(len(names))
    n = len(names)
    adj = [[0] * n for _ in range(n)]
    for a, b in edges:
        i = names.index(a) if a in names else None
        j = names.index(b) if b in names else None
        if i is None or j is None:
            raise UnknownVertex(f"edge {a} {b} uses an undeclared vertex")
        if i == j:
            raise SelfLoop(f"loop at {a}")
        if parts[i] == parts[j]:
            raise SamePartEdge(f"edge {a} {b} joins two part-{parts[i]} vertices")
        if adj[i][j] != 0:
            raise DuplicateEdge(f"edge between {a} and {b} given twice")
        adj[i][j] = 1
        adj[j][i] = -1
    return LabeledGraph(tuple(names), tuple(parts), tuple(signs), tuple(map(tuple, adj)))


def _sign_value(sign) -> int:
    if sign in (1, -1):
        return sign
    if sign == "+":
        return 1
    if sign == "-":
        return -1
    raise GraphSyntaxError(f"bad sign {sign!r}")


def _sign_char(sign: int) -> str:
    return "+" if sign == 1 else "-"


def _parse_lines(text: str, allow_undirected: bool):
    vertices = []
    directed = []
    undirected = []
    seen_names = set()
    seen_pairs = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        if tok[0] == "vertex":
            if len(tok) != 4:
                raise GraphSyntaxError("vertex line needs: vertex <name> <0|1> <+|->", lineno)
            name, part, sign = tok[1], tok[2], tok[3]
            if name in seen_names:
                raise DuplicateName(f"vertex {name!r} declared twice", lineno)
            if part not in ("0", "1"):
                raise GraphSyntaxError(f"part must be 0 or 1, got {part!r}", lineno)
            if sign not in ("+", "-"):
                raise GraphSyntaxError(f"sign must be + or -, got {sign!r}", lineno)
            seen_names.add(name)
            vertices.append((name, int(part), 1 if sign == "+" else -1))
        elif tok[0] in ("edge", "uedge"):
            if len(tok) != 3:
                raise GraphSyntaxError(f"{tok[0]} line needs: {tok[0]} <src> <dst>", lineno)
            if tok[0] == "uedge" and not allow_undirected:
                raise GraphSyntaxError("undirected edge in an oriented graph file", lineno)
            a, b = tok[1], tok[2]
            if a not in seen_names or b not in seen_names:
                raise GraphSyntaxError(f"edge {a} {b} uses an undeclared vertex", lineno)
            if a == b:
                raise SelfLoop(f"loop at {a}", lineno)
            key = frozenset((a, b))
            if key in seen_pairs:
                raise DuplicateEdge(f"edge between {a} and {b} given twice", lineno)
            seen_pairs.add(key)
            (directed if tok[0] == "edge" else undirected).append((a, b, lineno))
        else:
            raise GraphSyntaxError(f"unknown directive {tok[0]!r}", lineno)
    return vertices, directed, undirected


def parse_graph(text: str) -> LabeledGraph:
    """Parse the oriented graph file format.

    Lines are ``vertex <name> <0|1> <+|->`` and ``edge <src> <dst>``;
    '#' starts a comment.  Errors carry the offending line number.
    """
    vertices, directed, _ = _parse_lines(text, allow_undirected=False)
    parts = {v[0]: v[1] for v in vertices}
    for a, b, lineno in directed:
        if parts[a] == parts[b]:
            raise SamePartEdge(f"edge {a} {b} joins two part-{parts[a]} vertices", lineno)
    return build_graph(vertices, [(a, b) for a, b, _ in directed])


def parse_unoriented(text: str) -> UnorientedGraph:
    """Parse a graph file that may contain ``uedge a b`` lines."""
    vertices, directed, undirected = _parse_lines(text, allow_undirected=True)
    names = tuple(v[0] for v in vertices)
    _check_size(len(names))
    idx = {name: i for i, name in enumerate(names)}
    return UnorientedGraph(
        names,
        tuple(v[1] for v in vertices),
        tuple(v[2] for v in vertices),
        tuple((idx[a], idx[b]) for a, b, _ in directed),
        tuple((idx[a], idx[b]) for a, b, _ in undirected),
    )


def serialize_graph(g: LabeledGraph) -> str:
    """Canonical text form: vertices in index order, edges sorted."""
    out = [
        f"vertex {g.names[i]} {g.parts[i]} {_sign_char(g.signs[i])}"
        for i in range(g.n)
    ]
    out.extend(f"edge {g.names[i]} {g.names[j]}" for i, j in sorted(g.edges()))
    return "\n".join(out) + "\n"


def load_graph(path) -> LabeledGraph:
    with open(path, encoding="utf-8") as fh:
        return parse_graph(fh.read())


def state_names(g: LabeledGraph, state: int) -> tuple[str, ...]:
    return tuple(g.names[i] for i in g.state_indices(state))


def names_to_state(g: LabeledGraph, names) -> int:
    mask = 0
    for name in names:
        mask |= 1 << g.index(name)
    return mask
