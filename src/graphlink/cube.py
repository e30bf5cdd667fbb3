"""The hypercube of states over a unimodular labeled graph.

Each state s carries a free module V(s) presented by one relation per
vertex; cube edges carry either multiplication by a class (wedge) or the
induced quotient map (plain).  Two-faces classify into commutative,
anticommutative, and zero types by coranks and class ratios alone, and a
GF(2) solve turns the face classes into the edge signs that make the
differential square to zero.

The zero faces split into X and Y by comparing two generator classes at
the middle state.  The literature states the comparison rule in two
inequivalent ways, so both are implemented behind ``convention``:
``signed`` calls a zero face X when the outer class is sgn(outer) times
the inner class, ``inner`` when the ratio is +1.  The two genuinely
disagree (on a two-vertex single-edge graph the ratio is +1 while the
outer sign is -1).  Only ``signed`` makes the three-subcube parity
counts even and the sign systems solvable across the whole test corpus,
so it is the default; ``inner`` is kept for the regression tests that
document the disagreement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    AssignmentInfeasible,
    InternalInvariantError,
    LemmaViolation,
    NotAFace,
)
from .graphs import LabeledGraph
from .intlinalg import mat_mul, quotient_projection, rank, wedge_expand

__all__ = [
    "CONVENTIONS",
    "DEFAULT_CONVENTION",
    "StateModule",
    "CubeEdge",
    "FaceType",
    "EdgeAssignment",
    "state_module",
    "xi_zero",
    "cube_edges",
    "edge_map",
    "faces",
    "classify_face",
    "solve_edge_assignment",
    "validate_cube_parity",
    "CubeParityReport",
]

CONVENTIONS = ("inner", "signed")
DEFAULT_CONVENTION = "signed"

WedgeMap = dict[tuple[int, ...], dict[tuple[int, ...], int]]


@dataclass(frozen=True)
class StateModule:
    """V(s) = Z^n / relations, with an explicit basis of its free quotient.

    ``projection`` (rank x n) sends e_j to the class of x_j; ``section``
    (n x rank) picks representatives, so projection @ section = identity.
    """

    state: int
    rank: int
    projection: tuple[tuple[int, ...], ...]
    section: tuple[tuple[int, ...], ...]
    relations: tuple[tuple[int, ...], ...]

    def project(self, vector: list[int] | tuple[int, ...]) -> tuple[int, ...]:
        return tuple(
            sum(row[j] * vector[j] for j in range(len(vector)))
            for row in self.projection
        )

    def class_of(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.projection)


@dataclass(frozen=True)
class CubeEdge:
    source: int
    target: int
    coordinate: int
    kind: str


@dataclass(frozen=True)
class FaceType:
    raw: int
    cls: str


@dataclass(frozen=True)
class EdgeAssignment:
    """Signs epsilon(e) keyed by (source state, coordinate)."""

    kind: str
    convention: str
    signs: dict[tuple[int, int], int] = field(compare=False)

    def sign(self, source: int, coordinate: int) -> int:
        return self.signs[(source, coordinate)]


def _relation_rows(g: LabeledGraph, s: int) -> list[list[int]]:
    inside = g.state_indices(s)
    rows = []
    for i in range(g.n):
        row = [0] * g.n
        if not s >> i & 1:
            row[i] = 1
        for j in inside:
            row[j] += -g.signs[j] * g.adj[i][j]
        rows.append(row)
    return rows


def state_module(g: LabeledGraph, s: int) -> StateModule:
    """Present V(s) and cache the result on the graph."""
    cache = g._cache.setdefault("state_module", {})
    got = cache.get(s)
    if got is not None:
        return got
    rows = _relation_rows(g, s)
    k, proj, sect = quotient_projection(rows, g.n)
    if k != g.corank(s):
        raise LemmaViolation(
            f"rank V(s) = {k} but cor A(s) = {g.corank(s)} at state {s:b}"
        )
    sm = StateModule(
        state=s,
        rank=k,
        projection=tuple(tuple(r) for r in proj),
        section=tuple(tuple(r) for r in sect),
        relations=tuple(tuple(r) for r in rows),
    )
    cache[s] = sm
    return sm


def xi_zero(g: LabeledGraph, s: int, i: int) -> bool:
    """Whether the class of x_i vanishes in V(s).

    Always cross-checked against the corank increment along coordinate i;
    the two criteria agreeing is a theorem, so disagreement is fatal.
    """
    vanishes = not any(state_module(g, s).class_of(i))
    grows = g.corank(s ^ (1 << i)) == g.corank(s) + 1
    if vanishes != grows:
        raise LemmaViolation(
            f"x_{i} vanishing ({vanishes}) disagrees with corank growth "
            f"({grows}) at state {s:b}"
        )
    return vanishes


def cube_edges(g: LabeledGraph) -> list[CubeEdge]:
    """All directed cube edges with their map kinds, source-major order."""
    out = []
    for s in g.all_states():
        for i in range(g.n):
            if not g.coordinate_is_source(s, i):
                continue
            kind = "Wedge" if xi_zero(g, s, i) else "Plain"
            out.append(CubeEdge(s, s ^ (1 << i), i, kind))
    return out


def _proportional(v: tuple[int, ...], w: tuple[int, ...]) -> bool:
    n = len(v)
    return all(
        v[a] * w[b] == v[b] * w[a] for a in range(n) for b in range(a + 1, n)
    )


def _edge_columns(
    g: LabeledGraph, e: CubeEdge
) -> tuple[list[list[int]], tuple[int, ...]]:
    src = state_module(g, e.source)
    tgt = state_module(g, e.target)
    m = mat_mul([list(r) for r in tgt.projection], [list(r) for r in src.section])
    w = tgt.class_of(e.coordinate)

    if e.kind == "Plain":
        if tgt.rank != src.rank - 1:
            raise InternalInvariantError("plain edge must drop the rank by one")
        for r in src.relations:
            if any(tgt.project(r)):
                raise InternalInvariantError(
                    f"induced map ill defined on edge {e.source:b}->{e.target:b}"
                )
        if rank(m) != tgt.rank:
            raise InternalInvariantError(
                f"plain edge map not surjective at {e.source:b}->{e.target:b}"
            )
    else:
        if tgt.rank != src.rank + 1:
            raise InternalInvariantError("wedge edge must raise the rank by one")
        if not any(w):
            raise InternalInvariantError("wedge class vanishes in the target")
        for r in src.relations:
            if not _proportional(tgt.project(r), w):
                raise InternalInvariantError(
                    f"wedge map ill defined on edge {e.source:b}->{e.target:b}"
                )
        stacked = [list(w)] + [[m[a][b] for a in range(tgt.rank)] for b in range(src.rank)]
        if rank(stacked) != tgt.rank:
            raise InternalInvariantError(
                f"wedge edge map not injective at {e.source:b}->{e.target:b}"
            )
    cols = [[m[a][b] for a in range(tgt.rank)] for b in range(src.rank)]
    return cols, w


def _subsets(k: int) -> list[tuple[int, ...]]:
    return [
        tuple(b for b in range(k) if mask >> b & 1) for mask in range(1 << k)
    ]


def edge_map(g: LabeledGraph, e: CubeEdge) -> WedgeMap:
    """The edge's map between wedge bases, as basis-subset to image dict.

    A plain edge applies the induced map generator by generator; a wedge
    edge further multiplies by the class of the edge coordinate on the
    left.  Rank counting, well-definedness, and the injective/surjective
    dichotomy are all asserted.
    """
    cache = g._cache.setdefault("edge_map", {})
    key = (e.source, e.coordinate)
    got = cache.get(key)
    if got is not None:
        return got
    cols, w = _edge_columns(g, e)
    k_t = state_module(g, e.target).rank
    out: WedgeMap = {}
    for subset in _subsets(len(cols)):
        vectors = [cols[a] for a in subset]
        if e.kind == "Wedge":
            vectors = [list(w)] + vectors
        out[subset] = wedge_expand(vectors, k_t)
    cache[key] = out
    return out


def _inner(g: LabeledGraph, v: int) -> bool:
    return (g.parts[v] == 0) == (g.signs[v] == -1)


def _ratio(v: tuple[int, ...], w: tuple[int, ...], where: str) -> int:
    """The unit c with v = c*w, asserted to exist."""
    if not any(v) or not any(w) or not _proportional(v, w):
        raise LemmaViolation(f"classes not unit multiples at {where}")
    for a, b in zip(v, w):
        if b:
            if a != b and a != -b:
                raise LemmaViolation(f"class ratio not a unit at {where}")
            return 1 if a == b else -1
    raise LemmaViolation(f"class ratio undefined at {where}")


def faces(g: LabeledGraph) -> list[tuple[int, int, int]]:
    """All 2-faces as (source corner, coordinate i, coordinate j), i < j."""
    out = []
    for s in g.all_states():
        for i in range(g.n):
            if not g.coordinate_is_source(s, i):
                continue
            for j in range(i + 1, g.n):
                if g.coordinate_is_source(s, j):
                    out.append((s, i, j))
    return out


def classify_face(
    g: LabeledGraph,
    s: int,
    i: int,
    j: int,
    convention: str = DEFAULT_CONVENTION,
) -> FaceType:
    """Type a 2-face by the corank pattern of its corners.

    Raw types: 1 (both up, A), 2 and 3 (C), 4 (flat top, the zero faces
    X/Y), 5 (flat bottom, A or C by comparing the two classes at the far
    corner).  Only coranks and class ratios are read; no edge map is
    built.  The composite law each class implies (equal paths for C,
    opposite for A, both zero for X/Y) is checked once, by the d^2 = 0
    check of `homology.build_complex`.
    """
    if convention not in CONVENTIONS:
        raise ValueError(f"convention must be one of {CONVENTIONS}")
    if i == j or not 0 <= i < g.n or not 0 <= j < g.n:
        raise NotAFace(f"bad coordinates ({i}, {j})")
    if not (g.coordinate_is_source(s, i) and g.coordinate_is_source(s, j)):
        raise NotAFace(f"state {s:b} is not the source corner for ({i}, {j})")
    cache = g._cache.setdefault("face_type", {})
    key = (s, i, j, convention)
    got = cache.get(key)
    if got is not None:
        return got

    bi, bj = 1 << i, 1 << j
    d1 = g.corank(s ^ bi) - g.corank(s)
    d2 = g.corank(s ^ bj) - g.corank(s)
    d12 = g.corank(s ^ bi ^ bj) - g.corank(s)
    where = f"face ({s:b}; {g.names[i]}, {g.names[j]})"
    if (d1, d2, d12) == (1, 1, 2):
        raw, cls = 1, "A"
    elif (d1, d2, d12) == (-1, -1, -2):
        raw, cls = 2, "C"
    elif {d1, d2} == {1, -1} and d12 == 0:
        raw, cls = 3, "C"
    elif (d1, d2, d12) == (1, 1, 0):
        raw = 4
        if _inner(g, i) == _inner(g, j):
            raise LemmaViolation(f"zero {where} lacks an inner/outer split")
        inner_c, outer_c = (i, j) if _inner(g, i) else (j, i)
        mid = state_module(g, s ^ (1 << inner_c))
        c = _ratio(mid.class_of(outer_c), mid.class_of(inner_c), where)
        want = 1 if convention == "inner" else g.signs[outer_c]
        cls = "X" if c == want else "Y"
    elif (d1, d2, d12) == (-1, -1, 0):
        raw = 5
        if _inner(g, i) != _inner(g, j):
            raise LemmaViolation(f"flat {where} mixes inner and outer")
        far = state_module(g, s ^ bi ^ bj)
        cls = "C" if _ratio(far.class_of(i), far.class_of(j), where) == 1 else "A"
    else:
        raise LemmaViolation(f"impossible corank pattern {(d1, d2, d12)} at {where}")

    ft = FaceType(raw, cls)
    cache[key] = ft
    return ft


_EVEN_UNDER_X = {"A": True, "X": True, "C": False, "Y": False}


def solve_edge_assignment(
    g: LabeledGraph,
    kind: str = "X",
    convention: str = DEFAULT_CONVENTION,
) -> EdgeAssignment:
    """Solve for edge signs with the required parity around every face.

    Under kind X, faces of class A and X get an even number of -1 edges
    and faces of class C and Y an odd number; kind Y swaps the zero-face
    roles.  The cube is contractible, so the face parities integrate to
    edge values one coordinate at a time (base values 0); the faces not
    used by the integration are verified afterwards, and a violation
    there is exactly infeasibility.  Deterministic.
    """
    if kind not in ("X", "Y"):
        raise ValueError(f"kind must be 'X' or 'Y', got {kind!r}")

    parity: dict[tuple[int, int, int], int] = {}
    for s, i, j in faces(g):
        cls = classify_face(g, s, i, j, convention).cls
        even = _EVEN_UNDER_X[cls]
        if kind == "Y" and cls in ("X", "Y"):
            even = not even
        parity[(s, i, j)] = 0 if even else 1

    x: dict[tuple[int, int], int] = {}
    for i in range(g.n):
        bi = 1 << i
        for s in g.all_states():
            if not g.coordinate_is_source(s, i):
                continue
            low = s & (bi - 1)
            if not low:
                x[(s, i)] = 0
                continue
            j = (low & -low).bit_length() - 1
            bj = 1 << j
            c = s if g.coordinate_is_source(s, j) else s ^ bj
            x[(s, i)] = (
                parity[(c, j, i)] ^ x[(c, j)] ^ x[(c ^ bi, j)] ^ x[(s ^ bj, i)]
            )

    for (s, i, j), want in parity.items():
        bi, bj = 1 << i, 1 << j
        if x[(s, i)] ^ x[(s, j)] ^ x[(s ^ bi, j)] ^ x[(s ^ bj, i)] != want:
            raise AssignmentInfeasible(
                f"no type {kind} assignment under convention {convention!r}",
                witness=(kind, convention),
            )
    signs = {key: (-1 if v else 1) for key, v in x.items()}
    return EdgeAssignment(kind=kind, convention=convention, signs=signs)


@dataclass
class CubeParityReport:
    """Face-class census plus every 3-subcube parity violation."""

    convention: str
    face_counts: dict[str, int]
    violations: list[tuple[int, tuple[int, int, int], dict[str, int]]]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_cube_parity(
    g: LabeledGraph, convention: str = DEFAULT_CONVENTION
) -> CubeParityReport:
    """Census the faces of every 3-subcube.

    Sound cubes have an even number of A+X faces and an even number of
    A+Y faces in every 3-subcube; any offender is reported with its
    corner, coordinates, and face counts.
    """
    totals = {"A": 0, "C": 0, "X": 0, "Y": 0}
    for s, i, j in faces(g):
        totals[classify_face(g, s, i, j, convention).cls] += 1

    violations = []
    for s in g.all_states():
        free = [
            i for i in range(g.n) if g.coordinate_is_source(s, i)
        ]
        for a in range(len(free)):
            for b in range(a + 1, len(free)):
                for c in range(b + 1, len(free)):
                    i, j, k = free[a], free[b], free[c]
                    counts = {"A": 0, "C": 0, "X": 0, "Y": 0}
                    for (corner, x, y) in (
                        (s, i, j),
                        (s, i, k),
                        (s, j, k),
                        (s ^ (1 << k), i, j),
                        (s ^ (1 << j), i, k),
                        (s ^ (1 << i), j, k),
                    ):
                        counts[classify_face(g, corner, x, y, convention).cls] += 1
                    bad_x = (counts["A"] + counts["X"]) % 2
                    bad_y = (counts["A"] + counts["Y"]) % 2
                    if bad_x or bad_y:
                        violations.append((s, (i, j, k), counts))
    return CubeParityReport(convention, totals, violations)
