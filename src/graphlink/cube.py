"""The hypercube of states over a unimodular labeled graph.

Each state s carries a free module V(s) presented by one relation per
vertex.  The relations of the vertices in s are the rows and columns
of the bipartite block B = B(s), so V(s) = coker(B S_1) + coker(B^T S_0)
(S_p the signs of the part-p vertices of s) and one Smith form of B
presents it; on principally unimodular input B is totally unimodular,
so every invariant factor is 1 and V(s) is free.  Cube edges carry
either multiplication by a class (wedge) or the induced quotient map
(plain).  States, basis elements of V(s) and basis elements of its
exterior algebra are all keyed by bitmask: an edge map is a table
indexed by source basis mask whose entries map target basis masks to
coefficients.  Two-faces classify into commutative,
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

from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import combinations

from .errors import (
    AssignmentInfeasible,
    InternalInvariantError,
    LemmaViolation,
    NotAFace,
)
from .graphs import LabeledGraph
from .intlinalg import block_quotient, wedge_expand

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

@dataclass(frozen=True)
class StateModule:
    """V(s) = Z^n / R(s), with an explicit basis of its free quotient.

    R(s) has one relation per vertex i: x_i = sum over j in s of
    sgn_j A_ij x_j when i is outside s, and 0 = that sum when i is in s.
    The first kind eliminates the outside generators, and the second
    kind relates part-1 generators through the rows of the bipartite
    block B = B(s) and part-0 generators through its columns, so

        V(s) = coker(B S_1) + coker(B^T S_0),

    with S_p the diagonal of the signs of the part-p vertices of s and
    coker(M) the quotient of Z^columns by the rows of M.  Both summands
    are presented by one Smith form u B v = d: its invariant factors
    are the same on both sides, and they are all 1 when the input is
    principally unimodular: the principal minors of A(s) are the
    squared minors of B, so B is totally unimodular, each nonzero minor
    is +-1, and so is the gcd of the minors of each size up to rank B.

    ``classes`` gives the class of each x_j as (1 << a, value) pairs by
    its nonzeros, the part-0 summand's basis first; ``section_columns``
    gives a representative of each basis element as (j, value) pairs.
    ``projection`` (rank x n) and ``section`` (n x rank) are the same two
    matrices written out dense, with projection @ section = identity.
    """

    state: int
    rank: int
    classes: tuple[tuple[tuple[int, int], ...], ...]
    section_columns: tuple[tuple[tuple[int, int], ...], ...]

    def class_of(self, j: int) -> tuple[int, ...]:
        out = [0] * self.rank
        for bit, v in self.classes[j]:
            out[bit.bit_length() - 1] = v
        return tuple(out)

    @property
    def projection(self) -> tuple[tuple[int, ...], ...]:
        return tuple(zip(*(self.class_of(j) for j in range(len(self.classes)))))

    @property
    def section(self) -> tuple[tuple[int, ...], ...]:
        rows = [[0] * self.rank for _ in self.classes]
        for b, column in enumerate(self.section_columns):
            for j, v in column:
                rows[j][b] = v
        return tuple(map(tuple, rows))


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


# The seven face types that occur; every cached face shares one of them.
_FACE_TYPES = {
    t: FaceType(*t) for t in ((1, "A"), (2, "C"), (3, "C"), (4, "X"), (4, "Y"), (5, "A"), (5, "C"))
}


@dataclass(frozen=True)
class EdgeAssignment:
    """Signs epsilon(e) keyed by (source state, coordinate)."""

    kind: str
    convention: str
    signs: dict[tuple[int, int], int] = field(compare=False)

    def sign(self, source: int, coordinate: int) -> int:
        return self.signs[(source, coordinate)]


def _combine(
    classes: tuple[tuple[tuple[int, int], ...], ...],
    entries: Iterable[tuple[int, int]],
) -> dict[int, int]:
    """The class of sum x * e_j over the (j, x) in ``entries``, as
    {1 << a: coefficient} without zeros."""
    acc: dict[int, int] = {}
    for j, x in entries:
        for bit, y in classes[j]:
            acc[bit] = acc.get(bit, 0) + x * y
    return {bit: v for bit, v in acc.items() if v}


def state_module(g: LabeledGraph, s: int) -> StateModule:
    """Present V(s) from one Smith form of B(s) and cache the result.

    `block_quotient` factors B(s) once; the tail of u gives the classes
    of the part-0 generators in s and the tail of v those of the part-1
    generators, each times the vertex's sign, and the inverse factors
    give the section.  A vertex i outside s takes the class of
    sum over j in s of sgn_j A_ij x_j.  rank V(s) = |s| - 2 rank B(s) is
    checked against `LabeledGraph.corank`, which computes rank B(s) by
    separate Bareiss elimination: it stays the independent side of this
    lemma, and it answers many corank queries on graphs that never
    build a module, where a Smith form would cost more.  The Smith
    factors are not kept after the module is built, since only its
    sparse classes and section are read again.

    The presentation is certified once here, over nonzeros only: the
    projection kills every relation row, including those of vertices
    outside s (pi(s) R(s)^T = 0), and inverts the section
    (pi(s) sigma(s) = I).  `edge_map` relies on both.
    """
    cache = g._cache.setdefault("state_module", {})
    got = cache.get(s)
    if got is not None:
        return got
    part0, part1, b = g.bipartite_block(s)
    r, row_side, col_side = block_quotient(b, len(part1))
    k = len(part0) + len(part1) - 2 * r
    if k != g.corank(s):
        raise LemmaViolation(
            f"rank V(s) = {k} but cor A(s) = {g.corank(s)} at state {s:b}"
        )
    classes: list = [()] * g.n
    columns = []
    for vertices, (pi, sigma) in ((part0, row_side), (part1, col_side)):
        base = len(columns)
        for x, j in enumerate(vertices):
            sign = g.signs[j]
            classes[j] = tuple(
                (1 << (base + a), sign * row[x]) for a, row in enumerate(pi) if row[x]
            )
        for a in range(len(pi)):
            columns.append(tuple(
                (j, g.signs[j] * row[a]) for j, row in zip(vertices, sigma) if row[a]
            ))
    inside = part0 + part1
    relations = []
    for i in range(g.n):
        row = [(j, -g.signs[j] * g.adj[i][j]) for j in inside if g.adj[i][j]]
        if not s >> i & 1:
            classes[i] = tuple(sorted((bit, -v) for bit, v in _combine(classes, row).items()))
            row.append((i, 1))
        relations.append(row)
    sm = StateModule(state=s, rank=k, classes=tuple(classes), section_columns=tuple(columns))
    for i, row in enumerate(relations):
        if _combine(sm.classes, row):
            raise InternalInvariantError(
                f"projection keeps relation {i} at state {s:b}"
            )
    for a, column in enumerate(sm.section_columns):
        if _combine(sm.classes, column) != {1 << a: 1}:
            raise InternalInvariantError(
                f"projection does not invert section column {a} at state {s:b}"
            )
    cache[s] = sm
    return sm


def xi_zero(g: LabeledGraph, s: int, i: int) -> bool:
    """Whether the class of x_i vanishes in V(s).

    Always cross-checked against the corank increment along coordinate i;
    the two criteria agreeing is a theorem, so disagreement is fatal.
    """
    vanishes = not state_module(g, s).classes[i]
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
        sources = ~(s ^ g.plus)  # the arrows leave s where it agrees with plus
        for i in range(g.n):
            if not sources >> i & 1:
                continue
            kind = "Wedge" if xi_zero(g, s, i) else "Plain"
            out.append(CubeEdge(s, s ^ (1 << i), i, kind))
    return out


def edge_map(g: LabeledGraph, e: CubeEdge) -> list[dict[int, int]]:
    """The edge's map between wedge bases, as the `wedge_expand` table.

    Let M = pi(t) sigma(s), the k_t x k_s matrix of the induced map
    V(s) -> V(t), and w the class of x_v in V(t), v the edge coordinate.
    A plain edge sends the wedge of the basis elements in T to the wedge
    of the columns of M in T, and a wedge edge multiplies that by w on
    the left.  Expanded in the target basis, the image of T is the
    table of |T|-minors of M on the columns T (the compound matrix),
    with w as an extra first column on a wedge edge.  `wedge_expand`
    builds all 2^k_s images in one table, one wedge step per subset; a
    wedge edge passes its columns negated, since w ^ c ^ ... equals
    -c ^ w ^ ....

    The map is well defined when pi(t) kills every relation of V(s).
    R(s) and R(t) differ only in column v, whose difference d has entry
    +-1 at row v, and pi(t) R(t)^T = 0 is certified by `state_module`;
    so pi(t) sends source relation i to d_i w.  On a wedge edge that is
    a multiple of w, and w ^ w = 0, so the map is well defined by
    construction.  On a plain edge it vanishes for every i exactly when
    w = 0, which is the one check made here.  The rank change must be -1 (plain) or +1
    (wedge), and M must be onto (plain: some k_t-minor, i.e. some image
    of a k_t-subset, is nonzero) or [w | M] one to one (wedge: the image
    of the full subset is nonzero).

    Entry T of the table, T a bitmask over the source basis, is the
    image of the wedge of the basis elements in T, as {target basis
    mask: coefficient} with no zeros.  Nothing is cached: the table is
    computed on demand, and `homology.build_complex` consumes it once.
    """
    src = state_module(g, e.source)
    tgt = state_module(g, e.target)
    where = f"{e.source:b}->{e.target:b}"
    w = tgt.classes[e.coordinate]
    if e.kind == "Plain":
        if tgt.rank != src.rank - 1:
            raise InternalInvariantError("plain edge must drop the rank by one")
        if w:
            raise InternalInvariantError(f"induced map ill defined on edge {where}")
        sign, base = 1, {0: 1}
    else:
        if tgt.rank != src.rank + 1:
            raise InternalInvariantError("wedge edge must raise the rank by one")
        sign, base = -1, dict(w)
    columns = [
        [(bit, sign * v) for bit, v in _combine(tgt.classes, column).items()]
        for column in src.section_columns
    ]
    table = wedge_expand(columns, base)
    if e.kind == "Plain":
        if not any(image for t, image in enumerate(table) if t.bit_count() == tgt.rank):
            raise InternalInvariantError(f"plain edge map not surjective at {where}")
    elif not table[-1]:
        raise InternalInvariantError(f"wedge edge map not injective at {where}")
    return table


def _inner(g: LabeledGraph, v: int) -> bool:
    return (g.parts[v] == 0) == (g.signs[v] == -1)


def _where(g: LabeledGraph, s: int, i: int, j: int) -> str:  # formatted only to raise
    return f"face ({s:b}; {g.names[i]}, {g.names[j]})"


def _ratio(v, w, g: LabeledGraph, s: int, i: int, j: int) -> int:
    """The unit c with v = c*w, asserted to exist on face (s; i, j); v
    and w are classes as `StateModule.classes` holds them, sparse and
    sorted by bit."""
    if v and v == w:
        return 1
    if v and v == tuple((bit, -x) for bit, x in w):
        return -1
    raise LemmaViolation(f"classes not unit multiples at {_where(g, s, i, j)}")


def faces(g: LabeledGraph) -> list[tuple[int, int, int]]:
    """All 2-faces as (source corner, coordinate i, coordinate j), i < j."""
    out = []
    for s in g.all_states():
        sources = ~(s ^ g.plus)
        for i in range(g.n):
            if not sources >> i & 1:
                continue
            for j in range(i + 1, g.n):
                if sources >> j & 1:
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
    if (s ^ g.plus) >> i & 1 or (s ^ g.plus) >> j & 1:
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
    if (d1, d2, d12) == (1, 1, 2):
        raw, cls = 1, "A"
    elif (d1, d2, d12) == (-1, -1, -2):
        raw, cls = 2, "C"
    elif {d1, d2} == {1, -1} and d12 == 0:
        raw, cls = 3, "C"
    elif (d1, d2, d12) == (1, 1, 0):
        raw = 4
        if _inner(g, i) == _inner(g, j):
            raise LemmaViolation(f"zero {_where(g, s, i, j)} lacks an inner/outer split")
        inner_c, outer_c = (i, j) if _inner(g, i) else (j, i)
        mid = state_module(g, s ^ (1 << inner_c))
        c = _ratio(mid.classes[outer_c], mid.classes[inner_c], g, s, i, j)
        want = 1 if convention == "inner" else g.signs[outer_c]
        cls = "X" if c == want else "Y"
    elif (d1, d2, d12) == (-1, -1, 0):
        raw = 5
        if _inner(g, i) != _inner(g, j):
            raise LemmaViolation(f"flat {_where(g, s, i, j)} mixes inner and outer")
        far = state_module(g, s ^ bi ^ bj)
        cls = "C" if _ratio(far.classes[i], far.classes[j], g, s, i, j) == 1 else "A"
    else:
        raise LemmaViolation(f"impossible corank pattern {(d1, d2, d12)} at {_where(g, s, i, j)}")

    ft = cache[key] = _FACE_TYPES[raw, cls]
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
            if (s ^ g.plus) >> i & 1:
                continue
            low = s & (bi - 1)
            if not low:
                x[(s, i)] = 0
                continue
            j = (low & -low).bit_length() - 1
            bj = 1 << j
            c = s ^ bj if (s ^ g.plus) >> j & 1 else s
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
    corner, coordinates, and face counts.  The cube is contractible, so
    this holds for A+X (A+Y) exactly when the kind X (Y) solve succeeds:
    `validate` decides parity by its solves and runs the census only to
    count violations when one fails; `faces` prints it in full.
    """
    totals = {"A": 0, "C": 0, "X": 0, "Y": 0}
    for s, i, j in faces(g):
        totals[classify_face(g, s, i, j, convention).cls] += 1

    violations = []
    for s in g.all_states():
        free = [i for i in range(g.n) if not (s ^ g.plus) >> i & 1]
        for i, j, k in combinations(free, 3):
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
