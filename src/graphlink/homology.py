"""Bigraded chain complex over the state cube and its exact homology.

Generators are wedge-basis elements of the state modules, graded by the
cube height i and the quantum degree q = cor A(s) - 2k + i(s) for a
degree-k wedge.  Boundaries preserve q, so the complex splits into
(i, q) blocks.  Each block is held from assembly to homology as one
sparse {target: {source: value}} map with no zero entries; nothing
dense is built except on request (`ChainComplex.dense`) and for the
small remnant left after cancellation.

Integer homology first cancels generator pairs joined by a +-1 entry,
cheapest pivot first by Markowitz cost (r-1)(c-1), which keeps fill-in
low; Smith normal form then runs on the dense remnant only.  A GF(2)
channel, the same cancellation run mod 2, and an Euler characteristic
serve for cross-checking.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .cube import (
    DEFAULT_CONVENTION,
    EdgeAssignment,
    classify_face,
    cube_edges,
    edge_map,
    solve_edge_assignment,
    state_module,
)
from .errors import DSquaredNonzero, InternalInvariantError
from .graphs import LabeledGraph
from .intlinalg import invariant_factors, rank

__all__ = [
    "ChainComplex",
    "BigradedGroups",
    "Comparison",
    "build_complex",
    "resign",
    "integer_homology",
    "f2_homology",
    "euler",
    "khovanov",
    "align_and_compare",
    "uct_check",
    "format_table",
]


@dataclass(frozen=True)
class ChainComplex:
    """Generators per bigrade plus the boundary blocks leaving each.

    ``generators[(i, q)]`` lists (state, basis mask) pairs: the mask
    names the wedge of the V(state) basis elements it contains.
    ``boundaries[(i, q)]`` maps the generators of (i, q) into those of
    (i + 1, q) as ``{target: {source: value}}``, indices being positions
    in the two generator lists; no stored value is 0.  A block is
    present whenever both bigrades have generators, even if it is zero.
    """

    generators: dict[tuple[int, int], list[tuple[int, int]]]
    boundaries: dict[tuple[int, int], dict[int, dict[int, int]]]

    def dim(self, i: int, q: int) -> int:
        return len(self.generators.get((i, q), ()))

    def dense(self, i: int, q: int) -> list[list[int]]:
        """Block (i, q) as dim(i + 1, q) rows by dim(i, q) columns; an
        absent block reads as zeros."""
        m = [[0] * self.dim(i, q) for _ in range(self.dim(i + 1, q))]
        for t, row in self.boundaries.get((i, q), {}).items():
            for s, v in row.items():
                m[t][s] = v
        return m


@dataclass(frozen=True)
class BigradedGroups:
    """betti and torsion factors per bigrade; trivial groups omitted."""

    groups: dict[tuple[int, int], tuple[int, tuple[int, ...]]]

    def support(self) -> list[tuple[int, int]]:
        return sorted(self.groups)

    def shifted(self, di: int, dq: int) -> "BigradedGroups":
        return BigradedGroups(
            {(i + di, q + dq): v for (i, q), v in self.groups.items()}
        )


@dataclass(frozen=True)
class Comparison:
    equal: bool
    di: int | None = None
    dq: int | None = None
    report: str = ""


def build_complex(g: LabeledGraph, assignment: EdgeAssignment) -> ChainComplex:
    """Assemble all boundary blocks in one pass, then `_check_d_squared`.

    Generators are listed state by state, masks in increasing order, and
    a generator's bigrade is computed from per-state arrays of height
    and corank and the popcount of its mask; every entry of an edge map
    must land one cube height up in the same quantum degree.  Each
    source and target generator pair is joined by at most one cube edge,
    and edge maps drop zeros, so each entry is written once, straight
    into its row-major block; each edge map is dropped once written.
    """
    states = g.all_states()
    height = [(s ^ g.plus).bit_count() for s in states]
    cor = [g.corank(s) for s in states]
    generators: dict[tuple[int, int], list[tuple[int, int]]] = {}
    position: dict[int, list[int]] = {}
    for s in states:
        i = height[s]
        here = position[s] = []
        for mask in range(1 << state_module(g, s).rank):
            block = generators.setdefault((i, cor[s] - 2 * mask.bit_count() + i), [])
            here.append(len(block))
            block.append((s, mask))

    boundaries: dict[tuple[int, int], dict[int, dict[int, int]]] = {
        (i, q): {} for (i, q) in generators if (i + 1, q) in generators
    }
    for e in cube_edges(g):
        eps = assignment.sign(e.source, e.coordinate)
        i, ti = height[e.source], height[e.target]
        q0, tq0 = cor[e.source] + i, cor[e.target] + ti
        cols, rows = position[e.source], position[e.target]
        for mask, image in enumerate(edge_map(g, e)):
            q = q0 - 2 * mask.bit_count()
            block = boundaries.get((i, q))
            for u, coef in image.items():
                tq = tq0 - 2 * u.bit_count()
                if (ti, tq) != (i + 1, q):
                    raise InternalInvariantError(
                        f"boundary entry moves ({i},{q}) to ({ti},{tq})"
                    )
                block.setdefault(rows[u], {})[cols[mask]] = eps * coef
    c = ChainComplex(generators, boundaries)
    _check_d_squared(g, c, assignment.convention)
    return c


def resign(g: LabeledGraph, c: ChainComplex, edges, convention: str) -> ChainComplex:
    """Copy ``c`` with the entries on ``edges`` negated, then `_check_d_squared`.

    ``edges`` are cube edges keyed as in `EdgeAssignment.signs`.  The
    build under assignment b is the build under a re-signed on the edges
    where a and b differ: nothing else in a build depends on signs.
    """
    flips = {(s, s ^ 1 << i) for s, i in edges}
    boundaries = {}
    for (i, q), block in c.boundaries.items():
        cols, rows = c.generators[(i, q)], c.generators[(i + 1, q)]
        boundaries[(i, q)] = {
            r: {a: -v if (cols[a][0], rows[r][0]) in flips else v for a, v in row.items()}
            for r, row in block.items()
        }
    c = ChainComplex(c.generators, boundaries)
    _check_d_squared(g, c, convention)
    return c


def _check_d_squared(g: LabeledGraph, c: ChainComplex, convention: str) -> None:
    """Raise `DSquaredNonzero` unless d^2 = 0 on ``c``, a complex over the cube of ``g``.

    `build_complex` and `resign` run it on every complex they return.
    This is the one place where the composite law of the 2-faces is
    checked; `classify_face` builds no edge map.  Nothing is lost: the
    only paths from corner s to s + e_i + e_j run around the face
    (s; i, j), so each entry of d^2 is that face's signed sum of its two
    composites via_i and via_j.  Under the solved signs, d^2 = 0 on an
    A or C face is exactly the anticommute or commute law.  On a
    flat-top zero face (X or Y) one kind only forces via_i = +-via_j;
    the two kinds give such a face opposite parities, so the `validate`
    battery, which checks both X and Y, forces both composites to zero.

    The witness is (source corner, vertex i, vertex j, face class under
    ``convention``, value): the least broken face by (corner, i, j),
    which no change of module bases moves, and the least entry of d^2 on
    that face.
    """
    broken: list[tuple[int, int, int, int]] = []
    for (i, q), block in c.boundaries.items():
        nxt = c.boundaries.get((i + 1, q))
        if nxt is None:
            continue
        for out, entries in nxt.items():
            acc: dict[int, int] = {}
            for mid, v2 in entries.items():
                for col, v1 in block.get(mid, {}).items():
                    acc[col] = acc.get(col, 0) + v1 * v2
            for col, val in acc.items():
                if val:
                    corner = c.generators[(i, q)][col][0]
                    far = c.generators[(i + 2, q)][out][0]
                    a, b = (v for v in range(g.n) if (corner ^ far) >> v & 1)
                    broken.append((corner, a, b, val))
    if broken:
        corner, a, b, val = min(broken)
        cls = classify_face(g, corner, a, b, convention).cls
        na, nb = g.names[a], g.names[b]
        raise DSquaredNonzero(
            f"d^2 != 0 on class {cls} face ({corner:b}; {na}, {nb}): {val}",
            witness=(corner, na, nb, cls, val),
        )


def _unit_cancel(c: ChainComplex, modulus: int = 0):
    """Cancel generator pairs joined by a +-1 boundary entry.

    With ``modulus`` 2 it runs over GF(2): entries and fill-in are
    reduced mod 2, so every entry is a unit and none survives.

    Works on row and column copies of the sparse blocks of ``c``, which
    it leaves untouched.  One cancellation strikes a source and a target
    generator and adjusts only the block containing the pivot; the
    adjacent blocks lose the dead row or column with no arithmetic (the
    discarded coordinates vanish automatically because d*d = 0).
    Homology is unchanged, and what survives is small enough for dense
    Smith reduction.

    Pivots are taken in Markowitz order: lowest (r - 1)(c - 1) first,
    r and c being the nonzero counts of the pivot's row and column, so
    each elimination creates little fill-in.  A heap holds
    (cost, bigrade, target, source) and is re-costed lazily: a popped
    pivot whose cost has grown goes back with its current cost, and
    fill-in that creates a +-1 entry pushes it.  Ties break on the
    integer tuple, so the order does not depend on dict order.

    Returns the surviving generator indices per bigrade and the reduced
    blocks as {target: {source: value}} maps.
    """
    alive = {key: set(range(len(block))) for key, block in c.generators.items()}
    rows: dict[tuple[int, int], dict[int, dict[int, int]]] = {k: {} for k in c.boundaries}
    cols: dict[tuple[int, int], dict[int, dict[int, int]]] = {k: {} for k in c.boundaries}
    for key, block in c.boundaries.items():
        rd, cd = rows[key], cols[key]
        for t, row in block.items():
            for s, v in row.items():
                if modulus:
                    v %= modulus
                if v:
                    rd.setdefault(t, {})[s] = v
                    cd.setdefault(s, {})[t] = v
    heap = [
        ((len(row) - 1) * (len(cols[key][s]) - 1), key, t, s)
        for key, rd in rows.items()
        for t, row in rd.items()
        for s, v in row.items()
        if v in (1, -1)
    ]
    heapq.heapify(heap)

    while heap:
        cost, key, t, s = heapq.heappop(heap)
        rd, cd = rows[key], cols[key]
        row_t = rd.get(t)
        v = row_t.get(s) if row_t else None
        if v not in (1, -1):
            continue
        col_s = cd[s]
        now = (len(row_t) - 1) * (len(col_s) - 1)
        if now > cost:
            heapq.heappush(heap, (now, key, t, s))
            continue
        i, q = key
        del rd[t]
        del cd[s]
        alive[key].discard(s)
        alive[(i + 1, q)].discard(t)

        for s2 in row_t:
            if s2 == s:
                continue
            d = cd[s2]
            del d[t]
            if not d:
                del cd[s2]
        for t2 in col_s:
            if t2 == t:
                continue
            d = rd[t2]
            del d[s]
            if not d:
                del rd[t2]

        for t2, a in col_s.items():
            if t2 == t:
                continue
            r2 = rd.setdefault(t2, {})
            for s2, b in row_t.items():
                if s2 == s:
                    continue
                nv = r2.get(s2, 0) - v * a * b
                if modulus:
                    nv %= modulus
                if nv:
                    r2[s2] = nv
                    c2 = cd.setdefault(s2, {})
                    c2[t2] = nv
                    if nv in (1, -1):
                        heapq.heappush(
                            heap, ((len(r2) - 1) * (len(c2) - 1), key, t2, s2)
                        )
                else:
                    r2.pop(s2, None)
                    c2 = cd.get(s2)
                    if c2 is not None:
                        c2.pop(t2, None)
                        if not c2:
                            del cd[s2]
            if not r2:
                del rd[t2]

        prev = rows.get((i - 1, q))
        if prev is not None:
            pcols = cols[(i - 1, q)]
            dead = prev.pop(s, None)
            if dead:
                for s0 in dead:
                    d = pcols.get(s0)
                    if d is not None:
                        d.pop(s, None)
                        if not d:
                            del pcols[s0]
        nxt = cols.get((i + 1, q))
        if nxt is not None:
            nrows = rows[(i + 1, q)]
            dead = nxt.pop(t, None)
            if dead:
                for t0 in dead:
                    d = nrows.get(t0)
                    if d is not None:
                        d.pop(t, None)
                        if not d:
                            del nrows[t0]
    return alive, rows


def _dense_from(sp: dict[int, dict[int, int]]) -> list[list[int]]:
    cindex = {s: a for a, s in enumerate(sorted({s for e in sp.values() for s in e}))}
    m = [[0] * len(cindex) for _ in sp]
    for r, t in enumerate(sorted(sp)):
        for s, v in sp[t].items():
            m[r][cindex[s]] = v
    return m


def integer_homology(c: ChainComplex) -> BigradedGroups:
    """Exact homology per bigrade: kernel rank minus image rank, and the
    invariant factors above 1 of the incoming block as torsion.  Unit
    pivots are cancelled first; Smith reduction runs on the remnants."""
    alive, reduced = _unit_cancel(c)
    groups: dict[tuple[int, int], tuple[int, tuple[int, ...]]] = {}
    for (i, q), living in sorted(alive.items()):
        dim = len(living)
        if not dim:
            continue
        out_sp = reduced.get((i, q))
        in_sp = reduced.get((i - 1, q))
        rank_out = rank(_dense_from(out_sp)) if out_sp else 0
        if in_sp:
            factors = invariant_factors(_dense_from(in_sp))
            rank_in = len(factors)
            torsion = tuple(f for f in factors if f > 1)
        else:
            rank_in = 0
            torsion = ()
        betti = dim - rank_out - rank_in
        if betti < 0:
            raise InternalInvariantError(f"negative betti at ({i},{q})")
        if betti or torsion:
            groups[(i, q)] = (betti, torsion)
    return BigradedGroups(groups)


def f2_homology(c: ChainComplex) -> dict[tuple[int, int], int]:
    """Mod-2 homology dimensions per bigrade, zeros omitted: the
    generators that survive `_unit_cancel` mod 2."""
    alive, reduced = _unit_cancel(c, 2)
    if any(reduced.values()):
        raise InternalInvariantError("mod-2 cancellation left a nonzero entry")
    return {key: len(living) for key, living in alive.items() if living}


def euler(c: ChainComplex) -> dict[int, int]:
    """Alternating generator count per q; zeros omitted."""
    out: dict[int, int] = {}
    for (i, q), block in c.generators.items():
        out[q] = out.get(q, 0) + (-1) ** i * len(block)
    return {q: v for q, v in out.items() if v}


def khovanov(
    g: LabeledGraph,
    kind: str = "X",
    convention: str = DEFAULT_CONVENTION,
    coefficients: str = "z",
):
    """End-to-end invariant: solve signs, build the complex, take homology.

    ``coefficients`` "z" gives exact integer groups; "f2" the mod-2
    dimensions.  Deterministic for fixed inputs.  The graph's module and
    face caches are dropped once built: homology reads neither.
    """
    if coefficients not in ("z", "f2"):
        raise ValueError(f"coefficients must be 'z' or 'f2', got {coefficients!r}")
    complex_ = build_complex(g, solve_edge_assignment(g, kind, convention))
    for name in ("state_module", "face_type"):
        g._cache.pop(name, None)
    if coefficients == "f2":
        return f2_homology(complex_)
    return integer_homology(complex_)


def align_and_compare(h1: BigradedGroups, h2: BigradedGroups) -> Comparison:
    """Compare two group tables up to a uniform bigrade translation.

    The translation matches the lexicographically smallest occupied
    bigrades; moves shift raw gradings, so equality after translation is
    the meaningful invariance statement.
    """
    s1, s2 = h1.support(), h2.support()
    if not s1 and not s2:
        return Comparison(True, 0, 0, "both trivial")
    if not s1 or not s2:
        return Comparison(False, report="exactly one side is trivial")
    di = s1[0][0] - s2[0][0]
    dq = s1[0][1] - s2[0][1]
    moved = h2.shifted(di, dq)
    if moved.groups == h1.groups:
        return Comparison(True, di, dq, f"equal after shift ({di},{dq})")
    lines = []
    for key in sorted(set(h1.groups) | set(moved.groups)):
        a = h1.groups.get(key)
        b = moved.groups.get(key)
        if a != b:
            lines.append(f"at {key}: {a} vs {b}")
    return Comparison(False, di, dq, "; ".join(lines))


def uct_check(hz: BigradedGroups, hf2: dict[tuple[int, int], int]) -> bool:
    """Mod-2 dimensions must equal betti plus adjacent 2-torsion counts.

    The differential raises i, so 2-torsion in degree i+1 resurfaces in
    degree i over F2 alongside the 2-torsion of degree i itself.
    """
    keys = set(hf2)
    for (i, q) in hz.groups:
        keys.add((i, q))
        keys.add((i - 1, q))
    for i, q in keys:
        betti, torsion = hz.groups.get((i, q), (0, ()))
        two_here = sum(1 for f in torsion if f % 2 == 0)
        _, succ = hz.groups.get((i + 1, q), (0, ()))
        two_next = sum(1 for f in succ if f % 2 == 0)
        if hf2.get((i, q), 0) != betti + two_here + two_next:
            return False
    return True


def format_table(groups: BigradedGroups) -> str:
    """One `h <i> <q> <betti> <torsion|->` line per nonzero group."""
    lines = []
    for (i, q) in groups.support():
        betti, torsion = groups.groups[(i, q)]
        tail = ",".join(str(f) for f in torsion) if torsion else "-"
        lines.append(f"h {i} {q} {betti} {tail}")
    return "\n".join(lines)
