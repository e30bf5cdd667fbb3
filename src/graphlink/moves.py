"""Reidemeister-style moves on labeled bipartite graphs.

Every move takes a :class:`~graphlink.graphs.LabeledGraph` and returns a new
one; inputs are never mutated.  The guarded twin addition (``omega2_add``)
checks principal unimodularity of its result and refuses to leave the class.
Moves can be recorded as :class:`Move` values, serialized to a small text
format, and replayed with :func:`apply_script`.  The vertex-count guard
bounds what a script returns and the guarded twin addition, not the
intermediate graphs of a script.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    BadDirections,
    BadNeighborhood,
    BadSigns,
    DuplicateName,
    GraphlinkError,
    MoveFailed,
    NeighborhoodMixedParts,
    NotAdjacent,
    NotInverseConfiguration,
    NotIsolated,
    NotPU,
    NotTwins,
    PUViolation,
    ScriptError,
    SignsNotOpposite,
)
from .graphs import LabeledGraph, _check_size, _sign_value
from .pu import is_pu

__all__ = [
    "Move",
    "apply_R",
    "omega1_add",
    "omega1_remove",
    "omega2_add",
    "omega2_remove",
    "omega3_forward",
    "omega3_backward",
    "omega4",
    "flip_edge_macro",
    "fresh_names",
    "parse_script",
    "serialize_script",
    "apply_move",
    "apply_script",
]


def _sign_token(value: int) -> str:
    return "+" if value == 1 else "-"


def _mutable_adj(g: LabeledGraph) -> list[list[int]]:
    return [list(row) for row in g.adj]


def _build(
    g: LabeledGraph,
    adj: list[list[int]],
    *,
    names: tuple[str, ...] | None = None,
    parts: tuple[int, ...] | None = None,
    signs: tuple[int, ...] | None = None,
) -> LabeledGraph:
    return LabeledGraph(
        names if names is not None else g.names,
        parts if parts is not None else g.parts,
        signs if signs is not None else g.signs,
        tuple(tuple(row) for row in adj),
    )


def apply_R(g: LabeledGraph, v: str) -> LabeledGraph:
    """Reverse every edge at ``v`` by negating its row and column."""
    i = g.index(v)
    adj = _mutable_adj(g)
    for t in range(g.n):
        adj[i][t] = -adj[i][t]
        adj[t][i] = -adj[t][i]
    return _build(g, adj)


def omega1_add(
    g: LabeledGraph,
    sign: str | int,
    name: str | None = None,
    part: int = 0,
) -> LabeledGraph:
    """Append an isolated vertex with the given sign.

    ``name`` defaults to the first unused ``z<k>``; ``part`` defaults to 0,
    which is immaterial for an isolated vertex.
    """
    s = _sign_value(sign)
    if part not in (0, 1):
        raise ValueError(f"part must be 0 or 1, got {part}")
    if name is None:
        name = fresh_names(g, 1)[0]
    elif name in g.names:
        raise DuplicateName(f"vertex {name!r} already exists")
    adj = [list(row) + [0] for row in g.adj]
    adj.append([0] * (g.n + 1))
    return _build(
        g,
        adj,
        names=g.names + (name,),
        parts=g.parts + (part,),
        signs=g.signs + (s,),
    )


def omega1_remove(g: LabeledGraph, v: str) -> LabeledGraph:
    """Delete the isolated vertex ``v``."""
    i = g.index(v)
    if g.degree(i) != 0:
        raise NotIsolated(f"vertex {v!r} has degree {g.degree(i)}")
    keep = [t for t in range(g.n) if t != i]
    adj = [[g.adj[a][b] for b in keep] for a in keep]
    return _build(
        g,
        adj,
        names=tuple(g.names[t] for t in keep),
        parts=tuple(g.parts[t] for t in keep),
        signs=tuple(g.signs[t] for t in keep),
    )


def omega2_add(
    g: LabeledGraph,
    names: tuple[str, str],
    signs: tuple[str | int, str | int],
    neighbors: tuple[str, ...] = (),
    dirs: str = "",
    require_pu: bool = True,
) -> LabeledGraph:
    """Append a twin pair: two new vertices with opposite signs and
    identical neighborhoods, edge directions included.

    ``dirs[k]`` is ``'o'`` when both twins point at ``neighbors[k]`` and
    ``'i'`` for the reverse.  With ``require_pu`` (the default) the result
    must stay principally unimodular or :class:`PUViolation` is raised;
    since that check is exponential, the result must also fit the size
    guard.  The unguarded addition is not size-checked.
    """
    n1, n2 = names
    if n1 == n2:
        raise DuplicateName(f"twin names must differ, got {n1!r} twice")
    for name in names:
        if name in g.names:
            raise DuplicateName(f"vertex {name!r} already exists")
    s1, s2 = (_sign_value(s) for s in signs)
    if s1 + s2 != 0:
        raise SignsNotOpposite("twin signs must be opposite")
    if len(dirs) != len(neighbors):
        raise BadDirections(
            f"need {len(neighbors)} direction characters, got {len(dirs)}"
        )
    bad = set(dirs) - {"o", "i"}
    if bad:
        raise BadDirections(f"directions must be 'o' or 'i', got {sorted(bad)}")
    idx = [g.index(t) for t in neighbors]
    if len(set(idx)) != len(idx):
        raise ValueError("repeated neighbor")
    nbr_parts = {g.parts[t] for t in idx}
    if len(nbr_parts) > 1:
        raise NeighborhoodMixedParts("neighborhood spans both parts")
    part = 1 - nbr_parts.pop() if nbr_parts else 0
    if require_pu:
        _check_size(g.n + 2)

    n = g.n
    adj = [list(row) + [0, 0] for row in g.adj]
    adj.append([0] * (n + 2))
    adj.append([0] * (n + 2))
    for t, d in zip(idx, dirs):
        val = 1 if d == "o" else -1
        for new in (n, n + 1):
            adj[new][t] = val
            adj[t][new] = -val
    result = _build(
        g,
        adj,
        names=g.names + (n1, n2),
        parts=g.parts + (part, part),
        signs=g.signs + (s1, s2),
    )
    if require_pu:
        witness = is_pu(result)
        if witness is not None:
            raise PUViolation(
                f"adding twins {n1!r}, {n2!r} leaves the unimodular class",
                witness=witness,
            )
    return result


def omega2_remove(g: LabeledGraph, u: str, v: str) -> LabeledGraph:
    """Delete the twin pair ``u``, ``v``.

    The two vertices must have opposite signs and identical rows away from
    each other; removal never needs a unimodularity check.
    """
    i = g.index(u)
    j = g.index(v)
    if i == j:
        raise NotTwins(f"{u!r} and {v!r} are the same vertex")
    if g.signs[i] + g.signs[j] != 0:
        raise NotTwins(f"{u!r} and {v!r} do not have opposite signs")
    if g.adj[i][j] != 0:
        raise NotTwins(f"{u!r} and {v!r} are adjacent")
    for t in range(g.n):
        if t in (i, j):
            continue
        if g.adj[i][t] != g.adj[j][t]:
            raise NotTwins(
                f"{u!r} and {v!r} differ at {g.names[t]!r}"
            )
    keep = [t for t in range(g.n) if t not in (i, j)]
    adj = [[g.adj[a][b] for b in keep] for a in keep]
    return _build(
        g,
        adj,
        names=tuple(g.names[t] for t in keep),
        parts=tuple(g.parts[t] for t in keep),
        signs=tuple(g.signs[t] for t in keep),
    )


def _omega3_indices(g: LabeledGraph, u: str, v: str, w: str) -> tuple[int, int, int]:
    iu, iv, iw = g.index(u), g.index(v), g.index(w)
    if len({iu, iv, iw}) != 3:
        raise BadNeighborhood("u, v, w must be three distinct vertices")
    return iu, iv, iw


def omega3_forward(g: LabeledGraph, u: str, v: str, w: str) -> LabeledGraph:
    """Untwist ``u`` off the pair ``v``, ``w``.

    Requires all three signs negative, ``N(u) == {v, w}`` with both edges
    leaving ``u``.  Afterwards ``u`` is adjacent to the difference of the
    ``v`` and ``w`` rows (and so sits in their part), while ``v`` and ``w``
    keep their rows and turn positive.  A coefficient of magnitude 2 in the
    difference cannot be realized and raises :class:`NotPU`.
    """
    iu, iv, iw = _omega3_indices(g, u, v, w)
    if not (g.signs[iu] == g.signs[iv] == g.signs[iw] == -1):
        raise BadSigns("u, v, w must all carry sign '-'")
    if set(g.neighbors(iu)) != {iv, iw}:
        raise BadNeighborhood(f"N({u!r}) must be exactly {{{v!r}, {w!r}}}")
    if g.adj[iu][iv] != 1 or g.adj[iu][iw] != 1:
        raise BadDirections(f"both edges must leave {u!r}")

    adj = _mutable_adj(g)
    for t in range(g.n):
        if t in (iu, iv, iw):
            adj[iu][t] = adj[t][iu] = 0
            continue
        delta = g.adj[iv][t] - g.adj[iw][t]
        if abs(delta) == 2:
            raise NotPU(
                f"rows of {v!r} and {w!r} differ by 2 at {g.names[t]!r}",
                witness=g.names[t],
            )
        adj[iu][t] = delta
        adj[t][iu] = -delta
    signs = list(g.signs)
    signs[iv] = signs[iw] = 1
    parts = list(g.parts)
    parts[iu] = g.parts[iv]
    return _build(g, adj, parts=tuple(parts), signs=tuple(signs))


def omega3_backward(g: LabeledGraph, u: str, v: str, w: str) -> LabeledGraph:
    """Invert :func:`omega3_forward` at the same triple.

    ``u`` must be negative and nonadjacent to the positive pair ``v``, ``w``,
    with its row equal to theirs' difference elsewhere; the move reattaches
    ``u`` to both and makes all three negative again.
    """
    iu, iv, iw = _omega3_indices(g, u, v, w)
    if g.signs[iu] != -1 or g.signs[iv] != 1 or g.signs[iw] != 1:
        raise NotInverseConfiguration(
            f"need signs -, +, + at {u!r}, {v!r}, {w!r}"
        )
    if g.parts[iv] != g.parts[iw]:
        raise NotInverseConfiguration(f"{v!r} and {w!r} are in different parts")
    if g.adj[iu][iv] != 0 or g.adj[iu][iw] != 0:
        raise NotInverseConfiguration(f"{u!r} must be nonadjacent to {v!r}, {w!r}")
    for t in range(g.n):
        if t in (iu, iv, iw):
            continue
        if g.adj[iu][t] != g.adj[iv][t] - g.adj[iw][t]:
            raise NotInverseConfiguration(
                f"row of {u!r} differs from the {v!r}-{w!r} difference "
                f"at {g.names[t]!r}"
            )

    adj = _mutable_adj(g)
    for t in range(g.n):
        adj[iu][t] = adj[t][iu] = 0
    adj[iu][iv] = adj[iu][iw] = 1
    adj[iv][iu] = adj[iw][iu] = -1
    signs = list(g.signs)
    signs[iv] = signs[iw] = -1
    parts = list(g.parts)
    parts[iu] = 1 - g.parts[iv]
    return _build(g, adj, parts=tuple(parts), signs=tuple(signs))


def omega4(g: LabeledGraph, u: str, v: str) -> LabeledGraph:
    """Pivot at the edge between ``u`` and ``v``.

    The edge reverses, the labels swap and negate, and adjacency toggles
    between ``N(u) - v`` and ``N(v) - u``: existing edges disappear and the
    missing ones appear, directed so that every new square through the pivot
    edge is even.
    """
    iu = g.index(u)
    iv = g.index(v)
    a_uv = g.adj[iu][iv]
    if a_uv == 0:
        raise NotAdjacent(f"{u!r} and {v!r} are not adjacent")

    adj = _mutable_adj(g)
    adj[iu][iv] = -a_uv
    adj[iv][iu] = a_uv
    side_u = [t for t in g.neighbors(iu) if t != iv]
    side_v = [t for t in g.neighbors(iv) if t != iu]
    for i in side_u:
        for j in side_v:
            if g.adj[i][j] != 0:
                adj[i][j] = adj[j][i] = 0
            else:
                val = a_uv * g.adj[iu][i] * g.adj[j][iv]
                adj[i][j] = val
                adj[j][i] = -val
    signs = list(g.signs)
    signs[iu] = -g.signs[iv]
    signs[iv] = -g.signs[iu]
    return _build(g, adj, signs=tuple(signs))


def fresh_names(g: LabeledGraph, count: int) -> list[str]:
    """Return ``count`` names of the form ``z<k>`` unused in ``g``."""
    out: list[str] = []
    k = 0
    while len(out) < count:
        cand = f"z{k}"
        if cand not in g.names:
            out.append(cand)
        k += 1
    return out


def flip_edge_macro(g: LabeledGraph, u: str, v: str) -> tuple[list["Move"], LabeledGraph]:
    """Reverse the edge between ``u`` and ``v`` by a six-move script.

    Two twin pairs are parked next to the edge, two pivots carry the
    reversal, and the twins are removed again.  The intermediate graphs
    are deliberately outside the unimodular class, so the twin additions
    are recorded unguarded (``O2+!``).  Returns the script together with
    the final graph, which differs from ``g`` only at the reversed edge.
    """
    iu = g.index(u)
    iv = g.index(v)
    a_uv = g.adj[iu][iv]
    if a_uv == 0:
        raise NotAdjacent(f"{u!r} and {v!r} are not adjacent")
    zA, zB, zC, zD = fresh_names(g, 4)
    dir_u = "o" if a_uv == 1 else "i"
    script = [
        Move("O2+!", (zA, zB, "+", f"N={v}", "dirs=o")),
        Move("O2+!", (zC, zD, "+", f"N={u},{zA}", f"dirs={dir_u}i")),
        Move("O4", (zA, zC)),
        Move("O4", (zA, zC)),
        Move("O2-", (zC, zD)),
        Move("O2-", (zA, zB)),
    ]
    result = apply_script(g, script)
    assert result.names == g.names
    assert result.parts == g.parts
    assert result.signs == g.signs
    for a in range(g.n):
        for b in range(g.n):
            want = -g.adj[a][b] if {a, b} == {iu, iv} else g.adj[a][b]
            assert result.adj[a][b] == want
    return script, result


@dataclass(frozen=True)
class Move:
    """One move line: an opcode and its argument tokens, kept verbatim."""

    op: str
    args: tuple[str, ...]

    def line(self) -> str:
        return " ".join((self.op,) + self.args)


_ARITY = {
    "R": 1,
    "O1+": 3,
    "O1-": 1,
    "O2+": 5,
    "O2+!": 5,
    "O2-": 2,
    "O3": 3,
    "O3inv": 3,
    "O4": 2,
}


def _split_twin_args(args: tuple[str, ...]) -> tuple[tuple[str, ...], str]:
    nbr_tok, dirs_tok = args[3], args[4]
    neighbors = tuple(t for t in nbr_tok[2:].split(",") if t)
    dirs = dirs_tok[5:]
    return neighbors, dirs


def parse_script(text: str) -> list[Move]:
    """Parse move lines; ``#`` comments and blank lines are skipped."""
    moves: list[Move] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        op, args = tokens[0], tuple(tokens[1:])
        arity = _ARITY.get(op)
        if arity is None:
            raise ScriptError(f"unknown move {op!r}", lineno)
        if len(args) != arity:
            raise ScriptError(
                f"{op} takes {arity} arguments, got {len(args)}", lineno
            )
        if op == "O1+":
            if args[1] not in ("0", "1"):
                raise ScriptError(f"part must be 0 or 1, got {args[1]!r}", lineno)
            if args[2] not in ("+", "-"):
                raise ScriptError(f"sign must be + or -, got {args[2]!r}", lineno)
        elif op in ("O2+", "O2+!"):
            if args[2] not in ("+", "-"):
                raise ScriptError(f"sign must be + or -, got {args[2]!r}", lineno)
            if not args[3].startswith("N="):
                raise ScriptError("fourth argument must look like N=a,b", lineno)
            if not args[4].startswith("dirs="):
                raise ScriptError("fifth argument must look like dirs=oi", lineno)
            neighbors, dirs = _split_twin_args(args)
            if len(dirs) != len(neighbors):
                raise ScriptError(
                    f"need {len(neighbors)} direction characters, got {len(dirs)}",
                    lineno,
                )
            if set(dirs) - {"o", "i"}:
                raise ScriptError("directions must be 'o' or 'i'", lineno)
        moves.append(Move(op, args))
    return moves


def serialize_script(moves: list[Move]) -> str:
    return "".join(m.line() + "\n" for m in moves)


def apply_move(g: LabeledGraph, move: Move) -> LabeledGraph:
    """Apply one parsed move to ``g``."""
    op, args = move.op, move.args
    if op == "R":
        return apply_R(g, args[0])
    if op == "O1+":
        return omega1_add(g, args[2], name=args[0], part=int(args[1]))
    if op == "O1-":
        return omega1_remove(g, args[0])
    if op in ("O2+", "O2+!"):
        neighbors, dirs = _split_twin_args(args)
        sign = _sign_value(args[2])
        return omega2_add(
            g,
            (args[0], args[1]),
            (sign, -sign),
            neighbors,
            dirs,
            require_pu=(op == "O2+"),
        )
    if op == "O2-":
        return omega2_remove(g, args[0], args[1])
    if op == "O3":
        return omega3_forward(g, args[0], args[1], args[2])
    if op == "O3inv":
        return omega3_backward(g, args[0], args[1], args[2])
    if op == "O4":
        return omega4(g, args[0], args[1])
    raise ScriptError(f"unknown move {op!r}")


def apply_script(g: LabeledGraph, script: str | list[Move]) -> LabeledGraph:
    """Replay a script (text or parsed moves) against ``g``.

    Stops at the first failing move and raises :class:`MoveFailed` with
    its 0-based index; the input graph is never modified.  Intermediate
    graphs may exceed the size guard (the edge-flip macro parks four
    twins for two moves), but the result may not: a last move that
    leaves too many vertices fails with :class:`GraphTooLarge`.
    """
    moves = parse_script(script) if isinstance(script, str) else script
    for k, move in enumerate(moves):
        try:
            g = apply_move(g, move)
            if k == len(moves) - 1:
                _check_size(g.n)
        except GraphlinkError as exc:
            raise MoveFailed(k, exc) from exc
    return g
