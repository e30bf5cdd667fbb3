"""Command-line front end.

Subcommands cover the full pipeline: principal-unimodularity checks,
orientation search, homology tables, move scripts, the invariance
comparison, face statistics, and the batch validation battery.

Exit codes: 0 success, 1 domain-negative (non-PU input, failed move,
unequal homology, failed battery), 2 unreadable or malformed input,
3 violated internal invariant.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

from .cube import (
    CONVENTIONS,
    DEFAULT_CONVENTION,
    EdgeAssignment,
    classify_face,
    faces,
    solve_edge_assignment,
    state_module,
    validate_cube_parity,
    xi_zero,
)
from .errors import (
    AssignmentInfeasible,
    DSquaredNonzero,
    GraphFormatError,
    GraphlinkError,
    InternalInvariantError,
)
from .graphs import LabeledGraph, load_graph, parse_unoriented, serialize_graph
from .homology import (
    ChainComplex,
    _check_d_squared,
    align_and_compare,
    build_complex,
    euler,
    f2_homology,
    format_table,
    integer_homology,
    khovanov,
    uct_check,
)
from .moves import apply_script, parse_script
from .pu import METHODS, Counterexample, find_pu_orientation, is_pu, random_pu_graph

__all__ = ["main"]


def _witness(cex: Counterexample) -> str:
    if cex.state is not None:
        return f"det={cex.det} at state {{{','.join(cex.state)}}}"
    return (
        f"minor={cex.minor} on rows {{{','.join(cex.rows)}}}"
        f" cols {{{','.join(cex.cols)}}}"
    )


def _reject_non_pu(g: LabeledGraph, method: str = "minors-b") -> bool:
    """Print the non-PU witness and return True when ``g`` is not PU."""
    cex = is_pu(g, method)
    if cex is None:
        return False
    print(f"not PU: {_witness(cex)}")
    return True


def cmd_check_pu(args: argparse.Namespace) -> int:
    if _reject_non_pu(load_graph(args.file), args.method):
        return 1
    print("PU")
    return 0


def cmd_orient(args: argparse.Namespace) -> int:
    with open(args.file, encoding="utf-8") as fh:
        u = parse_unoriented(fh.read())
    g = find_pu_orientation(u)
    if g is None:
        print("NONE")
        return 1
    if not u.undirected:
        print("# already PU")
    sys.stdout.write(serialize_graph(g))
    return 0


def cmd_homology(args: argparse.Namespace) -> int:
    g = load_graph(args.file)
    if _reject_non_pu(g):
        return 1
    if args.coeffs == "f2":
        dims = khovanov(g, args.assignment_type, args.convention, "f2")
        for i, q in sorted(dims):
            print(f"h {i} {q} {dims[(i, q)]} -")
        return 0
    table = format_table(khovanov(g, args.assignment_type, args.convention))
    if table:
        print(table)
    return 0


def cmd_apply(args: argparse.Namespace) -> int:
    g = load_graph(args.file)
    with open(args.script, encoding="utf-8") as fh:
        script = parse_script(fh.read())
    text = serialize_graph(apply_script(g, script))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_invariance(args: argparse.Namespace) -> int:
    g = load_graph(args.file)
    with open(args.script, encoding="utf-8") as fh:
        script = parse_script(fh.read())
    if _reject_non_pu(g):
        return 1
    moved = apply_script(g, script)
    cex = is_pu(moved)
    if cex is not None:
        print(f"script output not PU: {_witness(cex)}")
        return 1
    before = khovanov(g, args.assignment_type, args.convention)
    after = khovanov(moved, args.assignment_type, args.convention)
    cmp = align_and_compare(before, after)
    if cmp.equal:
        print(f"Equal({cmp.di},{cmp.dq})")
        return 0
    print(f"Different: {cmp.report}")
    return 1


def cmd_faces(args: argparse.Namespace) -> int:
    g = load_graph(args.file)
    if _reject_non_pu(g):
        return 1
    raw = Counter()
    for s, i, j in faces(g):
        raw[classify_face(g, s, i, j, args.convention).raw] += 1
    report = validate_cube_parity(g, args.convention)
    print(f"convention {report.convention}")
    print(f"faces {sum(raw.values())}")
    for t in sorted(raw):
        print(f"type {t} {raw[t]}")
    for cls in "ACXY":
        print(f"class {cls} {report.face_counts.get(cls, 0)}")
    if report.ok:
        print("parity ok")
        return 0
    print(f"parity violations {len(report.violations)}")
    for corner, coords, counts in report.violations:
        print(f"  corner {corner} coords {coords} counts {counts}")
    return 1


def _battery(g: LabeledGraph, convention: str):
    """Run every per-graph check; (name, ok, detail) rows, then the X complex or None."""
    checks: list[tuple[str, bool, str]] = []
    solved: dict[str, EdgeAssignment | AssignmentInfeasible] = {}
    built: dict[str, ChainComplex] = {}

    def run(name, fn):
        try:
            note = fn()
            checks.append((name, True, note or ""))
        except GraphlinkError as exc:
            checks.append((name, False, f"{type(exc).__name__}: {exc}"))

    def methods_agree():
        verdicts = {m: is_pu(g, m) is None for m in METHODS}
        if len(set(verdicts.values())) != 1:
            raise GraphlinkError(f"methods disagree: {verdicts}")

    def modules_free():
        for s in g.all_states():
            state_module(g, s)

    def corank_lemma():
        for s in g.all_states():
            for i in range(g.n):
                if g.coordinate_is_source(s, i):
                    xi_zero(g, s, i)

    def cube_parity():
        # Parity holds exactly when both solves succeed; the census only
        # counts the violations when one fails.
        for kind in "XY":
            try:
                solved[kind] = solve_edge_assignment(g, kind, convention)
            except AssignmentInfeasible as exc:
                solved[kind] = exc
        if any(isinstance(a, AssignmentInfeasible) for a in solved.values()):
            report = validate_cube_parity(g, convention)
            raise GraphlinkError(f"{len(report.violations)} subcube violations")

    def assignment(kind):
        def fn():
            # Missing only when a face failed to classify; solving re-raises that.
            asg = solved.get(kind) or solve_edge_assignment(g, kind, convention)
            if isinstance(asg, AssignmentInfeasible):
                raise asg
            built[kind] = build_complex(g, asg)

        return fn

    def homology_channels():
        if "X" not in built or "Y" not in built:
            raise GraphlinkError("complex construction failed upstream")
        hx = integer_homology(built["X"])
        hy = integer_homology(built["Y"])
        if hx.groups != hy.groups:
            raise GraphlinkError("type X and type Y homology differ")
        if not uct_check(hx, f2_homology(built["X"])):
            raise GraphlinkError("universal-coefficient check failed")
        betti_sum: dict[int, int] = {}
        for (i, q), (betti, _) in hx.groups.items():
            betti_sum[q] = betti_sum.get(q, 0) + (-1) ** i * betti
        if euler(built["X"]) != {q: v for q, v in betti_sum.items() if v}:
            raise GraphlinkError("Euler characteristic mismatch")

    run("pu-methods-agree", methods_agree)
    run("state-modules-free", modules_free)
    run("corank-lemma", corank_lemma)
    run("cube-parity", cube_parity)
    run("assignment-X", assignment("X"))
    run("assignment-Y", assignment("Y"))
    run("homology-channels", homology_channels)
    return checks, built.get("X")


def _negative_control(g: LabeledGraph, c: ChainComplex | None, convention: str):
    """Corrupt the sign of edge s -> s ^ e_i of the first A or C face
    (s; i, j) in a copy of the kind X complex ``c``: negate the entries
    with column generator at s and row generator at s ^ e_i.  Expect
    `_check_d_squared` to fire.  ``c`` is None when no X complex was built."""
    if c is None:
        return "SKIP", "no type X assignment"
    for s, i, j in faces(g):
        if classify_face(g, s, i, j, convention).cls not in ("A", "C"):
            continue
        t = s ^ (1 << i)
        bad = {}
        for (h, q), block in c.boundaries.items():
            cols, rows = c.generators[(h, q)], c.generators[(h + 1, q)]
            bad[(h, q)] = {
                r: {a: -v if cols[a][0] == s and rows[r][0] == t else v for a, v in row.items()}
                for r, row in block.items()
            }
        try:
            _check_d_squared(g, ChainComplex(c.generators, bad), convention)
        except DSquaredNonzero:
            return "PASS", "d-squared break detected"
        return "FAIL", "corrupted assignment escaped detection"
    return "SKIP", "every face has zero composites"


def cmd_validate(args: argparse.Namespace) -> int:
    if (args.file is None) == (args.random is None):
        print("error: give exactly one of <file> or --random", file=sys.stderr)
        return 2

    if args.file is not None:
        g = load_graph(args.file)
        if _reject_non_pu(g):
            print("pu FAIL")
            return 1
        print("pu PASS")
        graphs = [("", g)]
    else:
        n = args.random[0]
        k = args.random[1] if len(args.random) > 1 else args.samples
        seed = args.random[2] if len(args.random) > 2 else args.seed
        if k < 1:
            print(f"error: need at least one random graph, got {k}", file=sys.stderr)
            return 2
        graphs = [(f"seed={seed + t}", random_pu_graph(n, seed=seed + t)) for t in range(k)]

    failures: dict[str, list[str]] = {}
    order: list[str] = []
    control = None
    for label, g in graphs:
        checks, built = _battery(g, args.convention)
        for name, ok, note in checks:
            if name not in order:
                order.append(name)
            if not ok:
                failures.setdefault(name, []).append(f"{label} {note}".strip())
        if args.negative_control and control is None:
            control = _negative_control(g, built, args.convention)
        del built  # no complex outlives its graph's battery

    exit_code = 0
    suffix = f" ({len(graphs)} graphs)" if len(graphs) > 1 else ""
    for name in order:
        if name in failures:
            exit_code = 1
            first = failures[name][0]
            print(f"{name} FAIL ({len(failures[name])}/{len(graphs)}: {first})")
        else:
            print(f"{name} PASS{suffix}")

    if control is not None:
        verdict, note = control
        print(f"negative-control {verdict} ({note})")
        if verdict == "FAIL":
            exit_code = 1
    return exit_code


def _homology_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--assignment-type", choices=("X", "Y"), default="X")
    p.add_argument("--convention", choices=CONVENTIONS, default=DEFAULT_CONVENTION)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="graphlink",
        description="Principal unimodularity, moves, and odd Khovanov homology "
        "of labeled oriented bipartite graphs.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("check-pu", help="decide principal unimodularity")
    q.add_argument("file")
    q.add_argument("--method", choices=METHODS, default="minors-b")
    q.set_defaults(func=cmd_check_pu)

    q = sub.add_parser("orient", help="orient free edges to a PU graph")
    q.add_argument("file")
    q.set_defaults(func=cmd_orient)

    q = sub.add_parser("homology", help="print the homology table")
    q.add_argument("file")
    _homology_flags(q)
    q.add_argument("--coeffs", choices=("z", "f2"), default="z")
    q.set_defaults(func=cmd_homology)

    q = sub.add_parser("apply", help="apply a move script")
    q.add_argument("file")
    q.add_argument("script")
    q.add_argument("-o", "--output")
    q.set_defaults(func=cmd_apply)

    q = sub.add_parser("invariance", help="compare homology across a script")
    q.add_argument("file")
    q.add_argument("script")
    _homology_flags(q)
    q.set_defaults(func=cmd_invariance)

    q = sub.add_parser("faces", help="face statistics and cube parity report")
    q.add_argument("file")
    q.add_argument("--convention", choices=CONVENTIONS, default=DEFAULT_CONVENTION)
    q.set_defaults(func=cmd_faces)

    q = sub.add_parser("validate", help="run the structural invariant battery")
    q.add_argument("file", nargs="?")
    q.add_argument(
        "--random",
        nargs="+",
        type=int,
        metavar="N",
        help="validate K random PU graphs on N vertices: --random N [K [SEED]]",
    )
    q.add_argument("--samples", type=int, default=20)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--convention", choices=CONVENTIONS, default=DEFAULT_CONVENTION)
    q.add_argument("--negative-control", action="store_true")
    q.set_defaults(func=cmd_validate)
    return p


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GraphFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 3
    except GraphlinkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
