"""Per-layer tracing from outside the package.

For a traced pass the tracer replaces public functions of graphlink's
modules, in the namespace of each module that calls them, with wrappers
that record a span (name, start, end, parent, operation id) or bump a
counter.  Spans nest through a stack; a span's self time is its duration
minus the durations of its direct children, so the self times of one
operation add up to the operation's time.  Spans stay in memory in flat
arrays until the run writes them out with `dump`.
"""

from __future__ import annotations

import gzip
import json
from array import array
from collections import Counter
from time import perf_counter

import graphlink.cli
import graphlink.cube
import graphlink.homology
import graphlink.intlinalg
import graphlink.moves
import graphlink.pu
from graphlink.graphs import LabeledGraph

ROOT = "cli.self"  # the span of one whole operation; its self time is CLI work

# Per-layer metrics in output order: self-time sums of spans (unit s)
# and counters (unit count).
SPAN_METRICS = [
    "graphs.parse", "graphs.corank", "cube.state_module", "cube.xi_zero",
    "cube.edge_map", "cube.solve", "cube.parity", "homology.build",
    "homology.cancel", "homology.remnant", "homology.f2", "pu.minors_a",
    "pu.state_dets", "pu.minors_b", "pu.orient", "moves.apply", "moves.guard",
    ROOT,
]
COUNT_METRICS = [
    "intlinalg.smith_calls", "cube.edge_maps", "intlinalg.wedge_expand_calls",
    "cube.faces", "homology.generators", "homology.nnz",
    "homology.remnant_cells", "intlinalg.det_calls", "moves.guard_calls",
]

IS_PU_SPAN = {"minors-b": "pu.minors_b", "minors-a": "pu.minors_a", "state-dets": "pu.state_dets"}


def complex_size(c) -> tuple[int, int]:
    """(generators, boundary nonzeros) of a chain complex whose blocks
    are dense row lists or sparse {index: {index: value}} maps."""
    gens = sum(len(block) for block in c.generators.values())
    nnz = 0
    for block in c.boundaries.values():
        if isinstance(block, dict):
            nnz += sum(len(entries) for entries in block.values())
        else:
            nnz += sum(len(row) - row.count(0) for row in block)
    return gens, nnz


def matrix_cells(m) -> int:
    return len(m) * len(m[0]) if m and m[0] else 0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.stack = [-1]
        self.op_id = -1
        self.counts: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    # -- operations ---------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self._root = self._open(self._id(ROOT))

    def end_op(self, t0: float, t1: float) -> None:
        self.stack.pop()
        self.start[self._root] = t0
        self.end[self._root] = t1

    # -- wrappers -----------------------------------------------------------

    def span(self, name, fn, count=None, after=None):
        """Wrap fn in a span.  `name` is a string or a function of the
        call's arguments; `count` names a counter bumped per call;
        `after(args, result)` runs once the span has closed."""
        fixed = None if callable(name) else self._id(name)
        counts, stack, start, end = self.counts, self.stack, self.start, self.end
        push_name, push_parent, push_op = self.name.append, self.parent.append, self.op.append
        push_start, push_end = start.append, end.append

        def traced(*args, **kwargs):
            if count:
                counts[count] += 1
            idx = len(start)
            push_name(fixed if fixed is not None else self._id(name(args, kwargs)))
            push_parent(stack[-1])
            push_op(self.op_id)
            push_start(0.0)
            push_end(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if after:
                after(args, result)
            return result

        return traced

    def counter(self, name, fn, amount=None):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1 if amount is None else amount(args)
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Patch every layer boundary; `uninstall` restores them."""
        cli, cube, hom = graphlink.cli, graphlink.cube, graphlink.homology
        pu, moves, lin = graphlink.pu, graphlink.moves, graphlink.intlinalg

        def built(args, c):
            gens, nnz = complex_size(c)
            self.counts["homology.generators"] += gens
            self.counts["homology.nnz"] += nnz

        def remnant(args):
            return matrix_cells(args[0])

        def pu_method(args, kwargs):
            method = args[1] if len(args) > 1 else kwargs.get("method", "minors-b")
            return IS_PU_SPAN.get(method, "pu.minors_b")

        plan = [
            ([cli], "load_graph", lambda f: self.span("graphs.parse", f)),
            ([cli], "parse_unoriented", lambda f: self.span("graphs.parse", f)),
            ([LabeledGraph], "corank", lambda f: self.span("graphs.corank", f)),
            ([cube, hom, cli], "state_module", lambda f: self.span("cube.state_module", f)),
            ([lin], "smith", lambda f: self.counter("intlinalg.smith_calls", f)),
            ([cube, cli], "xi_zero", lambda f: self.span("cube.xi_zero", f)),
            ([cube, hom], "edge_map", lambda f: self.span("cube.edge_map", f, "cube.edge_maps")),
            ([cube], "wedge_expand", lambda f: self.counter("intlinalg.wedge_expand_calls", f)),
            ([cube, cli], "classify_face", lambda f: self.counter("cube.faces", f)),
            ([hom, cli], "solve_edge_assignment", lambda f: self.span("cube.solve", f)),
            ([cli], "validate_cube_parity", lambda f: self.span("cube.parity", f)),
            ([hom, cli], "build_complex", lambda f: self.span("homology.build", f, after=built)),
            ([hom, cli], "integer_homology", lambda f: self.span("homology.cancel", f)),
            ([hom], "rank", lambda f: self.counter(
                "homology.remnant_cells", self.span("homology.remnant", f), remnant)),
            ([hom], "invariant_factors", lambda f: self.counter(
                "homology.remnant_cells", self.span("homology.remnant", f), remnant)),
            ([hom, cli], "f2_homology", lambda f: self.span("homology.f2", f)),
            ([cli, pu], "is_pu", lambda f: self.span(pu_method, f)),
            ([moves], "is_pu", lambda f: self.span("moves.guard", f, "moves.guard_calls")),
            ([lin, pu], "det", lambda f: self.counter("intlinalg.det_calls", f)),
            ([cli, pu], "find_pu_orientation", lambda f: self.span("pu.orient", f)),
            ([cli], "apply_script", lambda f: self.span("moves.apply", f)),
        ]
        # A renamed or moved boundary would read 0 and hand its time to
        # the caller's self time, so refuse before patching anything.
        missing = [f"{owner.__name__}.{attr}" for owners, attr, _ in plan
                   for owner in owners if owner.__dict__.get(attr) is None]
        if missing:
            raise RuntimeError(f"trace: not found: {', '.join(missing)}")
        for owners, attr, make in plan:
            wrappers = {}
            for owner in owners:
                original = owner.__dict__[attr]
                if id(original) not in wrappers:
                    wrappers[id(original)] = make(original)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrappers[id(original)])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Sum of self times per span name."""
        n = len(self.name)
        dur = [self.end[k] - self.start[k] for k in range(n)]
        inner = [0.0] * n
        for k in range(n):
            p = self.parent[k]
            if p >= 0:
                inner[p] += dur[k]
        totals = dict.fromkeys(self.names, 0.0)
        for k in range(n):
            totals[self.names[self.name[k]]] += dur[k] - inner[k]
        return totals

    def dump(self, path) -> None:
        """Write the spans: one JSON header line, then the raw arrays."""
        header = {
            "names": self.names,
            "count": len(self.name),
            "arrays": [["name", "H"], ["start", "d"], ["end", "d"], ["parent", "l"], ["op", "l"]],
        }
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for field, _ in header["arrays"]:
                getattr(self, field).tofile(fh)


def load_spans(path) -> dict:
    """Read a `dump` file back: {"names": [...], field: array, ...}."""
    with gzip.open(path, "rb") as fh:
        header = json.loads(fh.readline())
        out = {"names": header["names"]}
        for field, code in header["arrays"]:
            arr = array(code)
            arr.frombytes(fh.read(header["count"] * arr.itemsize))
            out[field] = arr
    return out
