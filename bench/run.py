"""graphlink benchmark: one workload per run, closed loop, one thread.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Builds the workload's seeded corpus (several times, to time set-up),
then runs whole passes over it until another pass would overrun
`--seconds` (at least one pass).  Each operation calls `graphlink`
subcommands in-process through `graphlink.cli.main`.  Outputs are
checked after the passes, outside the timed region.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
With `--trace 1` the untraced passes fill half of `--seconds`, the same
number of passes is then repeated with every layer boundary traced, and
the metrics are the per-layer ones.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPS = 3
TAIL_MIN_OPS = 40  # op_tail_s is p75 only where a pass has this many operations
TAIL_PERCENTILE = 75


def parse_args(argv):
    p = argparse.ArgumentParser(description="graphlink benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny corpora, every check on")
    return p.parse_args(argv)


def import_graphlink() -> float:
    """Import graphlink from this checkout's src/ and return the time taken."""
    src = ROOT / "src"
    if not (src / "graphlink" / "__init__.py").is_file():
        raise SystemExit(f"error: no graphlink sources under {src}")
    sys.path.insert(0, str(src))
    t0 = perf_counter()
    import graphlink.cli  # noqa: F401

    elapsed = perf_counter() - t0
    if Path(sys.modules["graphlink"].__file__).resolve().parent != src / "graphlink":
        raise SystemExit("error: graphlink was imported from outside this checkout")
    return elapsed


def call(argv: list[str]) -> tuple[int, str]:
    """One `graphlink` subcommand in-process: (exit code, standard output)."""
    from graphlink.cli import main

    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed operation, not a stopped run
        traceback.print_exc()
        rc = -1
    return rc, buf.getvalue()


def run_pass(ops, tracer=None, first_id=0):
    """Closed loop over ops: (pass wall time, op times, op results)."""
    gc.collect()
    times, results = [], []
    begin = perf_counter()
    for k, op in enumerate(ops):
        if tracer:
            tracer.begin_op(first_id + k)
        t0 = perf_counter()
        outs = [call(argv) for argv in op.calls]
        t1 = perf_counter()
        if tracer:
            tracer.end_op(t0, t1)
        times.append(t1 - t0)
        results.append(outs)
    return perf_counter() - begin, times, results


def run_passes(ops, seconds, count=None, tracer=None):
    """Whole passes until another would overrun `seconds`, or exactly
    `count` passes."""
    walls, times, results = [], [], []
    begin = perf_counter()
    while True:
        wall, t, r = run_pass(ops, tracer, len(times))
        walls.append(wall)
        times += t
        results += r
        if count is not None:
            if len(walls) == count:
                break
        elif perf_counter() - begin + wall > seconds:
            break
    return walls, times, results


def tail(times: list[float], per_pass: int) -> float:
    """Nearest-rank p75 where a pass has TAIL_MIN_OPS operations, so at
    least ten samples lie beyond it; the slowest operation otherwise."""
    ordered = sorted(times)
    if per_pass < TAIL_MIN_OPS:
        return ordered[-1]
    return ordered[math.ceil(len(ordered) * TAIL_PERCENTILE / 100) - 1]


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_graphlink()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    build, check = workloads.WORKLOADS[args.workload]
    work = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups = []
        for rep in range(SETUP_REPS):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            gc.collect()
            t0 = perf_counter()
            ops = build(args.seed, args.smoke, work)
            setups.append(perf_counter() - t0)

        walls, times, results = run_passes(ops, args.seconds / (2 if args.trace else 1))
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced_walls, _, traced_results = run_passes(ops, 0, count=len(walls), tracer=tracer)
            finally:
                tracer.uninstall()
            results += traced_results

        attempted = len(results)
        failed = 0
        problems = []
        for k, outs in enumerate(results):
            if any(rc != 0 for rc, _ in outs):
                failed += 1
                continue
            for problem in check(ops[k % len(ops)], outs):
                problems.append(f"op {k % len(ops)}: {problem}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (BENCH / ".work").rmdir()

    passes = len(walls)
    OUT.mkdir(exist_ok=True)
    if args.trace:
        layer = tracer.self_times()
        metrics = {
            f"{name}_s": metric(layer.get(name, 0.0) / passes, "s")
            for name in tracing.SPAN_METRICS
        }
        for name in tracing.COUNT_METRICS:
            metrics[name] = metric(tracer.counts.get(name, 0) // passes, "count")
        metrics["trace.overhead_s"] = metric(
            statistics.median(traced_walls) - statistics.median(walls), "s")
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.bin.gz")
    else:
        metrics = {
            "setup_s": metric(import_s + statistics.median(setups), "s"),
            "wall_s": metric(statistics.median(walls), "s"),
            "op_p50_s": metric(statistics.median(times), "s"),
            "op_tail_s": metric(tail(times, len(ops)), "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    for problem in problems[:20]:
        print(f"CHECK FAILED {problem}")
    print(f"{args.workload} seed={args.seed} passes={passes} ops/pass={len(ops)} "
          f"attempted={attempted} failed={failed} trace={args.trace}")
    if args.trace:
        print(f"  untraced wall_s = {statistics.median(walls):.6g} s, "
              f"traced wall_s = {statistics.median(traced_walls):.6g} s")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
