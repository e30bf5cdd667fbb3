"""Run sets of benchmark runs and print each metric's spread against its bound.

    python3 bench/steady.py [--workloads a,b] [--runs 10] [--sets 2]
                            [--seed-base 1000]

Each set runs every chosen workload `--runs` times for the run length
in BENCHMARK.json, each time with the next seed (set k uses seeds
seed-base + k*runs ...).  For every end-to-end metric it prints, per
set, the median and the spread (the distance between the first and
third quartile as a share of the median, as
`statistics.quantiles(values, n=4)` gives them), and with two or more
sets the change of the median from the first set, each against the
metric's bound in BENCHMARK.json.  The failed share must be identical
across sets.  Raw results go to bench/out/steady-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_one(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed"] = elapsed
    return result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--seed-base", type=int, default=1000)
    args = p.parse_args(argv)

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    workloads = args.workloads.split(",")
    raw: dict[str, list[list[dict]]] = {w: [] for w in workloads}
    for k in range(args.sets):
        for w in workloads:
            runs = []
            for r in range(args.runs):
                seed = args.seed_base + k * args.runs + r
                res = run_one(w, seed, spec["run_seconds"])
                res["seed"] = seed
                runs.append(res)
                print(f"set {k} {w} seed {seed}: correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']} "
                      f"elapsed={res['elapsed']:.1f}s", flush=True)
            raw[w].append(runs)

    ok = True
    for w in workloads:
        print(f"\n{w}")
        sets = raw[w]
        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        correct = all(r["correct"] for runs in sets for r in runs)
        print(f"  correct={correct} failed shares={sorted(shares)}"
              f" max elapsed={max(r['elapsed'] for runs in sets for r in runs):.1f}s")
        ok &= correct and len(shares) == 1
        for name, m in bounds.items():
            medians, cells = [], []
            for runs in sets:
                values = [r["metrics"][name]["value"] for r in runs]
                medians.append(statistics.median(values))
                s = spread(values) if len(values) > 1 else 0.0
                within = s <= m["bound"]
                ok &= within
                cells.append(f"med {medians[-1]:.5g} spread {s:6.2%}{'' if within else ' OVER'}")
            line = f"  {name:12s} bound {m['bound']:.0%}: " + " | ".join(cells)
            for med in medians[1:]:
                shift = (med - medians[0]) / medians[0]
                worse = shift if m["better"] == "lower" else -shift
                ok &= worse <= m["bound"]
                line += f" | shift {shift:+.2%}{' OVER' if worse > m['bound'] else ''}"
            print(line)
    (BENCH / "out").mkdir(exist_ok=True)
    out = BENCH / "out" / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.write_text(json.dumps(raw, indent=1) + "\n")
    print(f"\n{'all within bounds' if ok else 'SOME METRICS OUT OF BOUNDS'}; raw results in {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
