"""The benchmark's own tests: each output check fires on a wrong output
(negative controls), every workload runs in smoke mode with all checks
on, the traced run accounts for its time, and a directory holding only
the benchmark refuses to run.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import tracing  # noqa: E402

FIXTURES = ROOT / "src" / "graphlink" / "fixtures"
THETA11 = (FIXTURES / "theta11.graph").read_text()
ODD4 = (FIXTURES / "odd4.graph").read_text()
E1 = (FIXTURES / "e1.graph").read_text()
E1_TABLE = "h 1 0 1 -\nh 1 2 1 -"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_published_table_matches_readme():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"\$ graphlink homology theta11.graph\n(.*?)```", readme, re.S)
    assert block.group(1) == checks.THETA11_TABLE


def test_exact_linear_algebra():
    assert checks.det_q([[0, 1], [-1, 0]]) == 1
    assert checks.det_q([[2, 1], [4, 2]]) == 0
    assert checks.det_q([[0, 2, 1], [1, 0, 0], [0, 1, 3]]) == -5
    assert checks.rank_q([[1, 2, 3], [2, 4, 6], [0, 1, 1]]) == 2
    assert checks.pu_violation(checks.parse_graph(ODD4)) == (0b1111, 4)
    assert checks.pu_violation(checks.parse_graph(THETA11)) is None


def test_homology_check_fires():
    assert checks.check_homology(0, checks.THETA11_TABLE, THETA11, checks.THETA11_TABLE) == []
    assert checks.check_homology(0, E1_TABLE, E1, None) == []
    torsion = checks.THETA11_TABLE.replace("h 5 2 0 8", "h 5 2 0 4")
    assert checks.check_homology(0, torsion, THETA11, checks.THETA11_TABLE) == [
        "table differs from the published one"]
    betti = E1_TABLE.replace("h 1 2 1 -", "h 1 2 2 -")
    assert "Euler characteristic" in checks.check_homology(0, betti, E1, None)[0]
    assert checks.check_homology(1, E1_TABLE, E1, None) == ["homology exited 1"]


def test_invariance_check_fires():
    assert checks.check_invariance(0, "Equal(-1,-2)\n", checks.MOVE_SHIFT["O1+ -"]) == []
    assert checks.check_invariance(0, "Equal(0,0)\n", checks.MOVE_SHIFT["O2+"])
    assert checks.check_invariance(1, "Different: at (1, 2): ...\n", (0, 0))


GOOD_VALIDATE = """pu PASS
pu-methods-agree PASS
cube-parity PASS
homology-channels PASS
negative-control PASS (d-squared break detected)
"""


def test_validate_check_fires():
    assert checks.check_validate(0, GOOD_VALIDATE, E1) == []
    failing = GOOD_VALIDATE.replace("cube-parity PASS", "cube-parity FAIL (1/1: ...)")
    assert checks.check_validate(1, failing, E1) == [
        "validate exited 1", "battery line 'cube-parity FAIL (1/1: ...)'"]
    skipped = GOOD_VALIDATE.replace("negative-control PASS", "negative-control SKIP")
    assert "no passing negative-control line" in checks.check_validate(0, skipped, E1)
    assert checks.check_validate(0, GOOD_VALIDATE, ODD4) == ["input not PU: det 4 at state 1111"]


def test_moves_check_fires():
    flipped = E1.replace("edge u v", "edge v u")
    good = (0, E1, E1, 0, "PU\n", 0, flipped, ("v",))
    assert checks.check_moves(*good) == []
    assert checks.check_moves(0, flipped, E1, 0, "PU\n", 0, flipped, ("v",)) == [
        "applied graph differs from the expected result"]
    assert checks.check_moves(0, E1, E1, 1, "not PU: det=4\n", 0, flipped, ("v",)) == [
        "check-pu printed 'not PU: det=4' (exit 1)"]
    assert checks.check_moves(0, E1, E1, 0, "PU\n", 0, flipped, None) == [
        "orientation not related to the result by switches"]
    assert checks.check_moves(0, E1, E1, 0, "PU\n", 0, flipped, ()) == [
        "switching the orientation at () misses the result"]
    assert checks.check_moves(0, ODD4, ODD4, 0, "PU\n", 0, ODD4, ()) == [
        "result not PU: det 4 at state 1111"]
    before, after = checks.parse_graph(E1), checks.parse_graph(flipped)
    assert checks.differs_at_exactly(before, after, "u", "v")
    assert not checks.differs_at_exactly(before, before, "u", "v")
    assert not checks.same_graph(before, after)


def run_bench(*args, cwd=ROOT, timeout=600):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=timeout,
    )


def last_json(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_workload(workload):
    result = last_json(run_bench("--workload", workload, "--seed", "7",
                                 "--seconds", "1", "--trace", "0", "--smoke"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_accounts_for_time_and_repeats_counts():
    args = ("--workload", "invariance-small", "--seed", "3", "--seconds", "1",
            "--trace", "1", "--smoke")
    runs = [run_bench(*args) for _ in range(2)]
    results = [last_json(p) for p in runs]
    for r in results:
        assert r["correct"] and r["failed"] == 0
        assert sorted(r["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])
    counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"}
              for r in results]
    assert counts[0] == counts[1] and counts[0]["cube.faces"] > 0
    walls = re.search(r"untraced wall_s = (\S+) s, traced wall_s = (\S+) s", runs[0].stdout)
    traced = float(walls.group(2))
    self_total = sum(v["value"] for k, v in results[0]["metrics"].items()
                     if v["unit"] == "s" and k != "trace.overhead_s")
    assert abs(self_total - traced) < 0.02 * traced
    spans = tracing.load_spans(BENCH / "out" / "spans-invariance-small-seed3.bin.gz")
    assert len(spans["start"]) == len(spans["end"]) == len(spans["parent"]) > 0
    assert "cli.self" in spans["names"] and max(spans["op"]) == 7


def test_tracer_refuses_a_missing_boundary(monkeypatch):
    import graphlink.cli

    original = graphlink.cli.load_graph
    monkeypatch.delattr(graphlink.cli, "validate_cube_parity")
    with pytest.raises(RuntimeError, match="graphlink.cli.validate_cube_parity"):
        tracing.Tracer().install()
    assert graphlink.cli.load_graph is original


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "validate", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
