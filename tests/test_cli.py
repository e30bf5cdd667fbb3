from __future__ import annotations

import warnings
from importlib import resources
from pathlib import Path

import pytest

import graphlink.cli
import graphlink.cube
import graphlink.homology
from graphlink.cli import main
from graphlink.cube import classify_face, faces, solve_edge_assignment
from graphlink.errors import DSquaredNonzero
from graphlink.graphs import build_graph, load_graph, parse_graph, serialize_graph
from graphlink.homology import build_complex
from graphlink.pu import is_pu

GOLDEN = Path(__file__).parent / "golden"


def fixture_path(name: str) -> str:
    return str(resources.files("graphlink") / "fixtures" / f"{name}.graph")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_pu_rejects_with_witness(capsys):
    code, out, _ = run(capsys, "check-pu", fixture_path("odd4"))
    assert code == 1
    assert out == "not PU: det=4 at state {u,v,w,t}\n"
    for method, line in (
        ("minors-b", "not PU: det=4 at state {u,v,w,t}\n"),
        ("minors-a", "not PU: minor=2 on rows {u,t} cols {v,w}\n"),
        ("state-dets", "not PU: det=4 at state {u,v,w,t}\n"),
    ):
        code, out, err = run(capsys, "check-pu", fixture_path("odd4"), "--method", method)
        assert (code, out, err) == (1, line, "")


def test_check_pu_accepts(capsys):
    code, out, _ = run(capsys, "check-pu", fixture_path("theta11"))
    assert (code, out) == (0, "PU\n")
    for method in ("minors-a", "state-dets"):
        code, out, _ = run(capsys, "check-pu", fixture_path("theta11"), "--method", method)
        assert (code, out) == (0, "PU\n")


def test_check_pu_bad_input(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("vertex a 0 -\nnonsense\n")
    code, _, err = run(capsys, "check-pu", str(bad))
    assert code == 2
    assert "line 2" in err
    code, _, err = run(capsys, "check-pu", str(tmp_path / "missing.graph"))
    assert code == 2


def test_homology_tables(capsys):
    code, out, _ = run(capsys, "homology", fixture_path("unknot_neg"))
    assert (code, out) == (0, "h 1 2 1 -\n")
    code, out, _ = run(capsys, "homology", fixture_path("e1"))
    assert (code, out) == (0, "h 1 0 1 -\nh 1 2 1 -\n")
    code, out, _ = run(capsys, "homology", fixture_path("e1"), "--coeffs", "f2")
    assert (code, out) == (0, "h 1 0 1 -\nh 1 2 1 -\n")
    code, out, _ = run(capsys, "homology", fixture_path("e1"), "--assignment-type", "Y")
    assert (code, out) == (0, "h 1 0 1 -\nh 1 2 1 -\n")


def test_golden_tables(capsys):
    for name in ("unknot_neg", "unknot_pos", "e1", "even4", "om3"):
        code, out, _ = run(capsys, "homology", fixture_path(name))
        assert code == 0
        assert out == (GOLDEN / f"{name}.table").read_text()


def test_golden_table_theta11_both_kinds(capsys):
    golden = (GOLDEN / "theta11.table").read_text()
    code, out, _ = run(capsys, "homology", fixture_path("theta11"))
    assert (code, out) == (0, golden)
    code, out, _ = run(
        capsys, "homology", fixture_path("theta11"), "--assignment-type", "Y"
    )
    assert (code, out) == (0, golden)


def test_homology_rejects_non_pu(capsys):
    code, out, _ = run(capsys, "homology", fixture_path("odd4"))
    assert code == 1
    assert out.startswith("not PU: det=4")


def test_apply_writes_result(tmp_path, capsys):
    script = tmp_path / "s.moves"
    script.write_text("O4 u v\n")
    code, out, _ = run(capsys, "apply", fixture_path("e1"), str(script))
    assert code == 0
    assert out == "vertex u 0 +\nvertex v 1 +\nedge v u\n"

    dest = tmp_path / "out.graph"
    code, out, _ = run(capsys, "apply", fixture_path("e1"), str(script), "-o", str(dest))
    assert (code, out) == (0, "")
    assert dest.read_text() == "vertex u 0 +\nvertex v 1 +\nedge v u\n"

    script.write_text("O4 u v\nO4 v u\n")
    code, out, _ = run(capsys, "apply", fixture_path("e1"), str(script))
    assert (code, out) == (0, "vertex u 0 -\nvertex v 1 -\nedge u v\n")


def test_apply_move_failure(tmp_path, capsys):
    script = tmp_path / "s.moves"
    script.write_text("O3 u v w\n")
    code, _, err = run(capsys, "apply", fixture_path("e1"), str(script))
    assert code == 1
    assert "move 0" in err

    script.write_text("O9 u\n")
    code, _, err = run(capsys, "apply", fixture_path("e1"), str(script))
    assert code == 2


def test_invariance(tmp_path, capsys):
    script = tmp_path / "s.moves"
    script.write_text("O4 u v\n")
    code, out, _ = run(capsys, "invariance", fixture_path("e1"), str(script))
    assert (code, out) == (0, "Equal(0,0)\n")

    script.write_text("O3 u v w\n")
    code, out, _ = run(capsys, "invariance", fixture_path("om3"), str(script))
    assert (code, out) == (0, "Equal(0,0)\n")

    script.write_text("O1+ z 0 -\n")
    code, out, _ = run(capsys, "invariance", fixture_path("e1"), str(script))
    assert (code, out) == (0, "Equal(-1,-2)\n")

    script.write_text("R u1\n")
    code, out, _ = run(capsys, "invariance", fixture_path("even4"), str(script))
    assert (code, out) == (0, "Equal(0,0)\n")


def test_faces_report(capsys):
    code, out, _ = run(capsys, "faces", fixture_path("even4"))
    assert code == 0
    assert out == (
        "convention signed\n"
        "faces 24\n"
        "type 1 6\n"
        "type 3 8\n"
        "type 4 4\n"
        "type 5 6\n"
        "class A 12\n"
        "class C 8\n"
        "class X 0\n"
        "class Y 4\n"
        "parity ok\n"
    )


def test_validate_fixture(capsys):
    code, out, _ = run(capsys, "validate", fixture_path("om3"), "--negative-control")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "pu PASS"
    assert all(" PASS" in line for line in lines[:-1])
    assert lines[-1] == "negative-control PASS (d-squared break detected)"

    code, out, _ = run(capsys, "validate", fixture_path("e1"), "--negative-control")
    assert code == 0
    assert out.strip().split("\n")[-1] == (
        "negative-control SKIP (every face has zero composites)"
    )


def test_validate_negative_control_reuses_the_x_complex(capsys, monkeypatch):
    calls = {"build_complex": 0, "solve_edge_assignment": 0}
    for name in calls:
        real = getattr(graphlink.cli, name)

        def counted(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(graphlink.cli, name, counted)
    code, out, _ = run(capsys, "validate", fixture_path("om3"), "--negative-control")
    assert code == 0
    assert out.strip().split("\n")[-1] == "negative-control PASS (d-squared break detected)"
    assert calls == {"build_complex": 2, "solve_edge_assignment": 2}


def test_validate_negative_control_fails_without_the_d_squared_check(capsys, monkeypatch):
    for module in (graphlink.cli, graphlink.homology):
        monkeypatch.setattr(module, "_check_d_squared", lambda g, c, convention: None)
    code, out, _ = run(capsys, "validate", fixture_path("om3"), "--negative-control")
    assert code == 1
    assert out.strip().split("\n")[-1] == (
        "negative-control FAIL (corrupted assignment escaped detection)"
    )


def test_validate_negative_control_skips_an_infeasible_x_solve(capsys):
    # Under the inner convention the kind X sign system of this graph
    # has no solution, so there is no assignment to corrupt.
    code, out, err = run(
        capsys, "validate", "--random", "7", "1", "1", "--convention", "inner",
        "--negative-control",
    )
    assert code == 1
    assert "assignment-X FAIL" in out
    assert out.strip().split("\n")[-1] == "negative-control SKIP (no type X assignment)"
    assert err == ""


def mislabel_face(monkeypatch, g):
    """Make the solver read the least A or C face of ``g`` as the other
    of the two classes; returns that face."""
    face = min(f for f in faces(g) if classify_face(g, *f).cls in ("A", "C"))

    def mislabeled(g, s, i, j, convention="signed"):
        ft = classify_face(g, s, i, j, convention)
        if (s, i, j) == face:
            return type(ft)(ft.raw, "C" if ft.cls == "A" else "A")
        return ft

    monkeypatch.setattr(graphlink.cube, "classify_face", mislabeled)
    return face


def test_validate_parity_negative_control(tmp_path, capsys, monkeypatch):
    # One mislabeled face breaks the parity of each of the n - 2
    # 3-subcubes through it, so both sign systems become unsolvable.
    path = fixture_path("even4")
    mislabel_face(monkeypatch, load_graph(path))
    code, out, _ = run(capsys, "validate", path)
    assert code == 1
    lines = out.strip().split("\n")
    assert "cube-parity FAIL (1/1: GraphlinkError: 2 subcube violations)" in lines
    for kind in "XY":
        assert (
            f"assignment-{kind} FAIL (1/1: AssignmentInfeasible: no type {kind} "
            "assignment under convention 'signed')"
        ) in lines

    # A two-vertex cube is one face and has no 3-subcube, so the sign
    # solve obeys the mislabel and d^2 = 0 catches it on that face.
    g = build_graph((("a", 0, "-"), ("b", 1, "-")), ())
    assert mislabel_face(monkeypatch, g) == (0, 0, 1)
    with pytest.raises(DSquaredNonzero) as exc:
        build_complex(g, solve_edge_assignment(g, "X"))
    assert exc.value.witness[:3] == (0, "a", "b")
    two = tmp_path / "two.graph"
    two.write_text(serialize_graph(g))
    mislabel_face(monkeypatch, load_graph(two))
    code, out, _ = run(capsys, "validate", str(two))
    assert code == 1
    assert "cube-parity PASS" in out
    assert "assignment-X FAIL (1/1: DSquaredNonzero: d^2 != 0 on class A face (0; a, b)" in out


def test_validate_decides_parity_by_the_solves(capsys, monkeypatch):
    def census(*args):
        raise AssertionError("census run although both solves succeeded")

    monkeypatch.setattr(graphlink.cli, "validate_cube_parity", census)
    for argv in ((fixture_path("even4"),), (fixture_path("om3"),), ("--random", "6", "3")):
        code, out, _ = run(capsys, "validate", *argv)
        assert code == 0
        assert "cube-parity PASS" in out


def test_validate_random(capsys):
    code, out, _ = run(capsys, "validate", "--random", "4", "3", "7")
    assert code == 0
    assert "pu-methods-agree PASS (3 graphs)" in out


def test_validate_usage(capsys):
    code, _, err = run(capsys, "validate")
    assert code == 2
    code, _, err = run(capsys, "validate", fixture_path("e1"), "--random", "4")
    assert code == 2


def test_validate_rejects_no_random_graphs(capsys):
    for argv in (
        ("--random", "6", "0"),
        ("--random", "6", "0", "--negative-control"),
        ("--random", "6", "-3"),
        ("--random", "6", "--samples", "0", "--negative-control"),
    ):
        code, out, err = run(capsys, "validate", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")


class _Warned(Exception):
    pass


def first_warning(*argv):
    """Run the CLI until it warns; (message, filename) of that warning,
    or None if it finishes without one."""

    def stop(message, category, filename, lineno, file=None, line=None):
        raise _Warned(str(message), filename)

    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = stop
        try:
            main(list(argv))
        except _Warned as w:
            return w.args
    return None


def test_size_warning_only_where_states_are_enumerated(tmp_path, capsys):
    names = [f"v{k}" for k in range(13)]
    lines = [f"vertex {v} {k % 2} {'+-'[k % 2]}" for k, v in enumerate(names)]
    edges = [f"edge {a} {b}" for a, b in zip(names, names[1:])]
    path = tmp_path / "path13.graph"
    path.write_text("\n".join(lines + edges) + "\n")
    free = tmp_path / "free13.graph"
    free.write_text("\n".join(lines + edges[:-1] + ["uedge v11 v12"]) + "\n")
    script = tmp_path / "s.moves"
    script.write_text("O4 v0 v1\n")

    assert first_warning("check-pu", str(path)) is None
    assert first_warning("orient", str(free)) is None
    assert first_warning("apply", str(path), str(script)) is None
    message, filename = first_warning("homology", str(path))
    assert message == "13 vertices: state enumeration is exponential and will be slow"
    assert filename == __file__
    capsys.readouterr()


def test_orient_free_cycle(tmp_path, capsys):
    src = tmp_path / "c4.graph"
    src.write_text(
        "vertex a 0 -\nvertex b 1 -\nvertex c 0 -\nvertex d 1 -\n"
        "uedge a b\nuedge b c\nuedge c d\nuedge d a\n"
    )
    code, out, _ = run(capsys, "orient", str(src))
    assert code == 0
    assert is_pu(parse_graph(out)) is None


def test_orient_triangle(tmp_path, capsys):
    src = tmp_path / "tri.graph"
    src.write_text(
        "vertex a 0 -\nvertex b 1 -\nvertex c 0 -\n"
        "uedge a b\nuedge b c\nuedge c a\n"
    )
    code, _, err = run(capsys, "orient", str(src))
    assert code == 1
    assert "part-0" in err


def test_orient_echoes_oriented_input(capsys):
    code, out, _ = run(capsys, "orient", fixture_path("e1"))
    assert code == 0
    assert out.split("\n")[0] == "# already PU"
    assert parse_graph(out).names == ("u", "v")
