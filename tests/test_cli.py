from __future__ import annotations

import csv
import json
import os
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

try:
    import resource
except ImportError:  # not on Windows
    resource = None

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pwldyn import bcnf, cli, pwlmap, reduction
from pwldyn.cli import main

from conftest import shared_3d_params

ANCHOR = ["--dim", "2", "--tl", "2.2", "--dl", "0.4", "--tr", "-1.3", "--dr", "-0.3"]
FLAT = ["--dim", "2", "--tl", "1.3", "--dl", "0.0", "--tr", "-1.4", "--dr", "1.5"]


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def exit_code(argv) -> int:
    """The code ``main`` returns, or the one its usage error exits with."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_analyze_shared(capsys):
    code, report = run_json(capsys, ["analyze", *ANCHOR])
    assert code == 0
    shared = report["shared_eigenvalue"]
    assert shared["value"] == pytest.approx(0.2, abs=1e-12)
    assert shared["transversal"]
    assert shared["restricted"]["slopes"] == pytest.approx([2.0, -1.5], abs=1e-9)
    assert report["continuity"]["p"] == pytest.approx([-3.5, 0.7], abs=1e-12)
    assert report["fixed_points"]["right"]["point"] == pytest.approx(
        [0.5, 0.15], abs=1e-12
    )
    assert report["fixed_points"]["right"]["admissible"]
    assert report["zero_eigenvalue"] is None
    assert report["unit_modulus"] == []
    values = [t["value"] for t in report["eigenvalues"]["R"]["real"]]
    assert values == pytest.approx([-1.5, 0.2], abs=1e-12)


_CUBIC_OVERFLOW = [[1.0, 2.0, 0.0], [0.0, 1e110, 3.0], [1.0, 0.0, 2.0]]
_EIGENVECTOR_OVERFLOW = [[1e160, 2e160], [3e160, 1e161]]


def _identity_but_first_column(x: float) -> np.ndarray:
    A = np.eye(3)
    A[:, 0] = x
    return A


# Maps each of which once over- or underflowed on the way to its report.
# c = e1, b = e1 and p = (A_R - A_L) e1.
@pytest.mark.parametrize("A_L, A_R, p", [
    # A_R - A_L = -2e308 e1 e1^T overflows: the map is continuous
    ([[1e308, 1.0], [-1e308, 0.0]], [[-1e308, 1.0], [-1e308, 0.0]], [-np.inf, 0.0]),
    # every entry of A_R - A_L is finite, its Frobenius norm is not (exit 3)
    (_identity_but_first_column(8e307), _identity_but_first_column(-8e307), [-1.6e308] * 3),
    # the closed-form cubic: p * m underflows, the square root of an
    # underflowed negative, a**3 overflows (tracebacks, exit 1)
    (np.diag([0.0, 0.0, 1.2416809e-139]), np.diag([0.0, 0.0, 1.2416809e-139]), [0.0] * 3),
    ([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0046794e-131], [0.0, 1.0, 0.0]],
     [[0.0, 0.0, 0.0], [0.0, 0.0, -1.0046794e-131], [0.0, 1.0, 0.0]], [0.0] * 3),
    (_CUBIC_OVERFLOW, _CUBIC_OVERFLOW, [0.0] * 3),
    # the squares of the adjugate-scaled right eigenvector overflow
    (_EIGENVECTOR_OVERFLOW, [[1e160, 2e160], [4e160, 1e161]], [0.0, 4e160 - 3e160]),
], ids=["difference", "norm", "cubic-underflow", "cubic-domain", "cubic-overflow",
        "eigenvector-squares"])
def test_analyze_at_the_edges_of_the_float_range(tmp_path, capsys, A_L, A_R, p):
    # a report and no NumPy warning on stderr
    path = tmp_path / "map.txt"
    e1 = np.eye(len(p))[0]
    _write_map(path, A_L, A_R, e1, e1)
    code = main(["analyze", "--matrix-file", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert json.loads(captured.out)["continuity"] == {"p": p}


def test_analyze_and_restrict_where_the_fit_overflows(tmp_path, capsys):
    # |A_R - A_L| / |c| is past the float range.  The overflowed fit let this
    # discontinuous map through: analyze reported the shared eigenvalue
    # -1e307, which A_L does not have, and restrict exited 0.
    path = tmp_path / "map.txt"
    path.write_text("2\n1e307 0\n0 1\n-1e307 1e300\n0 1\n0 0\n1e-150 0\n")
    message = "A_R - A_L is not a rank-one update along c (residual 1.000e+300)"
    assert main(["analyze", "--matrix-file", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["continuity"] == {"error": f"NotContinuous: {message}"}
    assert report["shared_eigenvalue"] == {"error": f"NotContinuous: {message}"}
    assert main(["restrict", "--matrix-file", str(path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


# Reference maps with b = 1e308 e1 or 1.7e308 e2, A_L = A_R with b = 2^1023
# e4, and a singular left piece with null vector (1, 1) whose fixed point
# (1.5e308, 1.5e308) is finite: their fixed-point solves, invariant planes,
# restricted maps or planarity residuals leave the float range.
_FAR = {
    "shared_far": "2\n2.2 1\n-0.4 0\n-1.3 1\n0.3 0\n1e308 0\n1 0\n",
    "shared_far_e2": "2\n2.2 1\n-0.4 0\n-1.3 1\n0.3 0\n0 1.7e308\n1 0\n",
    "flat_far": "2\n1.3 1\n0 0\n-1.4 1\n-1.5 0\n1e308 0\n1 0\n",
    "flat_far_3d": "3\n1.6 1 0\n-0.8 0 1\n0 0 0\n-1.5 1 0\n0 0 1\n1 0 0\n1e308 0 0\n1 0 0\n",
    "zero4": "4\n" + "0 0 0 0\n0 0 0 -1\n0 0 -1 0\n2 2 0 2\n" * 2
             + f"0 0 0 {2.0**1023!r}\n1 0 0 0\n",
    "flat_sum_far": "2\n0.3 -0.2\n-0.3 0.2\n-0.7 -0.2\n-0.3 0.2\n1.35e308 1.65e308\n1 0\n",
}
_NO_LEFT_POINT = ("error: NoFixedPoint: the left piece has no fixed point: "
                  "the solve of (I - A) x = b leaves the float range\n")


_FAR_RUNS = [
    ("shared_far", ["analyze"], 0, ""),
    ("shared_far", ["restrict"], 3,
     "error: IllConditioned: the restricted map is past the float range\n"),
    ("shared_far_e2", ["analyze"], 0, ""),
    ("shared_far_e2", ["restrict"], 3,
     "error: IllConditioned: the invariant plane is past the float range\n"),
    ("flat_far", ["analyze"], 0, ""),
    ("flat_far", ["induced", "--grid=-1:1:3"], 4, _NO_LEFT_POINT),
    ("flat_far_3d", ["analyze"], 0, ""),
    ("flat_far_3d", ["induced", "--grid=-1:1:3,-1:1:3"], 4, _NO_LEFT_POINT),
    ("flat_sum_far", ["analyze"], 0, ""),
    ("flat_sum_far", ["induced", "--grid=-1:1:3"], 3,
     "error: IllConditioned: the range of the left piece is not planar within tolerance\n"),
    ("zero4", ["analyze"], 0, ""),
    ("zero4", ["induced", "--grid=-1:1:3,-1:1:3,-1:1:3"], 4, _NO_LEFT_POINT),
]


@pytest.mark.parametrize("name, argv, code, err", _FAR_RUNS,
                         ids=[f"{name}-{argv[0]}" for name, argv, _, _ in _FAR_RUNS])
def test_maps_past_the_float_range_end_in_one_line(tmp_path, capsys, name, argv, code, err):
    # a report or one error line, no warning (an error here) and no inf or NaN printed
    path = tmp_path / "map.txt"
    path.write_text(_FAR[name])
    assert main([*argv, "--matrix-file", str(path)]) == code
    captured = capsys.readouterr()
    assert captured.err == err
    assert "NaN" not in captured.out and "Infinity" not in captured.out


@pytest.mark.parametrize("name, argv, code, err", [run for run in _FAR_RUNS if run[2]],
                         ids=[name for name, _, code, _ in _FAR_RUNS if code])
def test_analyze_records_the_error_past_the_float_range(tmp_path, name, argv, code, err):
    # the library's report: finite fixed points or none with a reason, and
    # the failing subcommand's error as the record of its reduction
    path = tmp_path / "map.txt"
    path.write_text(_FAR[name])
    report = reduction.analyze(cli.read_matrix_file(str(path)))
    for info in (report.fixed_points.left, report.fixed_points.right):
        assert info.point is None or np.isfinite(info.point).all()
        assert (info.point is None) == (info.reason is not None)
    record = report.shared if argv[0] == "restrict" else report.zero_plane
    assert record == err[len("error: "):-1]


@pytest.mark.parametrize("argv, ini, message", [
    (["analyze", *ANCHOR, "--sl", "0.5"], None,
     "second traces sl/sr are only meaningful in dimension 3"),
    (["orbit", "--dim", "3", "--tl", "1", "--dl", "1", "--tr", "1", "--dr", "1"], None,
     "missing normal-form coefficients: sl, sr"),
    (["scan", *ANCHOR, "--param", "sl", "--values", "1"], None,
     "unknown scan parameter 'sl' for dimension 2"),
    (["analyze"], "[map]\ndim = 4\ntl = 1\ndl = 1\ntr = 1\ndr = 1\n",
     "normal form exists for dimensions 2 and 3, not 4"),
], ids=["second-traces", "missing", "scan-parameter", "dimension"])
def test_normal_form_messages(tmp_path, capsys, argv, ini, message):
    if ini is not None:
        path = tmp_path / "run.ini"
        path.write_text(ini)
        argv = [*argv, "--config", str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_analyze_flat_left(capsys):
    code, report = run_json(capsys, ["analyze", *FLAT])
    assert code == 0
    zero = report["zero_eigenvalue"]
    assert zero["normal"] == pytest.approx([0.0, 1.0], abs=1e-12)
    assert zero["base_point"] == pytest.approx([-10.0 / 3.0, 0.0], abs=1e-12)


def test_analyze_identity_map(tmp_path, capsys):
    path = tmp_path / "map.txt"
    path.write_text("2\n1 0\n0 1\n1 0\n0 1\n1 0\n1 0\n")
    code, report = run_json(capsys, ["analyze", "--matrix-file", str(path)])
    assert code == 0
    right = report["fixed_points"]["right"]
    assert right["point"] is None
    assert "eigenvalue" in right["reason"]
    assert "error" in report["shared_eigenvalue"]
    assert report["zero_eigenvalue"] is None
    kinds = {(r["side"], r["kind"]) for r in report["unit_modulus"]}
    assert kinds == {("L", "SN"), ("R", "SN")}


def test_analyze_matrix_file_matches_inline(tmp_path, capsys):
    path = tmp_path / "map.txt"
    path.write_text(
        "2\n2.2 1\n-0.4 0\n-1.3 1\n0.3 0\n1 0\n1 0\n"
    )
    code, from_file = run_json(capsys, ["analyze", "--matrix-file", str(path)])
    assert code == 0
    code, inline = run_json(capsys, ["analyze", *ANCHOR])
    assert code == 0
    assert from_file == inline



def _write_map(path, A_L, A_R, b, c):
    rows = [*A_L, *A_R, b, c]
    path.write_text(f"{len(b)}\n" + "".join(" ".join(repr(float(x)) for x in row) + "\n"
                                            for row in rows))


def _shared_verdict(capsys, path, scale):
    code, report = run_json(capsys, ["analyze", "--matrix-file", str(path)])
    assert code == 0
    shared = report["shared_eigenvalue"]
    if shared is None or "error" in shared:
        return shared
    return shared["value"] / scale, shared["transversal"]


def test_analyze_shared_verdict_is_scale_free(tmp_path, capsys):
    # The plain norms and dot products of the detection overflow once the
    # adjugate-scaled eigenvectors pass 1e154, as with these pieces times
    # 1e160.  Neither the verdict nor the output may change for that, and no
    # warning may appear (warnings are errors here).
    A_L = np.array([[1.0, 2.0], [3.0, 10.0]])
    A_R = np.array([[1.0, 2.0], [4.0, 10.0]])
    path = tmp_path / "map.txt"
    for scale in (2.0**-500, 1.0, 1e160, 2.0**500):
        _write_map(path, scale * A_L, scale * A_R, [0.0, 1.0], [1.0, 0.0])
        assert _shared_verdict(capsys, path, scale) is None
    # In 3-D the eigenvectors are quadratic in the entries.  Scaling down is
    # left out: below |A| = 1 the cluster threshold of real_eigen is absolute,
    # so 2^-500 times the map merges its spectrum.
    pwl = bcnf(shared_3d_params())
    verdicts = set()
    for k in (0, 300, 500):
        _write_map(path, 2.0**k * pwl.A_L, 2.0**k * pwl.A_R, pwl.b, pwl.c)
        verdicts.add(_shared_verdict(capsys, path, 2.0**k))
    assert len(verdicts) == 1 and None not in verdicts


def test_matrix_file_malformed(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("2\n1 0\n0 1\n")
    assert main(["analyze", "--matrix-file", str(path)]) == 2
    path.write_text("2\none two\n")
    assert main(["analyze", "--matrix-file", str(path)]) == 2
    assert main(["analyze", "--matrix-file", str(tmp_path / "absent.txt")]) == 2


def test_conflicting_map_sources(tmp_path):
    path = tmp_path / "map.txt"
    path.write_text("2\n1 0\n0 1\n1 0\n0 1\n1 0\n1 0\n")
    assert main(["analyze", "--matrix-file", str(path), "--tl", "1.0"]) == 2


def test_missing_coefficients():
    assert main(["analyze", "--dim", "2", "--tl", "2.2", "--dl", "0.4"]) == 2
    assert main(["analyze"]) == 2


def test_orbit_csv(tmp_path):
    out = tmp_path / "orbit.csv"
    code = main(["orbit", *ANCHOR, "--transient", "500", "--keep", "500",
                 "--out", str(out)])
    assert code == 0
    rows = read_csv(out)
    assert rows[0] == ["k", "x1", "x2", "symbol"]
    assert len(rows) == 1001
    assert [r[0] for r in rows[1:4]] == ["0", "1", "2"]
    assert rows[1][1] == "1.0"
    assert rows[1][3] == "R"
    raw = out.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_portrait_csv(tmp_path):
    out = tmp_path / "portrait.csv"
    code = main(["portrait", *ANCHOR, "--out", str(out)])
    assert code == 0
    rows = read_csv(out)
    assert rows[0] == ["x1", "x2", "symbol"]
    assert len(rows) == 3001


def test_portrait_from_fixed_point(tmp_path):
    out = tmp_path / "portrait.csv"
    code = main(["portrait", *ANCHOR, "--x0", "0.5,0.15", "--keep", "50",
                 "--out", str(out)])
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 51
    pts = np.array([[float(r[0]), float(r[1])] for r in rows[1:]])
    assert np.abs(pts - np.array([0.5, 0.15])).max() <= 1e-9


def test_portrait_single_point(tmp_path):
    out = tmp_path / "portrait.csv"
    code = main(["portrait", *ANCHOR, "--x0", "0.5,0.15", "--keep", "1",
                 "--out", str(out)])
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 2
    assert float(rows[1][0]) == pytest.approx(0.5, abs=1e-12)
    assert float(rows[1][1]) == pytest.approx(0.15, abs=1e-12)


def test_orbit_3d_columns(tmp_path):
    out = tmp_path / "orbit.csv"
    code = main(["orbit", "--dim", "3", "--tl", "1.6", "--dl", "0.0",
                 "--sl", "0.8", "--tr", "-1.5", "--dr", "1.0", "--sr", "0.0",
                 "--transient", "5", "--keep", "5", "--out", str(out)])
    assert code == 0
    rows = read_csv(out)
    assert rows[0] == ["k", "x1", "x2", "x3", "symbol"]
    assert len(rows) == 11


def test_portrait_escape_exit(tmp_path):
    path = tmp_path / "map.txt"
    path.write_text("2\n2 0\n0 2\n2 0\n0 2\n0 0\n1 0\n")
    code = main(["portrait", "--matrix-file", str(path), "--x0", "1,1",
                 "--escape-radius", "1e3", "--transient", "10"])
    assert code == 3


def test_orbit_json(capsys):
    code, payload = run_json(capsys, ["orbit", *ANCHOR, "--transient", "5",
                                      "--keep", "5", "--format", "json"])
    assert code == 0
    assert len(payload["points"]) == 10
    assert payload["first_index"] == 0
    assert not payload["escaped"]


def test_restrict_json(capsys):
    code, payload = run_json(capsys, ["restrict", *ANCHOR])
    assert code == 0
    assert payload["shared"]["value"] == pytest.approx(0.2, abs=1e-12)
    assert payload["reduced"]["dimension"] == 1
    assert payload["reduced"]["slopes"] == pytest.approx([2.0, -1.5], abs=1e-9)
    assert len(payload["orbit"]["points"]) == 3000
    cobweb = payload["cobweb"]
    assert len(cobweb["x"]) == 512
    assert len(cobweb["fx"]) == 512


def test_restrict_csv_cobweb(tmp_path):
    out = tmp_path / "cobweb.csv"
    code = main(["restrict", *ANCHOR, "--format", "csv", "--grid=-1:1:64",
                 "--out", str(out)])
    assert code == 0
    rows = read_csv(out)
    assert rows[0] == ["x", "fx"]
    assert len(rows) == 65
    assert float(rows[1][0]) == pytest.approx(-1.0)
    assert float(rows[-1][0]) == pytest.approx(1.0)


def test_restrict_3d_chart_orbit(tmp_path):
    out = tmp_path / "r3.csv"
    code = main(["restrict", "--dim", "3", "--tl", "0", "--dl",
                 "0.18973854901443662", "--sl", "-1", "--tr", "0",
                 "--dr", "-0.6", "--sr", "3", "--format", "csv",
                 "--out", str(out)])
    assert code == 0
    rows = read_csv(out)
    assert rows[0] == ["xi1", "xi2", "symbol"]
    assert len(rows) == 3001


SHARED_3D_ARGS = ["--dim", "3", "--tl", "0", "--dl", "0.18973854901443662", "--sl", "-1",
                  "--tr", "0", "--dr", "-0.6", "--sr", "3"]


def test_restrict_grid_parsed_before_detection(capsys):
    # nothing is shared here: without the grid check first this exits 4
    code = main(["restrict", "--dim", "2", "--tl", "1.5", "--dl", "0.4",
                 "--tr", "-1.3", "--dr", "-0.3", "--grid=garbage"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and "lo:hi:count" in err


@pytest.mark.parametrize("grid", ["garbage", "0:1:5"])
def test_restrict_grid_needs_one_dimensional_restriction(capsys, grid):
    code = main(["restrict", *SHARED_3D_ARGS, f"--grid={grid}"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and "Traceback" not in err
    if grid == "0:1:5":
        assert "one-dimensional" in err


def test_restrict_grid_cobweb_without_orbit_points(capsys):
    # the chart orbit escapes at once, the explicit grid is still evaluated
    argv = ["restrict", *ANCHOR, "--escape-radius", "0.01", "--grid=-1:1:5"]
    code, payload = run_json(capsys, argv)
    assert code == 0
    assert payload["orbit"]["points"] == []
    assert payload["cobweb"]["x"] == [-1.0, -0.5, 0.0, 0.5, 1.0]
    assert payload["cobweb"]["fx"][:4] == pytest.approx([1.5, 0.75, 0.0, -0.75], abs=1e-12)
    assert main([*argv, "--format", "csv"]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert rows[0] == ["x", "fx"]
    assert [float(r[0]) for r in rows[1:]] == payload["cobweb"]["x"]


@pytest.mark.parametrize("args", [ANCHOR, SHARED_3D_ARGS], ids=["1-D chart", "2-D chart"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_restrict_orbit_escaping_before_any_point_exits_3(capsys, args, fmt):
    # without --grid nothing is left to report: exit 3, as orbit and portrait do
    code = main(["restrict", *args, "--escape-radius", "1e-300", "--format", fmt])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "error: orbit escaped at step 0 before any retained point\n"


@pytest.mark.parametrize("argv, out", [
    # the span hi - lo overflows; the points were nan, inf, 1e308 with three
    # RuntimeWarnings
    (["restrict", *ANCHOR, "--grid=-1e308:1e308:3", "--format", "csv"],
     "x,fx\n-1e+308,1.5000000000000002e+308\n0.0,0.0\n1e+308,inf\n"),
    # here the warnings came before "error: start point is not on the section"
    (["induced", *FLAT, "--grid=-1e308:1e308:5"],
     "in1,out1,j,status\n-1e+308,,,escaped\n-5e+307,,,escaped\n0.0,0.0,1,ok\n"
     "5e+307,,,escaped\n1e+308,,,escaped\n"),
    # a finite span whose last image overflows, which warned
    (["restrict", *ANCHOR, "--grid=0:1.7e308:3", "--format", "csv"],
     "x,fx\n0.0,0.0\n8.5e+307,1.7000000000000003e+308\n1.7e+308,inf\n"),
], ids=["restrict-span", "induced-span", "restrict-image"])
def test_grid_past_the_float_range(capsys, argv, out):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (out, "")


def test_box_grid_past_the_float_range():
    # the margins widen the box past the float range: cut at the largest float
    big = float(np.finfo(float).max)
    grid = cli._box_grid(np.array([[-1e308, -1.7e308], [1e308, 1.7e308]]), 0.05, 3)
    axes = [sorted(set(grid[:, j].tolist())) for j in range(2)]
    assert axes[0] == [-1e308 - 1e307, 0.0, 1e308 + 1e307]
    assert axes[1] == [-big, 0.0, big]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 2), min_size=1,
                max_size=4), st.sampled_from([0.02, 0.05]))
def test_box_grid_keeps_the_bits_of_finite_boxes(rows, pad):
    # the box grid as it was computed, wherever that stays finite
    coords = np.array(rows)
    with np.errstate(over="ignore", invalid="ignore"):
        lo, hi = coords.min(axis=0), coords.max(axis=0)
        margin = pad * (hi - lo) + 1e-9
        a, b = lo - margin, hi + margin
        assume(np.isfinite(b - a).all())
    axes = [np.linspace(x, y, 5) for x, y in zip(a, b)]
    want = np.column_stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")])
    assert cli._box_grid(coords, pad, 5).tobytes() == want.tobytes()


def test_restrict_no_shared_eigenvalue():
    assert main(["restrict", "--dim", "2", "--tl", "1.5", "--dl", "0.4",
                 "--tr", "-1.3", "--dr", "-0.3"]) == 4


def test_induced_csv(tmp_path):
    out = tmp_path / "induced.csv"
    code = main(["induced", *FLAT, "--grid=-5:1:40", "--out", str(out)])
    assert code == 0
    rows = read_csv(out)
    assert rows[0] == ["in1", "out1", "j", "status"]
    assert len(rows) == 41
    ok = [r for r in rows[1:] if r[3] == "ok"]
    assert len(ok) == 40
    assert all(int(r[2]) >= 1 for r in ok)


def test_induced_default_grid(tmp_path):
    out = tmp_path / "induced.csv"
    code = main(["induced", *FLAT, "--out", str(out)])
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 501


def test_induced_grid_at_fixed_point(capsys):
    # chart coordinate 0 is the base point Y, a fixed point of the
    # return map with j = 1
    code, payload = run_json(capsys, ["induced", *FLAT, "--grid=0:0:1",
                                      "--format", "json"])
    assert code == 0
    assert len(payload["samples"]) == 1
    s = payload["samples"][0]
    assert s["status"] == "ok"
    assert s["return_time"] == 1
    assert s["image"] == pytest.approx(s["point"], abs=1e-10)


def test_induced_escape_radius_marks_escapes(capsys):
    argv = ["induced", *FLAT, "--grid=-1:1:5", "--format", "json"]
    code, payload = run_json(capsys, argv)
    assert code == 0
    assert [s["status"] for s in payload["samples"]] == ["ok"] * 5
    code, payload = run_json(capsys, [*argv, "--escape-radius", "3"])
    assert code == 0
    statuses = [s["status"] for s in payload["samples"]]
    assert statuses == ["ok", "ok", "escaped", "escaped", "escaped"]
    assert all(s["image"] is None for s in payload["samples"][2:])


def test_induced_every_sample_failed(capsys):
    code = main(["induced", *FLAT, "--grid=-1:1:5", "--escape-radius", "1e-3"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: every grid sample failed to return to the section\n"


@pytest.mark.parametrize("form", [
    ["--dim", "2", "--tl", "1.3", "--dl", "0", "--tr", "0.5", "--dr", "0.1"],
    ["--dim", "3", "--tl", "1.6", "--dl", "0", "--sl", "0.8", "--tr", "0.5", "--dr", "0.1",
     "--sr", "0.1"],
], ids=["2d", "3d"])
def test_induced_default_grid_needs_an_attractor_on_the_section(capsys, form):
    # the attractor is the right piece's stable fixed point: it never enters
    # the left half-space, so no point of it lies on the section
    assert main(["induced", *form]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: NoReturn: the sampled attractor never visits the section; "
                            "give --grid explicitly\n")


# Negative values that argparse alone takes for flags: exponent notation,
# lists, grid specs and non-finite values.
NEGATIVE_WORDS = [
    ("portrait", ["--tl", "-2.5e-05"]),
    ("portrait", ["--tl", "2.2", "--x0", "-1,2"]),
    ("scan", ["--tl", "2.2", "--param", "tl", "--values", "-0.5,0.5"]),
    ("restrict", ["--tl", "2.2", "--grid", "-1:1:3"]),
    ("scan", ["--tl", "2.2", "--param", "tl", "--values", "-inf,1"]),
]


@pytest.mark.parametrize("command, words", NEGATIVE_WORDS)
def test_negative_value_as_its_own_word(tmp_path, capsys, command, words):
    # each form runs alike; a non-finite value is rejected as map data
    the_rest = ["--dim", "2", "--dl", "0.4", "--tr", "-1.3", "--dr", "-0.3",
                "--transient", "20", "--keep", "30"]
    flag, value = words[-2:]
    outcomes = []
    for form in ([flag, value], [f"{flag}={value}"]):
        out = tmp_path / f"{len(form)}.out"
        code = exit_code([command, *the_rest, *words[:-2], *form, "--out", str(out)])
        outcomes.append((code, out.read_bytes() if out.exists() else None, capsys.readouterr()))
    assert outcomes[0] == outcomes[1]
    code, written, captured = outcomes[0]
    if "inf" in value:
        assert (code, written) == (2, None)
        assert captured == ("", "error: map data must be finite\n")
    else:
        assert code == 0 and written and captured.err == ""


@pytest.mark.parametrize("command", ["orbit", "portrait", "restrict", "scan"])
@pytest.mark.parametrize("form", [
    *(pytest.param([f"--x0={x0}"], id=x0)
      for x0 in ("nan,2", "1,inf", "-inf,0", "-nan,1", "-Infinity,2", "-NaN,3")),
    *(pytest.param(["--x0", x0], id=f"--x0 {x0}")
      for x0 in ("-inf,0", "-nan,1", "-Infinity,2", "-NaN,3")),
])
def test_non_finite_x0_rejected(capsys, command, form):
    sweep = ["--param", "tl", "--values", "2.2"] if command == "scan" else []
    code = exit_code([command, *ANCHOR, *sweep, *form])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: x0 must be finite")


def test_restrict_x0_of_wrong_length(capsys):
    assert main(["restrict", *ANCHOR, "--x0", "1,2,3"]) == 2
    assert capsys.readouterr().err == "error: x0 must be a vector of length 2\n"


@pytest.mark.parametrize("command", ["orbit", "portrait", "restrict", "induced", "scan"])
@pytest.mark.parametrize("lengths, message", [
    (["--transient", "-1"], "n_transient must be non-negative"),
    (["--transient", "2", "--keep", "-1"], "n_keep must be at least 1"),
    (["--keep", "0"], "n_keep must be at least 1"),
], ids=["transient -1", "keep -1", "keep 0"])
def test_negative_orbit_lengths_rejected(capsys, command, lengths, message):
    # ``orbit`` writes the transient and the kept points alike, and checks
    # each length, not their sum
    spec = FLAT if command == "induced" else ANCHOR
    sweep = ["--param", "tl", "--values", "2.2"] if command == "scan" else []
    code = exit_code([command, *spec, *sweep, *lengths])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


BAD_SETTINGS = [("--tol", v) for v in ("nan", "0", "-1", "inf")] + [
    ("--escape-radius", v) for v in ("nan", "0", "-1")
]


@pytest.mark.parametrize("command",
                         ["analyze", "orbit", "portrait", "restrict", "induced", "scan"])
@pytest.mark.parametrize("option, value", BAD_SETTINGS)
def test_bad_tol_or_escape_radius_rejected(capsys, command, option, value):
    # a command that does not read the setting rejects the flag itself
    spec = FLAT if command == "induced" else ANCHOR
    sweep = ["--param", "tl", "--values", "2.2"] if command == "scan" else []
    code = exit_code([command, *spec, *sweep, f"{option}={value}"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error: ") and "Traceback" not in err


def test_bad_tol_in_config_file_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[tolerances]\ntol = 0\n")
    assert main(["analyze", *ANCHOR, "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.count("\n") == 1


def test_infinite_escape_radius_allowed(capsys):
    code = main(["orbit", *ANCHOR, "--escape-radius=inf", "--transient", "1", "--keep", "2",
                 "--format", "json"])
    assert code == 0
    assert not json.loads(capsys.readouterr().out)["escaped"]


@pytest.mark.parametrize("argv", [
    ["induced", *FLAT, "--grid=0:1:10000000000"],
    ["induced", "--dim", "3", "--tl", "1.6", "--dl", "0.0", "--sl", "0.8", "--tr", "-1.5",
     "--dr", "1.0", "--sr", "0.0", "--grid=0:1:100000,0:1:100000"],
    ["restrict", *ANCHOR, "--grid=0:1:10000000000"],
])
def test_huge_grid_rejected_before_allocating(capsys, argv):
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and "more than the limit" in err
    assert peak < 10**6


@pytest.mark.parametrize("argv, floats", [
    (["portrait", *ANCHOR, "--keep"], 2),
    (["orbit", *ANCHOR, "--transient", "0", "--keep"], 2),
    (["restrict", *ANCHOR, "--keep"], 1),
    (["induced", *FLAT, "--keep"], 2),
    (["scan", *ANCHOR, "--param", "tl", "--values", "2.2,2.0", "--keep"], 4),
], ids=["portrait", "orbit", "restrict", "induced", "scan"])
def test_orbit_limit_at_its_boundary(monkeypatch, capsys, argv, floats):
    # each command keeps ``floats`` coordinates per kept iterate: the orbit
    # at the limit runs, one more iterate is rejected with one line
    monkeypatch.setattr(pwlmap, "MAX_ORBIT_FLOATS", 600)
    keep = 600 // floats
    assert main([*argv, str(keep)]) == 0
    capsys.readouterr()
    assert main([*argv, str(keep + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: orbits keep {(keep + 1) * floats} floats, more than the limit 600\n")


def test_huge_orbit_rejected_before_allocating(capsys):
    # 2e11 floats: the 1.5 TiB orbit buffer is never asked for
    tracemalloc.start()
    try:
        code = main(["portrait", *ANCHOR, "--keep", "100000000000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 2
    assert err == (f"error: orbits keep 200000000000 floats, more than the limit "
                   f"{pwlmap.MAX_ORBIT_FLOATS}\n")
    assert peak < 10**6


def test_induced_escape_radius_checked_by_the_sampler(capsys):
    # an explicit grid steps no attractor: the sampler checks the radius
    assert main(["induced", *FLAT, "--grid=-1:1:3", "--escape-radius", "0"]) == 2
    assert capsys.readouterr() == ("", "error: escape radius must be positive, got 0.0\n")


NOT_SHARED = "ReductionError: no eigenvalue is shared by the two pieces at this tolerance"
NOT_SINGULAR = "NotSingular: no real eigenvalue of A_L within tolerance of zero"


@pytest.mark.parametrize("argv, message", [
    (["restrict", *FLAT, "--escape-radius", "0"], NOT_SHARED),
    (["restrict", *FLAT, "--keep", "100000000"], NOT_SHARED),
    (["induced", *ANCHOR, "--escape-radius", "nan"], NOT_SINGULAR),
], ids=["restrict radius", "restrict keep", "induced radius"])
def test_orbit_settings_checked_where_they_are_read(capsys, argv, message):
    # the reduction fails before the orbit or the sampler reads them: no
    # eigenvalue of FLAT is shared, and the left piece of ANCHOR is regular
    assert main(argv) == 4
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("options", [
    ["--x0", "1e6,0", "--escape-radius", "inf"],
    ["--keep", "100000000"],
], ids=["non-finite orbit", "oversized orbit"])
def test_restrict_grid_csv_steps_no_orbit(capsys, options):
    # the CSV of an explicit grid is its cobweb alone, so the orbit that
    # would overflow or pass the limit is never stepped
    grid = "--grid=-1:1.5:11"
    code, report = run_json(capsys, ["restrict", *ANCHOR, grid])
    assert code == 0
    assert main(["restrict", *ANCHOR, *options, grid, "--format", "csv"]) == 0
    cobweb = report["cobweb"]
    assert capsys.readouterr() == ("x,fx\n" + "".join(
        f"{x!r},{fx!r}\n" for x, fx in zip(cobweb["x"], cobweb["fx"])), "")


def test_grid_limit_names_the_product_of_the_axes(capsys):
    # the first axis alone is past the limit, but the one check is on the
    # whole grid, before anything is allocated, and names its size
    code = main(["induced", "--dim", "3", "--tl", "1.6", "--dl", "0.0", "--sl", "0.8",
                 "--tr", "-1.5", "--dr", "1.0", "--sr", "0.0", "--grid=0:1:2000000,0:1:3"])
    assert code == 2
    assert capsys.readouterr().err.endswith(
        f"grid has 6000000 samples, more than the limit {cli.MAX_GRID_SAMPLES}\n")


def _singular_left_map_file(path: Path, n: int, seed: int) -> None:
    """A random continuous map whose left piece has a zero column."""
    rng = np.random.default_rng(seed)
    a_l = rng.uniform(-1.0, 1.0, (n, n))
    a_l[:, 0] = 0.0
    b, c = rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n)
    a_r = a_l + np.outer(rng.uniform(-1.0, 1.0, n), c)
    rows = [*a_l, *a_r, b, c]
    path.write_text(f"{n}\n" + "".join(" ".join(repr(float(x)) for x in row) + "\n"
                                       for row in rows))


def test_default_induced_grid_size_checked_before_stepping(tmp_path, capsys):
    # n = 5 gives a 4-D chart, whose default grid has 40^4 = 2.56e6 samples
    path = tmp_path / "map.txt"
    _singular_left_map_file(path, 5, seed=3)
    with mock.patch.object(cli, "attractor") as attractor, \
            mock.patch.object(cli, "sample_induced") as sampler:
        code = main(["induced", "--matrix-file", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: grid has {40**4} samples, more than the limit {cli.MAX_GRID_SAMPLES}\n"
    attractor.assert_not_called()
    sampler.assert_not_called()


@pytest.mark.parametrize("grid", ["nan:1:5", "0:inf:5", "-inf:0:5"])
def test_grid_bounds_must_be_finite(capsys, grid):
    for command, spec in (("induced", FLAT), ("restrict", ANCHOR)):
        assert main([command, *spec, f"--grid={grid}"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "finite" in err


def test_seed_option_removed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", *ANCHOR, "--seed", "1"])
    assert exc.value.code == 2


def test_induced_not_singular():
    assert main(["induced", "--dim", "2", "--tl", "1.3", "--dl", "0.08",
                 "--tr", "-1.4", "--dr", "1.5"]) == 4


def test_scan_csv(tmp_path):
    out = tmp_path / "scan.csv"
    code = main(["scan", *ANCHOR, "--param", "tl", "--values", "2.0,2.2,2.4",
                 "--out", str(out)])
    assert code == 0
    rows = read_csv(out)
    assert rows[0] == ["value", "cloud_size", "escaped", "min_x1", "min_x2",
                       "max_x1", "max_x2", "plane_dist_max", "hausdorff_prev",
                       "error"]
    assert len(rows) == 4
    assert [r[0] for r in rows[1:]] == ["2.0", "2.2", "2.4"]
    assert all(r[1] == "3000" for r in rows[1:])
    assert rows[1][8] == "nan"
    assert float(rows[2][8]) > 0.0
    assert float(rows[2][7]) <= 1e-8


def test_scan_escaping_values(tmp_path):
    out = tmp_path / "scan.csv"
    code = main(["scan", "--dim", "2", "--tl", "3.0", "--dl", "-4.0",
                 "--tr", "3.0", "--dr", "-4.0", "--param", "tl",
                 "--values", "3.0,3.1", "--out", str(out)])
    assert code == 0
    rows = read_csv(out)
    assert all(r[2] == "True" for r in rows[1:])
    assert all(r[1] == "0" for r in rows[1:])


def test_scan_every_orbit_failed(tmp_path, capsys):
    # without an escape radius every orbit of this family overflows
    out = tmp_path / "scan.csv"
    code = main(["scan", "--dim", "2", "--tl", "3.0", "--dl", "-4.0",
                 "--tr", "3.0", "--dr", "-4.0", "--param", "tl",
                 "--values", "3.0,3.1", "--escape-radius=inf", "--out", str(out)])
    assert code == 3
    assert not out.exists()
    assert capsys.readouterr().err == (
        "error: the orbit failed at every value, "
        "first with NonFinite: orbit iterate 256 is not finite\n")


def test_scan_repeated_values(tmp_path):
    # One row per value, in order; a repeated value repeats its row except
    # for the distance to the previous cloud, which is 0 between equal ones.
    out = tmp_path / "scan.csv"
    code = main(["scan", *ANCHOR, "--param", "tl", "--values", "2.2,2.1,2.2,2.2",
                 "--transient", "200", "--keep", "300", "--out", str(out)])
    assert code == 0
    rows = read_csv(out)[1:]
    assert [r[0] for r in rows] == ["2.2", "2.1", "2.2", "2.2"]
    drop_prev = [r[:8] + r[9:] for r in rows]
    assert drop_prev[0] == drop_prev[2] == drop_prev[3]
    assert drop_prev[0] != drop_prev[1]
    assert float(rows[3][8]) == 0.0
    assert float(rows[2][8]) == float(rows[1][8]) > 0.0


def test_scan_requires_values():
    assert main(["scan", *ANCHOR, "--param", "tl", "--values", ""]) == 2
    assert main(["scan", *ANCHOR, "--param", "tl"]) == 2
    assert main(["scan", *ANCHOR, "--values", "2.0"]) == 2


def test_scan_needs_normal_form(tmp_path):
    path = tmp_path / "map.txt"
    path.write_text("2\n1 0\n0 1\n1 0\n0 1\n1 0\n1 0\n")
    assert main(["scan", "--matrix-file", str(path), "--param", "tl",
                 "--values", "1.0"]) == 2


# One-dimensional maps: singular left piece, identical pieces (every
# eigenvalue shared), and an expanding map whose orbit escapes.
ONE_D_MAPS = {
    "singular": "1\n0.0\n-1.5\n1.0\n1.0\n",
    "identical": "1\n0.5\n0.5\n1.0\n1.0\n",
    "expanding": "1\n2.0\n-3.0\n1.0\n1.0\n",
}


@pytest.mark.parametrize("command",
                         ["analyze", "orbit", "portrait", "restrict", "induced", "scan"])
@pytest.mark.parametrize("name", sorted(ONE_D_MAPS))
def test_one_dimensional_matrix_file(tmp_path, capsys, name, command):
    path = tmp_path / "map.txt"
    path.write_text(ONE_D_MAPS[name])
    sweep = ["--param", "tl", "--values", "1.0"] if command == "scan" else []
    code = main([command, "--matrix-file", str(path), *sweep,
                 "--out", str(tmp_path / "out.txt")])
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err
    assert len(err.splitlines()) == (code != 0)


def test_one_dimensional_orbit_default_start(tmp_path):
    path = tmp_path / "map.txt"
    path.write_text(ONE_D_MAPS["singular"])
    out = tmp_path / "orbit.csv"
    assert main(["orbit", "--matrix-file", str(path), "--transient", "1",
                 "--keep", "1", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert rows[:2] == [["k", "x1", "symbol"], ["0", "1.001", "R"]]
    assert len(rows) == 3


SRC = Path(__file__).resolve().parents[1] / "src"

LAZY_IMPORT_PROBE = """
import runpy, sys

def run(*argv):
    sys.argv = ["pwldyn", *argv]
    try:
        runpy.run_module("pwldyn", run_name="__main__")
    except SystemExit as exc:
        print(exc.code)
    print("scipy" in sys.modules)

import pwldyn
print("scipy" in sys.modules)
run("analyze", *ANCHOR, "--out", OUT + ".json")
run("orbit", *ANCHOR, "--transient", "10", "--keep", "10", "--out", OUT + "-orbit.csv")
run("portrait", *ANCHOR, "--keep", "10", "--out", OUT + "-portrait.csv")
run("restrict", *ANCHOR, "--grid=-1:1:8", "--out", OUT + "-restrict.json")
run("induced", *FLAT, "--grid=-1:1:8", "--out", OUT + "-induced.csv")
run("scan", *ANCHOR, "--param", "tl", "--values", "2.1,2.2", "--transient", "100",
    "--keep", "200", "--out", OUT + ".csv")
"""


def test_no_subcommand_imports_scipy(tmp_path):
    # No subcommand imports SciPy, not even scan, whose Hausdorff distances
    # are computed in NumPy.
    out = str(tmp_path / "out")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    code = f"ANCHOR = {ANCHOR!r}\nFLAT = {FLAT!r}\nOUT = {out!r}\n" + LAZY_IMPORT_PROBE
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.stderr == ""
    assert proc.stdout.split() == ["False"] + ["0", "False"] * 6
    rows = read_csv(out + ".csv")
    assert len(rows) == 3
    assert float(rows[2][8]) > 0.0


def _limit_address_space():
    # this child only: room for the interpreter and NumPy, not for the orbit
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.skipif(resource is None, reason="needs the resource module")
@pytest.mark.parametrize("argv", [
    # a 14.9 GiB orbit buffer
    ["portrait", *ANCHOR, "--keep", "1000000000"],
    # a 3 GiB orbit buffer for the first value of the scan
    ["scan", *ANCHOR, "--param", "tl", "--values", "1,2", "--keep", "200000000"],
], ids=["portrait", "scan"])
def test_memory_error_is_a_usage_error(tmp_path, argv):
    # the orbit limit rejects these orbits before they allocate, so the
    # child lifts it to reach the allocation that fails
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    script = ("import sys\nfrom pwldyn import cli, pwlmap\n"
              "pwlmap.MAX_ORBIT_FLOATS = 10**12\nsys.exit(cli.main(sys.argv[1:]))\n")
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv, "--out", str(tmp_path / "out.csv")],
        capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=_limit_address_space)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: out of memory")


def test_dump_config_roundtrip(tmp_path):
    cfg = tmp_path / "run.ini"
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["analyze", *ANCHOR, "--dump-config", str(cfg),
                 "--out", str(out1)]) == 0
    assert cfg.exists()
    assert main(["analyze", "--config", str(cfg), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_config_inline_override(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    assert main(["analyze", *ANCHOR, "--dump-config", str(cfg),
                 "--out", str(tmp_path / "x.json")]) == 0
    code, report = run_json(capsys, ["analyze", "--config", str(cfg),
                                     "--tl", "1.5"])
    assert code == 0
    assert report["map"]["A_L"][0][0] == 1.5
    assert report["shared_eigenvalue"] is None


def test_config_malformed(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("this is not an ini file\n")
    assert main(["analyze", "--config", str(cfg)]) == 2


def test_out_files_atomic(tmp_path):
    # Output lands under the final name even when it already exists.
    out = tmp_path / "orbit.csv"
    out.write_text("stale")
    assert main(["orbit", *ANCHOR, "--transient", "2", "--keep", "2",
                 "--out", str(out)]) == 0
    rows = read_csv(out)
    assert rows[0][0] == "k"
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".pwldyn-")]
    assert leftovers == []


@pytest.mark.parametrize("flag", ["--out", "--dump-config"])
def test_written_files_get_the_mode_open_gives(tmp_path, capsys, flag):
    # A new file gets 0o666 less the umask and an existing one keeps its
    # mode, as ``open(path, "w")`` leaves them; not mkstemp's 0o600.
    new, old = tmp_path / "new", tmp_path / "old"
    old.write_text("stale")
    old.chmod(0o640)
    umask = os.umask(0o022)
    try:
        for path in (new, old):
            assert main(["analyze", *ANCHOR, flag, str(path)]) == 0
    finally:
        os.umask(umask)
    assert stat.S_IMODE(new.stat().st_mode) == 0o644
    assert stat.S_IMODE(old.stat().st_mode) == 0o640
    assert old.read_text() == new.read_text() != "stale"


@pytest.mark.parametrize("flag", ["--out", "--dump-config"])
def test_written_files_go_through_a_symlink(tmp_path, flag):
    # As ``open(link, "w")`` writes: the link stays a link and its target
    # takes the output with its own mode; a dangling link creates its target.
    target, link = tmp_path / "target", tmp_path / "link"
    target.write_text("stale")
    target.chmod(0o640)
    link.symlink_to("target")
    (tmp_path / "dangling").symlink_to("fresh")
    umask = os.umask(0o022)
    try:
        for path in (link, tmp_path / "dangling", tmp_path / "plain"):
            assert main(["analyze", *ANCHOR, flag, str(path)]) == 0
    finally:
        os.umask(umask)
    assert link.is_symlink() and (tmp_path / "dangling").is_symlink()
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    assert stat.S_IMODE((tmp_path / "fresh").stat().st_mode) == 0o644
    plain = (tmp_path / "plain").read_text()
    assert target.read_text() == (tmp_path / "fresh").read_text() == plain != "stale"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "dangling", "fresh", "link", "plain", "target"]


@pytest.mark.parametrize("flag", ["--out", "--dump-config"])
@pytest.mark.parametrize("target, reason", [
    ("missing/a.json", "No such file or directory"),
    ("directory", "Is a directory"),
])
def test_write_error_names_the_given_path(tmp_path, capsys, flag, target, reason):
    (tmp_path / "directory").mkdir()
    path = str(tmp_path / target)
    errors = []
    for _ in range(2):
        assert main(["analyze", *ANCHOR, flag, path]) == 2
        errors.append(capsys.readouterr().err)
    assert errors == [f"error: cannot write {path}: {reason}\n"] * 2
    assert [p.name for p in tmp_path.iterdir()] == ["directory"]
    assert list((tmp_path / "directory").iterdir()) == []
