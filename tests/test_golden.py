"""``pwldyn`` output of every subcommand, byte for byte.

The files under ``golden/`` hold the JSON that ``pwldyn analyze`` wrote for
five reference maps before the spectrum memo of ``linalg.real_eigen``, the
CSV and JSON that ``pwldyn induced`` wrote for the two singular-left normal
forms before the induced sampler returned columns, and the output of
``orbit``, ``portrait``, ``restrict`` and ``scan`` on the reference maps
from before the package stated its public names once, so a change that
moves any printed digit fails here.  ``analyze_shared_3d.json``,
``analyze_matrix_3d.json`` and ``restrict_shared_3d.csv`` were written again
when every inner product came to take the step's in-order sum.  No output
here depends on the BLAS kernel (``test_blas_kernels.py`` runs this file
under each); another C library may still round a last digit of ``cos``.
"""
from __future__ import annotations

from pathlib import Path

import pytest

from pwldyn.cli import COMMANDS, build_parser, main, resolve_config

from conftest import (
    FLAT_LEFT_2D,
    FLAT_LEFT_3D,
    MATRIX_3D,
    SHARED_2D,
    bcnf_argv,
    shared_3d_params,
)

GOLDEN = Path(__file__).parent / "golden"


def _assert_golden(argv: list[str], name: str, tmp_path: Path, capsys) -> None:
    """``main`` writes the golden file's bytes to ``--out``, and the
    subcommand's ``run`` returns its text and prints nothing."""
    golden = (GOLDEN / name).read_bytes()
    out = tmp_path / name
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == golden
    command = argv[0]
    text = COMMANDS[command].run(resolve_config(build_parser().parse_args(argv), command))
    assert text == golden.decode("utf-8")
    assert capsys.readouterr() == ("", "")


def _argv(name: str, tmp_path: Path) -> list[str]:
    if name == "matrix_3d":
        path = tmp_path / "map.txt"
        path.write_text(MATRIX_3D)
        return ["--matrix-file", str(path)]
    params = {"shared_2d": SHARED_2D, "shared_3d": shared_3d_params(),
              "flat_left_2d": FLAT_LEFT_2D, "flat_left_3d": FLAT_LEFT_3D}[name]
    return bcnf_argv(params)


@pytest.mark.parametrize("name", ["shared_2d", "shared_3d", "flat_left_2d", "flat_left_3d",
                                  "matrix_3d"])
def test_analyze_bytes_match_golden(tmp_path, capsys, name):
    _assert_golden(["analyze", *_argv(name, tmp_path)], f"analyze_{name}.json", tmp_path, capsys)


# The default grid of a short attractor in a 1-D chart, and explicit grids
# with a small escape radius, so rows without a return are pinned too.
INDUCED = {
    "flat_left_2d.csv": (FLAT_LEFT_2D, ["--transient", "100", "--keep", "300"]),
    "flat_left_2d.json": (FLAT_LEFT_2D, ["--grid=-5:2:25", "--escape-radius", "3",
                                         "--format", "json"]),
    "flat_left_3d.csv": (FLAT_LEFT_3D, ["--grid=3.5:14.5:14,-0.5:14.5:14",
                                        "--escape-radius", "20"]),
    "flat_left_3d.json": (FLAT_LEFT_3D, ["--grid=0:12:5,0:12:5", "--escape-radius", "15",
                                         "--format", "json"]),
}


@pytest.mark.parametrize("name", sorted(INDUCED))
def test_induced_bytes_match_golden(tmp_path, capsys, name):
    params, options = INDUCED[name]
    _assert_golden(["induced", *bcnf_argv(params), *options], f"induced_{name}", tmp_path, capsys)


SHORT = ["--transient", "100", "--keep", "100"]
MAPS = {"shared_2d": SHARED_2D, "shared_3d": shared_3d_params(),
        "flat_left_2d": FLAT_LEFT_2D, "flat_left_3d": FLAT_LEFT_3D}

# Short orbits of every reference map; an explicit start, a cobweb on the
# default grid (CSV) and on an explicit one (JSON); scans through the shared
# value, an escape after some kept points and one in the transient (CSV), and
# through orbits that overflow to NaN under an infinite escape radius (JSON).
ORBITS = {
    **{f"{cmd}_{name}.csv": (cmd, MAPS[name], SHORT)
       for cmd in ("orbit", "portrait") for name in MAPS},
    "portrait_flat_left_3d_x0.csv": ("portrait", FLAT_LEFT_3D, [*SHORT, "--x0", "0.1,0.2,-0.1"]),
    "restrict_shared_2d.csv": ("restrict", SHARED_2D, [*SHORT, "--format", "csv"]),
    "restrict_shared_2d.json": ("restrict", SHARED_2D, [*SHORT, "--x0", "0.3,-0.2",
                                                        "--grid=-1:1.5:11"]),
    "restrict_shared_3d.csv": ("restrict", MAPS["shared_3d"], [*SHORT, "--format", "csv"]),
    "scan_shared_2d.csv": ("scan", SHARED_2D, [*SHORT, "--param", "tl",
                                               "--values=2.2,2.0,3.5,-3",
                                               "--escape-radius", "1e20"]),
    "scan_flat_left_3d.json": ("scan", FLAT_LEFT_3D, [*SHORT, "--param", "dr",
                                                      "--values=0,1,1e10,0.5",
                                                      "--escape-radius", "inf",
                                                      "--x0", "0.1,0.2,-0.1",
                                                      "--format", "json"]),
}


@pytest.mark.parametrize("name", sorted(ORBITS))
def test_orbit_commands_bytes_match_golden(tmp_path, capsys, name):
    command, params, options = ORBITS[name]
    _assert_golden([command, *bcnf_argv(params), *options], name, tmp_path, capsys)
