"""``pwldyn analyze`` output, byte for byte.

The files under ``golden/`` hold the JSON that ``pwldyn analyze`` wrote for
five reference maps before the spectrum memo of ``linalg.real_eigen``, so a
change that moves any printed digit fails here.  They pin one NumPy build:
another build may round a last digit of ``cos`` or LAPACK differently.
"""
from __future__ import annotations

from pathlib import Path

import pytest

from pwldyn.cli import main

from conftest import FLAT_LEFT_2D, FLAT_LEFT_3D, SHARED_2D, bcnf_argv, shared_3d_params

GOLDEN = Path(__file__).parent / "golden"

# A_L is the defective piece DEFECTIVE_3D of test_linalg, whose double root
# -2 is merged from two simple ones; A_R = A_L + (1.5, -1, 0.5) e1^T has the
# same defective double root, so detection reports a hypothesis violation.
MATRIX_3D = """3
-1 0 0
2 -2 -1.5
-0.5 0 -2
0.5 0 0
1 -2 -1.5
0 0 -2
1 0.5 -0.25
1 0 0
"""


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
def test_analyze_bytes_match_golden(tmp_path, name):
    out = tmp_path / "analyze.json"
    assert main(["analyze", *_argv(name, tmp_path), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"analyze_{name}.json").read_bytes()
