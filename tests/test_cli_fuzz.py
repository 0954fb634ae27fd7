"""Random continuous map files and degenerate options through ``cli.main``:
every call ends in exit code 0, 2, 3 or 4 with at most one line on standard
error and no traceback.  Warnings are errors here, so a stray RuntimeWarning
fails the test too."""
from __future__ import annotations

import contextlib
import io
import math
import tempfile
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pwldyn import cli, reduction

_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0]),
    st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def _maps(draw):
    """``(n, A_L, A_R, b, c)`` of a continuous map: ``A_R = A_L + p c^T``."""
    n = draw(st.integers(1, 5))

    def vec():
        return np.array(draw(st.lists(_ENTRIES, min_size=n, max_size=n)))

    a_l = vec()[:, None] * vec()[None, :] + np.array(
        draw(st.lists(_ENTRIES, min_size=n * n, max_size=n * n))).reshape(n, n)
    kind = draw(st.sampled_from(["generic", "singular left", "shared", "identical", "scaled"]))
    if kind == "singular left":  # a zero column: the section plane of induced
        a_l[:, draw(st.integers(0, n - 1))] = 0.0
    p, b, c = vec(), vec(), vec()
    if not c.any():
        c[0] = 1.0
    if kind == "shared":  # e_1 is a left eigenvector of both pieces
        a_l[0, 1:] = 0.0
        p[0] = 0.0
    elif kind == "identical":
        p[:] = 0.0
    a_r = a_l + np.outer(p, c)
    if kind == "scaled":
        k = draw(st.sampled_from([-300, -40, 40, 300]))
        a_l, a_r = math.ldexp(1.0, k) * a_l, math.ldexp(1.0, k) * a_r
    return n, a_l, a_r, b, c


def _write_map(path: Path, n, a_l, a_r, b, c) -> None:
    rows = [*a_l, *a_r, b, c]
    path.write_text(f"{n}\n" + "".join(" ".join(repr(float(x)) for x in row) + "\n"
                                       for row in rows))


# Degenerate values of the settings each subcommand reads.
_DEGENERATE = {
    "transient": ["0", "-1"],
    "keep": ["0", "1", "-1"],
    "escape_radius": ["inf", "1e-300", "0", "nan", "-1"],
    "tol": ["1e-300", "1", "0", "nan", "inf"],
    "x0": ["nan", "1e300", "0.1,0.2,0.3,0.4,0.5,0.6"],
    "grid": ["0:0:1", "1:-1:2", "nan:1:2", "-1:1:0", "0:1:2,0:1:2,0:1:2,0:1:2,0:1:2"],
    "values": ["nan", "inf,1e300", "1.0"],
    "param": ["tl", "dr"],
    "format": ["csv", "json"],
}


@st.composite
def _options(draw, command: str, n: int) -> list[str]:
    settings_read = cli.COMMANDS[command].settings
    # short orbits, and a small grid where the default one has 40^(n-1) samples
    argv = ["--transient", "20", "--keep", "40"] if "keep" in settings_read else []
    if command == "induced" and n > 3:
        argv.append("--grid=" + ",".join(["-1:1:3"] * (n - 1)))
    keys = sorted(key for key in _DEGENERATE if key in settings_read)
    for key in draw(st.lists(st.sampled_from(keys), max_size=3, unique=True)):
        argv.append(f"--{key.replace('_', '-')}={draw(st.sampled_from(_DEGENERATE[key]))}")
    return argv


@st.composite
def _calls(draw):
    command = draw(st.sampled_from(sorted(cli.COMMANDS)))
    the_map = draw(_maps())
    return command, the_map, draw(_options(command, the_map[0]))


@settings(max_examples=150, deadline=None)
@given(call=_calls())
def test_cli_ends_in_an_exit_code_and_one_line(call):
    command, the_map, options = call
    err = io.StringIO()
    # the induced sampler gives up on a sample after 200 steps, not 10^6
    sampler = partial(reduction.sample_induced, j_max=200)
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "sample_induced", sampler):
        path = Path(tmp) / "map.txt"
        _write_map(path, *the_map)
        argv = [command, "--matrix-file", str(path), *options, "--out", str(Path(tmp) / "out")]
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # usage errors exit from the parser
                code = exc.code
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    assert len(err.getvalue().splitlines()) <= 1
