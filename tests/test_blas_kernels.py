"""The golden bytes of ``test_golden.py``, and the verdicts of ``analyze``
above 3x3, under every OpenBLAS kernel.

OpenBLAS built with ``DYNAMIC_ARCH`` picks its kernels for the CPU when it
loads, and ``OPENBLAS_CORETYPE`` overrides the pick.  Kernels differ in how
they block, vectorise and fuse the sums of a dot product, so an output that
goes through BLAS can move a last bit from one kernel to the next.  Each
core type below runs ``test_golden.py``, and this file as a script, in a
child process whose environment alone names it.  LAPACK decides the
spectra above 3x3, so their bytes may differ between kernels, but not the
verdicts drawn from them.  A core type whose instructions this CPU lacks
is skipped, so that no child dies of an illegal instruction, and every one
is skipped unless NumPy's BLAS is OpenBLAS with ``DYNAMIC_ARCH``.
"""
from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pwldyn
from pwldyn import PwlMap, analyze

try:
    from numpy._core._multiarray_umath import __cpu_features__ as CPU_FEATURES
except ImportError:  # NumPy 1.x
    from numpy.core._multiarray_umath import __cpu_features__ as CPU_FEATURES

GOLDEN_TESTS = Path(__file__).with_name("test_golden.py")

# Core type: the NumPy CPU features that its kernels use.
CORE_TYPES = {
    "Prescott": ("SSE3",),
    "Nehalem": ("SSSE3", "SSE41", "SSE42"),
    "Sandybridge": ("AVX",),
    "Haswell": ("AVX2", "FMA3"),
    "Zen": ("AVX2", "FMA3"),
    "SkylakeX": ("AVX512_SKX",),
}


def _dynamic_openblas() -> bool:
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return ("openblas" in str(blas.get("name", "")).lower()
            and "DYNAMIC_ARCH" in str(blas.get("openblas configuration", "")))


def _run_under(core: str, *args: str) -> subprocess.CompletedProcess:
    """Python with ``args`` in a child whose OpenBLAS runs the kernels of
    ``core``, or a skip where they cannot run here."""
    if not _dynamic_openblas():
        pytest.skip("NumPy's BLAS is not OpenBLAS with DYNAMIC_ARCH")
    missing = [f for f in CORE_TYPES[core] if not CPU_FEATURES.get(f)]
    if missing:
        pytest.skip(f"this CPU lacks {', '.join(missing)}")
    src = str(Path(pwldyn.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "OPENBLAS_CORETYPE": core,
           "PYTHONPATH": src if not path else os.pathsep.join([src, path])}
    child = subprocess.run([sys.executable, *args], cwd=GOLDEN_TESTS.parents[1], env=env,
                           capture_output=True, text=True, timeout=600)
    assert child.returncode == 0, child.stdout[-3000:] + child.stderr[-2000:]
    return child


@pytest.mark.parametrize("core", sorted(CORE_TYPES))
def test_golden_bytes_under_every_kernel(core):
    _run_under(core, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(GOLDEN_TESTS))


def _verdict_map(rng, n: int, kind: str) -> PwlMap:
    """A continuous map on R^n with ``A_L = S diag(r) S^-1``, its eigenvalues
    ``r`` at least 0.16 apart and off 0 and the unit circle, and ``A_R = A_L
    + p c^T``.  ``kind`` "shared" takes ``p`` orthogonal to the left
    eigenvector of ``r[0]``, which ``A_R`` then shares; "singular" sets
    ``r[0]`` to 0; "generic" sets it to -1, so that one unit-modulus
    verdict is not empty."""
    grid = np.array([-1.7, -1.5, -1.3, -0.7, -0.5, -0.3, 0.3, 0.5, 0.7, 1.3, 1.5, 1.7])
    r = rng.choice(grid, n, replace=False) + rng.uniform(-0.02, 0.02, n)
    r[0] = {"shared": r[0], "singular": 0.0, "generic": -1.0}[kind]
    while True:
        S = np.eye(n) + 0.3 * rng.standard_normal((n, n))
        if np.linalg.cond(S) <= 20.0:
            break
    S_inv = np.linalg.inv(S)
    p, c = rng.standard_normal(n), rng.standard_normal(n)
    if kind == "shared":
        u = S_inv[0]
        p -= u * (u @ p) / (u @ u)
    A_L = S @ np.diag(r) @ S_inv
    return PwlMap(A_L, A_L + np.outer(p, c), rng.standard_normal(n), c)


VERDICT_MAPS = [(n, kind) for n in (4, 5, 6, 8) for kind in ("shared", "singular", "generic")]


def _outcome(found, value):
    """None, the error type of a recorded error, or ``value(found)``."""
    if found is None:
        return None
    return found.split(":")[0] if isinstance(found, str) else value(found)


def verdicts() -> list:
    """What ``analyze`` decides on each seeded map of ``VERDICT_MAPS``, as
    JSON values: its dimension and kind, continuity, the shared value to 12
    significant digits, the zero-eigenvalue plane's outcome and the sorted
    ``(side, kind)`` of the unit-modulus reports."""
    rng = np.random.default_rng(15)
    out = []
    for n, kind in VERDICT_MAPS:
        report = analyze(_verdict_map(rng, n, kind))
        out.append([n, kind, not isinstance(report.p, str),
                    _outcome(report.shared, lambda s: f"{s.value:.12g}"),
                    _outcome(report.zero_plane, lambda plane: "plane"),
                    sorted([u.side, u.kind] for u in report.unit_modulus)])
    return out


def test_verdict_maps_hold_what_they_plant():
    for _, kind, continuous, shared, zero_plane, unit in verdicts():
        assert continuous
        assert (shared is None) == (kind != "shared")
        assert shared is None or math.isfinite(float(shared))  # a value, not an error type
        assert zero_plane == ("plane" if kind == "singular" else None)
        assert unit == ([["L", "PD"]] if kind == "generic" else [])


@pytest.mark.parametrize("core", sorted(CORE_TYPES))
def test_verdicts_above_3x3_under_every_kernel(core):
    child = _run_under(core, str(Path(__file__).resolve()))
    assert json.loads(child.stdout) == verdicts()


if __name__ == "__main__":
    print(json.dumps(verdicts()))
