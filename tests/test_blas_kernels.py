"""The golden bytes of ``test_golden.py`` under every OpenBLAS kernel.

OpenBLAS built with ``DYNAMIC_ARCH`` picks its kernels for the CPU when it
loads, and ``OPENBLAS_CORETYPE`` overrides the pick.  Kernels differ in how
they block, vectorise and fuse the sums of a dot product, so an output that
goes through BLAS can move a last bit from one kernel to the next.  Each
core type below runs ``test_golden.py`` in a child process whose
environment alone names it.  A core type whose instructions this CPU lacks
is skipped, so that no child dies of an illegal instruction, and every one
is skipped unless NumPy's BLAS is OpenBLAS with ``DYNAMIC_ARCH``.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pwldyn

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


@pytest.mark.parametrize("core", sorted(CORE_TYPES))
def test_golden_bytes_under_every_kernel(core):
    if not _dynamic_openblas():
        pytest.skip("NumPy's BLAS is not OpenBLAS with DYNAMIC_ARCH")
    missing = [f for f in CORE_TYPES[core] if not CPU_FEATURES.get(f)]
    if missing:
        pytest.skip(f"this CPU lacks {', '.join(missing)}")
    src = str(Path(pwldyn.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "OPENBLAS_CORETYPE": core,
           "PYTHONPATH": src if not path else os.pathsep.join([src, path])}
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(GOLDEN_TESTS)],
        cwd=GOLDEN_TESTS.parents[1], env=env, capture_output=True, text=True, timeout=600,
    )
    assert child.returncode == 0, child.stdout[-3000:] + child.stderr[-2000:]
