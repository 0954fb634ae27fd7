"""Singular left pieces at every scale: the verdicts of ``zero_eig_reduction`` pinned.

Scaling both pieces by ``s`` scales every eigenvalue by ``s``: a simple
zero stays simple, a regular piece regular and distinct roots apart, so the
verdict is the same at every scale, up to a fixed point that leaves when 1
enters the spectrum.  Four families, each with its verdict fixed by
construction:

- ``FLAT_LEFT_2D`` and ``FLAT_LEFT_3D`` with both pieces times ``2^k``,
  ``k = -60..60``, ``b`` and ``c`` unchanged: a plane at every ``k``.
- ``A_L = diag(s, 2 s)``, ``A_R = A_L + 0.3 e1 e1^T``, ``b = (1, 0.5)``,
  ``c = e1``, ``s = 2^k`` for ``k = -40..40``: a regular piece,
  NotSingular at every ``k``.
- The same with ``A_L = diag(s, 1e-15 s)``, whose smaller eigenvalue is
  ``1e-15`` of the larger: singular to within ``tol`` at every scale, so a
  plane at every ``k`` but ``k = 0``, where 1 is in its spectrum and it has
  no fixed point (NoFixedPoint).

Each map is scaled by a power of two, which is exact, and built without
``@``.  Every count of an outcome other than the planted one is a known
defect: the decisions of a singular piece use absolute thresholds.

- NoFixedPoint of the ``FLAT_LEFT`` maps above ``k = 39``: the solve of
  ``I - A_L`` takes a pivot below ``PIVOT_RTOL`` times its largest entry
  as 1 in the spectrum.
- NotSingular and MultipleZero below ``k = -26``: ``real_eigen`` merges
  roots within ``CLUSTER_RTOL (1 + ||A||_F)``, absolute below
  ``||A||_F = 1``; the merged root is NotSingular while its mean exceeds
  ``tol``, and a multiple zero below that.
- NotSingular of ``diag(s, 1e-15 s)`` above ``k = 19``: the zero
  eigenvalue's test ``|lambda| <= tol`` is absolute, and ``1e-15 2^20``
  exceeds ``tol``.

A change that makes one of these decisions scale-relative lowers its counts
in the same commit.
"""
from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from conftest import FLAT_LEFT_2D, FLAT_LEFT_3D
from pwldyn import PwldynError, PwlMap, bcnf, zero_eig_reduction

PLANE = "plane"

# Known defects: the outcome counts of each family, the planted verdict
# first.
SCALED_OUTCOMES = {
    "flat_left_2d": {PLANE: 66, "NoFixedPoint": 21, "NotSingular": 3, "MultipleZero": 31},
    "flat_left_3d": {PLANE: 66, "NoFixedPoint": 21, "NotSingular": 2, "MultipleZero": 32},
    "diag_regular": {"NotSingular": 71, "MultipleZero": 10},
    "diag_singular": {PLANE: 45, "NoFixedPoint": 1, "NotSingular": 23, "MultipleZero": 12},
}


def outcome(pwl: PwlMap) -> str:
    """``PLANE``, or the class of the error ``zero_eig_reduction`` raises."""
    try:
        zero_eig_reduction(pwl)
    except PwldynError as exc:
        return type(exc).__name__
    return PLANE


def _flat_left(params, k: int) -> PwlMap:
    pwl = bcnf(params)
    return PwlMap(np.ldexp(pwl.A_L, k), np.ldexp(pwl.A_R, k), pwl.b, pwl.c)


def _diagonal(second: float, k: int) -> PwlMap:
    s = 2.0 ** k
    a_l = [[s, 0.0], [0.0, second * s]]
    a_r = [[s + 0.3, 0.0], [0.0, second * s]]
    return PwlMap(a_l, a_r, [1.0, 0.5], [1.0, 0.0])


FAMILIES = {
    "flat_left_2d": (range(-60, 61), lambda k: _flat_left(FLAT_LEFT_2D, k)),
    "flat_left_3d": (range(-60, 61), lambda k: _flat_left(FLAT_LEFT_3D, k)),
    "diag_regular": (range(-40, 41), lambda k: _diagonal(2.0, k)),
    "diag_singular": (range(-40, 41), lambda k: _diagonal(1e-15, k)),
}


def outcomes(name: str) -> dict[int, str]:
    ks, build = FAMILIES[name]
    return {k: outcome(build(k)) for k in ks}


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_scaled_outcomes_are_pinned(name):
    assert Counter(outcomes(name).values()) == SCALED_OUTCOMES[name]


def planted(name: str, k: int) -> str:
    """The verdict that the family ``name`` has by construction at ``2^k``."""
    if name == "diag_regular":
        return "NotSingular"
    return "NoFixedPoint" if name == "diag_singular" and k == 0 else PLANE


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_the_family_plants_its_verdict_near_unit_scale(name):
    # within 2^9 of unit scale no threshold is in play, and every planted
    # verdict holds
    got = outcomes(name)
    assert all(got[k] == planted(name, k) for k in range(-9, 10))
