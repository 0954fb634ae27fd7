"""Reference maps in rotated coordinates: verdict changes pinned.

Each map is ``Q A Q^T, Q b, Q c`` for a reference map and a seeded
orthogonal ``Q``, a product of Givens rotations with uniform angles and a
sign flip of its first row half the time.  In exact arithmetic the rotated
map has the same spectra, the same shared eigenvalue, the same planes
(rotated) and the same fixed-point sides, so every verdict ``analyze``
gives must equal the unrotated map's.  The maps are built with Python float
products in a fixed order, not with ``@``, so that the counts do not depend
on the BLAS kernel.

A change is a difference in any verdict class: continuity, the shared value
(beyond ``VALUE_RTOL``) and its transversality or the error class,
the zero plane or its error class, each piece's fixed-point flags, and the
unit-modulus kinds.  Every non-zero count below would be a known defect:
each decision must not change under an orthogonal change of coordinates.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import FLAT_LEFT_2D, FLAT_LEFT_3D, SHARED_2D, shared_3d_params
from pwldyn import AffineHyperplane, PwlMap, SharedEigReduction, analyze, bcnf

MAPS_PER_REFERENCE = 25
VALUE_RTOL = 1e-9

REFERENCES = {
    "shared_2d": SHARED_2D,
    "shared_3d": shared_3d_params(),
    "flat_left_2d": FLAT_LEFT_2D,
    "flat_left_3d": FLAT_LEFT_3D,
}

# Rotated maps, of MAPS_PER_REFERENCE, whose verdicts differ from the
# unrotated reference map's.
ROTATION_CHANGES = {"shared_2d": 0, "shared_3d": 0, "flat_left_2d": 0, "flat_left_3d": 0}


def _dot(x: list[float], y: list[float]) -> float:
    total = 0.0
    for a, b in zip(x, y):
        total += a * b
    return total


def orthogonal(rng: np.random.Generator, n: int) -> list[list[float]]:
    """Rows of a product of Givens rotations, one per pair of axes, with a
    sign flip of the first row half the time."""
    Q = np.eye(n).tolist()
    for i in range(n):
        for j in range(i + 1, n):
            theta = rng.uniform(0.0, 2.0 * math.pi)
            cos, sin = math.cos(theta), math.sin(theta)
            Q[i], Q[j] = ([cos * a - sin * b for a, b in zip(Q[i], Q[j])],
                          [sin * a + cos * b for a, b in zip(Q[i], Q[j])])
    if rng.random() < 0.5:
        Q[0] = [-x for x in Q[0]]
    return Q


def rotated(pwl: PwlMap, Q: list[list[float]]) -> PwlMap:
    """``Q A Q^T, Q b, Q c`` for each piece ``A`` of ``pwl``, on Python floats."""
    def conjugate(A: np.ndarray) -> list[list[float]]:
        AQt = [[_dot(row, q) for q in Q] for row in A.tolist()]
        cols = [[row[j] for row in AQt] for j in range(len(Q))]
        return [[_dot(q, col) for col in cols] for q in Q]

    return PwlMap(conjugate(pwl.A_L), conjugate(pwl.A_R),
                  [_dot(q, pwl.b.tolist()) for q in Q], [_dot(q, pwl.c.tolist()) for q in Q])


def _error_class(record: str) -> str:
    return record.split(":", 1)[0]


def verdicts(pwl: PwlMap) -> tuple:
    """Every verdict class of ``analyze(pwl)``; the shared value last."""
    report = analyze(pwl)
    value = None
    if isinstance(report.shared, SharedEigReduction):
        shared = ("transversal", report.shared.transversal)
        value = report.shared.value
    else:
        shared = report.shared and _error_class(report.shared)
    zero = report.zero_plane
    zero = "plane" if isinstance(zero, AffineHyperplane) else zero and _error_class(zero)
    fixed = tuple((f.point is None, f.reason, f.admissible, f.borderline)
                  for f in (report.fixed_points.left, report.fixed_points.right))
    unit = sorted((u.side, u.kind, u.resonant) for u in report.unit_modulus)
    return isinstance(report.p, str), shared, zero, fixed, unit, value


def _same(got: tuple, want: tuple) -> bool:
    if got[:-1] != want[:-1]:
        return False
    if got[-1] is None or want[-1] is None:
        return got[-1] is want[-1]
    return math.isclose(got[-1], want[-1], rel_tol=VALUE_RTOL)


def rotation_changes(name: str) -> int:
    pwl = bcnf(REFERENCES[name])
    want = verdicts(pwl)
    rng = np.random.default_rng(7)
    return sum(not _same(verdicts(rotated(pwl, orthogonal(rng, pwl.n))), want)
               for _ in range(MAPS_PER_REFERENCE))


@pytest.mark.parametrize("name", sorted(REFERENCES))
def test_rotation_changes_are_pinned(name):
    assert rotation_changes(name) == ROTATION_CHANGES[name]


def test_the_references_have_their_verdicts():
    # each family rotates a map whose verdicts are the ones its name says
    got = {name: verdicts(bcnf(params)) for name, params in REFERENCES.items()}
    for name in ("shared_2d", "shared_3d"):
        assert got[name][1] == ("transversal", True)
    for name in ("flat_left_2d", "flat_left_3d"):
        assert got[name][2] == "plane"


def test_orthogonal_is_orthogonal():
    rng = np.random.default_rng(7)
    for n in (2, 3):
        Q = np.array(orthogonal(rng, n))
        assert np.allclose(Q @ Q.T, np.eye(n), atol=1e-15)


def test_a_verdict_change_is_counted():
    # the same pieces with the switching normal negated: both fixed points
    # change sides, and the comparison sees it
    pwl = bcnf(SHARED_2D)
    turned = PwlMap(pwl.A_L, pwl.A_R, pwl.b, -pwl.c)
    assert not _same(verdicts(turned), verdicts(pwl))
