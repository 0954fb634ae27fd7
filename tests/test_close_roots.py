"""Planted shared eigenvalues next to a close simple root: miss counts pinned.

Each map has ``A_R = S diag(-0.5, -0.5 + gap, r...) S^-1`` with the other
roots ``r`` drawn from U(0.3, 0.9), and ``A_L = A_R - p c^T`` with ``p``
orthogonal, in exact arithmetic, to the left eigenvector of -0.5: so -0.5 is
shared by construction, up to one rounding of the inputs.  The maps are built
with Python float products in a fixed order, not with ``@``, so that the
counts do not depend on the BLAS kernel.

A miss is no reduction, a reduction whose value is more than 1.5e-9 from
-0.5, or a PwldynError.  Every non-zero count below is a known defect of
``detect_shared_eigenvalue``: next to a root ``gap`` away, the closed-form
root is off by about eps / gap, and the adjugate's vectors at it by about
that over ``gap`` again, which fails the 1e-9 tolerance.  A change that
mends the decision near a close root lowers these pins in the same commit.
"""
from __future__ import annotations

import numpy as np
import pytest

from pwldyn import PwldynError, PwlMap, detect_shared_eigenvalue

PLANTED = -0.5
MAPS_PER_CELL = 25
GAPS = (1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9)

# Known defect, per dimension and gap: planted shared values missed next to a
# close root, of MAPS_PER_CELL maps.
CLOSE_ROOT_MISSES = {
    2: {1e-3: 0, 1e-4: 2, 1e-5: 23, 1e-6: 25, 1e-7: 25, 1e-8: 25, 1e-9: 25},
    3: {1e-3: 0, 1e-4: 2, 1e-5: 25, 1e-6: 25, 1e-7: 25, 1e-8: 25, 1e-9: 25},
}


def _det(m: list[list[float]]) -> float:
    if len(m) == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def _inverse(m: list[list[float]]) -> list[list[float]]:
    """Adjugate over determinant, for n = 2 and 3."""
    n = len(m)
    d = _det(m)
    if n == 2:
        return [[m[1][1] / d, -m[0][1] / d], [-m[1][0] / d, m[0][0] / d]]
    inv = [[0.0] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            rows = [r for r in range(3) if r != j]
            cols = [c for c in range(3) if c != i]
            minor = (m[rows[0]][cols[0]] * m[rows[1]][cols[1]]
                     - m[rows[0]][cols[1]] * m[rows[1]][cols[0]])
            inv[i][j] = (-1.0) ** (i + j) * minor / d
    return inv


def _frobenius(m: list[list[float]]) -> float:
    return sum(x * x for row in m for x in row) ** 0.5


def _dot(x: list[float], y: list[float]) -> float:
    total = 0.0
    for a, b in zip(x, y):
        total += a * b
    return total


def planted_map(rng: np.random.Generator, n: int, gap: float) -> PwlMap:
    """One map of the family, from ``rng``."""
    roots = [PLANTED, PLANTED + gap] + rng.uniform(0.3, 0.9, n - 2).tolist()
    while True:  # cond_2(S) <= ||S||_F ||S^-1||_F < 5
        S = (np.eye(n) + 0.3 * rng.standard_normal((n, n))).tolist()
        if abs(_det(S)) > 1e-3:
            S_inv = _inverse(S)
            if _frobenius(S) * _frobenius(S_inv) < 5.0:
                break
    scaled = [[S[i][k] * roots[k] for k in range(n)] for i in range(n)]
    cols = [[row[j] for row in S_inv] for j in range(n)]
    a_r = [[_dot(scaled[i], cols[j]) for j in range(n)] for i in range(n)]
    # p = S p_t with p_t[0] = 0: orthogonal to row 0 of S^-1, the left
    # eigenvector of the planted root
    p_t = [0.0] + rng.uniform(0.3, 1.5, n - 1).tolist()
    p = [_dot(S[i], p_t) for i in range(n)]
    c = rng.standard_normal(n).tolist()
    b = rng.standard_normal(n).tolist()
    a_l = [[a_r[i][j] - p[i] * c[j] for j in range(n)] for i in range(n)]
    return PwlMap(a_l, a_r, b, c)


def _missed(pwl: PwlMap) -> bool:
    try:
        red = detect_shared_eigenvalue(pwl)
    except PwldynError:
        return True
    return red is None or abs(red.value - PLANTED) > 1.5e-9


def close_root_misses(n: int, gap: float) -> int:
    rng = np.random.default_rng([n, GAPS.index(gap)])
    return sum(_missed(planted_map(rng, n, gap)) for _ in range(MAPS_PER_CELL))


@pytest.mark.parametrize("gap", GAPS)
@pytest.mark.parametrize("n", [2, 3])
def test_close_root_misses_are_pinned(n, gap):
    assert close_root_misses(n, gap) == CLOSE_ROOT_MISSES[n][gap]


def test_the_family_plants_a_shared_root():
    # far from the other roots the planted value is found in every map
    for n in (2, 3):
        rng = np.random.default_rng([n, 99])
        for _ in range(MAPS_PER_CELL):
            assert not _missed(planted_map(rng, n, 0.5))
