"""Eigenvalues planted next to the unit circle: outcome counts pinned.

Each map has ``A_R = S D S^-1`` with ``D`` holding the planted value and, in
3-D, one more real root drawn from U(0.3, 0.6): a real value ``+-(1 + s
delta)``, or a complex pair ``rho exp(+-i theta)`` with ``rho = 1 + s delta``
as the rotation block ``[[rho cos, -rho sin], [rho sin, rho cos]]``, for the
resonant angles ``theta = 2 pi / 3`` and ``pi / 2`` and ``s = +-1``.  ``A_L =
A_R - p c^T`` keeps the map continuous.  The maps are built with Python
float products in a fixed order, as in ``test_close_roots.py``, so that the
counts do not depend on the BLAS kernel.

A map counts as found when ``classify_unit_modulus`` reports the planted
value on the right piece with the planted kind: "SN" at +1, "PD" at -1, and
"NS" marked resonant for a pair.  At the default tolerance 1e-9 every
planted value with ``delta < 1e-9`` should be found and none with ``delta >
1e-9``; at ``delta = 1e-9`` rounding decides.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from pwldyn import PwlMap, classify_unit_modulus

from test_close_roots import _det, _dot, _frobenius, _inverse

MAPS_PER_CELL = 10
DELTAS = (1e-3, 1e-6, 1e-8, 1e-9, 1e-10, 1e-11, 1e-12)
KINDS = ("SN", "PD", "NS 2pi/3", "NS pi/2")

# Maps found, of MAPS_PER_CELL, per kind and delta, summed over n = 2 and 3
# and the two signs of delta: 40 is every map.
FOUND = {
    "SN": {1e-3: 0, 1e-6: 0, 1e-8: 0, 1e-9: 18, 1e-10: 40, 1e-11: 40, 1e-12: 40},
    "PD": {1e-3: 0, 1e-6: 0, 1e-8: 0, 1e-9: 19, 1e-10: 40, 1e-11: 40, 1e-12: 40},
    "NS 2pi/3": {1e-3: 0, 1e-6: 0, 1e-8: 0, 1e-9: 26, 1e-10: 40, 1e-11: 40, 1e-12: 40},
    "NS pi/2": {1e-3: 0, 1e-6: 0, 1e-8: 0, 1e-9: 17, 1e-10: 40, 1e-11: 40, 1e-12: 40},
}


def _planted_block(kind: str, rho: float) -> list[list[float]]:
    if kind == "SN":
        return [[rho]]
    if kind == "PD":
        return [[-rho]]
    theta = 2.0 * math.pi / 3.0 if kind == "NS 2pi/3" else math.pi / 2.0
    re, im = rho * math.cos(theta), rho * math.sin(theta)
    return [[re, -im], [im, re]]


def planted_map(rng: np.random.Generator, n: int, kind: str, rho: float) -> PwlMap:
    """One map of the family, from ``rng``."""
    block = _planted_block(kind, rho)
    D = [[0.0] * n for _ in range(n)]
    for i, row in enumerate(block):
        D[i][: len(row)] = row
    for i in range(len(block), n):
        D[i][i] = rng.uniform(0.3, 0.6)
    while True:  # cond_2(S) <= ||S||_F ||S^-1||_F < 5
        S = (np.eye(n) + 0.3 * rng.standard_normal((n, n))).tolist()
        if abs(_det(S)) > 1e-3:
            S_inv = _inverse(S)
            if _frobenius(S) * _frobenius(S_inv) < 5.0:
                break
    cols = [[row[j] for row in D] for j in range(n)]
    SD = [[_dot(S[i], cols[j]) for j in range(n)] for i in range(n)]
    inv_cols = [[row[j] for row in S_inv] for j in range(n)]
    a_r = [[_dot(SD[i], inv_cols[j]) for j in range(n)] for i in range(n)]
    p, c, b = (rng.standard_normal(n).tolist() for _ in range(3))
    a_l = [[a_r[i][j] - p[i] * c[j] for j in range(n)] for i in range(n)]
    return PwlMap(a_l, a_r, b, c)


def _found(pwl: PwlMap, kind: str) -> bool:
    want = kind.split()[0]
    return any(r.side == "R" and r.kind == want and (want != "NS" or r.resonant)
               for r in classify_unit_modulus(pwl))


def found_count(kind: str, delta: float) -> int:
    total = 0
    for n in (2, 3):
        for sign in (1.0, -1.0):
            rng = np.random.default_rng([n, KINDS.index(kind), DELTAS.index(delta), sign > 0])
            rho = 1.0 + sign * delta
            total += sum(_found(planted_map(rng, n, kind, rho), kind)
                         for _ in range(MAPS_PER_CELL))
    return total


@pytest.mark.parametrize("delta", DELTAS)
@pytest.mark.parametrize("kind", KINDS)
def test_unit_circle_outcomes_are_pinned(kind, delta):
    assert found_count(kind, delta) == FOUND[kind][delta]
