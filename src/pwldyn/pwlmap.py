"""Continuous piecewise-linear maps with a single switching hyperplane.

A map applies ``A_L x + b`` on the open half-space ``c . x < 0`` and
``A_R x + b`` on ``c . x >= 0``; the boundary belongs to the right piece.
Continuity across the boundary is equivalent to ``A_R - A_L`` being a
rank-one update along ``c``, which :func:`validate_continuity` checks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import NonFinite, NotContinuous, SingularMatrix, UnsupportedDimension

__all__ = [
    "LEFT",
    "RIGHT",
    "BcnfParams",
    "FixedPointInfo",
    "FixedPoints",
    "OrbitData",
    "PwlMap",
    "bcnf",
    "fixed_points",
    "orbit",
    "validate_continuity",
]

LEFT = "L"
RIGHT = "R"

# A fixed point closer to the switching plane than this is flagged borderline.
BORDERLINE_ATOL = 1e-12


@dataclass(frozen=True)
class PwlMap:
    """Immutable piecewise-linear map ``x -> A_side x + b``."""

    A_L: np.ndarray
    A_R: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        A_L = np.array(self.A_L, dtype=float)
        A_R = np.array(self.A_R, dtype=float)
        b = np.array(self.b, dtype=float)
        c = np.array(self.c, dtype=float)
        if A_L.ndim != 2 or A_L.shape[0] != A_L.shape[1]:
            raise ValueError(f"A_L must be square, got shape {A_L.shape}")
        if A_R.shape != A_L.shape:
            raise ValueError("A_L and A_R must have the same shape")
        n = A_L.shape[0]
        if n < 1:
            raise ValueError("dimension must be at least 1")
        if b.shape != (n,) or c.shape != (n,):
            raise ValueError("b and c must be vectors matching the matrix size")
        for arr in (A_L, A_R, b, c):
            if not np.all(np.isfinite(arr)):
                raise ValueError("map data must be finite")
        if not np.any(c):
            raise ValueError("switching normal c must be nonzero")
        for name, arr in (("A_L", A_L), ("A_R", A_R), ("b", b), ("c", c)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.b.size

    def side(self, x) -> str:
        return LEFT if float(self.c @ np.asarray(x, dtype=float)) < 0.0 else RIGHT

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        A = self.A_L if float(self.c @ x) < 0.0 else self.A_R
        return A @ x + self.b

    def map_points(self, X) -> np.ndarray:
        """Apply the map to each row of ``X`` at once."""
        X = np.asarray(X, dtype=float)
        right = (X @ self.c) >= 0.0
        Y = X @ self.A_L.T
        Y[right] = X[right] @ self.A_R.T
        return Y + self.b


@dataclass(frozen=True)
class BcnfParams:
    """Border-collision normal form coefficients.

    ``tl``/``tr`` are the traces, ``dl``/``dr`` the determinants and, in
    dimension 3, ``sl``/``sr`` the second traces of the two pieces.
    """

    dim: int
    tl: float
    dl: float
    tr: float
    dr: float
    sl: float | None = None
    sr: float | None = None


def bcnf(params: BcnfParams) -> PwlMap:
    """Build the normal-form map for the given coefficients (dimension 2 or 3)."""
    if params.dim == 2:
        if params.sl is not None or params.sr is not None:
            raise ValueError("second traces sl/sr are only meaningful in dimension 3")
        A_L = np.array([[params.tl, 1.0], [-params.dl, 0.0]])
        A_R = np.array([[params.tr, 1.0], [-params.dr, 0.0]])
        e1 = np.array([1.0, 0.0])
    elif params.dim == 3:
        if params.sl is None or params.sr is None:
            raise ValueError("dimension 3 requires the second traces sl and sr")
        A_L = np.array([
            [params.tl, 1.0, 0.0],
            [-params.sl, 0.0, 1.0],
            [params.dl, 0.0, 0.0],
        ])
        A_R = np.array([
            [params.tr, 1.0, 0.0],
            [-params.sr, 0.0, 1.0],
            [params.dr, 0.0, 0.0],
        ])
        e1 = np.array([1.0, 0.0, 0.0])
    else:
        raise UnsupportedDimension(f"normal form exists for dimensions 2 and 3, not {params.dim}")
    return PwlMap(A_L, A_R, e1, e1.copy())


def validate_continuity(pwl: PwlMap, tol: float = 1e-10) -> np.ndarray:
    """Return the rank-one update direction ``p`` with ``A_R - A_L = p c^T``.

    The residual of the factorization must stay below ``tol`` relative to
    ``max(1, ||A_R - A_L||)``, otherwise NotContinuous is raised.
    """
    dA = pwl.A_R - pwl.A_L
    p = dA @ pwl.c / float(pwl.c @ pwl.c)
    resid = float(np.linalg.norm(dA - np.outer(p, pwl.c)))
    scale = max(1.0, float(np.linalg.norm(dA)))
    if resid > tol * scale:
        raise NotContinuous(
            f"A_R - A_L is not a rank-one update along c (residual {resid:.3e})"
        )
    return p


@dataclass(frozen=True)
class OrbitData:
    """Retained orbit samples, one itinerary symbol per point."""

    points: np.ndarray
    itinerary: np.ndarray
    transient_discarded: int
    escaped: bool
    escape_index: int | None = None


def orbit(
    pwl: PwlMap,
    x0,
    n_transient: int = 1000,
    n_keep: int = 3000,
    escape_radius: float = 1e12,
) -> OrbitData:
    """Iterate the map, discard ``n_transient`` points, keep up to ``n_keep``.

    Iteration stops early with ``escaped=True`` as soon as an iterate leaves
    the ball of radius ``escape_radius``; a non-finite iterate that slips past
    that test (NaN only) raises NonFinite.  ``points[k+1]`` is always the
    image of ``points[k]`` and ``itinerary[k]`` records which piece applies
    at ``points[k]``.
    """
    if n_transient < 0:
        raise ValueError("n_transient must be non-negative")
    if n_keep < 1:
        raise ValueError("n_keep must be at least 1")
    if not escape_radius > 0.0:
        raise ValueError("escape_radius must be positive")
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (pwl.n,):
        raise ValueError(f"x0 must be a vector of length {pwl.n}")
    A_L, A_R, b, c = pwl.A_L, pwl.A_R, pwl.b, pwl.c
    pts = np.empty((n_keep, pwl.n))
    lefts = np.empty(n_keep, dtype=bool)
    kept = 0
    escaped = False
    escape_index = None
    total = n_transient + n_keep
    # Overflow is handled below as an escape or NonFinite, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(total):
            r = math.sqrt(x @ x)
            if r > escape_radius:
                escaped = True
                escape_index = k
                break
            if not math.isfinite(r):
                raise NonFinite(f"orbit iterate {k} is not finite")
            left = c @ x < 0.0
            if k >= n_transient:
                pts[kept] = x
                lefts[kept] = left
                kept += 1
            x = (A_L if left else A_R) @ x + b
    discarded = n_transient if not escaped else min(n_transient, escape_index)
    return OrbitData(
        points=pts[:kept].copy(),
        itinerary=np.where(lefts[:kept], LEFT, RIGHT),
        transient_discarded=discarded,
        escaped=escaped,
        escape_index=escape_index,
    )


@dataclass(frozen=True)
class FixedPointInfo:
    """Fixed point of one affine piece; absent when 1 is an eigenvalue."""

    point: np.ndarray | None
    admissible: bool | None
    borderline: bool
    reason: str | None = None


@dataclass(frozen=True)
class FixedPoints:
    right: FixedPointInfo
    left: FixedPointInfo


def fixed_points(pwl: PwlMap) -> FixedPoints:
    """Fixed points of both pieces with admissibility flags.

    The right piece's fixed point is admissible when ``c . x >= 0``, the
    left piece's when ``c . x < 0``; the flag always reports the runtime
    sign test.  Points within ``BORDERLINE_ATOL`` of the switching plane
    are additionally flagged borderline.
    """
    eye = np.eye(pwl.n)
    infos = {}
    for key, A in (("right", pwl.A_R), ("left", pwl.A_L)):
        try:
            pt = linalg.solve(eye - A, pwl.b)
        except SingularMatrix:
            infos[key] = FixedPointInfo(
                point=None,
                admissible=None,
                borderline=False,
                reason="1 is an eigenvalue of the piece matrix",
            )
            continue
        margin = float(pwl.c @ pt)
        admissible = margin >= 0.0 if key == "right" else margin < 0.0
        pt.setflags(write=False)
        infos[key] = FixedPointInfo(
            point=pt,
            admissible=admissible,
            borderline=abs(margin) < BORDERLINE_ATOL,
        )
    return FixedPoints(right=infos["right"], left=infos["left"])
