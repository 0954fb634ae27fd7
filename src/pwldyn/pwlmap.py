"""Continuous piecewise-linear maps with a single switching hyperplane.

A map applies ``A_L x + b`` on the open half-space ``c . x < 0`` and
``A_R x + b`` on ``c . x >= 0``; the boundary belongs to the right piece.
Continuity across the boundary is equivalent to ``A_R - A_L`` being a
rank-one update along ``c``, which :func:`validate_continuity` checks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import NonFinite, NotContinuous, SingularMatrix, UnsupportedDimension

__all__ = [
    "ESCAPE_RADIUS",
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

# Default radius beyond which an orbit or excursion counts as escaped.
ESCAPE_RADIUS = 1e12

# Iterates stepped between two escape tests of an orbit.  Transient iterates
# are buffered for one chunk only, so memory stays O(P (n_keep + chunk) n).
_CHUNK = 256


class _Pieces(NamedTuple):
    """Two affine pieces ``x -> A_s x + d_s``; the left one applies where
    ``c . x + c0 < 0``, stored as the threshold ``t = -c0`` of ``c . x < t``.

    The two tests agree exactly in floating point: a sum of two doubles is
    zero only when they cancel, so it has the sign of the exact sum.
    One member holds ``(n, n)``, ``(n,)``, ``(n, n)``, ``(n,)``, ``(n,)`` and
    a float; :func:`_stacked` gives the ``(P, ...)`` form of P members.
    """

    A_L: np.ndarray
    d_L: np.ndarray
    A_R: np.ndarray
    d_R: np.ndarray
    c: np.ndarray
    t: float


def _stacked(members, P: int) -> _Pieces:
    """Pieces of P members as ``(P, n, n)`` matrices, ``(P, n, 1)`` offsets,
    ``(P, 1, n)`` normals and ``(P, 1, 1)`` thresholds; one member is
    broadcast to all P without a copy."""
    n = members[0].d_L.size
    shapes = ((n, n), (n, 1), (n, n), (n, 1), (1, n), (1, 1))
    return _Pieces(*(
        np.broadcast_to(np.reshape([m[i] for m in members], (-1, *shape)), (P, *shape))
        for i, shape in enumerate(shapes)
    ))


def _step(S: _Pieces, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One step of every member: ``X`` is ``(P, n, 1)``, ``S`` stacked.

    Returns the images and the ``(P, 1, 1)`` left-piece mask.  Only stacked
    ``matmul`` is used: it makes the same BLAS call per member as the
    one-point ``A @ x`` and ``c @ x``, so each row is bit-identical to a
    one-point step (``X @ A.T``, ``einsum`` or Python arithmetic are not).
    """
    left = S.c @ X < S.t
    return np.where(left, S.A_L, S.A_R) @ X + np.where(left, S.d_L, S.d_R), left


def _apply(p: _Pieces, x) -> np.ndarray:
    """Image of a point ``(n,)``, or of each row of ``(P, n)``."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        A_L, d_L, A_R, d_R, c, t = p
        return A_L @ x + d_L if c @ x < t else A_R @ x + d_R
    return _step(_stacked([p], x.shape[0]), x[:, :, None])[0][:, :, 0]


def _norms(X: np.ndarray) -> np.ndarray:
    """Euclidean norm of each vector along the last axis, bit-identical to
    ``np.linalg.norm`` of that vector alone."""
    return np.sqrt(np.matmul(X[..., None, :], X[..., :, None]))[..., 0, 0]


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

    @cached_property
    def _pieces(self) -> _Pieces:
        return _Pieces(self.A_L, self.b, self.A_R, self.b, self.c, 0.0)

    def side(self, x) -> str:
        return LEFT if float(self.c @ np.asarray(x, dtype=float)) < 0.0 else RIGHT

    def __call__(self, x) -> np.ndarray:
        """Image of a point, or of each row of a ``(P, n)`` array."""
        return _apply(self._pieces, x)

    def map_points(self, X) -> np.ndarray:
        """Apply the map to each row of ``X`` at once, bit-identical to calling
        it on each row."""
        return _apply(self._pieces, X)


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
    c = pwl.c
    with np.errstate(over="ignore"):
        cc = float(c @ c)
    if np.finfo(float).tiny <= cc < math.inf:
        q = p = dA @ c / cc
    else:  # c . c under- or overflows: fit q = 2^e p to c / 2^e instead
        c, e = linalg._rescaled(c)
        q = dA @ c / float(c @ c)
        with np.errstate(over="ignore"):
            p = np.ldexp(q, -e)
    R = dA - np.outer(q, c)
    with np.errstate(over="ignore"):
        resid, scale = float(np.linalg.norm(R)), float(np.linalg.norm(dA))
    if not math.isfinite(resid + scale):  # past about 1e154: take them on rescaled entries
        resid, scale = linalg._norm(R), linalg._norm(dA)
    if resid > tol * max(1.0, scale):
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


def _orbits(
    members,
    X0,
    n_transient: int,
    n_keep: int,
    escape_radius: float,
    what: str = "orbit",
) -> list[OrbitData | NonFinite]:
    """Orbits of P members in lockstep, member ``i`` from row ``i`` of ``X0``.

    Returns per member its OrbitData, or the NonFinite error that ended it.
    The rule is ``orbit``'s: iterate ``k`` escapes when its norm exceeds
    ``escape_radius`` and is non-finite otherwise when the norm is not
    finite.  It is applied to each chunk of stored iterates after the chunk
    is stepped; a member that stopped steps on as garbage to the end of the
    chunk and nothing past its stop is kept.  One member takes a plain
    one-point step, more members the stacked :func:`_step`.
    """
    if n_transient < 0:
        raise ValueError("n_transient must be non-negative")
    if n_keep < 1:
        raise ValueError("n_keep must be at least 1")
    if not escape_radius > 0.0:
        raise ValueError("escape_radius must be positive")
    P, n = len(members), members[0].d_L.size
    X0 = np.asarray(X0, dtype=float)
    if X0.shape != (P, n):
        raise ValueError(f"x0 must be a vector of length {n}")
    pts = np.empty((P, n_keep, n))
    lefts = np.empty((P, n_keep), dtype=bool)
    transient_buf = np.empty((P, min(n_transient, _CHUNK), n))
    transient_lefts = np.empty(transient_buf.shape[:2], dtype=bool)
    stop = np.full(P, -1)
    escaped = np.zeros(P, dtype=bool)
    if P == 1:
        A_L, d_L, A_R, d_R, c, t = members[0]
        x = X0[0]
    else:
        S = _stacked(members, P)
        x = X0[:, :, None]
    total = n_transient + n_keep
    # Overflow ends in an escape or NonFinite below, not in a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in chain(range(0, n_transient, _CHUNK), range(n_transient, total, _CHUNK)):
            hi = min(lo + _CHUNK, n_transient if lo < n_transient else total)
            if lo < n_transient:
                buf, lbuf = transient_buf[:, : hi - lo], transient_lefts[:, : hi - lo]
            else:
                buf = pts[:, lo - n_transient : hi - n_transient]
                lbuf = lefts[:, lo - n_transient : hi - n_transient]
            if P == 1:
                buf1, lbuf1 = buf[0], lbuf[0]
                for k in range(hi - lo):
                    left = c @ x < t
                    buf1[k] = x
                    lbuf1[k] = left
                    x = A_L @ x + d_L if left else A_R @ x + d_R
            else:
                for k in range(hi - lo):
                    buf[:, k] = x[:, :, 0]
                    x, left = _step(S, x)
                    lbuf[:, k] = left[:, 0, 0]
            r = _norms(buf)
            bad = (r > escape_radius) | ~np.isfinite(r)
            first = bad.argmax(axis=1)
            new = (stop < 0) & bad.any(axis=1)
            stop[new] = lo + first[new]
            escaped[new] = r[new, first[new]] > escape_radius
            if (stop >= 0).all():
                break
    out: list[OrbitData | NonFinite] = []
    for i in range(P):
        k = int(stop[i])
        if k >= 0 and not escaped[i]:
            out.append(NonFinite(f"{what} iterate {k} is not finite"))
            continue
        kept = n_keep if k < 0 else max(0, k - n_transient)
        out.append(OrbitData(
            points=pts[i, :kept],
            itinerary=np.where(lefts[i, :kept], LEFT, RIGHT),
            transient_discarded=n_transient if k < 0 else min(n_transient, k),
            escaped=k >= 0,
            escape_index=None if k < 0 else k,
        ))
    return out


def orbit(
    pwl: PwlMap,
    x0,
    n_transient: int = 1000,
    n_keep: int = 3000,
    escape_radius: float = ESCAPE_RADIUS,
) -> OrbitData:
    """Iterate the map, discard ``n_transient`` points, keep up to ``n_keep``.

    Iteration stops early with ``escaped=True`` as soon as an iterate leaves
    the ball of radius ``escape_radius``; a non-finite iterate that slips past
    that test (NaN only) raises NonFinite.  ``points[k+1]`` is always the
    image of ``points[k]`` and ``itinerary[k]`` records which piece applies
    at ``points[k]``.
    """
    (res,) = _orbits([pwl._pieces], np.asarray(x0, dtype=float)[None],
                     n_transient, n_keep, escape_radius)
    if isinstance(res, NonFinite):
        raise res
    return res


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


def _fixed_point(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Fixed point of ``x -> A x + b``, bit for bit ``linalg.solve(np.eye(n) - A, b)``.

    The rows of ``I - A`` are built on Python floats as NumPy rounds them and
    go to the elimination without a second validation: the piece is finite,
    so ``I - A`` is.  Raises SingularMatrix when 1 is an eigenvalue of ``A``.
    """
    return linalg._solve_rows(linalg._shifted_rows(A.tolist(), 1.0), b.tolist())


def fixed_points(pwl: PwlMap) -> FixedPoints:
    """Fixed points of both pieces with admissibility flags.

    The right piece's fixed point is admissible when ``c . x >= 0``, the
    left piece's when ``c . x < 0``; the flag always reports the runtime
    sign test.  Points within ``BORDERLINE_ATOL`` of the switching plane
    are additionally flagged borderline.
    """
    infos = {}
    for key, A in (("right", pwl.A_R), ("left", pwl.A_L)):
        try:
            pt = _fixed_point(A, pwl.b)
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
