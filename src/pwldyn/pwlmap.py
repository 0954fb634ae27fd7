"""Continuous piecewise-linear maps with a single switching hyperplane.

A map applies ``A_L x + b`` on the open half-space ``c . x < 0`` and
``A_R x + b`` on ``c . x >= 0``; the boundary belongs to the right piece.
Continuity across the boundary is equivalent to ``A_R - A_L`` being a
rank-one update along ``c``, which :func:`validate_continuity` checks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
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

# Largest residual of A_R - A_L = p c^T, relative to max(1, ||A_R - A_L||),
# that validate_continuity accepts.
CONTINUITY_TOL = 1e-10

# Default radius beyond which an orbit or excursion counts as escaped.
ESCAPE_RADIUS = 1e12

# Iterates stepped between two escape tests of an orbit.  Transient iterates
# are buffered for one chunk only, so memory stays O((n_keep + chunk) n).
_CHUNK = 256
# Largest coordinate bound of the cheap escape test; the squares of smaller
# coordinates cannot overflow.
_QUIET_MAX = 1e150
_EPS = float(np.finfo(float).eps)


class _Pieces(NamedTuple):
    """Two affine pieces ``x -> A_s x + d_s``; the left one applies where
    ``c . x + c0 < 0``, stored as the threshold ``t = -c0`` of ``c . x < t``.

    The two tests agree exactly in floating point: a sum of two doubles is
    zero only when they cancel, so it has the sign of the exact sum.
    ``flat`` holds every entry as a Python float in the order the kernel
    takes them: ``A_L`` by rows, ``d_L``, ``A_R`` by rows, ``d_R``, ``c``
    and ``t``.  Build it with :func:`_pieces`.
    """

    A_L: np.ndarray
    d_L: np.ndarray
    A_R: np.ndarray
    d_R: np.ndarray
    c: np.ndarray
    t: float
    flat: tuple[float, ...]


def _pieces(A_L, d_L, A_R, d_R, c, t: float) -> _Pieces:
    arrays = [np.asarray(a, dtype=float) for a in (A_L, d_L, A_R, d_R, c)]
    flat = (*chain.from_iterable(a.ravel().tolist() for a in arrays), float(t))
    return _Pieces(*arrays, float(t), flat)


# The step.  Each image row is the in-order sum ``((a_i0 x_0 + a_i1 x_1) +
# ...) + d_i`` and the side test is ``((c_0 x_0 + c_1 x_1) + ...) < t``; every
# product and sum is rounded once and none is fused.  One orbit steps on
# Python floats (_kernel); many points step as NumPy elementwise operations
# over the point axis (_step_rows, _left_rows, through linalg._rows_dot),
# which also give the itinerary of an orbit's stored points.  Neither
# CPython floats nor ufuncs contract to FMA, so the two layouts give the
# same bits, and no BLAS call is made: the bits do not depend on the BLAS
# build or the CPU.  Every other inner product of the package sums alike.


@cache
def _kernel(n: int):
    """The step of an ``n``-dimensional map on Python floats, unrolled.

    ``steps(flat, x, k, out)`` takes ``k`` steps from the point ``x`` (``n``
    floats) with the coefficients ``_Pieces.flat``, appends the coordinates
    of each point it steps to the list ``out`` and returns the last image as
    a tuple.  Python floats overflow to inf and NaN without raising.
    """
    xs = [f"x{j}" for j in range(n)]
    point = "".join(f"{x}, " for x in xs)

    def row(coeffs):  # Python's + groups to the left: the in-order sum
        return " + ".join(f"{a} * {x}" for a, x in zip(coeffs, xs))

    def matrix(s):
        return [[f"{s}{i}_{j}" for j in range(n)] for i in range(n)]

    def image(s):
        return "".join(f"{row(r)} + {s}{i}, " for i, r in enumerate(matrix(s)))

    normal = [f"c{j}" for j in range(n)]
    names = [*chain.from_iterable(matrix("L")), *(f"L{i}" for i in range(n)),
             *chain.from_iterable(matrix("R")), *(f"R{i}" for i in range(n)), *normal, "t"]
    source = "\n".join([
        "def steps(flat, x, k, out):",
        f"    {', '.join(names)} = flat",
        f"    {point}= x",
        "    put = out.append",
        "    for _ in range(k):",
        *(f"        put({x})" for x in xs),
        f"        if {row(normal)} < t:",
        f"            {point}= {image('L')}",
        "        else:",
        f"            {point}= {image('R')}",
        f"    return {point}",
    ])
    namespace: dict = {}
    exec(compile(source, f"<pwldyn step, n = {n}>", "exec"), namespace)
    return namespace["steps"]


def _left_rows(p: _Pieces, X: np.ndarray) -> np.ndarray:
    """The kernel's side test on each row of ``X`` ``(P, n)``, as elementwise
    operations over the rows: True where the left piece applies."""
    return linalg._rows_dot(X, p.c) < p.t


def _step_rows(p: _Pieces, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One step of each row of ``X`` ``(P, n)``: the kernel's in-order sums
    as elementwise operations over the rows, so each row is bit-identical to
    stepping it alone.  Returns the images and the left-piece mask."""
    left = _left_rows(p, X)
    M = np.where(left[:, None, None], p.A_L, p.A_R)
    Y = linalg._rows_dot(M, X[:, None, :])
    Y += np.where(left[:, None], p.d_L, p.d_R)
    return Y, left


def _norms(X: np.ndarray) -> np.ndarray:
    """Euclidean norm of each vector along the last axis, bit-identical to
    ``linalg._length`` of that vector alone."""
    return np.sqrt(linalg._rows_dot(X, X))


class _TwoPieces:
    """The step interface of a two-piece map, read off its ``_pieces``: a
    map (``PwlMap``) and its restriction to an invariant plane
    (``ReducedPwlMap``) step alike and iterate with the one ``orbit``."""

    _pieces: _Pieces

    def _checked(self, x) -> np.ndarray:
        """``x`` as a float point ``(n,)`` or rows ``(P, n)`` of the map's dimension."""
        x = np.asarray(x, dtype=float)
        n = self._pieces.c.size
        if x.ndim not in (1, 2) or x.shape[-1] != n:
            raise ValueError(f"points must have {n} coordinates, got shape {x.shape}")
        return x

    def side(self, x) -> str:
        """The piece that applies at ``x``, as the itinerary of an orbit records it."""
        x = self._checked(x)
        if x.ndim != 1:
            raise ValueError(f"side takes one point, got shape {x.shape}")
        return LEFT if _left_rows(self._pieces, x[None])[0] else RIGHT

    def __call__(self, x) -> np.ndarray:
        """Image of a point ``(n,)``, or of each row of a ``(P, n)`` array,
        each row bit-identical to calling the map on it alone."""
        x = self._checked(x)
        if x.ndim == 1:
            return np.array(_kernel(x.size)(self._pieces.flat, x.tolist(), 1, []))
        return _step_rows(self._pieces, x)[0]


@dataclass(frozen=True, eq=False)
class PwlMap(_TwoPieces):
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
        return _pieces(self.A_L, self.b, self.A_R, self.b, self.c, 0.0)

    map_points = _TwoPieces.__call__


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


def validate_continuity(pwl: PwlMap) -> np.ndarray:
    """Return the rank-one update direction ``p`` with ``A_R - A_L = p c^T``.

    The residual of the factorization must stay below ``CONTINUITY_TOL``
    relative to ``max(1, ||A_R - A_L||)``, otherwise NotContinuous is raised.
    """
    dA = pwl.A_R - pwl.A_L
    c, e = linalg._well_scaled(pwl.c)  # c / 2^e, whose fit is q = 2^e p
    q = p = linalg._rows_dot(dA, c) / linalg._dot(c, c)
    if e:
        with np.errstate(over="ignore"):  # p past the float range is inf
            p = np.ldexp(q, -e)
    R = dA - np.outer(q, c)
    resid, scale = linalg._norm(R), linalg._norm(dA)  # rescaled past about 1e154
    if resid > CONTINUITY_TOL * max(1.0, scale):
        raise NotContinuous(
            f"A_R - A_L is not a rank-one update along c (residual {resid:.3e})"
        )
    return p


@dataclass(frozen=True, eq=False)
class OrbitData:
    """Retained orbit samples, one itinerary symbol per point."""

    points: np.ndarray
    itinerary: np.ndarray
    transient_discarded: int
    escaped: bool
    escape_index: int | None = None


def orbit(
    pwl: _TwoPieces,
    x0,
    n_transient: int = 1000,
    n_keep: int = 3000,
    escape_radius: float = ESCAPE_RADIUS,
) -> OrbitData:
    """Iterate a map or a restricted map, discard ``n_transient`` points,
    keep up to ``n_keep``.

    Iteration stops early with ``escaped=True`` as soon as an iterate leaves
    the ball of radius ``escape_radius``; a non-finite iterate that slips past
    that test (NaN only) raises NonFinite.  ``points[k+1]`` is always the
    image of ``points[k]`` and ``itinerary[k]`` records which piece applies
    at ``points[k]``.

    The kernel steps a chunk of iterates on Python floats, then the chunk is
    tested at once: iterate ``k`` escapes when its norm exceeds
    ``escape_radius`` and is non-finite otherwise when the norm is not
    finite.  A chunk whose coordinates all lie below ``quiet`` needs no
    norms: each computed norm is then finite and at most ``sqrt(n)
    max|x_i| (1 + (n + 2) eps)``, below the radius.  Iterates past the stop
    are garbage and are not kept.  The itinerary is the side test on the
    kept points, in the columnar layout.
    """
    if n_transient < 0:
        raise ValueError("n_transient must be non-negative")
    if n_keep < 1:
        raise ValueError("n_keep must be at least 1")
    if not escape_radius > 0.0:
        raise ValueError("escape_radius must be positive")
    p = pwl._pieces
    n = p.c.size
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (n,):
        raise ValueError(f"x0 must be a vector of length {n}")
    steps = _kernel(n)
    quiet = min(escape_radius, _QUIET_MAX) / math.sqrt(n) * (1.0 - 16 * n * _EPS)
    pts = np.empty((n_keep, n))
    x = x0.tolist()
    total = n_transient + n_keep
    stop = None
    # Overflow ends in an escape or NonFinite below, not in a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in chain(range(0, n_transient, _CHUNK), range(n_transient, total, _CHUNK)):
            k = min(lo + _CHUNK, n_transient if lo < n_transient else total) - lo
            coords: list[float] = []
            x = steps(p.flat, x, k, coords)
            buf = np.fromiter(coords, float, k * n).reshape(k, n)
            if lo >= n_transient:
                pts[lo - n_transient : lo - n_transient + k] = buf
            if np.abs(buf).max() < quiet:  # NaN is not below it
                continue
            r = _norms(buf)
            bad = (r > escape_radius) | ~np.isfinite(r)
            if bad.any():
                i = int(bad.argmax())
                stop = lo + i
                if not r[i] > escape_radius:
                    raise NonFinite(f"orbit iterate {stop} is not finite")
                pts = pts[: max(0, stop - n_transient)]
                break
        lefts = _left_rows(p, pts)
    return OrbitData(
        points=pts,
        itinerary=np.where(lefts, LEFT, RIGHT),
        transient_discarded=n_transient if stop is None else min(n_transient, stop),
        escaped=stop is not None,
        escape_index=stop,
    )


@dataclass(frozen=True, eq=False)
class FixedPointInfo:
    """Fixed point of one affine piece; absent when 1 is an eigenvalue."""

    point: np.ndarray | None
    admissible: bool | None
    borderline: bool
    reason: str | None = None


@dataclass(frozen=True, eq=False)
class FixedPoints:
    right: FixedPointInfo
    left: FixedPointInfo


def _fixed_point(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Fixed point of ``x -> A x + b``, ``linalg.solve`` of ``(I - A) x = b``.

    The rows of ``I - A`` are built on Python floats and go to the
    elimination without a second validation: the piece is finite, so
    ``I - A`` is.  Raises SingularMatrix when 1 is an eigenvalue of ``A``.
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
        margin = linalg._dot(pwl.c, pt)  # the step's side test
        admissible = margin >= 0.0 if key == "right" else margin < 0.0
        pt.setflags(write=False)
        infos[key] = FixedPointInfo(
            point=pt,
            admissible=admissible,
            borderline=abs(margin) < BORDERLINE_ATOL,
        )
    return FixedPoints(right=infos["right"], left=infos["left"])
