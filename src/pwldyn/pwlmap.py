"""Continuous piecewise-linear maps with a single switching hyperplane.

A map applies ``A_L x + b`` on the open half-space ``c . x < 0`` and
``A_R x + b`` on ``c . x >= 0``; the boundary belongs to the right piece.
Continuity across the boundary is equivalent to ``A_R - A_L`` being a
rank-one update along ``c``, which :func:`validate_continuity` checks.

Every two-piece map, a ``PwlMap`` or a ``ReducedPwlMap``, steps here, on one
generated step: its calls, its orbits and the first returns of a grid to a
charted plane (``sample_induced``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache
from itertools import chain
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import NonFinite, NotContinuous, UnsupportedDimension

__all__ = [
    "AffineHyperplane",
    "BcnfParams",
    "Chart",
    "FixedPointInfo",
    "FixedPoints",
    "InducedSample",
    "InducedSamples",
    "OrbitData",
    "PwlMap",
    "ReducedPwlMap",
    "bcnf",
    "fixed_points",
    "orbit",
    "plane_chart",
    "sample_induced",
    "validate_continuity",
]

LEFT = "L"
RIGHT = "R"

# A fixed point closer to the switching plane than this is flagged borderline.
BORDERLINE_ATOL = 1e-12

# Why a piece has no fixed point, as ``FixedPointInfo.reason`` gives it.
_EIGENVALUE_ONE = "1 is an eigenvalue of the piece matrix"
_PAST_FLOAT_RANGE = "the solve of (I - A) x = b leaves the float range"

# Largest residual of A_R - A_L = p c^T, relative to max(1, ||A_R - A_L||),
# that validate_continuity accepts.
CONTINUITY_TOL = 1e-10

# Default radius beyond which an orbit or excursion counts as escaped.
ESCAPE_RADIUS = 1e12

# Default tolerance of every yes/no decision: a shared eigenvalue, a
# singular piece, an eigenvalue on the unit circle and a point on a plane.
TOL = 1e-9
# Budget of steps of one sample's first return, read when ``sample_induced`` runs.
J_MAX = 10**6
# Most coordinates an orbit keeps, checked before they are allocated.
MAX_ORBIT_FLOATS = 10**7

# Kept iterates stepped between two escape tests of an orbit.  The transient
# is not stored, so memory stays O((n_keep + chunk) n).
_CHUNK = 256
# Most step functions held at once, one per role and coefficient pattern.
_KERNELS = 128
# Grid samples stepped together by the induced sampler; bounds its per-step
# temporaries, a few columns per sample, at any grid size.
_BLOCK = 4096
# Samples of a block still running at or below which each finishes alone on
# Python floats.  A columnar step costs about as much as 100 rows stepped
# alone (30-50 us against 0.4-0.5 us a row in 2-D and 3-D), and a row handed
# over pays its own call too.
_SCALAR_ROWS = 64
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
    and ``t``.  ``pattern`` has one symbol per entry of ``flat``: ``1`` for
    1.0, ``0`` for 0.0, ``-`` for -0.0 and ``.`` for any other value.  ``n``
    is the dimension.  Build it with :func:`_pieces`.
    """

    n: int
    flat: tuple[float, ...]
    pattern: str


def _pieces(A_L, d_L, A_R, d_R, c, t: float) -> _Pieces:
    arrays = [np.asarray(a, dtype=float) for a in (A_L, d_L, A_R, d_R, c)]
    flat = (*chain.from_iterable(a.ravel().tolist() for a in arrays), float(t))
    pattern = "".join("1" if a == 1.0 else "." if a else "-" if math.copysign(1.0, a) < 0 else "0"
                      for a in flat)
    return _Pieces(arrays[-1].size, flat, pattern)


# The step.  Each image row is the in-order sum ``((a_i0 x_0 + a_i1 x_1) +
# ...) + d_i`` and the side test is ``((c_0 x_0 + c_1 x_1) + ...) < t``; every
# product and sum is rounded once and none is fused.  One generator
# (_kernel) writes these sums once, as text, and every role that steps
# evaluates that text: on Python floats for one point or one orbit, and on
# NumPy columns for many points, where each name is a column over the point
# axis and ``np.where`` picks the piece.  The induced sampler's return tests
# are written once as well, for both layouts.  Neither CPython floats nor
# ufuncs contract to FMA, so the two layouts give the same bits, and no BLAS
# call is made: the bits do not depend on the BLAS build or the CPU.  Every
# other inner product of the package sums alike.  One point or orbit steps on
# Python floats, many points (a map called on rows, most of ``sample_induced``)
# on columns.  Each component is within ``2 (n + 1) eps (|A| |x| + |d|)`` of
# NumPy's ``A @ x + d`` (tested), a gap that chaotic orbits amplify.
#
# ``orbit`` steps with a kernel folded for the map's exact zeros and ones:
# a 1.0 coefficient contributes ``x_j`` unmultiplied, and the term of a 0.0
# or -0.0 coefficient is dropped, except in an image row whose offset is
# -0.0.  On finite points the bits are the same.  ``1.0 * x`` is ``x``; a
# zero coefficient's term is a zero, and adding a zero to a nonzero sum
# leaves it unchanged, so dropping one can change only the sign of a zero
# partial sum.  Adding an offset other than -0.0 erases that sign (``-0.0 +
# 0.0`` is ``0.0``), and the side test ``... < t`` ignores it; ``s + -0.0``
# keeps the sign of a zero ``s``, so such rows keep their zero terms.  On
# inf or NaN a zero term can be NaN (``0.0 * inf``), so everything else that
# steps, where a caller may pass such points, keeps the generic arithmetic;
# an orbit stops at its first non-finite iterate and keeps no later one.  The
# 2-D normal form's folded step makes 2 of its 6 products, the 3-D one 3 of 12.

# Outcome codes of a first return (``_kernel``'s ``returns``).
_RUNNING, _OK, _ESCAPED, _NON_FINITE = range(4)
# Each outcome's name, indexed by its code: ``InducedSamples.status``.
_STATUSES = ("no_return", "ok", "escaped", "non_finite")


@lru_cache(maxsize=_KERNELS)
def _kernel(role: str, n: int, pattern: str = ""):
    """One function of the step of an ``n``-dimensional map, unrolled over
    the coefficients ``_Pieces.flat``; ``role`` names it, and each role is
    compiled when it is first asked for.

    ``steps(flat, x, k, out)`` takes ``k`` steps from the point ``x`` (``n``
    floats), appends the coordinates of each point it steps to the list
    ``out`` and returns the last image as a tuple.
    ``skip(flat, x, k, q, radius)`` stores nothing: it tests each iterate
    ``x_i`` (``x_0 = x``) before stepping it, and one with a coordinate
    outside ``(-q, q)``, a NaN one included, gets its norm ``r``, the
    in-order ``sqrt(x_0 * x_0 + x_1 * x_1 + ...)`` of ``linalg._length``.
    It returns ``(i, x_i, r)`` for the first iterate with ``r > radius`` or
    ``r`` not finite, or ``(k, x_k, None)``.  Python floats overflow to inf
    and NaN without raising.
    ``image(flat, x)`` is the image of one point, written item by item
    into a fresh float array; a map holds this role (``_image``) for its
    one-point calls.
    ``returns(flat, x, j, k, radius, w, off, tol)`` steps ``x``, taken as
    iterate ``j``, up to iterate ``k``, to its first return to the plane
    ``w . y = off``.  Each image ``y`` gets its norm ``r`` and is tested in
    this order: ``r > radius`` (``_ESCAPED``), ``r`` not finite
    (``_NON_FINITE``), a left step or ``|y . w - off| <= tol (1 + r)``
    (``_OK``).  It returns ``(code, y, step, left)``, ``left`` True for a
    left step, or ``(_RUNNING, x, step, False)`` at step ``k`` or at the
    first image that equals its predecessor, which ``==`` decides: the
    same image then follows for ever, and no test above reads the sign of
    a zero.
    ``rows(flat, X)`` steps each column of ``X`` ``(n, P)`` in the columnar
    layout; it returns the left-piece mask and the image coordinates as a
    tuple of ``n`` columns.  ``block(flat, X, radius, w, off, tol)`` is one
    step of ``returns`` on such columns, from the same text: it returns the
    mask, the image columns, their norms ``r``, the mask of images that end
    a first return (``r > radius``, ``r`` not finite, a left step or on the
    plane) and the mask of the others that do not repeat their column.
    ``sides(flat, x)`` is the side test alone, on a point's Python floats or
    on columns.

    ``pattern`` is the map's ``_Pieces.pattern``, whose exact zeros and ones
    the step folds (see the comment above); the empty pattern, the default,
    folds nothing and gives the generic arithmetic.  A map with no
    coordinates has no step: ValueError.
    """
    if n < 1:
        raise ValueError("a map with no coordinates has no step")
    xs = [f"x{j}" for j in range(n)]
    ys = [f"y{j}" for j in range(n)]
    point, after = ("".join(f"{v}, " for v in vs) for vs in (xs, ys))

    def matrix(s):
        return [[f"{s}{i}_{j}" for j in range(n)] for i in range(n)]

    normal = [f"c{j}" for j in range(n)]
    names = [*chain.from_iterable(matrix("L")), *(f"L{i}" for i in range(n)),
             *chain.from_iterable(matrix("R")), *(f"R{i}" for i in range(n)), *normal, "t"]
    kind = dict(zip(names, pattern))

    def terms(coeffs, fold_zeros=True):
        return [x if kind.get(a) == "1" else f"{a} * {x}" for a, x in zip(coeffs, xs)
                if not (fold_zeros and kind.get(a) in ("0", "-"))]

    def sums(s):  # Python's + groups to the left: the in-order sum
        return [" + ".join([*terms(row, kind.get(f"{s}{i}") != "-"), f"{s}{i}"])
                for i, row in enumerate(matrix(s))]

    def images(s):
        return "".join(f"{a}, " for a in sums(s))

    side = f"{' + '.join(terms(normal)) or '0.0'} < t"
    # the return tests of an image y of x, as Python floats or as columns
    norm = f"sqrt({' + '.join(f'{y} * {y}' for y in ys)})"
    near = f"abs({' + '.join(f'{y} * w{j}' for j, y in enumerate(ys))} - off) <= tol * (1.0 + r)"
    repeats = [f"{y} == {x}" for x, y in zip(xs, ys)]
    normal_w = f"    {''.join(f'w{j}, ' for j in range(n))}= w"

    def step(to=point, test=side):
        return [f"        if {test}:", f"            {to}= {images('L')}",
                "        else:", f"            {to}= {images('R')}"]

    unpack = (f"{', '.join(names[-n - 1:])} = flat[{-n - 1}:]" if role == "sides"  # c and t
              else f"{', '.join(names)} = flat")
    head = [f"    {unpack}", f"    {point}= x"]
    sources = {
        "steps": [
            "def steps(flat, x, k, out):",
            "    put = out.append",
            "    for _ in range(k):",
            *(f"        put({x})" for x in xs),
            *step(),
            f"    return {point}",
        ],
        "skip": [
            "def skip(flat, x, k, q, radius):",
            "    m = -q",
            "    for i in range(k):",
            f"        if not ({' and '.join(f'm < {x} < q' for x in xs)}):",
            f"            r = sqrt({' + '.join(f'{x} * {x}' for x in xs)})",
            "            if r > radius or not r < inf:",
            f"                return i, ({point}), r",
            *step(),
            f"    return k, ({point}), None",
        ],
        "image": [
            "def image(flat, x):",
            f"    y = empty({n})",
            f"    if {side}:",
            *(f"        y[{i}] = {a}" for i, a in enumerate(sums("L"))),
            "    else:",
            *(f"        y[{i}] = {a}" for i, a in enumerate(sums("R"))),
            "    return y",
        ],
        "returns": [
            "def returns(flat, x, j, k, radius, w, off, tol):",
            normal_w,
            "    for j in range(j + 1, k + 1):",
            f"        left = {side}",
            *step(after, "left"),
            f"        r = {norm}",
            "        if r > radius:",
            f"            return {_ESCAPED}, ({after}), j, left",
            "        if not r < inf:",
            f"            return {_NON_FINITE}, ({after}), j, left",
            f"        if left or {near}:",
            f"            return {_OK}, ({after}), j, left",
            f"        if {' and '.join(repeats)}:",
            "            break",
            f"        {point}= {after}",
            f"    return {_RUNNING}, ({point}), j, False",
        ],
        "rows": [
            "def rows(flat, x):",
            f"    left = {side}",
            "    return left, (" + "".join(f"where(left, {a}, {b}), "
                                      for a, b in zip(sums("L"), sums("R"))) + ")",
        ],
        "block": [
            "def block(flat, x, radius, w, off, tol):",
            normal_w,
            f"    left = {side}",
            f"    {after}= " + "".join(f"where(left, {a}, {b}), "
                                     for a, b in zip(sums("L"), sums("R"))),
            f"    r = {norm}",
            f"    done = (r > radius) | ~(r < inf) | left | ({near})",
            f"    going = ~(done | ({' & '.join(f'({e})' for e in repeats)}))",
            f"    return left, ({after}), r, done, going",
        ],
        "sides": ["def sides(flat, x):", f"    return {side}"],
    }
    define, *body = sources[role]
    source = "\n".join([define, *head, *body])
    namespace: dict = {"sqrt": np.sqrt if role == "block" else math.sqrt, "inf": math.inf,
                       "where": np.where, "empty": np.empty}
    exec(compile(source, f"<pwldyn {role}, n = {n}, pattern {pattern!r}>", "exec"), namespace)
    return namespace[role]


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
        n = self._pieces.n
        if x.ndim not in (1, 2) or x.shape[-1] != n:
            raise ValueError(f"points must have {n} coordinates, got shape {x.shape}")
        return x

    def side(self, x) -> str:
        """The piece that applies at ``x``, as the itinerary of an orbit records it."""
        x = self._checked(x)
        if x.ndim != 1:
            raise ValueError(f"side takes one point, got shape {x.shape}")
        return LEFT if _kernel("sides", x.size)(self._pieces.flat, x.tolist()) else RIGHT

    @cached_property
    def _image(self):
        """``_kernel``'s ``image`` of the map's dimension, held for its calls."""
        return _kernel("image", self._pieces.n)

    def __call__(self, x) -> np.ndarray:
        """Image of a point ``(n,)``, or of each row of a ``(P, n)`` array,
        each row bit-identical to calling the map on it alone, but for the
        sign of a NaN; past the float range an image is inf or NaN, without
        a warning.  One point is stepped on Python floats (``image``)."""
        x = np.asarray(x, dtype=float)
        p = self._pieces
        if x.shape == (p.n,):  # Python floats overflow without a warning
            return self._image(p.flat, x.tolist())
        x = self._checked(x)
        with np.errstate(over="ignore", invalid="ignore"):
            return np.stack(_kernel("rows", x.shape[1])(p.flat, x.T)[1], axis=-1)


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

    @cached_property
    def _frame(self):
        return linalg._map_frame(self.A_L, self.A_R, self.c)

    @cached_property
    def _fixed_points(self) -> FixedPoints:
        """Both pieces' ``fixed_points``, which the reductions read too: one
        solve of ``(I - A) x = b`` per piece, the one test of 1 in its spectrum
        and of a finite result.  A finite piece's ``I - A`` is not validated again."""
        infos = []
        for A, right in ((self.A_R, True), (self.A_L, False)):
            pt = linalg._solve_rows(linalg._shifted_rows(A.tolist(), 1.0), self.b.tolist())
            if pt is None or not np.isfinite(pt).all():
                reason = _EIGENVALUE_ONE if pt is None else _PAST_FLOAT_RANGE
                infos.append(FixedPointInfo(point=None, admissible=None, borderline=False,
                                            reason=reason))
                continue
            margin = linalg._dot(self.c, pt)  # the step's side test
            pt.setflags(write=False)
            admissible = margin >= 0.0 if right else margin < 0.0
            infos.append(FixedPointInfo(point=pt, admissible=admissible,
                                        borderline=abs(margin) < BORDERLINE_ATOL))
        return FixedPoints(*infos)

    map_points = _TwoPieces.__call__


@dataclass(frozen=True, eq=False)
class AffineHyperplane:
    """Hyperplane ``{x : normal . x = offset}`` with a distinguished base point.

    The normal is stored unit length with its first significant component
    positive, so the membership test ``contains``, ``|normal . x - offset|
    <= tol (1 + |x|)``, does not depend on any eigenvector scaling.
    """

    normal: np.ndarray
    base_point: np.ndarray
    offset: float

    @classmethod
    def from_normal_point(cls, normal, point) -> "AffineHyperplane":
        w = np.asarray(normal, dtype=float)
        p = np.array(point, dtype=float)
        if not (w.any() and np.isfinite(w).all() and np.isfinite(p).all()):
            raise ValueError("a hyperplane needs a finite nonzero normal and a finite point")
        w = np.array(linalg._sign_fixed(w.tolist()))
        w.setflags(write=False)
        p.setflags(write=False)
        return cls(normal=w, base_point=p, offset=linalg._dot(w, p))

    def distances(self, X) -> np.ndarray:
        return linalg._rows_dot(X, self.normal) - self.offset

    def contains(self, X, tol: float) -> np.ndarray:
        """The membership test for each row of ``X``."""
        return np.abs(self.distances(X)) <= tol * (1.0 + _norms(X))


@dataclass(frozen=True, eq=False)
class Chart:
    """Orthonormal coordinates on an affine hyperplane."""

    base: np.ndarray
    basis: np.ndarray  # (n, n-1), orthonormal columns

    # Both maps sum coordinate by coordinate over whole columns of points, so
    # that NumPy's inner loops run along the points, not along the 1-8
    # coordinates of one point; the sums are ``_rows_dot``'s all the same.
    def lift_many(self, Xi) -> np.ndarray:
        """The ambient point ``base + basis xi`` of each row ``xi``."""
        Xi = np.asarray(Xi, dtype=float)
        columns = self.base[:, None] + linalg._rows_dot(Xi[None], self.basis[:, None])
        return np.ascontiguousarray(columns.T)

    def project(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != self.base.shape:
            raise ValueError(f"x0 must be a vector of length {self.base.size}")
        return self.project_many(x[None])[0]

    def project_many(self, X) -> np.ndarray:
        """``project`` of each row: ``basis^T (x - base)``."""
        D = np.asarray(X, dtype=float) - self.base
        return np.ascontiguousarray(linalg._rows_dot(D[None], self.basis.T[:, None]).T)


def plane_chart(plane: AffineHyperplane) -> Chart:
    return Chart(base=plane.base_point, basis=linalg.hyperplane_basis(plane.normal))


@dataclass(frozen=True, eq=False)
class ReducedPwlMap(_TwoPieces):
    """Restriction of a map to an invariant hyperplane, in chart coordinates.

    The left piece applies where ``switch_normal . xi + switch_offset < 0``,
    mirroring the ambient switching rule exactly.
    """

    matrix_left: np.ndarray
    offset_left: np.ndarray
    matrix_right: np.ndarray
    offset_right: np.ndarray
    switch_normal: np.ndarray
    switch_offset: float
    chart: Chart

    @property
    def dimension(self) -> int:
        return self.matrix_left.shape[0]

    @cached_property
    def _pieces(self) -> _Pieces:
        return _pieces(self.matrix_left, self.offset_left, self.matrix_right,
                       self.offset_right, self.switch_normal, -self.switch_offset)

    def slopes(self) -> tuple[float, float] | None:
        """Piece slopes for one-dimensional restrictions, else None."""
        if self.dimension != 1:
            return None
        return float(self.matrix_left[0, 0]), float(self.matrix_right[0, 0])


# The normal form's coefficients per dimension, which also set ``scan``'s
# parameters and the CLI's ``--dim`` choices.  Each piece is the companion
# matrix ``np.eye(dim, k=1)`` with first column (t, -d) in 2-D and (t, -s, d)
# in 3-D: its trace, second trace and determinant, suffixed ``l`` or ``r``.
NORMAL_FORM = {2: ("t", "d"), 3: ("t", "s", "d")}


@dataclass(frozen=True)
class BcnfParams:
    """Border-collision normal form coefficients.

    ``tl``/``tr`` are the traces, ``dl``/``dr`` the determinants and, in
    dimension 3, ``sl``/``sr`` the second traces of the two pieces.  Raises
    UnsupportedDimension outside ``NORMAL_FORM`` and ValueError unless
    exactly the dimension's coefficients are given.
    """

    dim: int
    tl: float
    dl: float
    tr: float
    dr: float
    sl: float | None = None
    sr: float | None = None

    def __post_init__(self):
        if self.dim not in NORMAL_FORM:
            dims = " and ".join(map(str, NORMAL_FORM))
            raise UnsupportedDimension(f"normal form exists for dimensions {dims}, not {self.dim}")
        given = {key for key, value in vars(self).items() if value is not None}
        missing = [key for key in self.coefficients if key not in given]
        if missing:
            raise ValueError(f"missing normal-form coefficients: {', '.join(missing)}")
        if not given <= {"dim", *self.coefficients}:
            raise ValueError("second traces sl/sr are only meaningful in dimension 3")

    @property
    def coefficients(self) -> tuple[str, ...]:
        """The fields that the normal form of ``dim`` takes, in field order."""
        return _COEFFICIENTS[self.dim]


_COEFFICIENTS = {dim: tuple(f.name for f in fields(BcnfParams) if f.name[:-1] in column)
                 for dim, column in NORMAL_FORM.items()}


def bcnf(params: BcnfParams) -> PwlMap:
    """Build the normal-form map for the given coefficients (``NORMAL_FORM``)."""
    column = NORMAL_FORM[params.dim]  # one coefficient per dimension
    pieces = []
    for side in "lr":
        A = np.eye(len(column), k=1)
        A[:, 0] = [(-1) ** i * getattr(params, k + side) for i, k in enumerate(column)]
        pieces.append(A)
    e1 = np.eye(len(column))[0]
    return PwlMap(*pieces, e1, e1)


def validate_continuity(pwl: PwlMap) -> np.ndarray:
    """Return the rank-one update direction ``p`` with ``A_R - A_L = p c^T``.

    The residual of the factorization must stay below ``CONTINUITY_TOL``
    relative to ``max(1, ||A_R - A_L||)``, decided in the map's ``_frame``,
    or NotContinuous names it.  ``p`` is read-only, inf past the float range.
    """
    frame = pwl._frame
    if frame.resid > CONTINUITY_TOL * max(frame.unit, frame.delta):
        resid = frame.resid / frame.unit  # at the map's scale, inf past the float range
        raise NotContinuous(f"A_R - A_L is not a rank-one update along c (residual {resid:.3e})")
    return frame.fit


@dataclass(frozen=True, eq=False)
class OrbitData:
    """Retained orbit samples, one itinerary symbol per point."""

    points: np.ndarray
    itinerary: np.ndarray
    transient_discarded: int
    escape_index: int | None = None

    @property
    def escaped(self) -> bool:
        """Whether the orbit left the ball of its escape radius, at ``escape_index``."""
        return self.escape_index is not None


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
    at ``points[k]``.  The radius must be positive (``inf`` is), and the
    ``n_keep n`` kept coordinates at most ``MAX_ORBIT_FLOATS``; either is
    checked, with the lengths, before anything is stepped or allocated.

    Iterate ``k`` escapes when its norm (the bits of ``linalg._length``)
    exceeds ``escape_radius`` and is non-finite otherwise when the norm is
    not finite.  An iterate whose coordinates all lie below ``quiet`` needs
    no norm: its computed norm is finite and at most ``sqrt(n) max|x_i| (1 +
    (n + 2) eps)``, below the radius.  The transient is one ``skip`` call
    of ``_kernel``, which decides its stop unstored.  The kept iterates are
    stepped a chunk at a time into ``points``, and a chunk with a
    coordinate outside the box gets the ``_norms`` of all its iterates.
    Both phases leave through one stop.  The step is folded for the map's
    exact zeros and ones (``_kernel``), which keeps the generic bits on
    every iterate up to the stop.  The itinerary is the side test on the
    kept points, in the columnar layout.
    """
    _check_radius(escape_radius)
    _check_lengths(n_transient, n_keep)
    p = pwl._pieces
    n = p.n
    _check_orbit_size(n_keep * n)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (n,):
        raise ValueError(f"x0 must be a vector of length {n}")
    steps, skip = _kernel("steps", n, p.pattern), _kernel("skip", n, p.pattern)
    quiet = min(escape_radius, _QUIET_MAX) / math.sqrt(n) * (1.0 - 16 * n * _EPS)
    pts = np.empty((n_keep, n))
    i, x, r = skip(p.flat, x0.tolist(), n_transient, quiet, escape_radius)
    stop = i if i < n_transient else None
    # Overflow ends in an escape or NonFinite below, not in a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n_keep if stop is None else 0, _CHUNK):
            k = min(lo + _CHUNK, n_keep) - lo
            coords: list[float] = []
            x = steps(p.flat, x, k, coords)
            buf = np.fromiter(coords, float, k * n).reshape(k, n)
            pts[lo : lo + k] = buf
            if np.abs(buf).max() < quiet:  # NaN is not below it
                continue
            norms = _norms(buf)
            bad = (norms > escape_radius) | ~np.isfinite(norms)
            if bad.any():
                i = int(bad.argmax())
                stop, r = n_transient + lo + i, norms[i]
                break
        if stop is not None:
            if not r > escape_radius:
                raise NonFinite(f"orbit iterate {stop} is not finite")
            pts = pts[: max(stop - n_transient, 0)]
        lefts = _kernel("sides", n)(p.flat, pts.T)
    return OrbitData(
        points=pts,
        itinerary=np.where(lefts, LEFT, RIGHT),
        transient_discarded=n_transient if stop is None else min(n_transient, stop),
        escape_index=stop,
    )


def _check_lengths(n_transient: int, n_keep: int) -> None:
    """Raise ValueError unless an orbit can discard ``n_transient`` iterates
    and keep ``n_keep``."""
    if n_transient < 0:
        raise ValueError("n_transient must be non-negative")
    if n_keep < 1:
        raise ValueError("n_keep must be at least 1")


def _check_orbit_size(floats: int) -> None:
    if floats > MAX_ORBIT_FLOATS:
        raise ValueError(f"orbits keep {floats} floats, more than the limit {MAX_ORBIT_FLOATS}")


def _check_radius(r: float) -> None:
    if not r > 0.0:  # NaN too
        raise ValueError(f"escape radius must be positive, got {r!r}")


@dataclass(frozen=True, eq=False)
class InducedSample:
    point: np.ndarray
    image: np.ndarray | None
    return_time: int | None
    itinerary: tuple[str, ...] | None
    status: str  # "ok" | "no_return" | "escaped" | "non_finite"


@dataclass(frozen=True, eq=False)
class InducedSamples:
    """Outcomes of ``sample_induced``, one read-only column per field.

    ``points`` and ``images`` are ``(P, d)`` chart coordinates, an image row
    NaN wherever the sample did not return; ``steps`` is the step at which
    each sample finished (0 while still running at ``J_MAX``), ``last_left``
    whether that step was taken by the left piece, and ``status`` the
    outcome ("ok", "no_return", "escaped" or "non_finite").  Counters are
    reductions over these columns.  Iterating gives one ``InducedSample``
    per grid point, built when it is read.
    """

    points: np.ndarray
    images: np.ndarray
    steps: np.ndarray
    last_left: np.ndarray
    status: np.ndarray

    def __len__(self) -> int:
        return len(self.status)

    def __iter__(self):
        for point, image, step, left, status in zip(
                self.points, self.images, self.steps.tolist(), self.last_left.tolist(),
                self.status.tolist()):
            if status == "ok":
                # every step before the last is a right step: a left step returns at once
                itinerary = (RIGHT,) * (step - 1) + (LEFT if left else RIGHT,)
                yield InducedSample(point, image, step, itinerary, status)
            else:
                yield InducedSample(point, None, None, None, status)


def sample_induced(
    pwl: PwlMap,
    plane: AffineHyperplane,
    grid,
    chart: Chart | None = None,
    escape_radius: float = ESCAPE_RADIUS,
    membership_tol: float = TOL,
) -> InducedSamples:
    """Evaluate the induced return map on chart-coordinate grid points.

    A grid point's first return to the plane follows the map until a step
    by the left piece, whose range the plane is, or until ``|normal . y -
    offset| <= tol (1 + |y|)``; escape and a non-finite image are tested
    before the return.  A block of lifted points steps together in the
    columnar layout (``_kernel``'s ``block``, which also tests the images),
    one array per coordinate, and points leave it as they finish.  A point
    whose image equals its predecessor leaves it too, still running: the
    map is deterministic, so it never returns, and it ends there as
    ``no_return``; one that wanders without repeating runs its whole
    budget, the ``J_MAX`` steps that the module holds at the call.  Once at
    most ``_SCALAR_ROWS`` points are left, each runs the rest of its budget
    alone (``returns``), which applies the same tests in the same order.
    So each sample is bit-identical to stepping its lifted point alone.
    Failures are recorded per sample instead of aborting the sweep, in the
    columns of an ``InducedSamples``.  The escape radius must be positive,
    as for ``orbit``.
    """
    _check_radius(escape_radius)
    if chart is None:
        chart = plane_chart(plane)
    pts = np.array(grid, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.shape[1] != pwl.n - 1:
        raise ValueError(f"grid points must have {pwl.n - 1} chart coordinates")
    X = chart.lift_many(pts)
    P, n = X.shape
    flat = pwl._pieces.flat
    status = np.full(P, _RUNNING)
    # one row per coordinate, as the columnar step reads and writes them:
    # NumPy copies a 1-D selection several times faster than a 2-D one
    images = np.empty((n, P))
    times = np.zeros(P, dtype=int)
    last_left = np.zeros(P, dtype=bool)
    # Overflow ends in an escaped or non-finite status below, not in a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        if not plane.contains(X, membership_tol).all():
            raise ValueError("start point is not on the section")
        w, off = plane.normal.tolist(), plane.offset
        block = _kernel("block", n)
        coords = np.ascontiguousarray(X.T)
        for lo in range(0, P, _BLOCK):
            idx = np.arange(lo, min(lo + _BLOCK, P))
            Y = [x[lo : lo + _BLOCK] for x in coords]  # the block's columns
            j = 0
            while idx.size > _SCALAR_ROWS and j < J_MAX:
                j += 1
                left, Y, r, done, going = block(flat, Y, escape_radius, w, off, membership_tol)
                if going.all():
                    continue
                fin, rf = idx[done], r[done]
                status[fin] = np.where(rf > escape_radius, _ESCAPED,
                                       np.where(rf < math.inf, _OK, _NON_FINITE))
                for image, y in zip(images, Y):
                    image[fin] = y[done]
                times[fin] = j
                last_left[fin] = left[done]
                idx, Y = idx[going], [y[going] for y in Y]
            if idx.size and j < J_MAX:  # each row left runs the rest of its budget alone
                returns = _kernel("returns", n)
                for i, x in zip(idx.tolist(), zip(*[y.tolist() for y in Y])):
                    code, images[:, i], step, left = returns(flat, x, j, J_MAX, escape_radius,
                                                             w, off, membership_tol)
                    if code != _RUNNING:
                        status[i], times[i], last_left[i] = code, step, left
    ok = status == _OK
    proj = np.full(pts.shape, np.nan)
    proj[ok] = chart.project_many(images[:, ok].T)
    columns = (pts, proj, times, last_left, np.array(_STATUSES)[status])
    for column in columns:
        column.flags.writeable = False
    return InducedSamples(*columns)


@dataclass(frozen=True, eq=False)
class FixedPointInfo:
    """Fixed point of one affine piece; absent, with a ``reason``, when 1 is
    an eigenvalue or the solve of ``(I - A) x = b`` leaves the float range."""

    point: np.ndarray | None
    admissible: bool | None
    borderline: bool
    reason: str | None = None


@dataclass(frozen=True, eq=False)
class FixedPoints:
    right: FixedPointInfo
    left: FixedPointInfo


def fixed_points(pwl: PwlMap) -> FixedPoints:
    """Fixed points of both pieces with admissibility flags, solved once per map.

    A piece has none, and a ``reason``, when 1 is in its spectrum or when
    the solve gives an entry that is inf or NaN.  The right piece's fixed
    point is admissible when ``c . x >= 0``, the left piece's when ``c . x <
    0``; the flag always reports the runtime sign test.  Points within
    ``BORDERLINE_ATOL`` of the switching plane are additionally flagged
    borderline.
    """
    return pwl._fixed_points
