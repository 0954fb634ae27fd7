"""Dimension reductions for continuous piecewise-linear maps.

Three scenarios are covered.  When both pieces share a simple eigenvalue the
map leaves an affine hyperplane invariant and restricts to a piecewise-linear
map of one dimension less.  When the left piece is singular its whole
half-space maps onto an affine hyperplane in one step, and the first-return
map induced on that plane is piecewise-linear with expanding pieces.  When an
eigenvalue sits on the unit circle the map is classified by the matching
boundary-crossing type.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .errors import (
    Escaped,
    HypothesisViolated,
    IllConditioned,
    MultipleZero,
    NoFixedPoint,
    NonFinite,
    NonTransversal,
    NoReturn,
    NotSingular,
    SingularMatrix,
)
from .pwlmap import (
    ESCAPE_RADIUS,
    LEFT,
    RIGHT,
    OrbitData,
    PwlMap,
    _apply,
    _fixed_point,
    _norms,
    _orbits,
    _Pieces,
    _stacked,
    _step,
    validate_continuity,
)

__all__ = [
    "AffineHyperplane",
    "Chart",
    "InducedMapResult",
    "InducedSample",
    "ReducedPwlMap",
    "SharedEigReduction",
    "UnitModulusReport",
    "classify_unit_modulus",
    "detect_shared_eigenvalue",
    "induced_map",
    "plane_chart",
    "reduced_orbit",
    "restrict_to_manifold",
    "sample_induced",
    "zero_eig_reduction",
]

MEMBERSHIP_TOL = 1e-9
J_MAX = 10**6

# Grid samples stepped together by the induced sampler; bounds its per-step
# temporaries, which hold an (n, n) matrix per sample, at any grid size.
_BLOCK = 4096


@dataclass(frozen=True)
class AffineHyperplane:
    """Hyperplane ``{x : normal . x = offset}`` with a distinguished base point.

    The normal is stored unit length with its first significant component
    positive, so the membership test ``|normal . x - offset| <= tol (1 + |x|)``
    does not depend on any eigenvector scaling.
    """

    normal: np.ndarray
    base_point: np.ndarray
    offset: float

    @classmethod
    def from_normal_point(cls, normal, point) -> "AffineHyperplane":
        w = np.asarray(normal, dtype=float)
        if float(np.linalg.norm(w)) == 0.0:
            raise ValueError("hyperplane normal is zero")
        w = linalg._sign_fixed(w)
        p = np.array(point, dtype=float)
        w.setflags(write=False)
        p.setflags(write=False)
        return cls(normal=w, base_point=p, offset=float(w @ p))

    def signed_distance(self, x) -> float:
        return float(self.normal @ np.asarray(x, dtype=float)) - self.offset

    def distances(self, X) -> np.ndarray:
        return np.asarray(X, dtype=float) @ self.normal - self.offset

    def contains(self, x, tol: float = MEMBERSHIP_TOL) -> bool:
        x = np.asarray(x, dtype=float)
        return abs(self.signed_distance(x)) <= tol * (1.0 + float(np.linalg.norm(x)))


@dataclass(frozen=True)
class Chart:
    """Orthonormal coordinates on an affine hyperplane."""

    base: np.ndarray
    basis: np.ndarray  # (n, n-1), orthonormal columns

    def lift(self, xi) -> np.ndarray:
        return self.base + self.basis @ np.asarray(xi, dtype=float)

    def lift_many(self, Xi) -> np.ndarray:
        """``lift`` of each row, bit for bit: a stacked product, not one gemm."""
        Xi = np.asarray(Xi, dtype=float)
        basis = np.broadcast_to(self.basis, (len(Xi), *self.basis.shape))
        return self.base + (basis @ Xi[:, :, None])[:, :, 0]

    def project(self, x) -> np.ndarray:
        return self.basis.T @ (np.asarray(x, dtype=float) - self.base)

    def project_many(self, X) -> np.ndarray:
        """``project`` of each row, bit for bit."""
        X = np.asarray(X, dtype=float)
        basis_t = np.broadcast_to(self.basis.T, (len(X), *self.basis.T.shape))
        return (basis_t @ (X - self.base)[:, :, None])[:, :, 0]


def plane_chart(plane: AffineHyperplane) -> Chart:
    return Chart(base=plane.base_point, basis=linalg.hyperplane_basis(plane.normal))


# ---------------------------------------------------------------------------
# shared eigenvalue


@dataclass(frozen=True)
class ReducedPwlMap:
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
        return _Pieces(self.matrix_left, self.offset_left, self.matrix_right,
                       self.offset_right, self.switch_normal, -self.switch_offset)

    def side(self, xi) -> str:
        margin = float(self.switch_normal @ np.asarray(xi, dtype=float)) + self.switch_offset
        return LEFT if margin < 0.0 else RIGHT

    def __call__(self, xi) -> np.ndarray:
        """Image of a chart point, or of each row of a ``(P, d)`` array."""
        return _apply(self._pieces, xi)

    def slopes(self) -> tuple[float, float] | None:
        """Piece slopes for one-dimensional restrictions, else None."""
        if self.dimension != 1:
            return None
        return float(self.matrix_left[0, 0]), float(self.matrix_right[0, 0])


@dataclass(frozen=True)
class SharedEigReduction:
    """Invariant-plane data for an eigenvalue shared by both pieces.

    ``left``/``right`` are the adjugate-scaled eigenvectors of the right
    piece; :meth:`deviation` is the affine functional that vanishes on the
    invariant plane and is multiplied by ``value`` under one map step.
    """

    pwl: PwlMap
    value: float
    left: np.ndarray
    right: np.ndarray
    offset: float
    manifold: AffineHyperplane
    transversal: bool
    restricted: ReducedPwlMap | None
    other_shared: tuple[float, ...] = ()

    def deviation(self, x) -> float:
        return float(self.left @ np.asarray(x, dtype=float)) - self.offset

    def deviation_many(self, X) -> np.ndarray:
        return np.asarray(X, dtype=float) @ self.left - self.offset


def detect_shared_eigenvalue(pwl: PwlMap, tol: float = 1e-9) -> SharedEigReduction | None:
    """Find a simple real eigenvalue common to both pieces and build the reduction.

    Only ``A_R`` is decomposed.  With ``A_R - A_L = p c^T``, a real
    eigenvalue ``lam`` of ``A_R`` is shared when ``det(lam I - A_L) =
    c^T adj(lam I - A_R) p`` vanishes: for a simple ``lam``, whose adjugate
    is ``right left^T``, when ``|left . p|`` or ``|c . right|`` is at most
    ``tol`` times the product of the two norms, else when
    ``|c^T B p| <= tol |B| |c| |p|`` with ``B`` the adjugate.  Returns None
    when nothing is shared.  Shared values go smallest in absolute value
    first; magnitudes within ``tol (1 + |lam|)`` tie, and a tie goes to the
    larger value, so ``+lam`` precedes ``-lam`` whatever the rounding.  The
    first one meeting the hypotheses (simple in ``A_R``, not one, ``c .
    right`` not negligible) wins and the rest are listed in
    ``other_shared``.  When none meets them raises HypothesisViolated
    naming the failure of the first.
    """
    p = validate_continuity(pwl)
    # the decisions' plain norms and dot products overflow past about 1e154;
    # they are then taken again on rescaled vectors, with no warning
    with np.errstate(over="ignore"):
        shared = [t for t in linalg.real_eigen(pwl.A_R).real if _is_shared(pwl, p, t, tol)]
        tied_to: list[float] = []
        for mag in sorted(abs(t.value) for t in shared):
            if not tied_to or mag - tied_to[-1] > tol * (1.0 + mag):
                tied_to.append(mag)
        shared.sort(key=lambda t: (max(m for m in tied_to if m <= abs(t.value)), -t.value))
        if not shared:
            return None
        for tr in shared:
            if _hypothesis_failure(pwl, tr, tol) is None:
                break
        else:
            first = shared[0]
            raise HypothesisViolated(
                f"shared eigenvalue {first.value:.6g}: {_hypothesis_failure(pwl, first, tol)}"
            )
    lam, u, v = tr.value, tr.left, tr.right
    offset = float(u @ pwl.b) / (1.0 - lam)
    try:
        base = _fixed_point(pwl.A_R, pwl.b)
    except SingularMatrix:  # 1 in the right spectrum: any zero of the deviation functional works
        base = u * (offset / float(u @ u))
    manifold = AffineHyperplane.from_normal_point(u, base)
    with np.errstate(over="ignore"):
        transversal = _transversal(u, pwl.c, tol)
    restricted = _build_restricted(pwl, u, base) if transversal else None
    others = tuple(t.value for t in shared if t is not tr)
    return SharedEigReduction(
        pwl=pwl,
        value=lam,
        left=u,
        right=v,
        offset=offset,
        manifold=manifold,
        transversal=transversal,
        restricted=restricted,
        other_shared=others,
    )


def _negligible(x: np.ndarray, y: np.ndarray, tol: float, B: np.ndarray | None = None) -> bool:
    """Whether ``|x . y| <= tol |x| |y|``, or with ``B`` whether
    ``|x^T B y| <= tol |B| |x| |y|``.

    Both sides are homogeneous in each factor.  Where a product overflows,
    or the norms of nonzero factors underflow to zero, they are taken again
    on each factor divided by the power of two above its largest entry
    (``linalg._rescaled``), so wherever the plain form works no bit changes.
    The caller turns NumPy's overflow warnings off.
    """
    factors = (x, y) if B is None else (x, B, y)
    lhs, rhs = _negligible_sides(factors, tol)
    if not (lhs < math.inf and 0.0 < rhs < math.inf) and all(f.any() for f in factors):
        lhs, rhs = _negligible_sides([linalg._rescaled(f)[0] for f in factors], tol)
    return lhs <= rhs


def _negligible_sides(factors, tol: float) -> tuple[float, float]:
    if len(factors) == 2:
        x, y = factors
        return abs(float(x @ y)), tol * float(np.linalg.norm(x)) * float(np.linalg.norm(y))
    x, B, y = factors
    scale = float(np.linalg.norm(B)) * float(np.linalg.norm(x)) * float(np.linalg.norm(y))
    return abs(float(x @ B @ y)), tol * scale


def _is_shared(pwl: PwlMap, p: np.ndarray, t: linalg.EigenTriple, tol: float) -> bool:
    """Whether ``det(t.value I - A_L) = c^T adj(t.value I - A_R) p`` vanishes."""
    if t.canonical:  # adj(t.value I - A_R) = right left^T: test each factor
        return _negligible(t.left, p, tol) or _negligible(pwl.c, t.right, tol)
    M = t.value * np.eye(pwl.n) - pwl.A_R
    B = linalg.adjugate(M)
    if not np.isfinite(B).all():  # the test is homogeneous in B
        B = linalg.adjugate(linalg._rescaled(M)[0])
    return _negligible(pwl.c, p, tol, B)


def _hypothesis_failure(pwl: PwlMap, tr: linalg.EigenTriple, tol: float) -> str | None:
    # a simple value whose adjugate overflows has unit-norm vectors, not the
    # canonical ones, and they fix the same plane
    if tr.multiplicity > 1:
        return "algebraic multiplicity exceeds one"
    if abs(1.0 - tr.value) <= tol * (1.0 + abs(tr.value)):
        return "the shared eigenvalue equals one"
    if _negligible(pwl.c, tr.right, tol):
        return "the right eigenvector is orthogonal to the switching normal"
    return None


def _transversal(u: np.ndarray, c: np.ndarray, tol: float) -> bool:
    """Whether ``u`` has a component off ``c`` above ``tol |u|``.  The test
    does not change when ``c`` is scaled, so where ``c . c`` overflows or
    underflows to zero it runs on ``c`` divided by a power of two instead.
    ``u`` is a left eigenvector, with largest entry 1 or of unit norm.  The
    caller turns NumPy's overflow warnings off."""
    cc = float(c @ c)
    if not 0.0 < cc < math.inf:
        c, _ = linalg._rescaled(c)
        cc = float(c @ c)
    rej = u - c * (float(u @ c) / cc)
    return float(np.linalg.norm(rej)) > tol * float(np.linalg.norm(u))


def _build_restricted(pwl: PwlMap, u: np.ndarray, base: np.ndarray) -> ReducedPwlMap:
    B = linalg.hyperplane_basis(u)
    chart = Chart(base=np.array(base, dtype=float), basis=B)
    m_l = B.T @ pwl.A_L @ B
    d_l = B.T @ (pwl.A_L @ base + pwl.b - base)
    m_r = B.T @ pwl.A_R @ B
    d_r = B.T @ (pwl.A_R @ base + pwl.b - base)
    return ReducedPwlMap(
        matrix_left=m_l,
        offset_left=d_l,
        matrix_right=m_r,
        offset_right=d_r,
        switch_normal=B.T @ pwl.c,
        switch_offset=float(pwl.c @ base),
        chart=chart,
    )


def restrict_to_manifold(red: SharedEigReduction) -> ReducedPwlMap:
    """Chart-coordinate restriction of the map to the invariant plane."""
    if not red.transversal:
        raise NonTransversal(
            "the invariant-plane normal is parallel to the switching normal; "
            "the two pieces then share every eigenvalue and the plane never "
            "crosses the switching boundary transversally"
        )
    return red.restricted


def reduced_orbit(
    rmap: ReducedPwlMap,
    xi0,
    n_transient: int = 1000,
    n_keep: int = 3000,
    escape_radius: float = ESCAPE_RADIUS,
) -> OrbitData:
    """Orbit of a restricted map in chart coordinates, same contract as ``orbit``."""
    (res,) = _orbits([rmap._pieces], np.asarray(xi0, dtype=float)[None], n_transient,
                     n_keep, escape_radius, what="reduced orbit")
    if isinstance(res, NonFinite):
        raise res
    return res


# ---------------------------------------------------------------------------
# zero eigenvalue


def zero_eig_reduction(pwl: PwlMap, tol: float = 1e-9) -> AffineHyperplane:
    """Hyperplane carrying the range of the left piece.

    Requires the left matrix to be singular with a simple zero eigenvalue and
    1 outside its spectrum.  The returned plane passes through the left
    piece's fixed point with the left null vector as normal; every point of
    the left half-space maps onto it in one step.
    """
    det_l = linalg.determinant(pwl.A_L)
    if abs(det_l) > tol:
        raise NotSingular(f"det A_L = {det_l:.3e} exceeds the tolerance {tol:.1e}")
    spec_l = linalg.real_eigen(pwl.A_L)
    zeros = [t for t in spec_l.real if abs(t.value) <= tol]
    if not zeros:
        raise NotSingular("no real eigenvalue of A_L within tolerance of zero")
    if len(zeros) > 1 or zeros[0].multiplicity > 1:
        raise MultipleZero("zero is an eigenvalue of A_L with multiplicity above one")
    w = zeros[0].left
    try:
        y = _fixed_point(pwl.A_L, pwl.b)
    except SingularMatrix as exc:
        raise NoFixedPoint("1 is an eigenvalue of A_L, the left piece has no fixed point") from exc
    plane = AffineHyperplane.from_normal_point(w, y)
    # planarity of the range: w A_L ~ 0 and w . (b - y) ~ 0
    r1 = float(np.linalg.norm(plane.normal @ pwl.A_L)) / (1.0 + float(np.linalg.norm(pwl.A_L)))
    r2 = abs(float(plane.normal @ pwl.b) - plane.offset) / (1.0 + float(np.linalg.norm(pwl.b)))
    if max(r1, r2) > 1e3 * tol:
        raise IllConditioned("the range of the left piece is not planar within tolerance")
    return plane


@dataclass(frozen=True)
class InducedMapResult:
    image: np.ndarray
    return_time: int
    itinerary: tuple[str, ...]


# Per-sample outcome codes of _first_returns, indexing _STATUSES.
_RUNNING, _OK, _ESCAPED, _NON_FINITE = range(4)
_STATUSES = ("no_return", "ok", "escaped", "non_finite")


def _on_plane(plane: AffineHyperplane, Y: np.ndarray, r: np.ndarray, tol: float) -> np.ndarray:
    """``plane.contains`` for each ``(n, 1)`` vector of ``Y`` with norm ``r``."""
    N = np.broadcast_to(plane.normal, (len(Y), 1, plane.normal.size))
    return np.abs((N @ Y)[:, 0, 0] - plane.offset) <= tol * (1.0 + r)


def _first_returns(pwl, plane, X, j_max, escape_radius, membership_tol):
    """First return to ``plane`` of every row of ``X``, stepped together.

    Returns the outcome code, ambient image, return time and last piece
    (True for left) of each row; a row still running after ``j_max`` steps
    keeps the code ``_RUNNING``.  A step by the left piece returns at once,
    because the plane is that piece's range; any other step returns when
    ``|normal . y - offset| <= tol (1 + |y|)``.  Escape and a non-finite
    image are tested before the return.  Rows leave the active set as they
    finish, and each is bit-identical to stepping it alone.
    """
    P, n = X.shape
    status = np.full(P, _RUNNING)
    images = np.empty((P, n))
    times = np.zeros(P, dtype=int)
    last_left = np.zeros(P, dtype=bool)
    # Overflow ends in an escape or NonFinite below, not in a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        if not _on_plane(plane, X[:, :, None], _norms(X), membership_tol).all():
            raise ValueError("start point is not on the section")
        for lo in range(0, P, _BLOCK):
            idx = np.arange(lo, min(lo + _BLOCK, P))
            S = _stacked([pwl._pieces], idx.size)
            Y = X[idx, :, None]
            for j in range(1, j_max + 1):
                Y, left = _step(S, Y)
                left = left[:, 0, 0]
                r = _norms(Y[:, :, 0])
                escaped = r > escape_radius
                non_finite = ~escaped & ~np.isfinite(r)
                done = escaped | non_finite | left | _on_plane(plane, Y, r, membership_tol)
                if not done.any():
                    continue
                code = np.where(escaped, _ESCAPED, np.where(non_finite, _NON_FINITE, _OK))
                fin = idx[done]
                status[fin] = code[done]
                images[fin] = Y[done, :, 0]
                times[fin] = j
                last_left[fin] = left[done]
                idx, Y = idx[~done], Y[~done]
                if not idx.size:
                    break
                S = _Pieces(*(a[: idx.size] for a in S))
    return status, images, times, last_left


def _itinerary(return_time: int, last_left: bool) -> tuple[str, ...]:
    # Every step before the last is a right step: a left step returns at once.
    return (RIGHT,) * (return_time - 1) + (LEFT if last_left else RIGHT,)


def induced_map(
    pwl: PwlMap,
    plane: AffineHyperplane,
    x,
    j_max: int = J_MAX,
    escape_radius: float = ESCAPE_RADIUS,
    membership_tol: float = MEMBERSHIP_TOL,
) -> InducedMapResult:
    """First return to ``plane`` of the orbit starting at ``x`` (on the plane).

    The plane is the range of the left piece, so a step taken with the left
    piece returns immediately without a tolerance test; any other step
    returns when the membership test ``|normal . y - offset| <= tol (1 + |y|)``
    passes.
    """
    status, images, times, last_left = _first_returns(
        pwl, plane, np.asarray(x, dtype=float)[None], j_max, escape_radius, membership_tol
    )
    j = int(times[0])
    if status[0] == _ESCAPED:
        raise Escaped(f"excursion left |x| <= {escape_radius:g} after {j} steps")
    if status[0] == _NON_FINITE:
        raise NonFinite(f"excursion iterate {j} is not finite")
    if status[0] == _RUNNING:
        raise NoReturn(f"no return to the section within {j_max} iterations")
    return InducedMapResult(image=images[0], return_time=j,
                            itinerary=_itinerary(j, last_left[0]))


@dataclass(frozen=True)
class InducedSample:
    point: np.ndarray
    image: np.ndarray | None
    return_time: int | None
    itinerary: tuple[str, ...] | None
    status: str  # "ok" | "no_return" | "escaped" | "non_finite"


def sample_induced(
    pwl: PwlMap,
    plane: AffineHyperplane,
    grid,
    chart: Chart | None = None,
    j_max: int = J_MAX,
    escape_radius: float = ESCAPE_RADIUS,
    membership_tol: float = MEMBERSHIP_TOL,
) -> list[InducedSample]:
    """Evaluate the induced return map on chart-coordinate grid points.

    All points are stepped together, each bit-identical to ``induced_map``
    on its lifted point.  Failures are recorded per sample instead of
    aborting the sweep.
    """
    if chart is None:
        chart = plane_chart(plane)
    pts = np.array(grid, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.shape[1] != pwl.n - 1:
        raise ValueError(f"grid points must have {pwl.n - 1} chart coordinates")
    status, images, times, last_left = _first_returns(
        pwl, plane, chart.lift_many(pts), j_max, escape_radius, membership_tol
    )
    ok = status == _OK
    proj = np.empty(pts.shape)
    proj[ok] = chart.project_many(images[ok])
    return [
        InducedSample(pts[i], proj[i], j, _itinerary(j, left), "ok")
        if code == _OK
        else InducedSample(pts[i], None, None, None, _STATUSES[code])
        for i, (code, j, left) in enumerate(zip(status.tolist(), times.tolist(),
                                                last_left.tolist()))
    ]


# ---------------------------------------------------------------------------
# unit-modulus classification


RESONANT_ANGLES = (2.0 * np.pi / 3.0, np.pi / 2.0)


@dataclass(frozen=True)
class UnitModulusReport:
    """One eigenvalue of one piece sitting on the unit circle.

    ``kind`` is "SN" for an eigenvalue at +1, "PD" for -1 and "NS" for a
    complex pair; for "NS" the rotation angle ``theta`` lies in (0, pi) and
    ``resonant`` marks angles at which the standard invariant-curve picture
    breaks down (2 pi / 3 and pi / 2).
    """

    side: str
    kind: str
    value: float | None
    theta: float | None
    resonant: bool


def classify_unit_modulus(pwl: PwlMap, tol: float = 1e-9) -> list[UnitModulusReport]:
    """Report every eigenvalue of either piece within ``tol`` of modulus one."""
    out: list[UnitModulusReport] = []
    for side, A in ((LEFT, pwl.A_L), (RIGHT, pwl.A_R)):
        spec = linalg.real_eigen(A)
        for t in spec.real:
            if abs(abs(t.value) - 1.0) <= tol:
                kind = "SN" if t.value > 0.0 else "PD"
                out.append(UnitModulusReport(side, kind, value=t.value, theta=None, resonant=False))
        for pr in spec.complex_pairs:
            if abs(pr.modulus - 1.0) <= tol:
                theta = float(np.arctan2(pr.imag, pr.real))
                resonant = any(abs(theta - ang) <= tol for ang in RESONANT_ANGLES)
                out.append(UnitModulusReport(side, "NS", value=None, theta=theta, resonant=resonant))
    return out
