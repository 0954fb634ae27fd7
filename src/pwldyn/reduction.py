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

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .errors import (
    HypothesisViolated,
    IllConditioned,
    MultipleZero,
    NoFixedPoint,
    NonTransversal,
    NotContinuous,
    NotSingular,
    PwldynError,
    SingularMatrix,
    _record,
)
from .pwlmap import (
    ESCAPE_RADIUS,
    LEFT,
    RIGHT,
    FixedPoints,
    PwlMap,
    _fixed_point,
    _norms,
    _pieces,
    _Pieces,
    _step_rows,
    _TwoPieces,
    fixed_points,
    orbit,
    validate_continuity,
)

__all__ = [
    "AffineHyperplane",
    "Chart",
    "InducedSample",
    "InducedSamples",
    "MapReport",
    "ReducedPwlMap",
    "SharedEigReduction",
    "UnitModulusReport",
    "analyze",
    "classify_unit_modulus",
    "detect_shared_eigenvalue",
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


@dataclass(frozen=True, eq=False)
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
        if not w.any():
            raise ValueError("hyperplane normal is zero")
        w = linalg._sign_fixed(w)
        p = np.array(point, dtype=float)
        w.setflags(write=False)
        p.setflags(write=False)
        return cls(normal=w, base_point=p, offset=linalg._dot(w, p))

    def distances(self, X) -> np.ndarray:
        return linalg._rows_dot(X, self.normal) - self.offset


@dataclass(frozen=True, eq=False)
class Chart:
    """Orthonormal coordinates on an affine hyperplane."""

    base: np.ndarray
    basis: np.ndarray  # (n, n-1), orthonormal columns

    def lift_many(self, Xi) -> np.ndarray:
        """The ambient point ``base + basis xi`` of each row ``xi``."""
        return self.base + linalg._rows_dot(np.asarray(Xi, dtype=float)[:, None, :], self.basis)

    def project(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != self.base.shape:
            raise ValueError(f"x0 must be a vector of length {self.base.size}")
        return self.project_many(x[None])[0]

    def project_many(self, X) -> np.ndarray:
        """``project`` of each row: ``basis^T (x - base)``."""
        return linalg._rows_dot((np.asarray(X, dtype=float) - self.base)[:, None, :],
                                self.basis.T)


def plane_chart(plane: AffineHyperplane) -> Chart:
    return Chart(base=plane.base_point, basis=linalg.hyperplane_basis(plane.normal))


# ---------------------------------------------------------------------------
# shared eigenvalue


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


@dataclass(frozen=True, eq=False)
class SharedEigReduction:
    """Invariant-plane data for an eigenvalue shared by both pieces.

    ``left``/``right`` are the adjugate-scaled eigenvectors of the right
    piece; :meth:`deviation_many` is the affine functional that vanishes on
    the invariant plane and is multiplied by ``value`` under one map step.
    """

    value: float
    left: np.ndarray
    right: np.ndarray
    offset: float
    manifold: AffineHyperplane
    restricted: ReducedPwlMap | None
    other_shared: tuple[float, ...] = ()

    @property
    def transversal(self) -> bool:
        """Whether the plane crosses the switching plane transversally: ``restricted`` is set."""
        return self.restricted is not None

    def deviation_many(self, X) -> np.ndarray:
        return linalg._rows_dot(X, self.left) - self.offset


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
    validate_continuity(pwl)
    frame = pwl._frame
    shared = [t for t in linalg.real_eigen(pwl.A_R).real if _is_shared(frame, t, tol)]
    tied_to: list[float] = []
    for mag in sorted(abs(t.value) for t in shared):
        if not tied_to or mag - tied_to[-1] > tol * (1.0 + mag):
            tied_to.append(mag)
    shared.sort(key=lambda t: (max(m for m in tied_to if m <= abs(t.value)), -t.value))
    if not shared:
        return None
    for tr in shared:
        if _hypothesis_failure(frame, tr, tol) is None:
            break
    else:
        first = shared[0]
        raise HypothesisViolated(
            f"shared eigenvalue {first.value:.6g}: {_hypothesis_failure(frame, first, tol)}"
        )
    lam, u, v = tr.value, tr.left, tr.right
    offset = linalg._dot(u, pwl.b) / (1.0 - lam)
    try:
        base = _fixed_point(pwl.A_R, pwl.b)
    except SingularMatrix:  # 1 in the right spectrum: any zero of the deviation functional works
        base = u * (offset / linalg._dot(u, u))
    manifold = AffineHyperplane.from_normal_point(u, base)
    restricted = _build_restricted(pwl, u, base) if _transversal(u, frame.c, tol) else None
    others = tuple(t.value for t in shared if t is not tr)
    return SharedEigReduction(
        value=lam,
        left=u,
        right=v,
        offset=offset,
        manifold=manifold,
        restricted=restricted,
        other_shared=others,
    )


def _negligible(tol: float, *factors: np.ndarray) -> bool:
    """Whether ``|x . y| <= tol |x| |y|`` for the factors ``(x, y)``, or
    ``|x^T B y| <= tol |B| |x| |y|`` for ``(x, B, y)``: homogeneous in each
    factor, each taken from a frame, where nothing over- or underflows."""
    flat = [f.ravel().tolist() for f in factors]
    norms = [linalg._length(f) for f in flat]
    if len(flat) == 2:
        return abs(linalg._dot(*flat)) <= tol * norms[0] * norms[1]
    xb = [linalg._dot(col, flat[0]) for col in factors[1].T.tolist()]
    return abs(linalg._dot(xb, flat[2])) <= tol * (norms[1] * norms[0] * norms[2])


def _is_shared(frame, t: linalg.EigenTriple, tol: float) -> bool:
    """Whether ``det(t.value I - A_L) = c^T adj(t.value I - A_R) p``
    vanishes, on the map's ``frame``."""
    if t.canonical:  # adj(t.value I - A_R) = right left^T: test each factor
        return _negligible(tol, t.left, frame.p) or _negligible(tol, frame.c, t._direction)
    B = linalg._adjugate_at(linalg._shifted_rows(frame.A_R.tolist(), t.value * frame.unit))
    return _negligible(tol, frame.c, np.array(B), frame.p)


def _hypothesis_failure(frame, tr: linalg.EigenTriple, tol: float) -> str | None:
    # a simple value whose adjugate's scale passes the float range has
    # unit-norm vectors, not the canonical ones, and they fix the same plane
    if tr.multiplicity > 1:
        return "algebraic multiplicity exceeds one"
    if abs(1.0 - tr.value) <= tol * (1.0 + abs(tr.value)):
        return "the shared eigenvalue equals one"
    if _negligible(tol, frame.c, tr._direction):
        return "the right eigenvector is orthogonal to the switching normal"
    return None


def _transversal(u: np.ndarray, c: np.ndarray, tol: float) -> bool:
    """Whether ``u`` has a component off ``c`` above ``tol |u|``.  The test
    does not change when ``c`` is scaled; it takes the map's framed ``c``.
    ``u`` is a left eigenvector, with largest entry 1 or of unit norm."""
    rej = u - c * (linalg._dot(u, c) / linalg._dot(c, c))
    return linalg._length(rej) > tol * linalg._length(u)


def _build_restricted(pwl: PwlMap, u: np.ndarray, base: np.ndarray) -> ReducedPwlMap:
    B = linalg.hyperplane_basis(u)
    chart = Chart(base=np.array(base, dtype=float), basis=B)
    m_l, m_r = (linalg._matmul(linalg._matmul(B.T, A), B) for A in (pwl.A_L, pwl.A_R))
    d_l, d_r = (linalg._rows_dot(B.T, linalg._rows_dot(A, base) + pwl.b - base)
                for A in (pwl.A_L, pwl.A_R))
    return ReducedPwlMap(
        matrix_left=m_l,
        offset_left=d_l,
        matrix_right=m_r,
        offset_right=d_r,
        switch_normal=linalg._rows_dot(B.T, pwl.c),
        switch_offset=linalg._dot(pwl.c, base),
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


reduced_orbit = orbit  # a restricted map iterates in chart coordinates like any map


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
    r1 = linalg._length(linalg._rows_dot(pwl.A_L.T, plane.normal))
    r1 /= 1.0 + linalg._length(pwl.A_L)
    r2 = abs(plane.distances(pwl.b[None])[0]) / (1.0 + linalg._length(pwl.b))
    if max(r1, r2) > 1e3 * tol:
        raise IllConditioned("the range of the left piece is not planar within tolerance")
    return plane


# Per-sample outcome codes of _first_returns, indexing _STATUSES.
_RUNNING, _OK, _ESCAPED, _NON_FINITE = range(4)
_STATUSES = ("no_return", "ok", "escaped", "non_finite")


def _on_plane(plane: AffineHyperplane, Y: np.ndarray, r: np.ndarray, tol: float) -> np.ndarray:
    """The class's membership test for each row of ``Y``, with norm ``r``."""
    return np.abs(plane.distances(Y)) <= tol * (1.0 + r)


def _first_returns(pwl, plane, X, j_max, escape_radius, membership_tol):
    """First return to ``plane`` of every row of ``X``, stepped together.

    Returns the outcome code, ambient image, the step it finished at and
    the piece of that step (True for left) of each row; a row still running
    after ``j_max`` steps keeps the code ``_RUNNING`` and step 0.  A step by the left piece returns at once,
    because the plane is that piece's range; any other step returns when
    ``|normal . y - offset| <= tol (1 + |y|)``.  Escape and a non-finite
    image are tested before the return.  Rows step together in the columnar
    layout of the step (``_step_rows``) and leave the active set as they
    finish, so each is bit-identical to stepping it alone.
    """
    P, n = X.shape
    status = np.full(P, _RUNNING)
    images = np.empty((P, n))
    times = np.zeros(P, dtype=int)
    last_left = np.zeros(P, dtype=bool)
    # Overflow ends in an escaped or non-finite status below, not in a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        if not _on_plane(plane, X, _norms(X), membership_tol).all():
            raise ValueError("start point is not on the section")
        for lo in range(0, P, _BLOCK):
            idx = np.arange(lo, min(lo + _BLOCK, P))
            Y = X[idx]
            for j in range(1, j_max + 1):
                Y, left = _step_rows(pwl._pieces, Y)
                r = _norms(Y)
                escaped = r > escape_radius
                non_finite = ~escaped & ~np.isfinite(r)
                done = escaped | non_finite | left | _on_plane(plane, Y, r, membership_tol)
                if not done.any():
                    continue
                code = np.where(escaped, _ESCAPED, np.where(non_finite, _NON_FINITE, _OK))
                fin = idx[done]
                status[fin] = code[done]
                images[fin] = Y[done]
                times[fin] = j
                last_left[fin] = left[done]
                idx, Y = idx[~done], Y[~done]
                if not idx.size:
                    break
    return status, images, times, last_left


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
    each sample finished (0 while still running at ``j_max``), ``last_left``
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
    j_max: int = J_MAX,
    escape_radius: float = ESCAPE_RADIUS,
    membership_tol: float = MEMBERSHIP_TOL,
) -> InducedSamples:
    """Evaluate the induced return map on chart-coordinate grid points.

    All points are stepped together in the columnar layout of the step, as
    elementwise operations over the points, so each sample is bit-identical
    to stepping its lifted point alone.  A grid point's first return to the
    plane follows the map until a step by the left piece, whose range the
    plane is, or until ``|normal . y - offset| <= tol (1 + |y|)``.  Failures
    are recorded per sample instead of aborting the sweep.  The result holds the outcome
    columns as they come out of the stepping; its per-sample
    ``InducedSample`` records are built only when iterated.
    """
    if chart is None:
        chart = plane_chart(plane)
    pts = np.array(grid, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.shape[1] != pwl.n - 1:
        raise ValueError(f"grid points must have {pwl.n - 1} chart coordinates")
    status, images, steps, last_left = _first_returns(
        pwl, plane, chart.lift_many(pts), j_max, escape_radius, membership_tol
    )
    ok = status == _OK
    proj = np.full(pts.shape, np.nan)
    proj[ok] = chart.project_many(images[ok])
    columns = (pts, proj, steps, last_left, np.array(_STATUSES)[status])
    for column in columns:
        column.flags.writeable = False
    return InducedSamples(*columns)


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


# ---------------------------------------------------------------------------
# one report per map


@dataclass(frozen=True, eq=False)
class MapReport:
    """What ``analyze`` finds on one map.  ``p`` (NotContinuous), ``shared``
    (any PwldynError) and ``zero_plane`` (any but NotSingular, which gives
    None) hold the record ``"Type: message"`` of such an error in place of
    their value."""

    p: np.ndarray | str
    spectrum_left: linalg.Spectrum
    spectrum_right: linalg.Spectrum
    fixed_points: FixedPoints
    shared: SharedEigReduction | str | None
    zero_plane: AffineHyperplane | str | None
    unit_modulus: tuple[UnitModulusReport, ...]


def analyze(pwl: PwlMap, tol: float = 1e-9) -> MapReport:
    """Continuity, spectra, fixed points, both reductions and unit-modulus
    reports of ``pwl``, in that order; an error ``MapReport`` does not
    record propagates.  ``real_eigen``'s memo decomposes each piece once."""
    try:
        p = validate_continuity(pwl)
    except NotContinuous as exc:
        p = _record(exc)
    spectra = linalg.real_eigen(pwl.A_L), linalg.real_eigen(pwl.A_R)
    fixed = fixed_points(pwl)
    try:
        shared = detect_shared_eigenvalue(pwl, tol)
    except PwldynError as exc:
        shared = _record(exc)
    try:
        zero_plane = zero_eig_reduction(pwl, tol)
    except NotSingular:
        zero_plane = None
    except PwldynError as exc:
        zero_plane = _record(exc)
    return MapReport(p, *spectra, fixed, shared, zero_plane,
                     tuple(classify_unit_modulus(pwl, tol)))
