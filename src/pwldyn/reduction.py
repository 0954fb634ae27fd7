"""Dimension reductions for continuous piecewise-linear maps.

Three scenarios are covered.  When both pieces share a simple eigenvalue the
map leaves an affine hyperplane invariant and restricts to a piecewise-linear
map of one dimension less.  When the left piece is singular its whole
half-space maps onto an affine hyperplane in one step, and the first-return
map induced on that plane is piecewise-linear with expanding pieces.  When an
eigenvalue sits on the unit circle the map is classified by the matching
boundary-crossing type.

The reductions are linear algebra on the two pieces: they find the planes and
build the restricted map.  Both maps, the plane and its chart, and the
sampler of the first-return map live in ``pwlmap``, which steps them.
Detection decides on the map's frame (``PwlMap._frame``): its verdicts, and
continuity's, hold for both pieces times ``2^k``, ``k >= 0``, or ``c`` rescaled.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

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
    _record,
)
from .pwlmap import (
    LEFT,
    RIGHT,
    TOL,
    AffineHyperplane,
    Chart,
    FixedPoints,
    PwlMap,
    ReducedPwlMap,
    fixed_points,
    orbit,
    validate_continuity,
)

__all__ = [
    "MapReport",
    "SharedEigReduction",
    "UnitModulusReport",
    "analyze",
    "classify_unit_modulus",
    "detect_shared_eigenvalue",
    "reduced_orbit",
    "restrict_to_manifold",
    "zero_eig_reduction",
]


# ---------------------------------------------------------------------------
# shared eigenvalue


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


def detect_shared_eigenvalue(pwl: PwlMap, tol: float = TOL) -> SharedEigReduction | None:
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
    naming the failure of the first.  Raises IllConditioned, without a
    warning, when the plane's offset or an entry of the restricted map is
    past the float range.
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
    if not math.isfinite(offset):  # a finite one gives a finite base point below
        raise IllConditioned("the invariant plane is past the float range")
    base = fixed_points(pwl).right.point
    if base is None:  # no right fixed point: any zero of the deviation functional works
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


def _negligible(tol: float, x, y) -> bool:
    """Whether ``|x . y| <= tol |x| |y|`` for the arrays or lists ``x`` and
    ``y``: homogeneous in each vector, each taken from a frame, where nothing
    over- or underflows."""
    return abs(linalg._dot(x, y)) <= tol * linalg._length(x) * linalg._length(y)


def _is_shared(frame, t: linalg.EigenTriple, tol: float) -> bool:
    """Whether ``det(t.value I - A_L) = c^T adj(t.value I - A_R) p``
    vanishes, on the map's ``frame``: for a canonical ``t``, whose adjugate
    is ``right left^T``, when either factor is ``_negligible``, else when
    ``|c^T B p| <= tol |B| |c| |p|`` on the rows ``B`` of the adjugate."""
    if t.canonical:
        return _negligible(tol, t.left, frame.p) or _negligible(tol, frame.c, t._direction)
    B = linalg._adjugate_at(linalg._shifted_rows(frame.A_R, t.value * frame.unit))
    c, p = frame.c, frame.p
    cB = [linalg._dot([row[j] for row in B], c) for j in range(len(B))]
    norm_b = linalg._length([x for row in B for x in row])
    return abs(linalg._dot(cB, p)) <= tol * (norm_b * linalg._length(c) * linalg._length(p))


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


def _transversal(u: np.ndarray, c: list[float], tol: float) -> bool:
    """Whether ``u`` has a component off ``c`` above ``tol |u|``.  The test
    does not change when ``c`` is scaled; it takes the map's framed ``c``.
    ``u`` is a left eigenvector, with largest entry 1 or of unit norm.  In
    1-D ``u`` is parallel to ``c`` and the plane is a point, whatever the
    rounding residue of the component off ``c``: never transversal."""
    if u.size == 1:
        return False
    k = linalg._dot(u, c) / linalg._dot(c, c)
    rej = [x - y * k for x, y in zip(u.tolist(), c)]
    return linalg._length(rej) > tol * linalg._length(u)


def _build_restricted(pwl: PwlMap, u: np.ndarray, base: np.ndarray) -> ReducedPwlMap:
    B = linalg.hyperplane_basis(u)
    chart = Chart(base=np.array(base, dtype=float), basis=B)
    # B^T A B, B^T (A base + b - base) and B^T c on rows, each entry one
    # in-order sum (linalg._dot); past the float range: raised below
    cols, x, b, c = B.T.tolist(), chart.base.tolist(), pwl.b.tolist(), pwl.c.tolist()
    parts = []
    for A in (pwl.A_L, pwl.A_R):
        BtA = [[linalg._dot(col, a) for a in A.T.tolist()] for col in cols]
        image = [linalg._dot(row, x) + bi - xi for row, bi, xi in zip(A.tolist(), b, x)]
        parts += [[[linalg._dot(r, col) for col in cols] for r in BtA],
                  [linalg._dot(col, image) for col in cols]]
    m_l, d_l, m_r, d_r = parts
    switch_normal = [linalg._dot(col, c) for col in cols]
    switch_offset = linalg._dot(c, x)
    if not all(map(math.isfinite, chain(*m_l, d_l, *m_r, d_r, switch_normal, [switch_offset]))):
        raise IllConditioned("the restricted map is past the float range")
    return ReducedPwlMap(
        matrix_left=np.array(m_l),
        offset_left=np.array(d_l),
        matrix_right=np.array(m_r),
        offset_right=np.array(d_r),
        switch_normal=np.array(switch_normal),
        switch_offset=switch_offset,
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


def zero_eig_reduction(pwl: PwlMap, tol: float = TOL) -> AffineHyperplane:
    """Hyperplane carrying the range of the left piece.

    Requires one simple real eigenvalue of the left matrix within ``tol`` of
    zero, an absolute test (else NotSingular or MultipleZero), and a left
    fixed point (else NoFixedPoint, naming the ``fixed_points`` reason: 1 in
    the spectrum, or a solve past the float range).  The plane passes
    through that fixed point with the left null vector as normal; every
    point of the left half-space maps onto it in one step.  A planarity
    residual above ``1e3 * tol``, or not finite, raises IllConditioned.
    """
    zeros = [t for t in linalg.real_eigen(pwl.A_L).real if abs(t.value) <= tol]
    if not zeros:
        raise NotSingular("no real eigenvalue of A_L within tolerance of zero")
    if len(zeros) > 1 or zeros[0].multiplicity > 1:
        raise MultipleZero("zero is an eigenvalue of A_L with multiplicity above one")
    w = zeros[0].left
    left = fixed_points(pwl).left
    if left.point is None:
        raise NoFixedPoint(f"the left piece has no fixed point: {left.reason}")
    plane = AffineHyperplane.from_normal_point(w, left.point)
    # planarity of the range: w A_L ~ 0 and w . (b - y) ~ 0, on Python floats,
    # which overflow without a warning; a NaN residual fails the test too
    r1 = linalg._length([linalg._dot(col, plane.normal) for col in pwl.A_L.T.tolist()])
    r1 /= 1.0 + linalg._length(pwl.A_L)
    r2 = abs(linalg._dot(pwl.b, plane.normal) - plane.offset) / (1.0 + linalg._length(pwl.b))
    if not (r1 <= 1e3 * tol and r2 <= 1e3 * tol):
        raise IllConditioned("the range of the left piece is not planar within tolerance")
    return plane


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


def classify_unit_modulus(pwl: PwlMap, tol: float = TOL) -> list[UnitModulusReport]:
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


def analyze(pwl: PwlMap, tol: float = TOL) -> MapReport:
    """Continuity, spectra, fixed points, both reductions and unit-modulus
    reports of ``pwl``, in that order; an error ``MapReport`` does not
    record propagates.  Each piece is decomposed (``real_eigen``'s memo) and solved once."""
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
