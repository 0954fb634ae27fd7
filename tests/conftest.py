from __future__ import annotations

import numpy as np
import pytest

from pwldyn import (
    AffineHyperplane,
    BcnfParams,
    HypothesisViolated,
    NonFinite,
    SharedEigReduction,
    bcnf,
    determinant,
    fixed_points,
    real_eigen,
    reduction,
    validate_continuity,
)
from pwldyn.pwlmap import LEFT, RIGHT

# Two-piece normal form with the left piece sharing the eigenvalue 0.2
# with the right piece (right spectrum {0.2, -1.5}, left {2, 0.2}).
SHARED_2D = BcnfParams(dim=2, tl=2.2, dl=0.4, tr=-1.3, dr=-0.3)

# Left piece singular (zero determinant), left fixed point admissible.
FLAT_LEFT_2D = BcnfParams(dim=2, tl=1.3, dl=0.0, tr=-1.4, dr=1.5)

# Three-dimensional analogue with a singular left piece.
FLAT_LEFT_3D = BcnfParams(dim=3, tl=1.6, dl=0.0, sl=0.8, tr=-1.5, dr=1.0, sr=0.0)


def shared_3d_params() -> BcnfParams:
    """Tune the left determinant so the left piece picks up the real
    eigenvalue of the right piece (tl=0, sl=-1 makes that determinant
    lam**3 - lam)."""
    a_r = bcnf(BcnfParams(dim=3, tl=0.0, dl=0.0, sl=-1.0, tr=0.0, dr=-0.6, sr=3.0)).A_R
    reals = real_eigen(a_r).real_values()
    assert len(reals) == 1
    lam = reals[0]
    return BcnfParams(dim=3, tl=0.0, dl=lam**3 - lam, sl=-1.0, tr=0.0, dr=-0.6, sr=3.0)


@pytest.fixture
def shared_map():
    return bcnf(SHARED_2D)


@pytest.fixture
def flat_left_map():
    return bcnf(FLAT_LEFT_2D)


@pytest.fixture
def flat_left_map_3d():
    return bcnf(FLAT_LEFT_3D)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def reference_orbit(pwl, x0, n_transient, n_keep, escape_radius, what="orbit"):
    """The one-point orbit loop that ``orbit`` replaced, kept as its oracle:
    a NumPy norm and escape test before every step and a per-point
    itinerary write.  Returns points, itinerary, transient_discarded and
    escape_index, or raises NonFinite."""
    x = np.asarray(x0, dtype=float).copy()
    pts = np.empty((n_keep, pwl.n))
    its = np.empty(n_keep, dtype="<U1")
    kept = 0
    escape_index = None
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_transient + n_keep):
            r = float(np.linalg.norm(x))
            if r > escape_radius:
                escape_index = k
                break
            if not np.isfinite(r):
                raise NonFinite(f"{what} iterate {k} is not finite")
            cx = float(pwl.c @ x)
            if k >= n_transient:
                pts[kept] = x
                its[kept] = LEFT if cx < 0.0 else RIGHT
                kept += 1
            x = (pwl.A_L if cx < 0.0 else pwl.A_R) @ x + pwl.b
    discarded = n_transient if escape_index is None else min(n_transient, escape_index)
    return pts[:kept], its[:kept], discarded, escape_index


def reference_detect_shared(pwl, tol=1e-9):
    """The two-spectrum matching that ``detect_shared_eigenvalue`` replaced,
    kept as its oracle: both pieces decomposed, every real eigenvalue of
    ``A_R`` matched to the nearest one of ``A_L`` within
    ``tol (1 + |value|)``, and a match rejected when either side has
    multiplicity above one."""
    validate_continuity(pwl)
    spec_l = real_eigen(pwl.A_L)
    spec_r = real_eigen(pwl.A_R)
    cands = []
    for tr in spec_r.real:
        best = None
        for tl in spec_l.real:
            if abs(tl.value - tr.value) <= tol * (1.0 + abs(tl.value)):
                if best is None or abs(tl.value - tr.value) < abs(best.value - tr.value):
                    best = tl
        if best is not None:
            cands.append((tr, best))
    if not cands:
        return None
    cands.sort(key=lambda pair: (abs(pair[0].value), pair[0].value))
    chosen = None
    first_failure = None
    for tr, tl in cands:
        failure = _reference_failure(pwl, tr, tl, tol)
        if failure is None:
            chosen = (tr, tl)
            break
        if first_failure is None:
            first_failure = (tr.value, failure)
    if chosen is None:
        val, failure = first_failure
        raise HypothesisViolated(f"shared eigenvalue {val:.6g}: {failure}")
    tr, _ = chosen
    lam, u, v = tr.value, tr.left, tr.right
    offset = float(u @ pwl.b) / (1.0 - lam)
    fp = fixed_points(pwl)
    if fp.right.point is not None:
        base = fp.right.point
    else:
        base = u * (offset / float(u @ u))
    manifold = AffineHyperplane.from_normal_point(u, base)
    transversal = reduction._transversal(u, pwl.c, tol)
    restricted = reduction._build_restricted(pwl, u, base) if transversal else None
    others = tuple(t.value for t, _ in cands if t is not tr)
    return SharedEigReduction(pwl=pwl, value=lam, left=u, right=v, offset=offset,
                              manifold=manifold, transversal=transversal,
                              restricted=restricted, other_shared=others)


def _reference_failure(pwl, tr, tl, tol):
    if tr.multiplicity > 1 or tl.multiplicity > 1 or not tr.canonical:
        return "algebraic multiplicity exceeds one"
    if abs(1.0 - tr.value) <= tol * (1.0 + abs(tr.value)):
        return "the shared eigenvalue equals one"
    cv = abs(float(pwl.c @ tr.right))
    if cv <= tol * float(np.linalg.norm(pwl.c)) * float(np.linalg.norm(tr.right)):
        return "the right eigenvector is orthogonal to the switching normal"
    return None


def _reference_det(a: np.ndarray) -> float:
    """Determinant as ``adjugate``'s cofactor loop took it: the closed forms
    up to 3x3 and Gaussian elimination with partial pivoting above."""
    n = a.shape[0]
    if n <= 3:
        return determinant(a)
    U = a.copy()
    sign = 1.0
    for k in range(n - 1):
        piv = k + int(np.argmax(np.abs(U[k:, k])))
        if U[piv, k] == 0.0:
            return 0.0
        if piv != k:
            U[[k, piv]] = U[[piv, k]]
            sign = -sign
        mult = U[k + 1 :, k] / U[k, k]
        U[k + 1 :, k:] -= np.outer(mult, U[k, k:])
    return float(sign * np.prod(np.diag(U)))


def reference_adjugate(a):
    """The cofactor loop that ``adjugate`` replaced, kept as its oracle:
    entry (i, j) is (-1)^(i + j) times the determinant of ``a`` without row
    j and column i."""
    A = np.asarray(a, dtype=float)
    n = A.shape[0]
    if n == 1:
        return np.ones((1, 1))
    adj = np.empty((n, n))
    idx = np.arange(n)
    for i in range(n):
        for j in range(n):
            minor = A[np.ix_(idx != j, idx != i)]  # drop row j and column i
            adj[i, j] = (-1.0) ** (i + j) * _reference_det(minor)
    return adj
