from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from pwldyn import (
    AffineHyperplane,
    BcnfParams,
    HypothesisViolated,
    NonFinite,
    SharedEigReduction,
    SingularMatrix,
    bcnf,
    fixed_points,
    linalg,
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


def bcnf_argv(params: BcnfParams) -> list[str]:
    """The CLI flags that give the normal form ``params``, values as their repr."""
    return [arg for key, value in dataclasses.asdict(params).items() if value is not None
            for arg in (f"--{key}", repr(value))]


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
    if tr.multiplicity > 1 or tl.multiplicity > 1:
        return "algebraic multiplicity exceeds one"
    if abs(1.0 - tr.value) <= tol * (1.0 + abs(tr.value)):
        return "the shared eigenvalue equals one"
    cv = abs(float(pwl.c @ tr.right))
    if cv <= tol * float(np.linalg.norm(pwl.c)) * float(np.linalg.norm(tr.right)):
        return "the right eigenvector is orthogonal to the switching normal"
    return None


def reference_solve(a, rhs, pivot_rtol=1e-12):
    """The NumPy elimination that ``solve`` replaced, kept as its oracle:
    partial pivoting by ``np.argmax``, row updates by ``np.outer`` and a
    NumPy dot per row in the back-substitution.  Overflow and invalid
    operations run silently."""
    A = np.asarray(a, dtype=float)
    b = np.asarray(rhs, dtype=float).copy()
    n = A.shape[0]
    U = A.copy()
    floor = pivot_rtol * float(np.max(np.abs(A)))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n):
            piv = k + int(np.argmax(np.abs(U[k:, k])))
            if abs(U[piv, k]) <= floor:
                raise SingularMatrix(f"pivot {U[piv, k]:.3e} below threshold in column {k}")
            if piv != k:
                U[[k, piv]] = U[[piv, k]]
                b[[k, piv]] = b[[piv, k]]
            mult = U[k + 1 :, k] / U[k, k]
            U[k + 1 :, k:] -= np.outer(mult, U[k, k:])
            b[k + 1 :] -= mult * b[k]
        x = np.empty(n)
        for k in range(n - 1, -1, -1):
            x[k] = (b[k] - U[k, k + 1 :] @ x[k + 1 :]) / U[k, k]
    return x


def _reference_det(a: np.ndarray) -> float:
    """Determinant as ``adjugate``'s cofactor loop took it: the closed forms
    up to 3x3 and Gaussian elimination with partial pivoting above."""
    n = a.shape[0]
    if n <= 3:
        return _reference_closed_det(a)
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


# ---------------------------------------------------------------------------
# The NumPy forms of ``real_eigen`` and its helpers that the scalar closed
# forms replaced, kept as bit-identity oracles: every closed form up to 3x3
# on NumPy scalars and arrays, realness decided at ``|imag| <= thr``, and the
# SVD adjugate above 3x3.

_REF_KEEP = {n: np.array([[k for k in range(n) if k != d] for d in range(n)]) for n in (2, 3)}
_REF_SIGN = {n: (-1.0) ** np.add.outer(np.arange(n), np.arange(n)) for n in (2, 3)}


def _reference_closed_det(a: np.ndarray) -> float:
    n = a.shape[0]
    if n == 1:
        return float(a[0, 0])
    if n == 2:
        return float(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])
    if n == 3:
        return float(
            a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
            - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
            + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0])
        )
    return float(np.linalg.det(a))


def _reference_vectorised_adjugate(a: np.ndarray) -> np.ndarray:
    n = a.shape[0]
    if n == 1:
        return np.ones((1, 1))
    if n <= 3:
        keep = _REF_KEEP[n]
        minors = a[keep[None, :, :, None], keep[:, None, None, :]]
        if n == 2:
            cof = minors[..., 0, 0]
        else:
            cof = minors[..., 0, 0] * minors[..., 1, 1] - minors[..., 0, 1] * minors[..., 1, 0]
        return _REF_SIGN[n] * cof
    U, s, Vt = np.linalg.svd(a)
    head = np.concatenate(([1.0], np.cumprod(s[:-1])))
    tail = np.concatenate((np.cumprod(s[:0:-1])[::-1], [1.0]))
    sign = np.sign(np.linalg.det(U) * np.linalg.det(Vt))
    return (sign * Vt.T * (head * tail)) @ U.T


def reference_char_roots(a) -> np.ndarray:
    """Characteristic roots as the NumPy closed forms computed them."""
    A = np.asarray(a, dtype=float)
    n = A.shape[0]
    if n == 1:
        return np.array([complex(A[0, 0])])
    if n == 2:
        tr = float(A[0, 0] + A[1, 1])
        return _reference_quadratic_roots(-tr, _reference_closed_det(A))
    if n == 3:
        tr = float(np.trace(A))
        e2 = float(
            A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
            + A[0, 0] * A[2, 2] - A[0, 2] * A[2, 0]
            + A[1, 1] * A[2, 2] - A[1, 2] * A[2, 1]
        )
        return _reference_cubic_roots(-tr, e2, -_reference_closed_det(A))
    return np.asarray(np.linalg.eigvals(A), dtype=complex)


def _reference_quadratic_roots(a: float, b: float) -> np.ndarray:
    disc = a * a - 4.0 * b
    if disc >= 0.0:
        s = math.sqrt(disc)
        r1 = (-a - s) / 2.0 if a >= 0.0 else (-a + s) / 2.0
        r2 = b / r1 if r1 != 0.0 else -a - r1
        return np.array([complex(r1), complex(r2)])
    s = math.sqrt(-disc) / 2.0
    return np.array([complex(-a / 2.0, -s), complex(-a / 2.0, s)])


def _reference_cubic_roots(a: float, b: float, c: float) -> np.ndarray:
    p = b - a * a / 3.0
    q = 2.0 * a**3 / 27.0 - a * b / 3.0 + c
    shift = -a / 3.0
    disc = -4.0 * p**3 - 27.0 * q * q
    if disc >= 0.0:
        if p == 0.0:
            t = np.zeros(3)
        else:
            m = 2.0 * math.sqrt(-p / 3.0)
            theta = math.acos(min(1.0, max(-1.0, 3.0 * q / (p * m))))
            t = m * np.cos((theta - 2.0 * np.pi * np.arange(3)) / 3.0)
        return _reference_polish_cubic(t + shift, a, b, c).astype(complex)
    s = math.sqrt(q * q / 4.0 + p**3 / 27.0)
    w = -q / 2.0 - s if q > 0.0 else -q / 2.0 + s
    wr = float(np.cbrt(w))
    t0 = wr - p / (3.0 * wr) if wr != 0.0 else 0.0
    r = float(_reference_polish_cubic(np.array([t0 + shift]), a, b, c)[0])
    quad = _reference_quadratic_roots(a + r, b + r * (a + r))
    return np.array([complex(r), quad[0], quad[1]])


def _reference_polish_cubic(roots: np.ndarray, a: float, b: float, c: float) -> np.ndarray:
    r = roots.astype(float)
    f = ((r + a) * r + b) * r + c
    for _ in range(2):
        df = (3.0 * r + 2.0 * a) * r + b
        safe = np.abs(df) > 1e-30
        step = np.where(safe, f / np.where(safe, df, 1.0), 0.0)
        step = np.where(np.abs(step) < 1.0 + np.abs(r), step, 0.0)
        r_new = r - step
        f_new = ((r_new + a) * r_new + b) * r_new + c
        keep = np.abs(f_new) <= np.abs(f)
        r, f = np.where(keep, r_new, r), np.where(keep, f_new, f)
    return r


def _reference_cluster(roots: np.ndarray, thr: float) -> list[tuple[complex, int]]:
    order = [int(i) for i in np.lexsort((roots.imag, roots.real))]
    assigned = np.zeros(len(roots), dtype=bool)
    out: list[tuple[complex, int]] = []
    for i in order:
        if assigned[i]:
            continue
        group = [i]
        assigned[i] = True
        frontier = [i]
        while frontier:
            k = frontier.pop()
            for j in order:
                if not assigned[j] and abs(roots[j] - roots[k]) <= thr:
                    assigned[j] = True
                    group.append(j)
                    frontier.append(j)
        out.append((complex(np.mean(roots[group])), len(group)))
    return out


def _reference_eigen_vectors(A: np.ndarray, lam: float, mult: int):
    n = A.shape[0]
    M = lam * np.eye(n) - A
    if mult == 1:
        B = _reference_vectorised_adjugate(M)
        i, j = np.unravel_index(int(np.argmax(np.abs(B))), B.shape)
        piv = B[i, j]
        if piv != 0.0 and np.isfinite(piv):
            return B[i, :] / piv, B[:, j].copy(), True
    U, _, Vt = np.linalg.svd(M)
    return linalg._sign_fixed(U[:, -1]), linalg._sign_fixed(Vt[-1, :]), False


def _reference_condition(t) -> float:
    u, v = t.left, t.right
    return abs(float(u @ v)) / (math.sqrt(float(u @ u)) * math.sqrt(float(v @ v)))


def reference_real_eigen(a) -> linalg.Spectrum:
    """``real_eigen`` as the NumPy forms computed it."""
    A = np.asarray(a, dtype=float)
    roots = reference_char_roots(A)
    thr = linalg.CLUSTER_RTOL * (1.0 + float(np.linalg.norm(A)))
    triples, pairs = [], []
    for val, mult in _reference_cluster(roots, thr):
        if abs(val.imag) <= thr:
            lam = float(val.real)
            left, right, canonical = _reference_eigen_vectors(A, lam, mult)
            triples.append(linalg.EigenTriple(lam, left, right, mult, canonical))
        elif val.imag > 0.0:
            pairs.append(linalg.ComplexPair(float(val.real), float(val.imag),
                                            float(abs(val)), mult))
    triples.sort(key=lambda t: t.value)
    pairs.sort(key=lambda p: (p.real, p.imag))
    # the merge decision itself is linalg's; this oracle checks the forms
    norm = float(np.linalg.norm(A))
    out = []
    prev_s = math.inf
    for t in triples:
        s = _reference_condition(t) if t.multiplicity == 1 else math.inf
        if max(s, prev_s) < linalg.DEFECTIVE_S and linalg._rounding_split(
                A, norm, out[-1].value, t.value, min(s, prev_s)):
            lam = 0.5 * (out[-1].value + t.value)
            left, right, canonical = _reference_eigen_vectors(A, lam, 2)
            out[-1] = linalg.EigenTriple(lam, left, right, 2, canonical)
            prev_s = math.inf
        else:
            out.append(t)
            prev_s = s
    return linalg.Spectrum(tuple(out), tuple(pairs))
