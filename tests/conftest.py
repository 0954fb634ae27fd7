from __future__ import annotations

import dataclasses
import math
import sys
from itertools import chain

import numpy as np
import pytest

from pwldyn import (
    AffineHyperplane,
    BcnfParams,
    Chart,
    HypothesisViolated,
    IllConditioned,
    NonFinite,
    ReducedPwlMap,
    SharedEigReduction,
    bcnf,
    fixed_points,
    linalg,
    pwlmap,
    real_eigen,
    reduction,
    validate_continuity,
)
from pwldyn.linalg import adjugate, determinant
from pwldyn.pwlmap import LEFT, RIGHT

# Two-piece normal form with the left piece sharing the eigenvalue 0.2
# with the right piece (right spectrum {0.2, -1.5}, left {2, 0.2}).
SHARED_2D = BcnfParams(dim=2, tl=2.2, dl=0.4, tr=-1.3, dr=-0.3)

# Left piece singular (zero determinant), left fixed point admissible.
FLAT_LEFT_2D = BcnfParams(dim=2, tl=1.3, dl=0.0, tr=-1.4, dr=1.5)

# Three-dimensional analogue with a singular left piece.
FLAT_LEFT_3D = BcnfParams(dim=3, tl=1.6, dl=0.0, sl=0.8, tr=-1.5, dr=1.0, sr=0.0)

# A_L is the defective piece DEFECTIVE_3D of test_linalg, whose double root
# -2 is merged from two simple ones; A_R = A_L + (1.5, -1, 0.5) e1^T has the
# same defective double root, so detection reports a hypothesis violation.
MATRIX_3D = """3
-1 0 0
2 -2 -1.5
-0.5 0 -2
0.5 0 0
1 -2 -1.5
0 0 -2
1 0.5 -0.25
1 0 0
"""


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


def _in_order(coeffs, x):
    """``((coeffs[0] x[0] + coeffs[1] x[1]) + ...)`` on Python floats, every
    product and sum rounded once; 0.0 without terms."""
    total = 0.0
    for i, (a, v) in enumerate(zip(coeffs, x)):
        term = float(a) * float(v)
        total = term if i == 0 else total + term
    return total


def reference_norm(x) -> float:
    """Euclidean norm of the entries of ``x``, the root of their in-order sum
    of squares."""
    flat = np.ravel(x).tolist()
    return math.sqrt(_in_order(flat, flat))


def reference_step(A_L, d_L, A_R, d_R, c, t, x):
    """One step as the stepping kernel defines it, in plain Python: the
    side test ``((c_0 x_0 + c_1 x_1) + ...) < t`` and image rows
    ``((a_i0 x_0 + a_i1 x_1) + ...) + d_i``, every product and sum rounded
    once.  Returns whether the left piece applied and the image as a list."""
    x = np.asarray(x, dtype=float).tolist()
    left = _in_order(np.asarray(c).tolist(), x) < t
    A, d = (A_L, d_L) if left else (A_R, d_R)
    return left, [_in_order(row, x) + di for row, di in zip(A.tolist(), d.tolist())]


def reference_contains(plane, x, tol):
    """Plane membership of one point, ``|normal . x - offset| <= tol (1 + |x|)``,
    with in-order sums on Python floats, apart from the sampler's columns."""
    x = np.asarray(x, dtype=float)
    return abs(_in_order(plane.normal, x) - plane.offset) <= tol * (1.0 + reference_norm(x))


def reference_lift(chart, xi):
    """Chart coordinates to a point, ``base + basis xi``, one in-order sum per row."""
    return chart.base + np.array([_in_order(row, xi) for row in chart.basis], dtype=float)


def reference_project(chart, x):
    """A point to chart coordinates, ``basis^T (x - base)``, one in-order sum per column."""
    d = np.asarray(x, dtype=float) - chart.base
    return np.array([_in_order(col, d) for col in chart.basis.T], dtype=float)


def pieces(m):
    """The six arguments ``A_L, d_L, A_R, d_R, c, t`` of ``reference_step``
    for a map or a restricted map ``m``."""
    if isinstance(m, ReducedPwlMap):
        return (m.matrix_left, m.offset_left, m.matrix_right, m.offset_right,
                m.switch_normal, -m.switch_offset)
    return m.A_L, m.b, m.A_R, m.b, m.c, 0.0


def reference_orbit(A_L, d_L, A_R, d_R, c, t, x0, n_transient, n_keep, escape_radius):
    """The one-point orbit loop, kept as the oracle of ``orbit``: an
    in-order norm and escape test before every step, a per-point itinerary write and
    ``reference_step`` on the pieces ``A_L, d_L, A_R, d_R, c, t``.  Returns
    points, itinerary, transient_discarded and escape_index, or raises
    NonFinite."""
    x = np.asarray(x0, dtype=float).copy()
    pts = np.empty((n_keep, len(c)))
    its = np.empty(n_keep, dtype="<U1")
    kept = 0
    escape_index = None
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_transient + n_keep):
            r = reference_norm(x)
            if r > escape_radius:
                escape_index = k
                break
            if not np.isfinite(r):
                raise NonFinite(f"orbit iterate {k} is not finite")
            left, image = reference_step(A_L, d_L, A_R, d_R, c, t, x)
            if k >= n_transient:
                pts[kept] = x
                its[kept] = LEFT if left else RIGHT
                kept += 1
            x = np.array(image)
    discarded = n_transient if escape_index is None else min(n_transient, escape_index)
    return pts[:kept], its[:kept], discarded, escape_index


def reference_chunked_orbit(two_pieces, x0, n_transient, n_keep, escape_radius):
    """The chunked orbit loop that ``orbit`` folded, kept as its oracle:
    the generic ``pwlmap._kernel("steps", n)`` steps and stores every
    iterate, the transient's too, and each chunk of ``pwlmap._CHUNK`` is
    tested at once, with norms only when a coordinate leaves the ``quiet``
    box.  Returns points, itinerary, transient_discarded and escape_index of
    the map or restricted map ``two_pieces``, or raises NonFinite."""
    p = two_pieces._pieces
    n = p.n
    steps = pwlmap._kernel("steps", n)
    quiet = (min(escape_radius, pwlmap._QUIET_MAX) / math.sqrt(n)
             * (1.0 - 16 * n * pwlmap._EPS))
    pts = np.empty((n_keep, n))
    x = np.asarray(x0, dtype=float).tolist()
    total = n_transient + n_keep
    stop = None
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in chain(range(0, n_transient, pwlmap._CHUNK),
                        range(n_transient, total, pwlmap._CHUNK)):
            k = min(lo + pwlmap._CHUNK, n_transient if lo < n_transient else total) - lo
            coords: list[float] = []
            x = steps(p.flat, x, k, coords)
            buf = np.fromiter(coords, float, k * n).reshape(k, n)
            if lo >= n_transient:
                pts[lo - n_transient : lo - n_transient + k] = buf
            if np.abs(buf).max() < quiet:
                continue
            r = pwlmap._norms(buf)
            bad = (r > escape_radius) | ~np.isfinite(r)
            if bad.any():
                i = int(bad.argmax())
                stop = lo + i
                if not r[i] > escape_radius:
                    raise NonFinite(f"orbit iterate {stop} is not finite")
                pts = pts[: max(0, stop - n_transient)]
                break
        lefts = pwlmap._kernel("sides", n)(p.flat, pts.T)
    discarded = n_transient if stop is None else min(n_transient, stop)
    return pts, np.where(lefts, LEFT, RIGHT), discarded, stop


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
    offset = _in_order(u, pwl.b) / (1.0 - lam)
    fp = fixed_points(pwl)
    if fp.right.point is not None:
        base = fp.right.point
    else:
        base = u * (offset / _in_order(u, u))
    manifold = AffineHyperplane.from_normal_point(u, base)
    transversal = reduction._transversal(u, pwl.c, tol)
    restricted = reference_build_restricted(pwl, u, base) if transversal else None
    others = tuple(t.value for t, _ in cands if t is not tr)
    return SharedEigReduction(value=lam, left=u, right=v, offset=offset,
                              manifold=manifold, restricted=restricted, other_shared=others)


def _reference_matmul(A, B) -> np.ndarray:
    """``A @ B`` of two matrices, each entry ``linalg._rows_dot`` of a row and a column."""
    return linalg._rows_dot(np.asarray(A, dtype=float)[:, None, :], np.asarray(B, dtype=float).T)


def reference_build_restricted(pwl, u, base):
    """``reduction._build_restricted`` as NumPy sums of columns took it, kept
    as its bit oracle: ``B^T A B`` as two ``_reference_matmul`` products, the
    offsets ``B^T (A base + b - base)`` and the switch normal ``B^T c`` as
    ``linalg._rows_dot``; IllConditioned when an entry is not finite."""
    B = linalg.hyperplane_basis(u)
    with np.errstate(over="ignore", invalid="ignore"):
        m_l, m_r = (_reference_matmul(_reference_matmul(B.T, A), B) for A in (pwl.A_L, pwl.A_R))
        d_l, d_r = (linalg._rows_dot(B.T, linalg._rows_dot(A, base) + pwl.b - base)
                    for A in (pwl.A_L, pwl.A_R))
        switch_normal = linalg._rows_dot(B.T, pwl.c)
    switch_offset = linalg._dot(pwl.c, base)
    if not all(np.isfinite(a).all() for a in (m_l, d_l, m_r, d_r, switch_normal, switch_offset)):
        raise IllConditioned("the restricted map is past the float range")
    return ReducedPwlMap(matrix_left=m_l, offset_left=d_l, matrix_right=m_r, offset_right=d_r,
                         switch_normal=switch_normal, switch_offset=switch_offset,
                         chart=Chart(base=np.array(base, dtype=float), basis=B))


def _reference_failure(pwl, tr, tl, tol):
    if tr.multiplicity > 1 or tl.multiplicity > 1:
        return "algebraic multiplicity exceeds one"
    if abs(1.0 - tr.value) <= tol * (1.0 + abs(tr.value)):
        return "the shared eigenvalue equals one"
    cv = abs(_in_order(pwl.c, tr.right))
    if cv <= tol * reference_norm(pwl.c) * reference_norm(tr.right):
        return "the right eigenvector is orthogonal to the switching normal"
    return None


def det_lemma_sides(a, q, r) -> tuple[float, float]:
    """Both sides of the matrix determinant lemma ``det(A + r q^T) =
    det(A) + q^T adj(A) r``, through ``determinant`` and ``adjugate``."""
    return determinant(a + np.outer(r, q)), determinant(a) + float(q @ adjugate(a) @ r)


def reference_solve(a, rhs):
    """Gaussian elimination on NumPy arrays, the oracle of
    ``linalg._solve_rows``: the pivot is the first row whose ``|entry|`` no
    later row exceeds (so a NaN, once elimination overflows, never displaces
    an earlier pivot), None at a pivot at or below ``PIVOT_RTOL`` times the
    largest entry, row updates by ``np.outer`` and an in-order sum per row
    tail in the back-substitution.  Overflow and invalid operations run
    silently."""
    A = np.asarray(a, dtype=float)
    b = np.asarray(rhs, dtype=float).copy()
    n = A.shape[0]
    U = A.copy()
    floor = linalg.PIVOT_RTOL * float(np.max(np.abs(A)))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n):
            piv = k
            for i in range(k + 1, n):
                if abs(U[i, k]) > abs(U[piv, k]):
                    piv = i
            if abs(U[piv, k]) <= floor:
                return None
            if piv != k:
                U[[k, piv]] = U[[piv, k]]
                b[[k, piv]] = b[[piv, k]]
            mult = U[k + 1 :, k] / U[k, k]
            U[k + 1 :, k:] -= np.outer(mult, U[k, k:])
            b[k + 1 :] -= mult * b[k]
        x = np.empty(n)
        for k in range(n - 1, -1, -1):
            x[k] = (b[k] - _in_order(U[k, k + 1 :], x[k + 1 :])) / U[k, k]
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
# ``real_eigen`` and its helpers on NumPy scalars and arrays, kept as
# bit-identity oracles of the scalar forms: every closed form up to 3x3,
# realness decided at ``|imag| <= thr``, in-order sums for the trace, the
# cluster means, the norms and the condition numbers, and the SVD adjugate
# above 3x3, all in the frame of ``reference_frame``.  Where a plain form
# over- or underflows there they raise.

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
    return reference_svd_adjugate(a)


def reference_svd_adjugate(a) -> np.ndarray:
    """The SVD adjugate above 3x3 as NumPy took it, kept as its bit oracle:
    the products of singular values by ``np.cumprod`` and the sign from two
    ``np.linalg.det`` calls.  It warns where a product overflows."""
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
    if n <= 3:
        return _reference_poly_roots(_reference_char_coeffs(A))
    return np.asarray(np.linalg.eigvals(A), dtype=complex)


def _reference_char_coeffs(A: np.ndarray) -> list[float]:
    """Coefficients below the leading 1 of the characteristic polynomial of
    a 2x2 or 3x3 matrix."""
    if A.shape[0] == 2:
        return [-float(A[0, 0] + A[1, 1]), _reference_closed_det(A)]
    tr = float(A[0, 0] + A[1, 1] + A[2, 2])
    e2 = float(
        A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
        + A[0, 0] * A[2, 2] - A[0, 2] * A[2, 0]
        + A[1, 1] * A[2, 2] - A[1, 2] * A[2, 1]
    )
    return [-tr, e2, -_reference_closed_det(A)]


def _reference_poly_roots(coeffs: list[float]) -> np.ndarray:
    if len(coeffs) == 2:
        return _reference_quadratic_roots(*coeffs)
    return _reference_cubic_roots(*coeffs)


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
        total = roots[group[0]]
        for j in group[1:]:
            total = total + roots[j]
        out.append((complex(total.real / len(group), total.imag / len(group)), len(group)))
    return out


def _reference_unit(v: np.ndarray) -> np.ndarray:
    """``v`` over a power of two near its largest entry, then at unit norm
    with its first component above 1e-12 in magnitude positive."""
    v = np.ldexp(v, -math.frexp(float(np.abs(v).max()))[1])
    w = v / reference_norm(v)
    first = next((x for x in w if abs(x) > 1e-12), 1.0)
    return -w if first < 0.0 else w


def _reference_eigen_vectors(F: np.ndarray, e: int, lam: float, mult: int):
    """The vectors at the root ``lam`` of the frame ``F = A / 2^e``: a
    simple root's right vector times ``2^(e (n - 1))`` on Python floats,
    unit-norm vectors where that product is not exact."""
    n = F.shape[0]
    M = -F
    M[np.diag_indices(n)] = lam - np.diag(F)
    if mult == 1 or n <= 3:
        B = _reference_vectorised_adjugate(M)
        i, j = np.unravel_index(int(np.argmax(np.abs(B))), B.shape)
        piv = B[i, j]
        if piv != 0.0 and np.isfinite(piv):
            k = e * (n - 1)
            column = B[:, j].tolist()
            try:
                right = [math.ldexp(x, k) for x in column]
            except OverflowError:
                right = None
            if mult == 1 and right is not None and [math.ldexp(x, -k) for x in right] == column:
                return B[i, :] / piv, np.array(right), True
            return _reference_unit(B[i, :]), _reference_unit(B[:, j]), False
    U, _, Vt = np.linalg.svd(M)
    return _reference_unit(U[:, -1]), _reference_unit(Vt[-1, :]), False


def _reference_condition(t) -> float:
    u, v = t.left, t.right
    uv, uu, vv = _in_order(u, v), _in_order(u, u), _in_order(v, v)
    scale = math.sqrt(uu) * math.sqrt(vv)
    if not (math.isfinite(uv) and np.finfo(float).tiny <= scale < math.inf):
        raise ArithmeticError("s(lam) is out of range without rescaling")
    return abs(uv) / scale


def reference_frame(a) -> tuple[np.ndarray, int]:
    """``(a / 2^e, e)``, ``2^e`` the power of two just above the largest
    magnitude of ``a`` but at least ``2^min_exp``: the frame in which
    ``real_eigen`` decides."""
    A = np.asarray(a, dtype=float)
    e = max(int(np.frexp(np.abs(A).max())[1]), sys.float_info.min_exp)
    return np.ldexp(A, -e), e


def reference_frame_roots(a) -> np.ndarray:
    """Characteristic roots of the frame of ``a``: LAPACK's roots of ``a``
    divided by ``2^e`` above 3x3; up to 3x3 the NumPy closed forms on the
    frame's characteristic polynomial in ``y = x / 2^k``, ``2^k`` the power
    of two just above the roots' scale ``max |coefficient_i|^(1/i)``, so
    that roots far below 1 do not underflow the discriminant."""
    F, e = reference_frame(a)
    if F.shape[0] == 1:
        return reference_char_roots(F)
    if F.shape[0] <= 3:
        coeffs = _reference_char_coeffs(F)
        k = math.frexp(max(abs(c) ** (1.0 / i) for i, c in enumerate(coeffs, 1)))[1]
        roots = _reference_poly_roots([math.ldexp(c, -i * k) for i, c in enumerate(coeffs, 1)])
        return np.array([complex(math.ldexp(z.real, k), math.ldexp(z.imag, k))
                         for z in roots.tolist()])
    return np.array([complex(math.ldexp(z.real, -e), math.ldexp(z.imag, -e))
                     for z in np.linalg.eigvals(np.asarray(a, dtype=float)).tolist()])


def reference_real_eigen(a) -> linalg.Spectrum:
    """``real_eigen`` on NumPy forms in the frame of ``a``
    (``reference_frame``); raises where a plain form is out of range."""
    F, e = reference_frame(a)
    roots = reference_frame_roots(a)
    norm = reference_norm(F)
    thr = linalg.CLUSTER_RTOL * (math.ldexp(1.0, -e) + norm)
    triples, pairs = [], []
    for val, mult in _reference_cluster(roots, thr):
        if abs(val.imag) <= thr:
            lam = float(val.real)
            left, right, canonical = _reference_eigen_vectors(F, e, lam, mult)
            triples.append(linalg.EigenTriple(value=math.ldexp(lam, e), multiplicity=mult,
                                              canonical=canonical, left=left, right=right))
        elif val.imag > 0.0:
            pairs.append(linalg.ComplexPair(math.ldexp(float(val.real), e),
                                            math.ldexp(float(val.imag), e),
                                            math.ldexp(float(abs(val)), e), mult))
    triples.sort(key=lambda t: t.value)
    pairs.sort(key=lambda p: (p.real, p.imag))
    # the merge decision itself is linalg's; this oracle checks the forms
    out = []
    prev_s = math.inf
    for t in triples:
        s = _reference_condition(t) if t.multiplicity == 1 else math.inf
        if max(s, prev_s) < linalg.DEFECTIVE_S and linalg._rounding_split(
                F.tolist(), e, norm, out[-1].value, t.value, min(s, prev_s)):
            mu = 0.5 * (math.ldexp(out[-1].value, -e) + math.ldexp(t.value, -e))
            left, right, canonical = _reference_eigen_vectors(F, e, mu, 2)
            out[-1] = linalg.EigenTriple(value=math.ldexp(mu, e), multiplicity=2,
                                         canonical=canonical, left=left, right=right)
            prev_s = math.inf
        else:
            out.append(t)
            prev_s = s
    return linalg.Spectrum(tuple(out), tuple(pairs))
