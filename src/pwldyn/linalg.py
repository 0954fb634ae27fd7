"""Dense linear algebra for small real matrices.

Determinants and adjugates use cofactor closed forms so they stay meaningful
arbitrarily close to singular configurations.  Eigenvalues come from
characteristic-polynomial closed forms up to 3x3 and from LAPACK above that;
eigenvectors of simple eigenvalues are read off the adjugate of
``value * I - A``, which fixes their relative scaling.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IllConditioned, SingularMatrix, ZeroNormal

__all__ = [
    "CLUSTER_RTOL",
    "ComplexPair",
    "EigenTriple",
    "Spectrum",
    "adjugate",
    "determinant",
    "hyperplane_basis",
    "matrix_det_lemma_check",
    "real_eigen",
    "solve",
]

# Roots closer than this (relative to 1 + the Frobenius norm) are merged into
# a single eigenvalue with summed multiplicity.
CLUSTER_RTOL = 1e-8


def _as_square(a) -> np.ndarray:
    A = np.asarray(a, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if A.shape[0] < 1:
        raise ValueError("empty matrix")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite")
    return A


def determinant(a) -> float:
    """Determinant, via closed forms for n <= 3 and partial-pivot LU above."""
    A = _as_square(a)
    n = A.shape[0]
    if n == 1:
        return float(A[0, 0])
    if n == 2:
        return float(A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0])
    if n == 3:
        return float(
            A[0, 0] * (A[1, 1] * A[2, 2] - A[1, 2] * A[2, 1])
            - A[0, 1] * (A[1, 0] * A[2, 2] - A[1, 2] * A[2, 0])
            + A[0, 2] * (A[1, 0] * A[2, 1] - A[1, 1] * A[2, 0])
        )
    return _det_lu(A)


def _det_lu(A: np.ndarray) -> float:
    U = A.copy()
    n = U.shape[0]
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


def adjugate(a) -> np.ndarray:
    """Adjugate (transposed cofactor matrix): ``adjugate(A) @ A == determinant(A) * I``."""
    A = _as_square(a)
    n = A.shape[0]
    if n == 1:
        return np.ones((1, 1))
    adj = np.empty((n, n))
    idx = np.arange(n)
    for i in range(n):
        for j in range(n):
            minor = A[np.ix_(idx != j, idx != i)]  # drop row j and column i
            adj[i, j] = (-1.0) ** (i + j) * determinant(minor)
    return adj


def matrix_det_lemma_check(a, q, r) -> tuple[float, float]:
    """Evaluate both sides of det(A + r q^T) = det(A) + q^T adjugate(A) r.

    Returns ``(lhs, rhs)`` so callers can compare them at whatever tolerance
    suits the context; nothing is asserted here.
    """
    A = _as_square(a)
    qv = np.asarray(q, dtype=float)
    rv = np.asarray(r, dtype=float)
    if qv.shape != (A.shape[0],) or rv.shape != (A.shape[0],):
        raise ValueError("q and r must be vectors matching the matrix size")
    lhs = determinant(A + np.outer(rv, qv))
    rhs = determinant(A) + float(qv @ adjugate(A) @ rv)
    return lhs, rhs


def solve(a, rhs, pivot_rtol: float = 1e-12) -> np.ndarray:
    """Solve ``A x = rhs`` by Gaussian elimination with partial pivoting.

    Raises SingularMatrix when a pivot falls below ``pivot_rtol`` relative to
    the largest entry of ``A``.
    """
    A = _as_square(a)
    b = np.asarray(rhs, dtype=float).copy()
    n = A.shape[0]
    if b.shape != (n,):
        raise ValueError("right-hand side must be a vector matching the matrix size")
    U = A.copy()
    floor = pivot_rtol * float(np.max(np.abs(A)))
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


def hyperplane_basis(normal) -> np.ndarray:
    """Orthonormal basis of ``{x : normal . x = 0}`` as columns of an n x (n-1) array.

    The basis comes from the Householder reflector sending the normal to a
    coordinate axis, so identical input always yields the identical basis.
    """
    w = np.asarray(normal, dtype=float)
    if w.ndim != 1:
        raise ValueError("normal must be a vector")
    nrm = float(np.linalg.norm(w))
    if nrm == 0.0:
        raise ZeroNormal("hyperplane normal is zero")
    h = w.copy()
    h[0] += nrm if w[0] >= 0.0 else -nrm
    H = np.eye(w.size) - 2.0 * np.outer(h, h) / float(h @ h)
    return H[:, 1:]


# ---------------------------------------------------------------------------
# eigenvalues


@dataclass(frozen=True)
class EigenTriple:
    """A real eigenvalue with left/right eigenvectors.

    For a simple eigenvalue the vectors are scaled so that
    ``outer(right, left) == adjugate(value * I - A)`` and ``canonical`` is
    True.  When that adjugate degenerates (multiplicity above one) the
    vectors fall back to unit norm with the first significant component
    positive and ``canonical`` is False.
    """

    value: float
    left: np.ndarray
    right: np.ndarray
    multiplicity: int
    canonical: bool


@dataclass(frozen=True)
class ComplexPair:
    """Summary of a complex-conjugate eigenvalue pair (positive-imag member)."""

    real: float
    imag: float
    modulus: float
    multiplicity: int


@dataclass(frozen=True)
class Spectrum:
    real: tuple[EigenTriple, ...]
    complex_pairs: tuple[ComplexPair, ...]

    def real_values(self) -> list[float]:
        return [t.value for t in self.real]


def real_eigen(a) -> Spectrum:
    """Eigen decomposition keeping real eigenvalues as full triples.

    Roots of the characteristic polynomial are clustered at
    ``CLUSTER_RTOL * (1 + ||A||_F)``; clusters whose mean is real within that
    threshold become EigenTriple entries, the rest are reported as
    ComplexPair summaries.
    """
    A = _as_square(a)
    roots = _char_roots(A)
    thr = CLUSTER_RTOL * (1.0 + float(np.linalg.norm(A)))
    triples: list[EigenTriple] = []
    pairs: list[ComplexPair] = []
    for val, mult in _cluster(roots, thr):
        if abs(val.imag) <= thr:
            lam = float(val.real)
            left, right, canonical = _eigen_vectors(A, lam, mult)
            triples.append(EigenTriple(lam, left, right, mult, canonical))
        elif val.imag > 0.0:
            pairs.append(ComplexPair(float(val.real), float(val.imag), float(abs(val)), mult))
    triples.sort(key=lambda t: t.value)
    pairs.sort(key=lambda p: (p.real, p.imag))
    return Spectrum(tuple(triples), tuple(pairs))


def _char_roots(A: np.ndarray) -> np.ndarray:
    n = A.shape[0]
    if n == 1:
        return np.array([complex(A[0, 0])])
    if n == 2:
        tr = float(A[0, 0] + A[1, 1])
        return _quadratic_roots(-tr, determinant(A))
    if n == 3:
        tr = float(np.trace(A))
        e2 = float(
            A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
            + A[0, 0] * A[2, 2] - A[0, 2] * A[2, 0]
            + A[1, 1] * A[2, 2] - A[1, 2] * A[2, 1]
        )
        return _cubic_roots(-tr, e2, -determinant(A))
    try:
        return np.asarray(np.linalg.eigvals(A), dtype=complex)
    except np.linalg.LinAlgError as exc:
        raise IllConditioned(f"eigenvalue iteration did not converge: {exc}") from exc


def _quadratic_roots(a: float, b: float) -> np.ndarray:
    """Roots of x^2 + a x + b, cancellation-safe."""
    disc = a * a - 4.0 * b
    if disc >= 0.0:
        s = math.sqrt(disc)
        r1 = (-a - s) / 2.0 if a >= 0.0 else (-a + s) / 2.0
        r2 = b / r1 if r1 != 0.0 else -a - r1
        return np.array([complex(r1), complex(r2)])
    s = math.sqrt(-disc) / 2.0
    return np.array([complex(-a / 2.0, -s), complex(-a / 2.0, s)])


def _cubic_roots(a: float, b: float, c: float) -> np.ndarray:
    """Roots of x^3 + a x^2 + b x + c via trigonometric/Cardano closed forms."""
    p = b - a * a / 3.0
    q = 2.0 * a**3 / 27.0 - a * b / 3.0 + c
    shift = -a / 3.0
    disc = -4.0 * p**3 - 27.0 * q * q
    if disc >= 0.0:
        if p == 0.0:  # disc >= 0 with p == 0 forces q == 0: triple root
            t = np.zeros(3)
        else:
            m = 2.0 * math.sqrt(-p / 3.0)
            theta = math.acos(min(1.0, max(-1.0, 3.0 * q / (p * m))))
            t = m * np.cos((theta - 2.0 * np.pi * np.arange(3)) / 3.0)
        roots = _polish_cubic(t + shift, a, b, c)
        return roots.astype(complex)
    s = math.sqrt(q * q / 4.0 + p**3 / 27.0)
    w = -q / 2.0 - s if q > 0.0 else -q / 2.0 + s  # larger-magnitude branch
    wr = float(np.cbrt(w))
    t0 = wr - p / (3.0 * wr) if wr != 0.0 else 0.0
    r = float(_polish_cubic(np.array([t0 + shift]), a, b, c)[0])
    quad = _quadratic_roots(a + r, b + r * (a + r))  # deflated factor
    return np.array([complex(r), quad[0], quad[1]])


def _polish_cubic(roots: np.ndarray, a: float, b: float, c: float) -> np.ndarray:
    r = roots.astype(float)
    f = ((r + a) * r + b) * r + c
    for _ in range(2):
        df = (3.0 * r + 2.0 * a) * r + b
        safe = np.abs(df) > 1e-30
        step = np.where(safe, f / np.where(safe, df, 1.0), 0.0)
        # skip steps that would jump away from the bracketing estimate
        step = np.where(np.abs(step) < 1.0 + np.abs(r), step, 0.0)
        # and steps that raise |f|: at a double root f' ~ 0 and the step is noise
        r_new = r - step
        f_new = ((r_new + a) * r_new + b) * r_new + c
        keep = np.abs(f_new) <= np.abs(f)
        r, f = np.where(keep, r_new, r), np.where(keep, f_new, f)
    return r


def _cluster(roots: np.ndarray, thr: float) -> list[tuple[complex, int]]:
    """Single-linkage clusters of the root multiset; returns (mean, size) pairs."""
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


def _eigen_vectors(A: np.ndarray, lam: float, mult: int) -> tuple[np.ndarray, np.ndarray, bool]:
    n = A.shape[0]
    M = lam * np.eye(n) - A
    if mult == 1:
        B = adjugate(M)
        i, j = np.unravel_index(int(np.argmax(np.abs(B))), B.shape)
        piv = B[i, j]
        if piv != 0.0 and np.isfinite(piv):
            right = B[:, j].copy()
            left = B[i, :] / piv
            return left, right, True
    # multiplicity above one, or a degenerate adjugate: SVD null vectors
    U, _, Vt = np.linalg.svd(M)
    left = _sign_fixed(U[:, -1])
    right = _sign_fixed(Vt[-1, :])
    return left, right, False


def _sign_fixed(v: np.ndarray) -> np.ndarray:
    w = v / float(np.linalg.norm(v))
    for comp in w:
        if abs(comp) > 1e-12:
            return -w if comp < 0.0 else w
    return w
