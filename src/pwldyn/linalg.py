"""Dense linear algebra for small real matrices.

Determinants and adjugates use cofactor closed forms up to 3x3.  Above that
the determinant is LAPACK's LU and the adjugate comes from one SVD
(G. W. Stewart, "On the adjugate matrix", Linear Algebra Appl. 283, 1998),
which stays accurate at rank n - 1.  Eigenvalues come from
characteristic-polynomial closed forms up to 3x3 and from LAPACK above that;
eigenvectors of a real root are read off the adjugate of ``value * I - A``,
which fixes the relative scaling of a simple root's vectors.  Two adjacent
real roots whose eigenvalue condition numbers ``s = |u . v| / (|u| |v|)``
are both tiny, and which lie no farther apart than rounding splits a double
root, are one defective double root; up to 3x3 the split is tested first
and ``s`` taken only for a pair that passes.

Every public function validates its matrix once and passes the validated
array to the private helpers.  The closed forms up to 3x3, the Newton
polish of cubic roots, the clustering of roots, the eigenvector readout
(each vector becomes an array once) and the Gaussian elimination of
``solve`` run on Python floats and complex numbers (``A.tolist()``): at
these sizes NumPy's per-call overhead, not the arithmetic, would dominate.

Every inner product of the package is the step's in-order sum
``(x_0 y_0 + x_1 y_1) + ...``, each product and each sum rounded once and
none fused: ``_dot`` on Python floats, ``_rows_dot`` and ``_matmul`` as
elementwise NumPy sums of columns, which round alike.  Up to 3x3 the only
LAPACK call is the SVD of a semisimple multiple root, and no bit depends on
the BLAS build or the CPU.  Above 3x3 LAPACK's ``eigvals``, ``svd`` and
``det`` and the matrix product inside the SVD adjugate remain.

``real_eigen`` remembers the spectra of the last two matrices it decomposed,
the two pieces of the map being analysed, so the several analyses of one map
decompose each piece once.  It checks the shape on every call and scans the
entries for non-finite ones once per decomposition, as they enter the memo.
The vectors it returns are read-only: every caller that asks again for one
matrix shares them.

Every scale-free decision is taken once, in an exact power-of-two frame
(``_rescaled``; Higham, *Accuracy and Stability of Numerical Algorithms*,
2.1) where nothing over- or underflows: a decomposition's matrix, largest
entry in [1/2, 1), and a map's pieces, ``c`` and fit ``p`` (``_Frame``).
Values go back out times the power of two, canonical right vectors times
its (n - 1)-th power where exact.  LAPACK's ``eigvals`` scales internally
and takes the true scale.  No other module scales data.
"""
from __future__ import annotations

import cmath
import contextlib
import functools
import math
import operator
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import IllConditioned, SingularMatrix, ZeroNormal

__all__ = [
    "CLUSTER_RTOL",
    "DEFECTIVE_S",
    "DEFECTIVE_SPLIT",
    "ComplexPair",
    "EigenTriple",
    "Spectrum",
    "adjugate",
    "determinant",
    "hyperplane_basis",
    "real_eigen",
    "solve",
]

# Roots closer than this (relative to 1 + the Frobenius norm) are merged into
# a single eigenvalue with summed multiplicity.
CLUSTER_RTOL = 1e-8

# Two adjacent simple real roots whose eigenvalue condition numbers
# s = |u . v| / (|u| |v|) both fall below this may be one defective double
# root split by rounding: splitting a double root by d gives s of order d,
# about sqrt(eps) = 1.5e-8, while s of a simple root of a random matrix is
# rarely below 1e-2.
DEFECTIVE_S = 1e-5

# ... and are one only when their separation is what rounding makes of a
# double root, up to this factor.  LAPACK (n > 3) is backward stable: an
# error delta in A splits a 2x2 Jordan block by d ~ 2 sqrt(delta) with s ~ d,
# so the pair merges when d * min(s) <= DEFECTIVE_SPLIT * eps * ||A||_F.
# The closed forms (n <= 3) round the characteristic coefficients, which can
# split a double root much farther, so there the midpoint mu of the pair must
# be a root to within that rounding: |p(mu)| <= DEFECTIVE_SPLIT * eps *
# sum_i g_i |mu|^(n-i), g_i the sum of the absolute values of the products
# that coefficient i adds up.  Over random orthogonal conjugates of
# J_2(lam) + D (n = 2..8, Jordan coupling 1e-3..1e3, scaled by up to 2^300)
# a rounding split reads at most 9 on the closed forms and 14 on LAPACK.  The
# distinct roots 6.9e10 and 2.7e-41 of a triangular 2x2 with coupling 5.5e17
# read 1.5e15 on the closed forms, where the LAPACK rule would read 72.
DEFECTIVE_SPLIT = 100.0

# solve raises SingularMatrix at a pivot this small relative to the largest
# entry of the matrix.
PIVOT_RTOL = 1e-12


def _dot(x, y) -> float:
    """``(x_0 y_0 + x_1 y_1) + ...`` on Python floats, the step's sum: each
    product and each sum rounded once.  ``x`` and ``y`` are lists, or arrays
    read in C order; no terms give 0.0."""
    if not isinstance(x, list):
        x = x.ravel().tolist()
    if not isinstance(y, list):
        y = y.ravel().tolist()
    terms = map(operator.mul, x, y)
    return functools.reduce(operator.add, terms, next(terms, 0.0))


def _length(v) -> float:
    """Euclidean norm of the entries of ``v``, ``sqrt(_dot(v, v))``."""
    return math.sqrt(_dot(v, v))


def _rows_dot(X, Y) -> np.ndarray:
    """``_dot`` along the last axis of ``X`` and ``Y``, broadcast over the
    other axes, as elementwise sums of columns: each entry has the bits of
    ``_dot`` of its two rows, and no terms give zeros."""
    X, Y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
    if not X.shape[-1]:
        return np.zeros(np.broadcast_shapes(X.shape[:-1], Y.shape[:-1]))
    total = X[..., 0] * Y[..., 0]
    for j in range(1, X.shape[-1]):
        total += X[..., j] * Y[..., j]
    return total


def _matmul(A, B) -> np.ndarray:
    """``A @ B`` of two matrices, each entry ``_dot`` of a row and a column."""
    return _rows_dot(np.asarray(A, dtype=float)[:, None, :], np.asarray(B, dtype=float).T)


def _square(a) -> np.ndarray:
    A = np.asarray(a, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if A.shape[0] < 1:
        raise ValueError("empty matrix")
    return A


def _finite(A: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite")
    return A


def determinant(a) -> float:
    """Determinant, via closed forms for n <= 3 and LAPACK's LU above."""
    A = _finite(_square(a))
    if A.shape[0] > 3:
        with np.errstate(over="ignore"):  # past the float range it is inf, as the closed forms are
            return float(np.linalg.det(A))
    return _det_rows(A.tolist())


def _det_rows(r: list[list[float]]) -> float:
    n = len(r)
    if n == 1:
        return r[0][0]
    if n == 2:
        return r[0][0] * r[1][1] - r[0][1] * r[1][0]
    return (
        r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
        - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
        + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0])
    )


def adjugate(a) -> np.ndarray:
    """Adjugate (transposed cofactor matrix): ``adjugate(A) @ A == determinant(A) * I``.

    Up to 3x3 the cofactors are closed forms over the minors.  Above that it
    is ``det(U) det(V) V diag(prod_{j != i} s_j) U^T`` from one SVD
    ``A = U diag(s) V^T`` (G. W. Stewart, "On the adjugate matrix", Linear
    Algebra Appl. 283, 1998).  The products skip ``s_i`` rather than divide
    by it, so the adjugate stays accurate at rank n - 1 and is exactly zero
    when two singular values are.
    """
    return _adj(_finite(_square(a)))


def _adj(A: np.ndarray) -> np.ndarray:
    if A.shape[0] <= 3:
        return np.array(_adj_rows(A.tolist()))
    U, s, Vt = np.linalg.svd(A)
    # head[i] = s_0 ... s_{i-1} and tail[i] = s_{i+1} ... s_{n-1}; past the
    # float range they are inf, as the closed forms' products are
    with np.errstate(over="ignore", invalid="ignore"):
        head = np.concatenate(([1.0], np.cumprod(s[:-1])))
        tail = np.concatenate((np.cumprod(s[:0:-1])[::-1], [1.0]))
        sign = np.sign(np.linalg.det(U) * np.linalg.det(Vt))
        return (sign * Vt.T * (head * tail)) @ U.T


def _adj_rows(r: list[list[float]]) -> list[list[float]]:
    """Adjugate of the 1x1, 2x2 or 3x3 matrix with rows ``r``, as rows."""
    n = len(r)
    if n == 1:
        return [[1.0]]
    # entry (i, j) is (-1)^(i + j) times the minor without row j and column i
    if n == 2:
        (a, b), (c, d) = r
        return [[d, -b], [-c, a]]
    (a, b, c), (d, e, f), (g, h, i) = r
    return [
        [e * i - f * h, -(b * i - c * h), b * f - c * e],
        [-(d * i - f * g), a * i - c * g, -(a * f - c * d)],
        [d * h - e * g, -(a * h - b * g), a * e - b * d],
    ]


def _shifted_rows(r: list[list[float]], lam: float) -> list[list[float]]:
    """Rows of ``lam I - A`` from the rows ``r`` of ``A``."""
    return [[lam - a if i == j else -a for j, a in enumerate(row)] for i, row in enumerate(r)]


def _adjugate_at(M: list[list[float]]) -> list[list[float]]:
    """Rows of ``adj(M)`` for the rows ``M`` of ``mu I - F``, ``F`` a frame and
    ``|mu| < n`` its eigenvalue: by Hadamard's inequality no entry exceeds
    ``(n + sqrt(n))^(n - 1)``, below 2^1024 up to n = 141, else IllConditioned."""
    if len(M) <= 3:
        return _adj_rows(M)
    B = _adj(np.array(M))
    if not np.isfinite(B).all():
        raise IllConditioned("the adjugate at an eigenvalue passes the float range")
    return B.tolist()


def solve(a, rhs) -> np.ndarray:
    """Solve ``A x = rhs`` by Gaussian elimination with partial pivoting.

    Raises SingularMatrix when a pivot falls below ``PIVOT_RTOL`` relative to
    the largest entry of ``A``.
    """
    A = _finite(_square(a))
    b = np.asarray(rhs, dtype=float)
    if b.shape != (A.shape[0],):
        raise ValueError("right-hand side must be a vector matching the matrix size")
    return _solve_rows(A.tolist(), b.tolist())


def _solve_rows(U: list[list[float]], y: list[float]) -> np.ndarray:
    """``solve`` on the rows of a finite matrix and a right-hand side, both
    Python lists, which it overwrites.

    The pivot is the first largest ``|U[i][k]|`` (once elimination
    overflows, a NaN is never larger); each entry becomes ``u - m * r`` and
    each right-hand side ``y - m * y_k``; back-substitution subtracts the
    ``_dot`` of each row's tail.  Entries below a pivot are never read again
    and are not updated.
    """
    n = len(U)
    floor = PIVOT_RTOL * max(abs(x) for row in U for x in row)
    for k in range(n):
        piv = max(range(k, n), key=lambda i: abs(U[i][k]))
        if abs(U[piv][k]) <= floor:
            raise SingularMatrix(f"pivot {U[piv][k]:.3e} below threshold in column {k}")
        U[k], U[piv] = U[piv], U[k]
        y[k], y[piv] = y[piv], y[k]
        r, d, yk = U[k], U[k][k], y[k]
        for i in range(k + 1, n):
            u = U[i]
            m = u[k] / d
            for j in range(k + 1, n):
                u[j] = u[j] - m * r[j]
            y[i] = y[i] - m * yk
    x = [0.0] * n
    for k in range(n - 1, -1, -1):
        r = U[k]
        x[k] = (y[k] - _dot(r[k + 1 :], x[k + 1 :])) / r[k]
    return np.array(x)


def hyperplane_basis(normal) -> np.ndarray:
    """Orthonormal basis of ``{x : normal . x = 0}`` as columns of an n x (n-1) array.

    The basis comes from the Householder reflector sending the normal to a
    coordinate axis, so identical input always yields the identical basis.
    It is built from ``_rescaled(normal)``, exactly: no square over- or underflows.
    """
    w = np.asarray(normal, dtype=float)
    if w.ndim != 1:
        raise ValueError("normal must be a vector")
    if not w.any():
        raise ZeroNormal("hyperplane normal is zero")
    h = _rescaled(w)[0]
    nrm = _length(h)
    h[0] += nrm if h[0] >= 0.0 else -nrm
    H = np.eye(w.size) - 2.0 * np.outer(h, h) / _dot(h, h)
    return H[:, 1:]


# ---------------------------------------------------------------------------
# eigenvalues


@dataclass(frozen=True, eq=False)
class EigenTriple:
    """A real eigenvalue with left/right eigenvectors.

    For a simple eigenvalue the vectors are scaled so that
    ``outer(right, left) == adjugate(value * I - A)`` and ``canonical`` is
    True.  When that adjugate degenerates (multiplicity above one), or its
    scale is past the float range or subnormal, the vectors fall back to unit
    norm with the first significant component positive and ``canonical`` is
    False.  The vectors are read-only: ``real_eigen`` hands the same triple
    to every caller that asks about the same matrix.
    """

    value: float
    multiplicity: int
    canonical: bool
    left: np.ndarray
    right: np.ndarray

    @functools.cached_property
    def _direction(self) -> np.ndarray:
        """``right`` in its frame (``_rescaled``), as decisions take it."""
        return _rescaled(self.right)[0]


@dataclass(frozen=True)
class ComplexPair:
    """Summary of a complex-conjugate eigenvalue pair (positive-imag member)."""

    real: float
    imag: float
    modulus: float
    multiplicity: int


@dataclass(frozen=True, eq=False)
class Spectrum:
    real: tuple[EigenTriple, ...]
    complex_pairs: tuple[ComplexPair, ...]

    def real_values(self) -> list[float]:
        return [t.value for t in self.real]


def real_eigen(a) -> Spectrum:
    """Eigen decomposition keeping real eigenvalues as full triples.

    Roots of the characteristic polynomial are clustered at
    ``CLUSTER_RTOL * (1 + ||A||_F)``; roots within that threshold of the
    real axis are real, so a conjugate pair there is one real value of
    multiplicity two.  Real clusters become EigenTriple entries, the rest
    are reported as ComplexPair summaries.  Two adjacent simple real values
    whose eigenvalue condition numbers (Golub & Van Loan, *Matrix
    Computations*, 7.2.2) are both below ``DEFECTIVE_S`` and whose
    separation is what rounding makes of a defective double root
    (``DEFECTIVE_SPLIT``) become one value of multiplicity two.

    The spectra of the last two matrices decomposed are remembered, keyed by
    the matrix bytes (so ``-0.0`` and ``+0.0`` differ), and asking again for
    one of them returns the same Spectrum object; only its shape is checked
    again.  Raises IllConditioned when a characteristic root is not finite.
    """
    A = _square(a)
    return _spectrum(A.tobytes(), A.shape[0])


@functools.lru_cache(maxsize=2)
def _spectrum(key: bytes, n: int) -> Spectrum:
    """``real_eigen`` of the n x n matrix whose C-order bytes are ``key``.

    Two entries hold the two pieces of one map, which ``pwldyn analyze`` and
    the detections it calls each ask for up to three times.  Threads that
    miss on one matrix at once may each compute it; the results are equal.
    All is computed on the frame ``F = A / 2^e`` (``_rescaled``), where
    ``1 + ||A||_F`` is ``2^-e + ||F||_F``; values go back out times ``2^e``.
    """
    A = _finite(np.frombuffer(key).reshape(n, n))  # a failed scan is not cached
    F, e = _rescaled(A)
    norm = _length(F)
    reals, uppers = _cluster(_char_roots(A, F, e), CLUSTER_RTOL * (math.ldexp(1.0, -e) + norm))
    triples: list[EigenTriple] = []
    try:
        for lam, mult in reals:
            left, right, canonical = _eigen_vectors(F, e, lam, mult)
            triples.append(EigenTriple(value=math.ldexp(lam, e), multiplicity=mult,
                                       canonical=canonical, left=left, right=right))
        pairs = [ComplexPair(math.ldexp(z.real, e), math.ldexp(z.imag, e),
                             math.ldexp(abs(z), e), mult) for z, mult in uppers]
    except OverflowError as exc:
        raise IllConditioned("a characteristic root is past the float range") from exc
    triples.sort(key=lambda t: t.value)
    pairs.sort(key=lambda p: (p.real, p.imag))
    return Spectrum(_merge_defective(F, e, norm, triples), tuple(pairs))


def _merge_defective(F: np.ndarray, e: int, norm: float,
                     triples: list[EigenTriple]) -> tuple[EigenTriple, ...]:
    """Merge each adjacent pair of simple values that is a defective double
    root split by rounding into their mean with multiplicity two, left to
    right: both s(lam) below ``DEFECTIVE_S`` and ``_rounding_split`` true.
    Up to 3x3 that split test does not take s, so it goes first and s is
    taken only for a pair that passes it.  ``F = A / 2^e`` is the frame of
    the triples' matrix and ``norm`` its Frobenius norm."""
    if sum(t.multiplicity == 1 for t in triples) < 2:
        return tuple(triples)
    out: list[EigenTriple] = []
    prev_s = math.inf  # s(lam) of out[-1] if simple and not merged (up to 3x3 0.0, not taken)
    for t in triples:
        s = math.inf if t.multiplicity > 1 else _condition(t) if F.shape[0] > 3 else 0.0
        if (max(s, prev_s) < DEFECTIVE_S
                and _rounding_split(F, e, norm, out[-1].value, t.value, min(s, prev_s))
                and (F.shape[0] > 3 or max(_condition(out[-1]), _condition(t)) < DEFECTIVE_S)):
            lam = 0.5 * out[-1].value + 0.5 * t.value  # their mean, which cannot overflow
            left, right, canonical = _eigen_vectors(F, e, math.ldexp(lam, -e), 2)
            out[-1] = EigenTriple(value=lam, multiplicity=2, canonical=canonical,
                                  left=left, right=right)
            prev_s = math.inf
        else:
            out.append(t)
            prev_s = s
    return tuple(out)


def _rounding_split(F: np.ndarray, e: int, norm: float, lo: float, hi: float, s: float) -> bool:
    """Whether rounding can have split one double root into ``lo < hi``,
    ``s`` the smaller condition number, read above 3x3 (``DEFECTIVE_SPLIT``).

    Both sides are homogeneous: they are taken in the frame ``F = A / 2^e``
    of ``_spectrum``, of Frobenius norm ``norm``, where nothing overflows."""
    eps = sys.float_info.epsilon
    lo, hi = math.ldexp(lo, -e), math.ldexp(hi, -e)
    if F.shape[0] > 3:
        return (hi - lo) * s <= DEFECTIVE_SPLIT * eps * norm
    r = F.tolist()
    mu = 0.5 * (lo + hi)
    p = bound = 1.0
    for c, g in zip(_char_coeffs(r), _char_term_sums(r)):
        p = p * mu + c
        bound = bound * abs(mu) + g
    return abs(p) <= DEFECTIVE_SPLIT * eps * bound


def _char_term_sums(r: list[list[float]]) -> list[float]:
    """For each coefficient of ``_char_coeffs(r)``, the sum of the absolute
    values of the products it adds up: eps times it is the scale of the
    coefficient's rounding error."""
    if len(r) == 2:
        (a, b), (c, d) = r
        return [abs(a) + abs(d), abs(a * d) + abs(b * c)]
    pairs = ((0, 1), (0, 2), (1, 2))
    return [
        abs(r[0][0]) + abs(r[1][1]) + abs(r[2][2]),
        sum(abs(r[i][i] * r[j][j]) + abs(r[i][j] * r[j][i]) for i, j in pairs),
        sum(abs(r[0][j]) * (abs(r[1][k] * r[2][m]) + abs(r[1][m] * r[2][k]))
            for j, k, m in ((0, 1, 2), (1, 0, 2), (2, 0, 1))),
    ]


def _condition(t: EigenTriple) -> float:
    """Wilkinson's s(lam) = |u . v| / (|u| |v|) of a simple value, on its
    left vector, whose largest entry is 1, and its right ``_direction``."""
    return abs(_dot(t.left, t._direction)) / (_length(t.left) * _length(t._direction))


class _Frame(NamedTuple):
    """A map's decision data (``PwlMap._frame``): ``A_R`` over the ``2^a``
    that brings the pieces' largest entry into [1/2, 1), ``unit = 2^-a``,
    and ``c`` and ``p``, the least-squares fit of ``A_R - A_L = p c^T``, each
    over its own.  ``fit`` is ``p`` at the true scale, read-only, inf past
    the float range; ``resid`` and ``delta`` are the Frobenius norms of the
    fit's residual and of ``A_R - A_L``, over ``2^a``."""

    A_R: np.ndarray
    unit: float
    c: np.ndarray
    p: np.ndarray
    fit: np.ndarray
    resid: float
    delta: float


def _map_frame(A_L: np.ndarray, A_R: np.ndarray, c: np.ndarray) -> _Frame:
    """The ``_Frame`` of the map with pieces ``A_L``, ``A_R`` and normal ``c``."""
    (F_L, F_R), a = _rescaled(np.stack((A_L, A_R)))
    D = F_R - F_L
    c, e = _rescaled(c)
    q = _rows_dot(D, c) / _dot(c, c)
    with np.errstate(over="ignore"):  # past the float range the fit is inf
        fit = np.ldexp(q, a - e)
    fit.setflags(write=False)
    return _Frame(F_R.copy(), math.ldexp(1.0, -a), c, _rescaled(q)[0], fit,
                  _length(D - np.outer(q, c)), _length(D))


def _rescaled(v: np.ndarray) -> tuple[np.ndarray, int]:
    """``(v / 2^e, e)``, ``2^e`` the power of two just above the largest
    magnitude in ``v``, at least the smallest normal one's: the largest
    entry lies in [0.5, 1) unless all are subnormal, so no square overflows
    or all underflow.  That is exact for every entry that stays normal."""
    e = max(math.frexp(max(map(abs, v.ravel().tolist())))[1], sys.float_info.min_exp)
    return np.ldexp(v, -e), e


def _char_roots(A: np.ndarray, F: np.ndarray, e: int) -> list[complex]:
    """Roots of the characteristic polynomial of the frame ``F = A / 2^e``:
    LAPACK's roots of ``A`` over ``2^e`` above 3x3, up to 3x3 the closed
    forms on ``_scaled_char_poly``, since a frame can still have roots far
    below 1.  Raises IllConditioned when a root is not finite."""
    n = A.shape[0]
    if n > 3:
        try:
            roots = np.asarray(np.linalg.eigvals(A), dtype=complex).tolist()
        except np.linalg.LinAlgError as exc:
            raise IllConditioned(f"eigenvalue iteration did not converge: {exc}") from exc
        roots = [complex(math.ldexp(z.real, -e), math.ldexp(z.imag, -e)) for z in roots]
    elif n == 1:
        roots = [complex(F[0, 0])]
    else:
        coeffs, k = _scaled_char_poly(F.tolist())
        try:
            roots = [complex(math.ldexp(z.real, k), math.ldexp(z.imag, k))
                     for z in (_quadratic_roots if n == 2 else _cubic_roots)(*coeffs)]
        except (ArithmeticError, ValueError) as exc:
            raise IllConditioned(f"a characteristic root is out of range: {exc}") from exc
    if not all(map(cmath.isfinite, roots)):
        raise IllConditioned("a characteristic root is not finite")
    return roots


def _scaled_char_poly(r: list[list[float]]) -> tuple[list[float], int]:
    """Coefficients of the characteristic polynomial of the 2x2 or 3x3
    frame with rows ``r`` as a polynomial in ``y = x / 2^k``, and ``k``.

    Coefficient ``i``, at most 6 in a frame, is divided by ``2^(i k)`` for
    the power of two ``2^k`` just above the roots' scale ``max
    |coefficient_i|^(1/i)``: every coefficient is then at most 1 and one at
    least 1/8, so the cubic's degree-six discriminant stays representable.
    That is exact up to subnormal coefficients.
    """
    coeffs = _char_coeffs(r)
    k = math.frexp(max(abs(c) ** (1.0 / i) for i, c in enumerate(coeffs, 1)))[1]
    return [math.ldexp(c, -i * k) for i, c in enumerate(coeffs, 1)], k


def _char_coeffs(r: list[list[float]]) -> list[float]:
    """Coefficients below the leading 1 of the characteristic polynomial."""
    if len(r) == 2:
        return [-(r[0][0] + r[1][1]), _det_rows(r)]
    tr = r[0][0] + r[1][1] + r[2][2]
    e2 = (
        r[0][0] * r[1][1] - r[0][1] * r[1][0]
        + r[0][0] * r[2][2] - r[0][2] * r[2][0]
        + r[1][1] * r[2][2] - r[1][2] * r[2][1]
    )
    return [-tr, e2, -_det_rows(r)]


def _quadratic_roots(a: float, b: float) -> list[complex]:
    """Roots of x^2 + a x + b, cancellation-safe."""
    disc = a * a - 4.0 * b
    if disc >= 0.0:
        s = math.sqrt(disc)
        r1 = (-a - s) / 2.0 if a >= 0.0 else (-a + s) / 2.0
        r2 = b / r1 if r1 != 0.0 else -a - r1
        return [complex(r1), complex(r2)]
    s = math.sqrt(-disc) / 2.0
    return [complex(-a / 2.0, -s), complex(-a / 2.0, s)]


def _cubic_roots(a: float, b: float, c: float) -> list[complex]:
    """Roots of x^3 + a x^2 + b x + c via trigonometric/Cardano closed forms."""
    p = b - a * a / 3.0
    q = 2.0 * a**3 / 27.0 - a * b / 3.0 + c
    shift = -a / 3.0
    disc = -4.0 * p**3 - 27.0 * q * q
    if disc >= 0.0:
        if p == 0.0:  # disc >= 0 with p == 0 forces q == 0: triple root
            t = [0.0, 0.0, 0.0]
        else:
            m = 2.0 * math.sqrt(-p / 3.0)
            theta = math.acos(min(1.0, max(-1.0, 3.0 * q / (p * m))))
            t = (m * np.cos((theta - 2.0 * np.pi * np.arange(3)) / 3.0)).tolist()
        return [complex(r) for r in _polish_cubic([x + shift for x in t], a, b, c)]
    s = math.sqrt(q * q / 4.0 + p**3 / 27.0)
    w = -q / 2.0 - s if q > 0.0 else -q / 2.0 + s  # larger-magnitude branch
    wr = float(np.cbrt(w))
    t0 = wr - p / (3.0 * wr) if wr != 0.0 else 0.0
    r = _polish_cubic([t0 + shift], a, b, c)[0]
    return [complex(r), *_quadratic_roots(a + r, b + r * (a + r))]  # deflated factor


def _polish_cubic(roots: list[float], a: float, b: float, c: float) -> list[float]:
    """Up to two guarded Newton steps on each root of x^3 + a x^2 + b x + c."""
    out = []
    for r in roots:
        f = ((r + a) * r + b) * r + c
        for _ in range(2):
            df = (3.0 * r + 2.0 * a) * r + b
            step = f / df if abs(df) > 1e-30 else 0.0
            # skip steps that would jump away from the bracketing estimate
            if not abs(step) < 1.0 + abs(r):
                step = 0.0
            # and steps that raise |f|: at a double root f' ~ 0 and the step is noise
            r_new = r - step
            f_new = ((r_new + a) * r_new + b) * r_new + c
            if abs(f_new) <= abs(f):
                r, f = r_new, f_new
        out.append(r)
    return out


def _cluster(
    roots: list[complex], thr: float
) -> tuple[list[tuple[float, int]], list[tuple[complex, int]]]:
    """Single-linkage clusters of the root multiset at distance ``thr``.

    Returns ``(mean, size)`` pairs, first of the real clusters, then of the
    clusters above the real axis.  A root within ``thr`` of the real axis is
    real: it is projected onto the axis before clustering, so that a
    conjugate pair there joins into one real value of multiplicity two, never
    two simple real values.
    """
    roots = [complex(z.real) if abs(z.imag) <= thr else z for z in roots]
    order = sorted(range(len(roots)), key=lambda i: (roots[i].real, roots[i].imag))
    assigned = [False] * len(roots)
    reals: list[tuple[float, int]] = []
    uppers: list[tuple[complex, int]] = []
    for i in order:
        if assigned[i]:
            continue
        group = [roots[i]]
        assigned[i] = True
        frontier = [i]
        while frontier:
            k = frontier.pop()
            for j in order:
                if not assigned[j] and abs(roots[j] - roots[k]) <= thr:
                    assigned[j] = True
                    group.append(roots[j])
                    frontier.append(j)
        total = group[0]
        for z in group[1:]:
            total += z
        mean = complex(total.real / len(group), total.imag / len(group))
        if abs(mean.imag) <= thr:
            reals.append((mean.real, len(group)))
        elif mean.imag > 0.0:
            uppers.append((mean, len(group)))
    return reals, uppers


def _eigen_vectors(F: np.ndarray, e: int, lam: float,
                   mult: int) -> tuple[np.ndarray, np.ndarray, bool]:
    """Left and right eigenvectors of ``A`` at the real root ``lam`` of
    multiplicity ``mult`` of its frame ``F = A / 2^e``, read-only, and
    whether they are canonical.

    They are read off the row and column of the largest entry of
    ``adj(lam I - F)`` (``_adjugate_at``), which is ``right left^T`` for a
    simple root and, up to 3x3, spans the eigenvectors of a multiple root
    that is not semisimple.  A simple root's factors are canonical, the
    right one times ``2^(e (n - 1))`` where that is exact; others come back
    unit-norm.  Where that adjugate is zero (a semisimple root), or is not
    read above 3x3 (a multiple root), they are SVD null vectors.
    """
    n = F.shape[0]
    M = _shifted_rows(F.tolist(), lam)
    if mult == 1 or n <= 3:
        B = _adjugate_at(M)
        mags = [abs(x) for row in B for x in row]
        i, j = divmod(mags.index(max(mags)), n)
        piv = B[i][j]
        if piv != 0.0:
            left, right, k = B[i], [row[j] for row in B], e * (n - 1)
            with contextlib.suppress(OverflowError):  # a scale past the float range is not exact
                scaled = [math.ldexp(x, k) for x in right]
                if mult == 1 and [math.ldexp(x, -k) for x in scaled] == right:
                    return _read_only([x / piv for x in left]), _read_only(scaled), True
            return _read_only(_sign_fixed(left)), _read_only(_sign_fixed(right)), False
    U, _, Vt = np.linalg.svd(np.array(M))
    return _read_only(_sign_fixed(U[:, -1])), _read_only(_sign_fixed(Vt[-1, :])), False


def _read_only(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    v.setflags(write=False)
    return v


def _sign_fixed(v) -> np.ndarray:
    """The nonzero ``v`` at unit norm, its first significant component
    positive.  It is normalized from ``_rescaled(v)``, so that no square
    over- or underflows."""
    v = _rescaled(np.asarray(v))[0]
    w = v / _length(v)
    for comp in w:
        if abs(comp) > 1e-12:
            return -w if comp < 0.0 else w
    return w
