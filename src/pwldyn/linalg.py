"""Dense linear algebra for small real matrices.

Determinants and adjugates use cofactor closed forms up to 3x3.  Above that
the determinant is LAPACK's LU and the adjugate comes from one SVD
(G. W. Stewart, "On the adjugate matrix", Linear Algebra Appl. 283, 1998),
which stays accurate at rank n - 1.  Eigenvalues come from
characteristic-polynomial closed forms up to 3x3 and from LAPACK above that;
eigenvectors of simple eigenvalues are read off the adjugate of
``value * I - A``, which fixes their relative scaling.  Two adjacent real
roots whose eigenvalue condition numbers ``s = |u . v| / (|u| |v|)`` are
both tiny, and which lie no farther apart than rounding splits a double
root, are one defective double root.

Every public function validates its matrix once and passes the validated
array to the private helpers.  The closed forms up to 3x3, the Newton
polish of cubic roots, the clustering of roots, the eigenvector readout and
the Gaussian elimination of ``solve`` run on Python floats and complex
numbers (``A.tolist()``): at these sizes NumPy's per-call overhead, not the
arithmetic, would dominate.  They return the bits the NumPy forms returned:
``solve`` pivots as ``np.argmax`` does and rounds each update as
``np.outer`` and ``-=`` do, and its back-substitution keeps NumPy's dot for
row tails longer than one term, whose BLAS may fuse multiply-adds.

``real_eigen`` remembers the spectra of the last two matrices it decomposed,
the two pieces of the map being analysed, so the several analyses of one map
decompose each piece once.  The vectors it returns are read-only, because
every caller that asks again for one matrix shares them.  Where the closed
forms, the Frobenius norm or an eigenvalue condition number fail at extreme
scales (an exception or a non-finite value from over- or underflow), they
are computed again on data rescaled by powers of two; wherever they succeed
no bit changes.  So is the adjugate that an eigenvector is read off, when it
overflows; its canonical scaling cannot be stored then, and the vectors come
back unit-norm.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

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
    "matrix_det_lemma_check",
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
    """Determinant, via closed forms for n <= 3 and LAPACK's LU above."""
    return _det(_as_square(a))


def _det(A: np.ndarray) -> float:
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
    return _adj(_as_square(a))


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
    """Rows of ``lam I - A`` from the rows ``r`` of ``A``, rounded as
    ``lam * np.eye(n) - A`` rounds them: ``lam * 1.0 - a`` on the diagonal
    and ``lam * 0.0 - a`` off it, so that signed zeros come out alike."""
    return [[lam * (1.0 if i == j else 0.0) - a for j, a in enumerate(row)]
            for i, row in enumerate(r)]


def _argmax(xs: list[float]) -> int:
    """``np.argmax`` of a list: the first maximum, or the first NaN."""
    best = 0
    for i, x in enumerate(xs):
        if x != x:
            return i
        if x > xs[best]:
            best = i
    return best


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
    rhs = _det(A) + float(qv @ _adj(A) @ rv)
    return lhs, rhs


def solve(a, rhs, pivot_rtol: float = 1e-12) -> np.ndarray:
    """Solve ``A x = rhs`` by Gaussian elimination with partial pivoting.

    Raises SingularMatrix when a pivot falls below ``pivot_rtol`` relative to
    the largest entry of ``A``; ``pivot_rtol`` must not be negative.
    """
    A = _as_square(a)
    b = np.asarray(rhs, dtype=float)
    if b.shape != (A.shape[0],):
        raise ValueError("right-hand side must be a vector matching the matrix size")
    if not pivot_rtol >= 0.0:
        raise ValueError(f"pivot_rtol must be a non-negative number, not {pivot_rtol!r}")
    return _solve_rows(A.tolist(), b.tolist(), pivot_rtol)


def _solve_rows(U: list[list[float]], y: list[float], pivot_rtol: float = 1e-12) -> np.ndarray:
    """``solve`` on the rows of a finite matrix and a right-hand side, both
    Python lists, which it overwrites.

    Every float is the one that NumPy's elimination makes: the pivot is the
    first largest ``|U[i][k]|``, or the first NaN once elimination overflows,
    as ``np.argmax`` picks it; each entry becomes ``u - m * r`` and each
    right-hand side ``y - m * y_k``, as ``np.outer`` and ``-=`` round them.
    Entries below a pivot are never read again and are not updated.
    """
    n = len(U)
    floor = pivot_rtol * max(abs(x) for row in U for x in row)
    for k in range(n):
        piv = k + _argmax([abs(U[i][k]) for i in range(k, n)])
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
        if k >= n - 2:  # NumPy's dot of one term is 0.0 + product, of none 0.0
            dot = 0.0 + r[k + 1] * x[k + 1] if k == n - 2 else 0.0
        else:  # NumPy's own dot: its BLAS may fuse the multiply-adds
            dot = float(np.dot(r[k + 1 :], x[k + 1 :]))
        x[k] = (y[k] - dot) / r[k]
    return np.array(x)


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
    True.  When that adjugate degenerates (multiplicity above one), or
    overflows, the vectors fall back to unit norm with the first significant
    component positive and ``canonical`` is False.  The vectors are read-only:
    ``real_eigen`` hands the same triple to every caller that asks about the
    same matrix.
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
    one of them returns the same Spectrum object.  Raises IllConditioned
    when a characteristic root or the norm is not finite.
    """
    A = _as_square(a)
    return _spectrum(A.tobytes(), A.shape[0])


@functools.lru_cache(maxsize=2)
def _spectrum(key: bytes, n: int) -> Spectrum:
    """``real_eigen`` of the n x n matrix whose C-order bytes are ``key``.

    Two entries hold the two pieces of one map, which ``pwldyn analyze`` and
    the detections it calls each ask for up to three times.  Threads that
    miss on one matrix at once may each compute it; the results are equal.
    """
    A = np.frombuffer(key).reshape(n, n)
    norm = _norm(A)
    reals, uppers = _cluster(_char_roots(A), CLUSTER_RTOL * (1.0 + norm))
    triples: list[EigenTriple] = []
    for lam, mult in reals:
        left, right, canonical = _eigen_vectors(A, lam, mult)
        triples.append(EigenTriple(lam, left, right, mult, canonical))
    pairs = [ComplexPair(z.real, z.imag, abs(z), mult) for z, mult in uppers]
    triples.sort(key=lambda t: t.value)
    pairs.sort(key=lambda p: (p.real, p.imag))
    return Spectrum(_merge_defective(A, norm, triples), tuple(pairs))


def _merge_defective(A: np.ndarray, norm: float,
                     triples: list[EigenTriple]) -> tuple[EigenTriple, ...]:
    """Merge each adjacent pair of simple values that is a defective double
    root split by rounding into their mean with multiplicity two, left to
    right: both s(lam) below ``DEFECTIVE_S`` and ``_rounding_split`` true,
    ``norm`` being ``||A||_F``."""
    if sum(t.multiplicity == 1 for t in triples) < 2:
        return tuple(triples)
    out: list[EigenTriple] = []
    prev_s = math.inf  # s(lam) of out[-1] if it is simple and not merged
    for t in triples:
        s = _condition(t) if t.multiplicity == 1 else math.inf
        if max(s, prev_s) < DEFECTIVE_S and _rounding_split(A, norm, out[-1].value, t.value,
                                                             min(s, prev_s)):
            lam = 0.5 * (out[-1].value + t.value)
            left, right, canonical = _eigen_vectors(A, lam, 2)
            out[-1] = EigenTriple(lam, left, right, 2, canonical)
            prev_s = math.inf
        else:
            out.append(t)
            prev_s = s
    return tuple(out)


def _rounding_split(A: np.ndarray, norm: float, lo: float, hi: float, s: float) -> bool:
    """Whether rounding can have split one double root into ``lo < hi``,
    ``s`` being the smaller condition number (see ``DEFECTIVE_SPLIT``).

    On the closed forms the test runs on ``A / 2^e`` and ``mu / 2^e``, 2^e
    the power of two just above the largest entry: both sides are
    homogeneous of degree n, and nothing overflows."""
    eps = np.finfo(float).eps
    if A.shape[0] > 3:
        return (hi - lo) * s <= DEFECTIVE_SPLIT * eps * norm
    r = A.tolist()
    e = math.frexp(max(abs(x) for row in r for x in row))[1]
    r = [[math.ldexp(x, -e) for x in row] for row in r]
    mu = math.ldexp(0.5 * (lo + hi), -e)
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
    """Wilkinson's s(lam) = |u . v| / (|u| |v|) of a simple value; taken on
    ``u / 2^e`` and ``v / 2^f`` when the products of ``u`` and ``v``
    themselves overflow, or underflow to a zero norm."""
    with np.errstate(over="ignore"):
        s = _cosine(t.left, t.right)
    if s is None:
        s = _cosine(_rescaled(t.left)[0], _rescaled(t.right)[0])
    return s


def _cosine(u: np.ndarray, v: np.ndarray) -> float | None:
    """``|u . v| / (|u| |v|)``, or None when a product is not finite or the
    norms underflow to zero."""
    uv = abs(float(u @ v))
    norms = math.sqrt(float(u @ u)) * math.sqrt(float(v @ v))
    if 0.0 < norms < math.inf and uv < math.inf:
        return uv / norms
    return None


def _rescaled(v: np.ndarray) -> tuple[np.ndarray, int]:
    """``(v / 2^e, e)``, ``2^e`` the power of two just above the largest
    magnitude in the nonzero ``v``: its largest entry lies in [0.5, 1), so
    its squares neither overflow nor all underflow.  Dividing by a power of
    two is exact for every entry that stays normal."""
    e = math.frexp(max(map(abs, v.ravel().tolist())))[1]
    return np.ldexp(v, -e), e


def _norm(A: np.ndarray) -> float:
    """Frobenius norm; summed for ``A / 2^e`` and scaled back when the
    squares of ``A`` overflow."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(A))
    if math.isfinite(norm):
        return norm
    B, e = _rescaled(A)
    try:
        return math.ldexp(float(np.linalg.norm(B)), e)
    except OverflowError as exc:
        raise IllConditioned("the Frobenius norm of the matrix overflows") from exc


def _char_roots(A: np.ndarray) -> list[complex]:
    """Roots of the characteristic polynomial; raises IllConditioned when
    one is not finite.

    Up to 3x3 the closed forms run on the coefficients as they are.  Where
    they raise (``p * m`` underflowing to zero, the square root of an
    underflowed negative, ``a**3`` overflowing) or return a non-finite root,
    they run again on ``_scaled_char_poly``, so wherever they succeed no bit
    changes.
    """
    n = A.shape[0]
    if n > 3:
        try:
            roots = np.asarray(np.linalg.eigvals(A), dtype=complex).tolist()
        except np.linalg.LinAlgError as exc:
            raise IllConditioned(f"eigenvalue iteration did not converge: {exc}") from exc
    elif n == 1:
        roots = [complex(A[0, 0])]
    else:
        r = A.tolist()
        try:
            roots = _poly_roots(_char_coeffs(r))
        except (ArithmeticError, ValueError):
            roots = [complex(math.nan)]
        if not _finite(roots):
            coeffs, k = _scaled_char_poly(r)
            try:
                roots = [complex(math.ldexp(z.real, k), math.ldexp(z.imag, k))
                         for z in _poly_roots(coeffs)]
            except (ArithmeticError, ValueError) as exc:
                raise IllConditioned(f"a characteristic root is out of range: {exc}") from exc
    if not _finite(roots):
        raise IllConditioned("a characteristic root is not finite")
    return roots


def _finite(roots: list[complex]) -> bool:
    return all(math.isfinite(z.real) and math.isfinite(z.imag) for z in roots)


def _poly_roots(coeffs: list[float]) -> list[complex]:
    return _quadratic_roots(*coeffs) if len(coeffs) == 2 else _cubic_roots(*coeffs)


def _scaled_char_poly(r: list[list[float]]) -> tuple[list[float], int]:
    """Coefficients of the characteristic polynomial of the 2x2 or 3x3
    matrix with rows ``r`` (nonzero) as a polynomial in ``y = x / 2^k``,
    and ``k``.

    The rows are first divided by the power of two just above their largest
    entry, which bounds coefficient ``i`` by 6, and coefficient ``i`` is then
    divided by ``2^(i k')`` for the power of two ``2^k'`` just above the
    roots' scale ``max |coefficient_i|^(1/i)``, which brings every
    coefficient to at most 1 and one of them to at least 1/8, so that the
    degree-six discriminant of the cubic stays representable.  Both steps
    are exact up to subnormal coefficients, so the roots ``2^k y`` are those
    of the matrix.
    """
    e = math.frexp(max(abs(x) for row in r for x in row))[1]
    coeffs = _char_coeffs([[math.ldexp(x, -e) for x in row] for row in r])
    k = math.frexp(max(abs(c) ** (1.0 / i) for i, c in enumerate(coeffs, 1)))[1]
    return [math.ldexp(c, -i * k) for i, c in enumerate(coeffs, 1)], e + k


def _char_coeffs(r: list[list[float]]) -> list[float]:
    """Coefficients below the leading 1 of the characteristic polynomial."""
    if len(r) == 2:
        return [-(r[0][0] + r[1][1]), _det_rows(r)]
    tr = 0.0 + r[0][0] + r[1][1] + r[2][2]  # summed from +0.0 as np.trace does
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
        mean = _mean(group)
        if abs(mean.imag) <= thr:
            reals.append((mean.real, len(group)))
        elif mean.imag > 0.0:
            uppers.append((mean, len(group)))
    return reals, uppers


def _mean(zs: list[complex]) -> complex:
    """NumPy's complex mean, bit for bit: each part summed pairwise and added
    to +0.0, then times 1 / size, so a lone -0.0 root has mean +0.0."""
    scale = 1.0 / len(zs)
    return complex((0.0 + _pairwise([z.real for z in zs])) * scale,
                   (0.0 + _pairwise([z.imag for z in zs])) * scale)


def _pairwise(xs: list[float]) -> float:
    """NumPy's pairwise sum of one part of a complex array: in order below
    four terms, four running sums up to 64 terms, and two halves above."""
    m = len(xs)
    if m < 4:
        total = 0.0
        for x in xs:
            total += x
        return total
    if m > 64:
        half = (m - m % 8) // 2
        return _pairwise(xs[:half]) + _pairwise(xs[half:])
    acc = xs[:4]
    i = 4
    while i < m - m % 4:
        acc = [acc[k] + xs[i + k] for k in range(4)]
        i += 4
    total = (acc[0] + acc[1]) + (acc[2] + acc[3])
    for x in xs[i:]:
        total += x
    return total


def _eigen_vectors(A: np.ndarray, lam: float, mult: int) -> tuple[np.ndarray, np.ndarray, bool]:
    n = A.shape[0]
    if mult == 1:
        # adj(lam I - A) = right left^T, read off its largest entry's row and column
        if n <= 3:
            B = _adj_rows(_shifted_rows(A.tolist(), lam))
        else:
            B = _adj(lam * np.eye(n) - A).tolist()
        i, j = divmod(_argmax([abs(x) for row in B for x in row]), n)
        piv = B[i][j]
        if piv != 0.0 and math.isfinite(piv):
            left = np.array([x / piv for x in B[i]])
            return _read_only(left), _read_only(np.array([row[j] for row in B])), True
        if not math.isfinite(piv):
            # adj(lam I - A) overflows, so its canonical factors cannot be
            # stored; adj of lam I - A over 2^e has the same row and column
            # directions
            B = _adj(_rescaled(lam * np.eye(n) - A)[0])
            i, j = divmod(int(np.argmax(np.abs(B))), n)
            if B[i, j] != 0.0:
                return _read_only(_sign_fixed(B[i, :])), _read_only(_sign_fixed(B[:, j])), False
    # multiplicity above one, or a degenerate adjugate: SVD null vectors
    U, _, Vt = np.linalg.svd(lam * np.eye(n) - A)
    return _read_only(_sign_fixed(U[:, -1])), _read_only(_sign_fixed(Vt[-1, :])), False


def _read_only(v: np.ndarray) -> np.ndarray:
    v.setflags(write=False)
    return v


def _sign_fixed(v: np.ndarray) -> np.ndarray:
    w = v / float(np.linalg.norm(v))
    for comp in w:
        if abs(comp) > 1e-12:
            return -w if comp < 0.0 else w
    return w
