from __future__ import annotations

import inspect

import numpy as np
import pytest

from pwldyn import (
    BcnfParams,
    IllConditioned,
    SingularMatrix,
    ZeroNormal,
    adjugate,
    bcnf,
    determinant,
    hyperplane_basis,
    matrix_det_lemma_check,
    real_eigen,
    solve,
)
from pwldyn.linalg import _cubic_roots

from conftest import SHARED_2D


def test_determinant_closed_form():
    pwl = bcnf(SHARED_2D)
    assert determinant(pwl.A_L) == pytest.approx(0.4, abs=1e-14)
    assert determinant(pwl.A_R) == pytest.approx(-0.3, abs=1e-14)


def test_determinant_matches_numpy(rng):
    for n in (1, 2, 3, 4, 5):
        for _ in range(20):
            a = rng.standard_normal((n, n))
            assert determinant(a) == pytest.approx(np.linalg.det(a), rel=1e-10, abs=1e-12)


def test_determinant_identity():
    assert determinant(np.eye(2)) == 1.0


def test_adjugate_2x2():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    expected = np.array([[4.0, -2.0], [-3.0, 1.0]])
    assert np.allclose(adjugate(a), expected, atol=1e-14)


def test_adjugate_identity_exact():
    assert np.array_equal(adjugate(np.eye(3)), np.eye(3))


def test_adjugate_inverse_oracle(rng):
    # For invertible A the adjugate equals det(A) * inv(A).
    for n in (2, 3, 4):
        for _ in range(20):
            a = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
            d = np.linalg.det(a)
            if abs(d) < 1e-6:
                continue
            assert np.allclose(adjugate(a), d * np.linalg.inv(a), rtol=1e-9, atol=1e-9)


def test_adjugate_identity_property(rng):
    for n in (2, 3, 4, 5):
        for _ in range(30):
            a = rng.standard_normal((n, n))
            lhs = adjugate(a) @ a
            rhs = determinant(a) * np.eye(n)
            scale = max(1.0, np.abs(lhs).max())
            assert np.abs(lhs - rhs).max() <= 1e-10 * scale


def test_matrix_det_lemma_trivial():
    lhs, rhs = matrix_det_lemma_check(np.eye(2), np.zeros(2), np.zeros(2))
    assert (lhs, rhs) == (1.0, 1.0)
    e1 = np.array([1.0, 0.0])
    lhs, rhs = matrix_det_lemma_check(np.eye(2), e1, e1)
    assert lhs == pytest.approx(2.0, abs=1e-14)
    assert rhs == pytest.approx(2.0, abs=1e-14)


def test_matrix_det_lemma(rng):
    for n in (2, 3, 4, 5):
        for _ in range(30):
            a = rng.standard_normal((n, n))
            q = rng.standard_normal(n)
            r = rng.standard_normal(n)
            lhs, rhs = matrix_det_lemma_check(a, q, r)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))


def test_real_eigen_frozen_quadratics():
    pwl = bcnf(SHARED_2D)
    vals_r = real_eigen(pwl.A_R).real_values()
    assert vals_r == pytest.approx([-1.5, 0.2], abs=1e-12)
    vals_l = real_eigen(pwl.A_L).real_values()
    assert vals_l == pytest.approx([0.2, 2.0], abs=1e-12)


def test_real_eigen_cubic_root():
    # Companion of mu**3 + 3 mu + 0.6: exactly one real root.
    from pwldyn import BcnfParams

    pwl = bcnf(BcnfParams(dim=3, tl=0.0, dl=0.18973854901443662, sl=-1.0,
                          tr=0.0, dr=-0.6, sr=3.0))
    spec = real_eigen(pwl.A_R)
    assert len(spec.real) == 1
    assert len(spec.complex_pairs) == 1
    assert spec.real[0].value == pytest.approx(-0.1974, abs=1e-4)
    assert spec.real[0].value == pytest.approx(-0.19743463725360916, abs=1e-12)
    # The left determinant was chosen as lam**3 - lam, which plants the same
    # root in the left characteristic polynomial (three real roots there).
    left_vals = real_eigen(pwl.A_L).real_values()
    assert len(left_vals) == 3
    assert min(abs(v + 0.19743463725360916) for v in left_vals) <= 1e-12


def test_cubic_roots_match_numpy(rng):
    for _ in range(200):
        a, b, c = rng.standard_normal(3) * 3.0
        mine = np.sort_complex(_cubic_roots(a, b, c))
        ref = np.sort_complex(np.roots([1.0, a, b, c]))
        scale = 1.0 + np.abs(ref).max()
        assert np.abs(mine - ref).max() <= 1e-10 * scale


def test_eigenvectors_canonical_factorization(rng):
    # For a simple eigenvalue the adjugate of (lam I - A) has rank one and
    # factors as right * left with left scaled so the factorization is exact.
    for n in (2, 3, 4):
        for _ in range(25):
            vals = rng.uniform(-2.0, 2.0, n)
            while np.min(np.abs(np.subtract.outer(vals, vals) + np.eye(n))) < 0.2:
                vals = rng.uniform(-2.0, 2.0, n)
            s = np.eye(n) + 0.3 * rng.standard_normal((n, n))
            if np.linalg.cond(s) > 50.0:
                continue
            a = s @ np.diag(vals) @ np.linalg.inv(s)
            spec = real_eigen(a)
            assert len(spec.real) == n
            for t in spec.real:
                assert t.multiplicity == 1
                assert t.canonical
                b = adjugate(t.value * np.eye(n) - a)
                sing = np.linalg.svd(b, compute_uv=False)
                assert sing[1] <= 1e-8 * sing[0]
                outer = np.outer(t.right, t.left)
                assert np.abs(outer - b).max() <= 1e-10 * max(1.0, np.abs(b).max())
                r_res = np.linalg.norm(a @ t.right - t.value * t.right)
                l_res = np.linalg.norm(t.left @ a - t.value * t.left)
                scale = np.linalg.norm(a)
                assert r_res <= 1e-8 * scale * np.linalg.norm(t.right)
                assert l_res <= 1e-8 * scale * np.linalg.norm(t.left)


def _root_multiset(spec) -> np.ndarray:
    roots = [complex(t.value) for t in spec.real for _ in range(t.multiplicity)]
    for p in spec.complex_pairs:
        roots += [complex(p.real, p.imag), complex(p.real, -p.imag)] * p.multiplicity
    roots = np.array(roots)
    return roots[np.lexsort((roots.imag, roots.real))]


# (r, s) for the left piece of the normal form with characteristic polynomial
# (mu - r)**2 (mu - s): (1, 3), then every pair
# on the half-integer grid in [-3, 3] (s == r: a triple root).  The
# coefficients are exact, so the multiple root is exact.  Newton polishing
# used to jump off such roots by up to 0.9 (r = -2, s = -0.5 gave -2.9 and
# -1.922).
DOUBLE_ROOTS = [(1.0, 3.0)] + [(k / 2.0, m / 2.0) for k in range(-6, 7) for m in range(-6, 7)]


def test_eigen_double_root():
    for r, s in DOUBLE_ROOTS:
        a = bcnf(BcnfParams(dim=3, tl=2.0 * r + s, dl=r * r * s, sl=r * r + 2.0 * r * s,
                            tr=0.0, dr=0.0, sr=0.0)).A_L
        spec = real_eigen(a)
        scale = 1.0 + max(abs(r), abs(s))
        want = [(r, 3)] if s == r else sorted([(r, 2), (s, 1)])
        assert [t.multiplicity for t in spec.real] == [m for _, m in want]
        for t, (value, mult) in zip(spec.real, want):
            assert abs(t.value - value) <= (1e-9 if mult == 1 else 1e-6)
            assert t.canonical == (mult == 1)
        # numpy.linalg.eigvals as oracle; it is itself only about eps**(1/2)
        # (double) or eps**(1/3) (triple) accurate at these roots
        ref = np.linalg.eigvals(a)
        ref = ref[np.lexsort((ref.imag, ref.real))]
        assert np.abs(_root_multiset(spec) - ref).max() <= (1e-5 if s == r else 1e-7) * scale


def test_real_eigen_takes_only_the_matrix():
    assert list(inspect.signature(real_eigen).parameters) == ["a"]


def test_hyperplane_basis_orthonormal(rng):
    for n in (2, 3, 4, 6):
        for _ in range(20):
            w = rng.standard_normal(n)
            basis = hyperplane_basis(w)
            assert basis.shape == (n, n - 1)
            assert np.allclose(basis.T @ basis, np.eye(n - 1), atol=1e-12)
            assert np.abs(w @ basis).max() <= 1e-12 * np.linalg.norm(w)


def test_hyperplane_basis_1d_complement():
    w = np.array([1.0, 5.0])
    basis = hyperplane_basis(w)
    assert basis.shape == (2, 1)
    assert abs(w @ basis[:, 0]) <= 1e-14
    assert np.linalg.norm(basis[:, 0]) == pytest.approx(1.0, abs=1e-14)


def test_hyperplane_basis_deterministic():
    w = np.array([0.3, -1.2, 0.5])
    b1 = hyperplane_basis(w)
    b2 = hyperplane_basis(w.copy())
    assert np.array_equal(b1, b2)


def test_hyperplane_basis_zero_normal():
    with pytest.raises(ZeroNormal):
        hyperplane_basis(np.zeros(3))


def test_solve_matches_numpy(rng):
    for n in (2, 3, 5):
        for _ in range(20):
            a = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
            rhs = rng.standard_normal(n)
            assert np.allclose(solve(a, rhs), np.linalg.solve(a, rhs), atol=1e-10)


def test_solve_singular():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrix):
        solve(a, np.array([1.0, 1.0]))


def test_large_eigen_backend_failure(monkeypatch):
    def boom(_):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", boom)
    with pytest.raises(IllConditioned):
        real_eigen(np.eye(4))


def test_real_eigen_complex_pair():
    # Rotation by pi/2 scaled by 2: eigenvalues +-2i.
    a = np.array([[0.0, -2.0], [2.0, 0.0]])
    spec = real_eigen(a)
    assert len(spec.real) == 0
    assert len(spec.complex_pairs) == 1
    pair = spec.complex_pairs[0]
    assert pair.real == pytest.approx(0.0, abs=1e-12)
    assert abs(pair.imag) == pytest.approx(2.0, abs=1e-12)
    assert pair.modulus == pytest.approx(2.0, abs=1e-12)
