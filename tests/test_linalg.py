from __future__ import annotations

import inspect
import math
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pwldyn import (
    BcnfParams,
    IllConditioned,
    SingularMatrix,
    ZeroNormal,
    adjugate,
    bcnf,
    determinant,
    hyperplane_basis,
    real_eigen,
    solve,
)
from pwldyn import linalg
from pwldyn.cli import main
from pwldyn.linalg import _cubic_roots, _quadratic_roots

from conftest import (
    FLAT_LEFT_2D,
    FLAT_LEFT_3D,
    MATRIX_3D,
    SHARED_2D,
    bcnf_argv,
    det_lemma_sides,
    reference_adjugate,
    reference_char_roots,
    reference_frame,
    reference_frame_roots,
    reference_real_eigen,
    reference_solve,
    shared_3d_params,
)

EPS = float(np.finfo(float).eps)


def test_determinant_closed_form():
    pwl = bcnf(SHARED_2D)
    assert determinant(pwl.A_L) == pytest.approx(0.4, abs=1e-14)
    assert determinant(pwl.A_R) == pytest.approx(-0.3, abs=1e-14)


def test_determinant_matches_numpy(rng):
    for n in range(1, 9):
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


def _adjugate_inputs(rng, n):
    """100 random matrices, and ``lam I - A`` at a real eigenvalue of each."""
    out = []
    for _ in range(100):
        a = rng.standard_normal((n, n))
        out.append(a)
        reals = real_eigen(a).real_values()
        if reals:
            out.append(reals[0] * np.eye(n) - a)
    return out


@pytest.mark.parametrize("n", range(1, 9))
def test_adjugate_matches_cofactor_reference(rng, n):
    # Closed forms up to 3x3 repeat the cofactor arithmetic exactly; the SVD
    # form above agrees to a few ulps, also at rank n - 1.
    for m in _adjugate_inputs(rng, n):
        got, want = adjugate(m), reference_adjugate(m)
        if n <= 3:
            assert got.tobytes() == want.tobytes()
        else:
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_adjugate_exactly_zero_at_rank_n_minus_2():
    m = 0.5 * np.eye(4) - np.diag([0.5, 0.5, 1.0, 2.0])
    assert np.all(adjugate(m) == 0.0)
    assert np.all(reference_adjugate(m) == 0.0)


def test_adjugate_identity_property(rng):
    for n in range(2, 9):
        for _ in range(30):
            a = rng.standard_normal((n, n))
            lhs = adjugate(a) @ a
            rhs = determinant(a) * np.eye(n)
            scale = max(1.0, np.abs(lhs).max())
            assert np.abs(lhs - rhs).max() <= 1e-10 * scale


def test_matrix_det_lemma_trivial():
    lhs, rhs = det_lemma_sides(np.eye(2), np.zeros(2), np.zeros(2))
    assert (lhs, rhs) == (1.0, 1.0)
    e1 = np.array([1.0, 0.0])
    lhs, rhs = det_lemma_sides(np.eye(2), e1, e1)
    assert lhs == pytest.approx(2.0, abs=1e-14)
    assert rhs == pytest.approx(2.0, abs=1e-14)


def test_matrix_det_lemma(rng):
    for n in (2, 3, 4, 5):
        for _ in range(30):
            a = rng.standard_normal((n, n))
            q = rng.standard_normal(n)
            r = rng.standard_normal(n)
            lhs, rhs = det_lemma_sides(a, q, r)
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


# Characteristic polynomial (mu + 2)^2 (mu + 1), one eigenvector for -2.  The
# closed-form cubic returns -2 -+ 3e-8, farther apart than the cluster
# threshold 4.9e-8, and both halves have s(lam) = 3.6e-8; LAPACK returns
# -2 +- 2.9e-8 i for an orthogonally embedded 4x4 copy.
DEFECTIVE_3D = np.array([[-1.0, 0.0, 0.0], [2.0, -2.0, -1.5], [-0.5, 0.0, -2.0]])


def test_defective_double_root_is_one_value(rng):
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    embedded = q @ np.block([[DEFECTIVE_3D, np.zeros((3, 1))],
                             [np.zeros((1, 3)), np.full((1, 1), 0.5)]]) @ q.T
    for a, want in ((DEFECTIVE_3D, [(-2.0, 2), (-1.0, 1)]),
                    (embedded, [(-2.0, 2), (-1.0, 1), (0.5, 1)])):
        spec = real_eigen(a)
        assert [t.multiplicity for t in spec.real] == [m for _, m in want]
        for t, (value, mult) in zip(spec.real, want):
            assert abs(t.value - value) <= (1e-9 if mult == 1 else 1e-6)
            assert t.canonical == (mult == 1)
        ref = np.linalg.eigvals(a)
        ref = ref[np.lexsort((ref.imag, ref.real))]
        assert np.abs(_root_multiset(spec) - ref).max() <= 1e-7 * 3.0


def test_close_well_conditioned_roots_stay_apart():
    # s(lam) = 1 for a symmetric matrix, however close its eigenvalues
    spec = real_eigen(np.diag([1.0, 1.0 + 1e-7, 3.0]))
    assert [t.multiplicity for t in spec.real] == [1, 1, 1]
    assert all(t.canonical for t in spec.real)


# Distinct roots of non-normal matrices with small s(lam), far farther apart
# than rounding splits a double root: [[1, 1e6], [0, 2]] has s = 1e-6 at 1
# and 2; the companion piece with trace 1 and determinant 1/4 - 1e-12 has
# roots 1/2 -+ 1e-6 with s = 1.6e-6.
@pytest.mark.parametrize("a, values", [
    ([[1.0, 1e6], [0.0, 2.0]], [1.0, 2.0]),
    ([[1.0, 1.0], [-(0.25 - 1e-12), 0.0]], [0.5 - 1e-6, 0.5 + 1e-6]),
])
def test_close_ill_conditioned_roots_stay_apart(a, values):
    spec = real_eigen(a)
    assert [t.multiplicity for t in spec.real] == [1, 1]
    assert all(t.canonical for t in spec.real)
    assert spec.real_values() == pytest.approx(values, abs=1e-10)


# Distinct diagonal entries close relative to a huge coupling: both have
# s(lam) = 1.3e-7 and d * min(s) = 72 eps |A|_F, inside the backward-stable
# rule's bound, yet the characteristic polynomial of a triangular matrix is
# exact and its midpoint is no root at all.
NON_NORMAL_2D = np.array([[69144191434.51833, 5.458939329237027e17],
                          [0.0, 2.6689977581717297e-41]])


@pytest.mark.parametrize("k", [0, 600])
def test_distinct_non_normal_roots_stay_apart(k):
    a = math.ldexp(1.0, k) * NON_NORMAL_2D
    spec = real_eigen(a)
    assert [t.multiplicity for t in spec.real] == [1, 1]
    assert spec.real_values() == pytest.approx(sorted(np.diag(a)), rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_close_roots_of_triangular_matrices_stay_apart(seed):
    # separation over coupling from 10^-7.5 to 10^-5.5: both s(lam) are below
    # DEFECTIVE_S and the pair lies beyond the cluster threshold; the
    # diagonal is the spectrum
    g = np.random.default_rng(seed)
    n = int(g.integers(2, 4))
    lam = g.choice([-1.0, 1.0]) * 10.0 ** g.uniform(-3.0, 4.0)
    a = np.triu(g.standard_normal((n, n)))
    a[0, 0], a[1, 1], a[0, 1] = lam, lam + 1.0, 10.0 ** g.uniform(5.5, 7.5)
    if n == 3:
        a[2, 2] = lam + g.choice([-1.0, 1.0]) * g.uniform(5.0, 10.0) * max(1.0, abs(lam))
    a *= math.ldexp(1.0, int(g.integers(0, 400)))
    spec = real_eigen(a)
    assert [t.multiplicity for t in spec.real] == [1] * n
    assert spec.real_values() == pytest.approx(sorted(np.diag(a)), rel=1e-6)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4))
def test_rounding_split_jordan_blocks_merge(seed, n):
    # Q (J_2(lam) + D) Q^T with coupling 0.1 to 1000, scaled by up to 2^300:
    # rounding splits lam into two close real values or a conjugate pair,
    # and two real values must come back as one of multiplicity two
    g = np.random.default_rng(seed)
    lam = g.uniform(-2.0, 2.0)
    d = lam + g.choice([-1.0, 1.0], n - 2) * g.uniform(0.3, 1.0, n - 2) * [1.0, 2.0][: n - 2]
    m = np.diag([lam, lam, *d])
    m[0, 1] = 10.0 ** g.uniform(-1.0, 3.0)
    q, _ = np.linalg.qr(g.standard_normal((n, n)))
    scale = math.ldexp(1.0, int(g.integers(0, 300)))
    spec = real_eigen(scale * (q @ m @ q.T))
    near = [t.multiplicity for t in spec.real if abs(t.value - scale * lam) <= 1e-6 * scale]
    assert near == [2] or (near == [] and len(spec.complex_pairs) == 1)


# [[1, 1], [k, 1]] has the roots 1 -+ sqrt(k), both with s(lam) about
# 2 sqrt(k), far below DEFECTIVE_S.  The characteristic polynomial at their
# midpoint 1 is -k, against a rounding bound of about 4 eps: at k = 120 eps
# they are a double root split by rounding for DEFECTIVE_SPLIT = 100 but not
# for 10, and at k = 1200 eps for 1000 but not for 100.
@pytest.mark.parametrize("scale", [1.0, 2.0**500])
@pytest.mark.parametrize("k, mults", [(4 * 30 * EPS, [2]), (4 * 300 * EPS, [1, 1])])
def test_defective_split_threshold(k, mults, scale):
    spec = real_eigen(scale * np.array([[1.0, 1.0], [k, 1.0]]))
    assert [t.multiplicity for t in spec.real] == mults


# [[1, t], [0, 1 + 3e-7]] with t = 3e-7 / theta has the simple roots 1 and
# 1 + 3e-7 with s(lam) about theta, split by a rounding-sized amount: they
# merge into one double root at theta = 5e-6 for DEFECTIVE_S = 1e-5 but not
# for 1e-6, and stay apart at theta = 2e-5 for 1e-5 but not for 1e-4.
@pytest.mark.parametrize("theta, mults", [(5e-6, [2]), (2e-5, [1, 1])])
def test_defective_condition_threshold(theta, mults):
    spec = real_eigen(np.array([[1.0, 3e-7 / theta], [0.0, 1.0 + 3e-7]]))
    assert [t.multiplicity for t in spec.real] == mults
    for t in spec.real:
        if t.multiplicity == 1:
            assert linalg._condition(t) == pytest.approx(theta, rel=0.01)


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


@pytest.mark.parametrize("scale", [1e-170, 1e200])
@pytest.mark.parametrize("unit", [[1.0, 0.0], [0.0, -1.0], [math.sqrt(0.5), math.sqrt(0.5)],
                                  [0.6, -0.8], [1 / 3, 2 / 3, -2 / 3]])
def test_hyperplane_basis_of_a_normal_whose_squares_under_or_overflow(scale, unit):
    unit = np.array(unit)
    basis = hyperplane_basis(scale * unit)
    assert np.abs(basis.T @ basis - np.eye(unit.size - 1)).max() <= 1e-15
    assert np.abs(unit @ basis).max() <= 1e-15
    assert basis == pytest.approx(hyperplane_basis(unit), abs=1e-15)


def test_hyperplane_basis_zero_normal():
    with pytest.raises(ZeroNormal):
        hyperplane_basis(np.zeros(3))


def test_solve_matches_numpy(rng):
    for n in (2, 3, 5):
        for _ in range(20):
            a = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
            rhs = rng.standard_normal(n)
            assert np.allclose(solve(a, rhs), np.linalg.solve(a, rhs), atol=1e-10)


def test_solve_graded_matches_numpy(rng):
    # Rows and columns scaled by 1e-8 .. 1e8.  Either both solvers agree
    # within eps times Skeel's condition number || |A^-1| |A| |x| ||, which
    # no row or column scaling changes, or a pivot fell below 1e-12 max|A|,
    # which needs cond_2(A) >= 1e12 / ||L^-1||_2 >= 1e12 / (n 2^(n-1)).
    eps = np.finfo(float).eps
    rejected = 0
    for trial in range(300):
        n = int(rng.integers(2, 7))
        rows = 10.0 ** rng.uniform(-8.0, 8.0, n) if trial % 3 != 1 else np.ones(n)
        cols = 10.0 ** rng.uniform(-8.0, 8.0, n) if trial % 3 != 0 else np.ones(n)
        a = rows[:, None] * rng.standard_normal((n, n)) * cols[None, :]
        rhs = rng.standard_normal(n)
        want = np.linalg.solve(a, rhs)
        try:
            got = solve(a, rhs)
        except SingularMatrix:
            rejected += 1
            assert np.linalg.cond(a) >= 1e12 / (n * 2.0 ** (n - 1))
            continue
        skeel = np.abs(np.linalg.inv(a)) @ (np.abs(a) @ np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e3 * eps * np.max(skeel)
    assert 0 < rejected < 300


# The pivot d of diag(1, d) against the floor PIVOT_RTOL * 1 = 1e-12: at
# 5e-13 singular for PIVOT_RTOL = 1e-12 but not for 1e-13, at 2e-12 solved
# for 1e-12 but not for 1e-11.
@pytest.mark.parametrize("d, singular", [(5e-13, True), (2e-12, False)])
def test_pivot_threshold(d, singular):
    if singular:
        with pytest.raises(SingularMatrix):
            solve([[1.0, 0.0], [0.0, d]], [1.0, 1.0])
    else:
        assert solve([[1.0, 0.0], [0.0, d]], [1.0, 1.0]).tolist() == [1.0, 1.0 / d]


def test_solve_singular():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrix):
        solve(a, np.array([1.0, 1.0]))


_SOLVE_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)
# magnitudes whose eliminated differences pass the float range: inf, then NaN
_HUGE = st.builds(lambda x, sign: sign * x, st.floats(1e306, 1.7976931348623157e308),
                  st.sampled_from([1.0, -1.0]))


@st.composite
def _systems(draw):
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["plain", "graded", "zero row", "overflow"]))
    entries = st.one_of(_HUGE, _SOLVE_ENTRIES) if kind == "overflow" else _SOLVE_ENTRIES
    a = np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n))).reshape(n, n)
    b = np.array(draw(st.lists(_SOLVE_ENTRIES, min_size=n, max_size=n)))
    if kind == "graded":  # rows from 1e-8 to 1e8
        a *= 10.0 ** np.array(draw(st.lists(st.floats(-8.0, 8.0), min_size=n, max_size=n)))[:, None]
    elif kind == "zero row":
        a[draw(st.integers(0, n - 1))] = draw(st.sampled_from([0.0, -0.0]))
    return a, b


def _solve_outcome(f, a, b):
    try:
        return f(a, b).tobytes()
    except SingularMatrix as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(system=_systems())
# a row tail of one term keeps its product's sign: -1.0 * 0.0 is -0.0
@example(system=(np.array([[1.0, -1.0], [0.0, 1.0]]), np.array([-0.0, 0.0])))
# a row tail of two terms, which a fused multiply-add would round once
@example(system=(np.array([[3.0, 4.0 / 7.0, 4.0 / 7.0], [0.0, 5.0, -1.0], [0.0, 0.0, 7.0]]),
                 np.array([0.0, -2.0 / 3.0, -4.0 / 3.0])))
@example(system=(np.array([[1.7e308, -1.7e308], [-1.7e308, -1.7e308]]), np.array([1.0, 1.0])))
# elimination leaves a zero over a NaN in column 2: a NaN is never the
# larger, so the column is singular
@example(system=(np.array([[-1e308, -1e308, 0.0, -1.7e308], [1e308, 1.7e308, 0.0, 0.0],
                           [0.0, 0.0, 0.0, -1e308], [-1.7e308, 1.7e308, 0.0, -1.7e308]]),
                 np.ones(4)))
def test_solve_matches_reference_bit_for_bit(system):
    a, b = system
    assert _solve_outcome(solve, a, b) == _solve_outcome(reference_solve, a, b)


@pytest.mark.parametrize("a, b", [
    # elimination overflows; the tail dot of x[0] overflows
    ([[-1.7e308, 1.7e308, -1e308], [0.5, 0.5, -1e308], [-1e308, 1.7e308, -1.0]],
     [3.0, -1e308, 1.0]),
    # the tail dot of x[0] meets inf - inf
    ([[-1.7e308, 0.5, 1.7e308, 1.7e308], [-1.7e308, -1.0, -1.0, 1.0],
      [2.0, -1e308, 1.0, 0.5], [1e308, -1e308, -1e308, 1e-300]],
     [1.0, 1e308, -1e308, 1e308]),
])
def test_solve_overflowing_elimination_does_not_warn(a, b):
    # warnings are errors in this suite
    assert solve(a, b).tobytes() == reference_solve(a, b).tobytes()


def test_large_eigen_backend_failure(monkeypatch):
    def boom(_):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", boom)
    linalg._spectrum.cache_clear()  # an earlier test may have decomposed np.eye(4)
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


# x^2 - 2 c x + c^2 (1 - delta) has roots c (1 -+ sqrt(delta)): a double
# root at delta = 0, a complex pair below it.
@pytest.mark.parametrize("c", [1.0, -3.0, 0.1, 250.0, -7.5e4])
@pytest.mark.parametrize("delta", [0.0] + [sign * 10.0 ** -k for k in range(0, 18, 2)
                                           for sign in (1.0, -1.0)])
def test_quadratic_roots_near_double_root(c, delta):
    # Against the companion matrix's LAPACK eigenvalues, each root within
    # eps times its condition number (|r|^2 + |a| |r| + |b|) / |r1 - r2|,
    # the separation floored at sqrt(eps) where both are sqrt(eps) accurate.
    a, b = -2.0 * c, c * c * (1.0 - delta)
    got = np.array(_quadratic_roots(a, b))
    want = np.linalg.eigvals(np.array([[-a, -b], [1.0, 0.0]]))
    got = got[np.lexsort((got.imag, got.real))]
    want = want[np.lexsort((want.imag, want.real))]
    eps = np.finfo(float).eps
    size = np.abs(want) ** 2 + abs(a) * np.abs(want) + abs(b)
    sep = max(abs(want[1] - want[0]), math.sqrt(eps * size.max()))
    assert np.all(np.abs(got - want) <= 10.0 * eps * size / sep)


# ---------------------------------------------------------------------------
# real_eigen against its NumPy-form oracle, bit for bit


def _spectrum_bytes(spec):
    return (
        [(np.float64(t.value).tobytes(), t.left.tobytes(), t.right.tobytes(),
          t.multiplicity, t.canonical) for t in spec.real],
        [(np.array([p.real, p.imag, p.modulus]).tobytes(), p.multiplicity)
         for p in spec.complex_pairs],
    )


def _near_axis_pair(a) -> bool:
    """Whether a root lies within the cluster threshold of the real axis but
    more than half of it away: the NumPy forms gave two simple real values
    there, the scalar forms one of multiplicity two."""
    try:
        F, e = reference_frame(a)
        thr = linalg.CLUSTER_RTOL * (math.ldexp(1.0, -e) + np.linalg.norm(F))
        roots = reference_frame_roots(a)
    except (ArithmeticError, ValueError, RuntimeWarning):
        return False
    return any(thr / 2.0 < abs(z.imag) <= thr for z in roots)


def _reference_or_none(a):
    """``reference_real_eigen(a)``, or None where the NumPy forms raise
    (under- or overflow, warnings being errors here) or a root or value they
    give is not finite (a NaN root was dropped, not reported)."""
    try:
        roots = reference_frame_roots(a)
        spec = reference_real_eigen(a)
    except (ArithmeticError, ValueError, RuntimeWarning):
        return None
    values = [t.value for t in spec.real] + [x for p in spec.complex_pairs
                                             for x in (p.real, p.imag, p.modulus)]
    if not (np.all(np.isfinite(roots)) and np.all(np.isfinite(values))):
        return None
    return spec


def _assert_near_numpy(a):
    """``real_eigen`` returns, its multiplicities (two per pair) sum to n and
    every value lies within n times the cluster threshold of a root that
    ``numpy.linalg.eigvals`` finds."""
    n = a.shape[0]
    spec = real_eigen(a)
    assert sum(t.multiplicity for t in spec.real) + sum(
        2 * p.multiplicity for p in spec.complex_pairs) == n
    top = float(np.max(np.abs(a)))
    thr = linalg.CLUSTER_RTOL * (1.0 + (top * float(np.linalg.norm(a / top)) if top else 0.0))
    ref = np.linalg.eigvals(a)
    values = [complex(t.value) for t in spec.real]
    values += [complex(p.real, p.imag) for p in spec.complex_pairs]
    for z in values:
        assert np.min(np.abs(ref - z)) <= n * thr


def _assert_bit_identical(a):
    want = _reference_or_none(a)
    if want is None:
        # the NumPy forms failed at these scales; the frame returns
        _assert_near_numpy(a)
    else:
        assert _spectrum_bytes(real_eigen(a)) == _spectrum_bytes(want)


# Exact grid entries give exact multiple roots, singular pieces and signed
# zeros; bounded floats give generic spectra.
_GRID = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 3.0])
_FLOATS = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def _matrices(draw, sizes):
    n = draw(sizes)
    entries = draw(st.sampled_from([_GRID, _FLOATS]))
    return np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n))).reshape(n, n)


@settings(max_examples=400, deadline=None)
@given(a=_matrices(st.integers(1, 3)))
@example(a=np.array([[-0.0]]))
@example(a=np.array([[-0.0, 1.0], [0.0, 2.0]]))
@example(a=np.array([[0.0, -2.0], [2.0, 0.0]]))
@example(a=np.diag([0.0, 0.0, 1.2416809e-139]))
@example(a=np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0046794e-131], [0.0, 1.0, 0.0]]))
@example(a=np.array([[1.0, 2.0, 0.0], [0.0, 1e110, 3.0], [1.0, 0.0, 2.0]]))
@example(a=np.array([[1e160, 2e160], [3e160, 1e161]]))
@example(a=np.array([[1e165]]))
def test_real_eigen_bit_identical_small(a):
    assume(not _near_axis_pair(a))
    _assert_bit_identical(a)


@settings(max_examples=60, deadline=None)
@given(a=_matrices(st.integers(4, 8)))
# the SVD adjugate of value * I - a overflows at the simple value
@example(a=np.full((4, 4), 1e160))
@example(a=np.diag([1e160, -2e160, 3e160, 0.5, 0.25]) + np.triu(np.full((5, 5), 1e159), 1))
def test_real_eigen_bit_identical_large(a):
    assume(not _near_axis_pair(a))
    _assert_bit_identical(a)


def test_real_eigen_bit_identical_at_four_or_more_fold_values(rng):
    # the mean of four or more roots, summed in order
    for _ in range(100):
        n = int(rng.integers(4, 9))
        k = int(rng.integers(4, n + 1))
        values = np.concatenate([np.full(k, rng.uniform(-2.0, 2.0)), rng.uniform(-2.0, 2.0, n - k)])
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a = q @ np.diag(values) @ q.T
        if not _near_axis_pair(a):
            _assert_bit_identical(a)


def _signed_zero_root(a) -> bool:
    return any(z.real == 0.0 and math.copysign(1.0, z.real) < 0.0 for z in reference_char_roots(a))


def test_real_eigen_bit_identical_at_special_spectra():
    double_and_triple = [
        bcnf(BcnfParams(dim=3, tl=2.0 * r + s, dl=r * r * s, sl=r * r + 2.0 * r * s,
                        tr=0.0, dr=0.0, sr=0.0)).A_L
        for r, s in DOUBLE_ROOTS
    ] + [np.array([[r, 1.0], [0.0, r]]) for r in (-1.0, 0.0, 0.5)] + [DEFECTIVE_3D]
    # singular pieces whose zero root is -0.0, which the mean keeps
    signed_zero = [np.array([[-0.0]]), np.array([[-0.0, 1.0], [0.0, 2.0]])]
    assert all(_signed_zero_root(a) for a in signed_zero)
    pairs = [np.array([[x, -y], [y, x]]) for x in (0.0, -0.5, 2.0) for y in (1e-3, 1.0, 3.0)]
    pairs += [np.array([[0.0, 0.0, 0.2], [1.0, 0.0, -3.0], [0.0, 1.0, 0.0]])]
    for a in double_and_triple + signed_zero + pairs:
        assert not _near_axis_pair(a)
        _assert_bit_identical(a)


def _counting(monkeypatch, name: str) -> list:
    """Replace ``linalg.<name>`` by a wrapper that records each call's first argument."""
    calls = []
    inner = getattr(linalg, name)

    def counted(*args):
        calls.append(args[0])
        return inner(*args)

    monkeypatch.setattr(linalg, name, counted)
    return calls


def test_real_eigen_scans_each_decomposition_once(monkeypatch):
    a = np.array([[1.0, 1.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, 3.0]])
    linalg._spectrum.cache_clear()  # the first call misses the memo
    shapes, scans = _counting(monkeypatch, "_square"), _counting(monkeypatch, "_finite")
    first = real_eigen(a)
    assert [t.multiplicity for t in first.real] == [1, 1, 1]
    assert (len(shapes), len(scans)) == (1, 1)
    assert real_eigen(a) is first  # a memo hit checks the shape, not the entries
    assert (len(shapes), len(scans)) == (2, 1)


@pytest.mark.parametrize("a, message", [
    (np.zeros((2, 3)), "expected a square matrix, got shape (2, 3)"),
    (np.zeros((0, 0)), "empty matrix"),
    (np.array([[1.0, np.inf], [0.0, 1.0]]), "matrix entries must be finite"),
])
def test_real_eigen_input_messages(a, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        real_eigen(a)


def test_real_eigen_caches_no_failed_scan():
    # the finite matrix just decomposed does not shield the NaN one, and the
    # failure is not remembered: the second call scans and raises again
    nan = np.array([[1.0, 0.0], [0.0, np.nan]])
    real_eigen(np.array([[1.0, 0.0], [0.0, 2.0]]))
    for _ in range(2):
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            real_eigen(nan)


_SCALE_BACK = np.array([[1.0, 2.0, 0.0], [0.5, 3.0, 1.0], [0.0, 1.0, -2.0]])


@pytest.mark.parametrize("a, canonical", [
    # 2^(2e) passes the float range: no right vector scales back
    (np.ldexp(_SCALE_BACK, 600), [False, False, False]),
    # the first right vector's scale-back is subnormal and inexact
    (np.ldexp(np.array([[1.0, 0.0, 0.0], [1e-300, 2.0, 0.0], [0.0, 0.0, 3.0]]), -20),
     [False, True, True]),
], ids=["overflow", "subnormal"])
def test_eigen_vector_scale_back_edges(a, canonical):
    spec = real_eigen(a)
    assert [t.canonical for t in spec.real] == canonical
    assert _spectrum_bytes(spec) == _spectrum_bytes(reference_real_eigen(a))


def test_eigen_vector_scale_back_in_range():
    # at 2^300 every scale-back is exact: the triples are those of the
    # unscaled matrix, values times 2^300 and right vectors times 2^600 (the
    # oracle's unscaled s(lam) overflows there, so it checks the base)
    base, spec = real_eigen(_SCALE_BACK), real_eigen(np.ldexp(_SCALE_BACK, 300))
    assert _spectrum_bytes(base) == _spectrum_bytes(reference_real_eigen(_SCALE_BACK))
    assert [t.canonical for t in spec.real] == [True, True, True]
    for t, u in zip(base.real, spec.real):
        assert u.value == math.ldexp(t.value, 300)
        assert u.left.tobytes() == t.left.tobytes()
        assert u.right.tobytes() == np.ldexp(t.right, 600).tobytes()


def test_condition_taken_only_where_the_split_test_passes(monkeypatch):
    # up to 3x3 s(lam) is taken only for a pair of simple values that
    # rounding may have split; the adjacent roots of these pieces are not one
    v = np.array(MATRIX_3D.split()[1:], dtype=float)
    pieces = [m for p in (SHARED_2D, shared_3d_params(), FLAT_LEFT_2D, FLAT_LEFT_3D)
              for m in (bcnf(p).A_L, bcnf(p).A_R)] + [v[9:18].reshape(3, 3)]
    calls = _counting(monkeypatch, "_condition")
    for a in pieces:
        linalg._spectrum.cache_clear()
        real_eigen(a)
        assert calls == []
    linalg._spectrum.cache_clear()
    spec = real_eigen(DEFECTIVE_3D)  # MATRIX_3D's left piece: its pair is one
    assert len(calls) == 2
    assert [(t.value, t.multiplicity) for t in spec.real] == [(-2.0, 2), (-1.0000000000000002, 1)]


def test_close_conjugate_pair_is_never_two_real_values():
    # A pair a -+ i b with b just inside the cluster threshold used to be
    # reported as the real value a twice, each simple (9 of these 200).
    rng = np.random.default_rng(3)
    r = np.array([[0.7, -3e-8, 0.0], [3e-8, 0.7, 0.0], [0.0, 0.0, -0.4]])
    for _ in range(200):
        s = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
        a = s @ r @ np.linalg.inv(s)
        spec = real_eigen(a)
        near = [t.multiplicity for t in spec.real if abs(t.value - 0.7) < 1e-4]
        pairs = [p.multiplicity for p in spec.complex_pairs if abs(p.real - 0.7) < 1e-4]
        assert (near, pairs) in (([2], []), ([], [1]))
        ref = np.linalg.eigvals(a)
        ref = ref[np.lexsort((ref.imag, ref.real))]
        assert np.abs(_root_multiset(spec) - ref).max() <= 1e-7


# ---------------------------------------------------------------------------
# the spectrum memo


def _analyze(params, tmp_path) -> None:
    assert main(["analyze", *bcnf_argv(params), "--out", str(tmp_path / "analyze.json")]) == 0


def test_analyze_decomposes_each_piece_once(monkeypatch, tmp_path):
    # real_eigen(A_L) and real_eigen(A_R), then detect_shared_eigenvalue,
    # zero_eig_reduction (A_L is singular) and classify_unit_modulus ask again
    calls = []
    char_roots = linalg._char_roots

    def counting(A, F, e):
        calls.append(A.tobytes())
        return char_roots(A, F, e)

    monkeypatch.setattr(linalg, "_char_roots", counting)
    linalg._spectrum.cache_clear()
    _analyze(FLAT_LEFT_3D, tmp_path)
    pwl = bcnf(FLAT_LEFT_3D)
    assert sorted(calls) == sorted([pwl.A_L.tobytes(), pwl.A_R.tobytes()])


@pytest.mark.parametrize("a, mults", [(bcnf(SHARED_2D).A_R, [1, 1]), (DEFECTIVE_3D, [2, 1])],
                         ids=["simple", "merged-defective"])
def test_returned_vectors_are_read_only(a, mults):
    spec = real_eigen(a)
    assert [t.multiplicity for t in spec.real] == mults
    for t in spec.real:
        for v in (t.left, t.right):
            with pytest.raises(ValueError):
                v[0] = 1.0
    assert real_eigen(a) is spec


def test_memo_ignores_memory_layout(rng):
    # equal content in C, Fortran, transposed and reversed-stride layouts
    mats = [rng.standard_normal((n, n)) for n in range(1, 9) for _ in range(5)] + [DEFECTIVE_3D]
    for a in mats:
        if _near_axis_pair(a):
            continue
        c = np.ascontiguousarray(a)
        want = _spectrum_bytes(reference_real_eigen(c))
        layouts = [c, np.asfortranarray(a), np.ascontiguousarray(a.T).T,
                   np.ascontiguousarray(a[::-1, ::-1])[::-1, ::-1]]
        for x in layouts:
            assert np.array_equal(x, c)
            linalg._spectrum.cache_clear()
            assert _spectrum_bytes(real_eigen(x)) == want


def test_memo_keeps_signed_zeros_apart():
    pos, neg = np.array([[0.0]]), np.array([[-0.0]])
    spec_pos, spec_neg = real_eigen(pos), real_eigen(neg)
    assert spec_pos is not spec_neg
    assert _spectrum_bytes(spec_pos) == _spectrum_bytes(reference_real_eigen(pos))
    assert _spectrum_bytes(spec_neg) == _spectrum_bytes(reference_real_eigen(neg))
    # here the sign reaches a right eigenvector
    pos, neg = np.array([[0.0, 0.0], [0.0, -1.0]]), np.array([[0.0, -0.0], [0.0, -1.0]])
    spec_pos, spec_neg = real_eigen(pos), real_eigen(neg)
    assert _spectrum_bytes(spec_pos) != _spectrum_bytes(spec_neg)
    assert _spectrum_bytes(spec_pos) == _spectrum_bytes(reference_real_eigen(pos))
    assert _spectrum_bytes(spec_neg) == _spectrum_bytes(reference_real_eigen(neg))


def test_memo_holds_two_spectra(tmp_path):
    for params in (SHARED_2D, FLAT_LEFT_2D, FLAT_LEFT_3D):
        _analyze(params, tmp_path)
    info = linalg._spectrum.cache_info()
    assert info.maxsize == 2
    assert info.currsize <= 2


def test_real_eigen_threads_share_the_memo(rng):
    # eight threads, more than the cores, over four alternating matrices
    # with a two-entry memo: every call evicts or finds what another thread
    # just stored
    mats = [rng.standard_normal((n, n)) for n in (2, 3, 4, 3)]
    want = [_spectrum_bytes(reference_real_eigen(a)) for a in mats]
    rounds = 100
    got: list[list] = [[] for _ in range(8)]
    errors: list[Exception] = []

    def work(k):
        try:
            for i in range(rounds):
                j = (i + k) % len(mats)
                got[k].append((j, _spectrum_bytes(real_eigen(mats[j]))))
        except Exception as exc:  # reported by the assertions below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert [len(g) for g in got] == [rounds] * 8
    assert all(spec == want[j] for g in got for j, spec in g)
