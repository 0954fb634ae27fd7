from __future__ import annotations

import collections.abc
import copy
import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pwldyn import (
    AffineHyperplane,
    BcnfParams,
    HypothesisViolated,
    IllConditioned,
    InducedSample,
    InducedSamples,
    MultipleZero,
    NoFixedPoint,
    NonTransversal,
    NotSingular,
    PwldynError,
    PwlMap,
    analyze,
    bcnf,
    classify_unit_modulus,
    default_x0,
    detect_shared_eigenvalue,
    fixed_points,
    orbit,
    plane_chart,
    reduced_orbit,
    restrict_to_manifold,
    sample_induced,
    scan,
    validate_continuity,
    zero_eig_reduction,
)
from pwldyn import linalg, reduction
from pwldyn.cli import main, read_matrix_file

from conftest import (
    FLAT_LEFT_2D,
    FLAT_LEFT_3D,
    MATRIX_3D,
    SHARED_2D,
    bcnf_argv,
    reference_contains,
    reference_detect_shared,
    reference_lift,
    reference_norm,
    reference_project,
    reference_step,
    shared_3d_params,
)

# ---------------------------------------------------------------------------
# shared eigenvalue


def test_detect_shared_2d(shared_map):
    red = detect_shared_eigenvalue(shared_map)
    assert red is not None
    assert red.value == pytest.approx(0.2, abs=1e-12)
    assert red.left == pytest.approx([0.2, 1.0], abs=1e-12)
    assert red.right == pytest.approx([1.0, 1.5], abs=1e-12)
    assert red.offset == pytest.approx(0.25, abs=1e-12)
    assert red.transversal
    assert red.other_shared == ()
    rmap = restrict_to_manifold(red)
    assert rmap.dimension == 1
    m_l, m_r = rmap.slopes()
    assert m_l == pytest.approx(2.0, abs=1e-9)
    assert m_r == pytest.approx(-1.5, abs=1e-9)


def test_detect_none_without_match():
    pwl = bcnf(BcnfParams(dim=2, tl=1.5, dl=0.4, tr=-1.3, dr=-0.3))
    assert detect_shared_eigenvalue(pwl) is None


def test_manifold_through_fixed_point(shared_map):
    red = detect_shared_eigenvalue(shared_map)
    star = fixed_points(shared_map).right.point
    assert red.manifold.base_point == pytest.approx(star, abs=1e-12)
    assert abs(red.manifold.distances(star[None])[0]) <= 1e-14


def test_deviation_values(shared_map):
    red = detect_shared_eigenvalue(shared_map)
    # left . right stays away from zero for a transversal pair
    assert float(red.left @ red.right) == pytest.approx(1.7, abs=1e-12)
    on_plane = np.array([0.5, 0.15])
    values = red.deviation_many(np.array([on_plane, np.zeros(2), on_plane + red.right]))
    assert values[:2] == pytest.approx([0.0, -0.25], abs=1e-14)
    assert values[2] == pytest.approx(1.7, abs=1e-12)


def test_deviation_contracts(shared_map, rng):
    red = detect_shared_eigenvalue(shared_map)
    X = rng.uniform(-3.0, 3.0, (300, 2))
    before = red.deviation_many(X)
    after = red.deviation_many(np.array([shared_map(x) for x in X]))
    assert (np.abs(after - red.value * before) <= 1e-12 * (1.0 + np.abs(before))).all()


def test_left_vector_transfers(shared_map):
    red = detect_shared_eigenvalue(shared_map)
    p = np.array([-3.5, 0.7])
    assert abs(red.left @ p) <= 1e-12
    for a in (shared_map.A_L, shared_map.A_R):
        assert np.abs(red.left @ a - red.value * red.left).max() <= 1e-12


def test_restriction_one_step_conjugacy(shared_map, rng):
    red = detect_shared_eigenvalue(shared_map)
    rmap = restrict_to_manifold(red)
    chart = rmap.chart
    for _ in range(500):
        xi = rng.uniform(-5.0, 5.0, 1)
        x = reference_lift(chart, xi)
        assert abs(red.deviation_many(x[None])[0]) <= 1e-12
        assert rmap.side(xi) == shared_map.side(x)
        direct = chart.project(shared_map(x))
        assert np.abs(rmap(xi) - direct).max() <= 1e-10


def test_restriction_shadows_full_orbit(shared_map):
    red = detect_shared_eigenvalue(shared_map)
    rmap = restrict_to_manifold(red)
    x = red.manifold.base_point + 0.3 * rmap.chart.basis[:, 0]
    xi = rmap.chart.project(x)
    for _ in range(20):
        x = shared_map(x)
        xi = rmap(xi)
        assert np.abs(rmap.chart.project(x) - xi).max() <= 1e-8


def test_detect_shared_3d():
    params = shared_3d_params()
    pwl = bcnf(params)
    red = detect_shared_eigenvalue(pwl)
    assert red is not None
    assert red.value == pytest.approx(-0.19743463725360916, abs=1e-9)
    assert red.transversal
    rmap = restrict_to_manifold(red)
    assert rmap.dimension == 2
    assert rmap.slopes() is None
    for a, m in ((pwl.A_L, rmap.matrix_left), (pwl.A_R, rmap.matrix_right)):
        full = np.linalg.eigvals(a)
        keep = full[np.argsort(np.abs(full - red.value))[1:]]
        got = np.linalg.eigvals(m)
        assert (
            np.abs(np.sort_complex(keep) - np.sort_complex(got)).max() <= 1e-8
        )


def test_identical_pieces_share_everything():
    # c must avoid both eigenvector orthogonals so the smallest shared
    # value survives the transversality screen.
    a = np.diag([0.5, 0.25])
    pwl = PwlMap(a, a, np.array([1.0, 1.0]), np.array([1.0, 1.0]))
    red = detect_shared_eigenvalue(pwl)
    assert red is not None
    assert red.value == pytest.approx(0.25, abs=1e-12)
    assert red.other_shared == pytest.approx((0.5,))
    rmap = restrict_to_manifold(red)
    assert np.allclose(rmap.matrix_left, rmap.matrix_right, atol=1e-12)
    assert np.allclose(rmap.offset_left, rmap.offset_right, atol=1e-12)


def test_non_transversal_parallel_normal():
    a_r = np.diag([0.2, 2.0])
    c = np.array([1.0, 0.0])
    a_l = a_r - np.outer(np.array([0.0, 0.3]), c)
    pwl = PwlMap(a_l, a_r, np.array([1.0, 1.0]), c)
    red = detect_shared_eigenvalue(pwl)
    assert red is not None
    assert red.value == pytest.approx(0.2, abs=1e-12)
    assert not red.transversal
    assert red.restricted is None
    assert red.other_shared == pytest.approx((2.0,))
    with pytest.raises(NonTransversal):
        restrict_to_manifold(red)


@pytest.mark.parametrize("k", [525, 530])
def test_non_transversal_at_subnormal_scale(k):
    # c parallel to the left eigenvector of the shared value 0.2, scaled so
    # that c . c = 2^(-2k) is subnormal: dividing by it would lose
    # precision, so the decision takes c in its frame, with c . c near 1.
    for seed in range(100):
        g = np.random.default_rng(seed)
        Q, _ = np.linalg.qr(g.standard_normal((3, 3)))
        a_r = Q @ np.diag([0.2, 2.0, -0.7]) @ Q.T
        c = math.ldexp(1.0, -k) * Q[:, 0]
        p = math.ldexp(1.0, k) * (Q @ np.array([0.0, 0.3, -0.4]))
        red = detect_shared_eigenvalue(PwlMap(a_r - np.outer(p, c), a_r, g.standard_normal(3), c))
        assert red.value == pytest.approx(0.2, rel=1e-9)
        assert not red.transversal and red.restricted is None
        with pytest.raises(NonTransversal):
            restrict_to_manifold(red)


def test_hypothesis_shared_value_one():
    a_r = np.diag([1.0, 0.3])
    c = np.array([0.0, 1.0])
    a_l = a_r - np.outer(np.array([0.0, 0.2]), c)
    pwl = PwlMap(a_l, a_r, np.array([0.5, 0.5]), c)
    with pytest.raises(HypothesisViolated, match="one"):
        detect_shared_eigenvalue(pwl)


def test_hypothesis_orthogonal_eigenvector():
    a_r = np.diag([0.5, 2.0])
    c = np.array([0.0, 1.0])
    a_l = a_r - np.outer(np.array([0.0, 0.3]), c)
    pwl = PwlMap(a_l, a_r, np.array([0.5, 0.5]), c)
    with pytest.raises(HypothesisViolated, match="orthogonal"):
        detect_shared_eigenvalue(pwl)


def test_hypothesis_multiplicity():
    # Companion of (mu - 2)**2 (mu - 1) on both sides: the double root fails
    # the simplicity requirement and the simple root equals one.
    params = BcnfParams(dim=3, tl=5.0, dl=4.0, sl=8.0, tr=5.0, dr=4.0, sr=8.0)
    with pytest.raises(HypothesisViolated):
        detect_shared_eigenvalue(bcnf(params))


def test_manifold_without_right_fixed_point():
    a_r = np.diag([0.5, 1.0])
    c = np.array([1.0, 1.0])
    a_l = a_r - np.outer(np.array([0.0, 0.4]), c)
    pwl = PwlMap(a_l, a_r, np.array([1.0, 1.0]), c)
    assert fixed_points(pwl).right.point is None
    red = detect_shared_eigenvalue(pwl)
    assert red is not None
    assert red.value == pytest.approx(0.5, abs=1e-12)
    assert red.offset == pytest.approx(2.0, abs=1e-12)
    assert red.manifold.base_point == pytest.approx([2.0, 0.0], abs=1e-12)
    assert red.transversal


def test_reduced_orbit_contract(shared_map):
    rmap = restrict_to_manifold(detect_shared_eigenvalue(shared_map))
    orb = reduced_orbit(rmap, np.array([0.1]), n_transient=200, n_keep=500)
    assert orb.points.shape == (500, 1)
    assert not orb.escaped
    assert set(orb.itinerary) == {"L", "R"}
    again = reduced_orbit(rmap, np.array([0.1]), n_transient=200, n_keep=500)
    assert np.array_equal(orb.points, again.points)


def test_detection_decomposes_only_the_right_piece(shared_map):
    maps = [
        shared_map,
        bcnf(shared_3d_params()),
        bcnf(BcnfParams(dim=2, tl=1.5, dl=0.4, tr=-1.3, dr=-0.3)),  # nothing shared
        bcnf(BcnfParams(dim=3, tl=5.0, dl=4.0, sl=8.0, tr=5.0, dr=4.0, sr=8.0)),  # violated
    ]
    for pwl in maps:
        with mock.patch.object(reduction.linalg, "real_eigen",
                               wraps=reduction.linalg.real_eigen) as spy:
            try:
                detect_shared_eigenvalue(pwl)
            except HypothesisViolated:
                pass
        assert spy.call_count == 1
        assert spy.call_args.args[0] is pwl.A_R


def test_analyze_solves_three_systems(monkeypatch, tmp_path):
    # fixed_points solves both pieces; detection solves only the right one
    # and zero_eig_reduction none, as A_L is not singular
    calls = []
    solve_rows = linalg._solve_rows

    def counting(rows, rhs, *args):
        calls.append(len(rows))
        return solve_rows(rows, rhs, *args)

    monkeypatch.setattr(linalg, "_solve_rows", counting)
    assert main(["analyze", *bcnf_argv(SHARED_2D), "--out", str(tmp_path / "a.json")]) == 0
    assert calls == [2, 2, 2]


def _planted_4d(scale: float) -> PwlMap:
    """A random 4x4 right piece times ``scale``, and the left piece that
    shares its real eigenvalue 1.656 (times ``scale``): ``A_L = A_R - p
    c^T`` with ``p`` orthogonal to that value's left eigenvector."""
    g = np.random.default_rng(1)
    a_r = g.standard_normal((4, 4))
    values, vectors = np.linalg.eig(a_r.T)
    w = vectors[:, np.argmin(np.abs(values.imag))].real
    p, c, b = g.standard_normal((3, 4))
    p -= w * (w @ p) / (w @ w)
    return PwlMap(scale * (a_r - np.outer(p, c)), scale * a_r, b, c)


def test_simple_value_with_overflowing_adjugate_is_shared():
    # At 2^400 the adjugate of value * I - A_R, cubic in the entries,
    # overflows: the value's vectors are unit-norm, not canonical, and still
    # fix the plane
    verdicts = []
    for k in (0, 200, 400):
        pwl = _planted_4d(math.ldexp(1.0, k))
        red = detect_shared_eigenvalue(pwl)
        triple = next(t for t in linalg.real_eigen(pwl.A_R).real if t.value == red.value)
        assert triple.canonical == (k < 400)
        verdicts.append((math.ldexp(red.value, -k), red.transversal))
    assert verdicts[0][0] == pytest.approx(1.6564175659644693, rel=1e-12)
    assert all(v == pytest.approx(verdicts[0][0], rel=1e-12) and t == verdicts[0][1]
               for v, t in verdicts)
    assert verdicts[0][1]


def test_shared_value_double_in_left_piece(rng):
    # 0.5 is a double root of A_L (tl = 1, dl = 0.25) and a simple one of
    # A_R (spectrum {0.5, -1.5}).  Matching the two spectra rejected it for
    # multiplicity; the reduction needs only left A_L = left A_R = 0.5 left,
    # which left . p = 0 gives.
    pwl = bcnf(BcnfParams(dim=2, tl=1.0, dl=0.25, tr=-1.0, dr=-0.75))
    with pytest.raises(HypothesisViolated, match="multiplicity"):
        reference_detect_shared(pwl)
    red = detect_shared_eigenvalue(pwl)
    assert red.value == pytest.approx(0.5, abs=1e-12)
    assert red.transversal
    assert red.other_shared == ()
    for a in (pwl.A_L, pwl.A_R):
        assert np.abs(red.left @ a - red.value * red.left).max() <= 1e-12
    X = rng.uniform(-3.0, 3.0, (500, 2))
    before = red.deviation_many(X)
    after = red.deviation_many(np.array([pwl(x) for x in X]))
    assert (np.abs(after - red.value * before) <= 1e-12 * (1.0 + np.abs(before))).all()
    rmap = restrict_to_manifold(red)
    assert rmap.slopes() == pytest.approx((0.5, -1.5), abs=1e-12)
    for _ in range(500):
        xi = rng.uniform(-5.0, 5.0, 1)
        x = reference_lift(rmap.chart, xi)
        assert rmap.side(xi) == pwl.side(x)
        assert np.abs(rmap(xi) - rmap.chart.project(pwl(x))).max() <= 1e-10


def test_small_update_shares_only_the_planted_value():
    # A_R - A_L = s p c^T with left . p = 0 only for 0.2.  The test is
    # relative to |p|, so no other value becomes shared as s shrinks;
    # matching the two spectra at a tolerance called all three shared.
    a_l = np.diag([0.2, 0.5, -0.7])
    p, c = np.array([0.0, 1.0, 1.0]), np.array([1.0, 1.0, 1.0])
    for s in (1.0, 1e-12):
        pwl = PwlMap(a_l, a_l + s * np.outer(p, c), np.array([1.0, 0.5, 0.25]), c)
        red = detect_shared_eigenvalue(pwl)
        assert red.value == pytest.approx(0.2, abs=1e-12)
        assert red.other_shared == ()
    assert reference_detect_shared(pwl).other_shared == pytest.approx((0.5, -0.7))


@pytest.mark.parametrize("a_r, p, match", [
    # double root 0.5 of A_R with one eigenvector; A_L has 0.5 +- 0.71i
    (np.array([[1.0, 1.0], [-0.25, 0.0]]), np.array([0.0, 0.5]), None),
    # A_R = 0.5 I: the adjugate of 0.5 I - A_R vanishes, 0.5 is in A_L
    (0.5 * np.eye(2), np.array([0.3, -0.2]), "multiplicity"),
    # p = 0: identical pieces share the double root
    (np.array([[1.0, 1.0], [-0.25, 0.0]]), np.zeros(2), "multiplicity"),
    # 0.5 I - A_R has rank n - 2, so its adjugate must vanish exactly
    (np.diag([0.5, 0.5, 1.0, 2.0]), np.array([0.3, -0.2, 0.1, 0.4]), "multiplicity"),
])
def test_multiple_root_of_right_piece(a_r, p, match):
    # A multiple real eigenvalue of A_R is shared when c^T adj(lam I - A_R) p
    # vanishes, and a shared one always fails the simplicity requirement.
    n = len(p)
    c = np.eye(n)[0]
    pwl = PwlMap(a_r - np.outer(p, c), a_r, np.r_[1.0, 0.5, np.zeros(n - 2)], c)
    if match is None:
        assert detect_shared_eigenvalue(pwl) is None
    else:
        with pytest.raises(HypothesisViolated, match=match):
            detect_shared_eigenvalue(pwl)


def test_shared_root_next_to_a_close_simple_root():
    # A_R has roots 1/2 -+ 1e-6 with s(lam) = 1.6e-6; A_L (trace 0) shares
    # 1/2 + 1e-6.  Both roots are simple, too far apart for rounding to have
    # split a double root, so the shared value is simple.
    lam = 0.5 + 1e-6
    pwl = bcnf(BcnfParams(2, 0.0, -lam * lam, 1.0, 0.25 - 1e-12))
    red = detect_shared_eigenvalue(pwl)
    assert red.value == pytest.approx(lam, abs=1e-10)
    assert red.other_shared == ()


# Eigenvalues of the left piece: multiples of 1/4 in [-2, 2], 0 and 1 included.
_GRID = np.linspace(-2.0, 2.0, 17)


def _planted_map(seed: int, n: int, shared: int, orthogonal: int) -> PwlMap:
    """Continuous map with ``A_L = S diag(r) S^-1``, ``r`` a quarter-spaced
    draw with distinct absolute values.  In the eigenbasis of ``A_L``, bit
    ``i`` of ``shared`` zeroes ``p_i`` (``r_i`` is shared, left eigenvector
    orthogonal to ``p``) and bit ``i`` of ``orthogonal`` zeroes ``c_i``
    (``r_i`` is shared, right eigenvector orthogonal to ``c``)."""
    g = np.random.default_rng(seed)
    r = g.choice(_GRID, n, replace=False)
    while len(set(np.abs(r))) < n:  # +-lam would tie in the smallest-first order
        r = g.choice(_GRID, n, replace=False)
    sign = g.choice([-1.0, 1.0], (2, n))
    p_t, c_t = sign * g.uniform(0.3, 1.5, (2, n))
    for i in range(n):
        if shared >> i & 1:
            p_t[i] = 0.0
        if orthogonal >> i & 1:
            c_t[i] = 0.0
    if not c_t.any():
        c_t[0] = 1.0
    while True:
        S = np.eye(n) + 0.3 * g.standard_normal((n, n))
        if np.linalg.cond(S) <= 20.0:
            break
    S_inv = np.linalg.inv(S)
    a_l = S @ np.diag(r) @ S_inv
    p, c = S @ p_t, S_inv.T @ c_t
    return PwlMap(a_l, a_l + np.outer(p, c), g.standard_normal(n), c)


def _well_separated(pwl: PwlMap) -> bool:
    """Right eigenvalues 0.01 apart, and each one either an eigenvalue of
    the left piece (to rounding) or 1e-3 away from all of them and from 1."""
    left = np.linalg.eigvals(pwl.A_L)
    right = np.linalg.eigvals(pwl.A_R)
    gaps = np.abs(np.subtract.outer(right, right)) + np.eye(pwl.n)
    if gaps.min() < 0.01:
        return False
    for mu in right:
        d = np.abs(left - mu).min()
        if 1e-10 < d < 1e-3 or 1e-10 < abs(mu - 1.0) < 1e-3:
            return False
    return True


_planted = st.builds(
    _planted_map,
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 5),
    shared=st.integers(0, 31),
    orthogonal=st.sampled_from([0, 0, 1, 2, 4]),
)


def _outcome(detect, pwl):
    """Every field of the detection result as bytes, or the failure text."""
    try:
        red = detect(pwl)
    except HypothesisViolated as exc:
        return str(exc)
    if red is None:
        return None
    rm = red.restricted
    arrays = [red.left, red.right, red.manifold.normal, red.manifold.base_point]
    if rm is not None:
        arrays += [rm.matrix_left, rm.offset_left, rm.matrix_right, rm.offset_right,
                   rm.switch_normal, rm.chart.base, rm.chart.basis]
    floats = [red.value, red.offset, red.manifold.offset, *red.other_shared]
    if rm is not None:
        floats.append(rm.switch_offset)
    return ([a.tobytes() for a in arrays], [float(v).hex() for v in floats],
            red.transversal, rm is None, len(red.other_shared))


@settings(max_examples=300, deadline=None)
@given(pwl=_planted)
def test_detection_matches_two_spectrum_reference(pwl):
    assume(_well_separated(pwl))
    assert _outcome(detect_shared_eigenvalue, pwl) == _outcome(reference_detect_shared, pwl)


def _close_sets(a, b, tol: float) -> bool:
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    if a.size != b.size:
        return False
    if a.size == 0:
        return True
    dist = np.abs(np.subtract.outer(a, b))
    return dist.min(axis=1).max() <= tol and dist.min(axis=0).max() <= tol


def _assert_same_detection(pwl, other):
    """Same verdict, shared values, transversality and restricted slopes
    or spectra on two maps related by a change of coordinates."""
    results = []
    for m in (pwl, other):
        try:
            results.append(detect_shared_eigenvalue(m))
        except HypothesisViolated as exc:
            results.append(str(exc).split(": ", 1)[1])
    red, red_q = results
    if red is None or isinstance(red, str):
        assert red_q == red
        return
    assert red_q is not None and not isinstance(red_q, str)
    assert red_q.value == pytest.approx(red.value, abs=1e-9 * (1.0 + abs(red.value)))
    assert _close_sets(red_q.other_shared, red.other_shared, 1e-9)
    assert red_q.transversal == red.transversal
    if not red.transversal:
        return
    rm, rm_q = red.restricted, red_q.restricted
    if rm.dimension == 1:
        assert rm_q.slopes() == pytest.approx(rm.slopes(), abs=1e-8)
    for m, m_q in ((rm.matrix_left, rm_q.matrix_left), (rm.matrix_right, rm_q.matrix_right)):
        assert _close_sets(np.linalg.eigvals(m_q), np.linalg.eigvals(m), 1e-8)


@settings(max_examples=300, deadline=None)
@given(pwl=_planted, qseed=st.integers(0, 2**32 - 1))
def test_detection_invariant_under_orthogonal_conjugation(pwl, qseed):
    assume(_well_separated(pwl))
    Q, _ = np.linalg.qr(np.random.default_rng(qseed).standard_normal((pwl.n, pwl.n)))
    turned = PwlMap(Q @ pwl.A_L @ Q.T, Q @ pwl.A_R @ Q.T, Q @ pwl.b, Q @ pwl.c)
    _assert_same_detection(pwl, turned)


def _plus_minus_half_map() -> PwlMap:
    """A_R = S diag(0.5, -0.5, 2, 3) S^-1 with p orthogonal to the left
    eigenvectors of +-0.5: both are shared, with equal magnitudes."""
    S = np.random.default_rng(7).standard_normal((4, 4))
    a_r = S @ np.diag([0.5, -0.5, 2.0, 3.0]) @ np.linalg.inv(S)
    p = S[:, 2] - 0.5 * S[:, 3]
    c = np.array([1.0, 0.3, -0.2, 0.7])
    return PwlMap(a_r - np.outer(p, c), a_r, np.array([1.0, 0.0, 0.5, -1.0]), c)


@pytest.mark.parametrize("qseed", range(50))
def test_plus_minus_tie_goes_to_the_positive_value(qseed):
    pwl = _plus_minus_half_map()
    Q, _ = np.linalg.qr(np.random.default_rng(qseed).standard_normal((4, 4)))
    turned = PwlMap(Q @ pwl.A_L @ Q.T, Q @ pwl.A_R @ Q.T, Q @ pwl.b, Q @ pwl.c)
    for m in (pwl, turned):
        red = detect_shared_eigenvalue(m)
        assert red.value == pytest.approx(0.5, abs=1e-9)
        assert red.other_shared == pytest.approx((-0.5,), abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(pwl=_planted, scale=st.sampled_from([2.0**-540, 2.0**-520, 1e-6, 1e-3, 1e3, 1e6,
                                            2.0**520, 2.0**560]))
def test_detection_invariant_under_switching_normal_scale(pwl, scale):
    # c -> scale c leaves the map unchanged (p -> p / scale), so every
    # decision must stay the same.  At the scales 2^-540, 2^-520, 2^520 and
    # 2^560, c . c is zero, subnormal or past the float range, and the
    # decisions take c in its frame.
    assume(_well_separated(pwl))
    _assert_same_detection(pwl, PwlMap(pwl.A_L, pwl.A_R, pwl.b, scale * pwl.c))


def _golden_maps() -> list[PwlMap]:
    """The five maps of the golden files."""
    v = np.array(MATRIX_3D.split()[1:], dtype=float)
    matrix_3d = PwlMap(v[:9].reshape(3, 3), v[9:18].reshape(3, 3), v[18:21], v[21:])
    params = (SHARED_2D, shared_3d_params(), FLAT_LEFT_2D, FLAT_LEFT_3D)
    return [*(bcnf(p) for p in params), matrix_3d]


def _verdicts_of_scaled_pieces(pwl: PwlMap, k: int):
    """What ``analyze`` decides on ``pwl`` with both pieces times ``2^k``,
    every value divided by ``2^k``."""
    report = analyze(PwlMap(math.ldexp(1.0, k) * pwl.A_L, math.ldexp(1.0, k) * pwl.A_R,
                            pwl.b, pwl.c))

    def values(spec):
        return ([(math.ldexp(t.value, -k), t.multiplicity) for t in spec.real],
                [(math.ldexp(z.real, -k), math.ldexp(z.imag, -k), math.ldexp(z.modulus, -k),
                  z.multiplicity) for z in spec.complex_pairs])

    p = report.p if isinstance(report.p, str) else np.ldexp(report.p, -k).tolist()
    shared = report.shared
    if isinstance(shared, str):  # "Type: shared eigenvalue <value>: <failure>"
        shared = shared.rsplit(": ", 1)[-1]
    elif shared is not None:
        shared = (math.ldexp(shared.value, -k), shared.transversal,
                  [math.ldexp(v, -k) for v in shared.other_shared])
    zero = report.zero_plane
    if zero is not None and (not isinstance(zero, str) or zero.startswith("NoFixedPoint")):
        zero = "simple zero"
    return p, values(report.spectrum_left), values(report.spectrum_right), shared, zero


# Both pieces times 2^k: each decomposition and the map's frame are those of
# k = 0, so every verdict is the same and every value exactly 2^k times its
# own.  The zero plane passes through the left piece's fixed point, and
# whether 1 is in that piece's spectrum is decided at the true scale
# (linalg.solve's pivot), so the zero-plane verdict compared is the
# singular piece's: a simple zero, another error, or none.  Negative k waits
# for a relative cluster threshold: CLUSTER_RTOL (1 + |A|_F) is absolute
# below |A|_F = 1 and merges all roots of a 2x2 at 2^-500.
@settings(max_examples=40, deadline=None)
@given(k=st.integers(0, 1000))
@example(k=1000)
def test_verdicts_invariant_under_power_of_two_scaling_of_the_pieces(k):
    for pwl in _golden_maps():
        assert _verdicts_of_scaled_pieces(pwl, k) == _verdicts_of_scaled_pieces(pwl, 0)


def test_detection_where_adjugate_products_overflow():
    # A_R has the defective double root 2 s, whose adjugate has entries near
    # 1e301 in equal rows 0 and 1; c has entries 2^30 of opposite sign there,
    # so the plain c^T B adds inf to -inf.  The decision is taken in the
    # map's frame, with no warning, and agrees with the one on c / 2^40.
    s = 2.0**500
    A_R = s * np.array([[1.0, 1.0, 0.0], [-1.0, 3.0, 0.0], [0.0, 0.0, 5.0]])
    c = 2.0**30 * np.array([1.0, -1.0, 1.0])
    A_L = A_R - np.outer(s * 2.0**-30 * np.array([0.5, 0.25, 1.0]), c)
    for k in (0, 40):
        with pytest.raises(HypothesisViolated, match="multiplicity exceeds one"):
            detect_shared_eigenvalue(PwlMap(A_L, A_R, np.ones(3), np.ldexp(c, -k)))


def test_plane_normal_sign_rule():
    # unit length, first component above 1e-12 in size made positive
    plane = AffineHyperplane.from_normal_point([1e-13, -3.0, 4.0], [0.0, 0.0, 0.0])
    assert plane.normal.tolist() == [-1e-13 / 5.0, 0.6, -0.8]
    assert not plane.normal.flags.writeable
    with pytest.raises(ValueError, match="zero"):
        AffineHyperplane.from_normal_point([0.0, 0.0], [1.0, 1.0])


# ---------------------------------------------------------------------------
# zero eigenvalue


def test_zero_eig_2d(flat_left_map):
    plane = zero_eig_reduction(flat_left_map)
    assert plane.normal == pytest.approx([0.0, 1.0], abs=1e-12)
    assert plane.offset == pytest.approx(0.0, abs=1e-12)
    assert plane.base_point == pytest.approx([-10.0 / 3.0, 0.0], abs=1e-12)


def test_zero_eig_3d(flat_left_map_3d):
    plane = zero_eig_reduction(flat_left_map_3d)
    assert plane.normal == pytest.approx([0.0, 0.0, 1.0], abs=1e-12)
    assert plane.offset == pytest.approx(0.0, abs=1e-12)
    assert plane.base_point == pytest.approx([5.0, -4.0, 0.0], abs=1e-12)


def test_zero_eig_not_singular():
    pwl = bcnf(BcnfParams(dim=2, tl=1.3, dl=0.08, tr=-1.4, dr=1.5))
    with pytest.raises(NotSingular):
        zero_eig_reduction(pwl)


def test_zero_eig_multiple_zero():
    pwl = bcnf(BcnfParams(dim=2, tl=0.0, dl=0.0, tr=-1.4, dr=1.5))
    with pytest.raises(MultipleZero):
        zero_eig_reduction(pwl)


def test_zero_eig_no_fixed_point():
    pwl = bcnf(BcnfParams(dim=2, tl=1.0, dl=0.0, tr=-1.4, dr=1.5))
    with pytest.raises(NoFixedPoint):
        zero_eig_reduction(pwl)


def test_left_branch_lands_on_plane(flat_left_map, flat_left_map_3d, rng):
    for pwl in (flat_left_map, flat_left_map_3d):
        plane = zero_eig_reduction(pwl)
        for _ in range(500):
            x = rng.uniform(-4.0, 4.0, pwl.n)
            x[0] = -abs(x[0]) - 1e-6
            y = pwl(x)
            assert abs(plane.distances(y[None])[0]) <= 1e-10 * (1.0 + np.linalg.norm(y))


def test_zero_overlap_with_shared_reduction():
    # Shared eigenvalue zero: the invariant plane of the shared-eigenvalue
    # reduction and the image plane of the singular piece must coincide.
    c = np.array([1.0, 0.0])
    a_r = np.array([[0.5, 0.5], [0.25, 0.25]])
    a_l = a_r - np.outer(np.array([0.2, 0.1]), c)
    pwl = PwlMap(a_l, a_r, np.array([1.0, 0.2]), c)
    red = detect_shared_eigenvalue(pwl)
    assert red is not None
    assert red.value == pytest.approx(0.0, abs=1e-12)
    plane = zero_eig_reduction(pwl)
    assert plane.normal == pytest.approx(red.manifold.normal, abs=1e-12)
    assert plane.offset == pytest.approx(red.manifold.offset, abs=1e-12)


# ---------------------------------------------------------------------------
# induced return map


def _induced_at(pwl, plane, x, **options):
    """The one sample of ``sample_induced`` at the point ``x`` of the plane,
    its image lifted back to the ambient space when it returned."""
    chart = plane_chart(plane)
    (sample,) = sample_induced(pwl, plane, [chart.project(x)], chart=chart, **options)
    image = None if sample.image is None else reference_lift(chart, sample.image)
    return sample, image


def test_induced_map_left_start(flat_left_map):
    plane = zero_eig_reduction(flat_left_map)
    res, image = _induced_at(flat_left_map, plane, np.array([-0.5, 0.0]))
    assert res.return_time == 1
    assert res.itinerary == ("L",)
    assert image == pytest.approx([0.35, 0.0], abs=1e-12)


def test_induced_map_right_start(flat_left_map):
    plane = zero_eig_reduction(flat_left_map)
    res, image = _induced_at(flat_left_map, plane, np.array([0.5, 0.0]))
    assert res.return_time == 3
    assert res.itinerary == ("R", "R", "L")
    assert image == pytest.approx([0.329, 0.0], abs=1e-12)


def test_induced_map_first_return_is_minimal(flat_left_map):
    plane = zero_eig_reduction(flat_left_map)
    x = np.array([0.5, 0.0])
    res, _ = _induced_at(flat_left_map, plane, x)
    y = x.copy()
    for _ in range(res.return_time - 1):
        y = flat_left_map(y)
        assert not reference_contains(plane, y, 1e-9)


def test_induced_map_rejects_off_plane(flat_left_map):
    # grid points lifted by the chart of another plane start off the section
    plane = zero_eig_reduction(flat_left_map)
    other = plane_chart(AffineHyperplane.from_normal_point([0.0, 1.0], [0.0, 0.3]))
    with pytest.raises(ValueError, match="start point is not on the section"):
        sample_induced(flat_left_map, plane, [[0.5]], chart=other)


# The plane's chart moved off it along the normal by k * 1e-9 (1 + |base|):
# the lifted start is on the section at k = 0.5 for MEMBERSHIP_TOL = 1e-9
# but not for 1e-10, and off it at k = 2 for 1e-9 but not for 1e-8.
@pytest.mark.parametrize("k, on_section", [(0.5, True), (2.0, False)])
def test_membership_threshold(flat_left_map, k, on_section):
    plane = zero_eig_reduction(flat_left_map)
    chart = plane_chart(plane)
    shift = k * 1e-9 * (1.0 + np.linalg.norm(chart.base))
    moved = dataclasses.replace(chart, base=chart.base + shift * plane.normal)
    if on_section:
        (sample,) = sample_induced(flat_left_map, plane, [[0.0]], chart=moved)
        assert sample.status == "ok"
    else:
        with pytest.raises(ValueError, match="start point is not on the section"):
            sample_induced(flat_left_map, plane, [[0.0]], chart=moved)


def test_induced_map_fixed_point_on_plane():
    # The right piece keeps a fixed point on the image plane; the induced
    # map returns it unchanged after a single step.
    c = np.array([1.0, 0.0])
    a_l = np.array([[0.5, 0.0], [0.7, 0.0]])
    a_r = a_l + np.outer(np.array([1.0 / 14.0, 0.1]), c)
    pwl = PwlMap(a_l, a_r, np.array([1.0, 0.0]), c)
    plane = zero_eig_reduction(pwl)
    star = fixed_points(pwl).right.point
    assert star == pytest.approx([7.0 / 3.0, 28.0 / 15.0], abs=1e-12)
    assert reference_contains(plane, star, 1e-9)
    res, image = _induced_at(pwl, plane, star)
    assert res.return_time == 1
    assert res.itinerary == ("R",)
    assert image == pytest.approx(star, abs=1e-10)


def test_induced_map_failure_statuses(flat_left_map):
    plane = zero_eig_reduction(flat_left_map)
    capped, _ = _induced_at(flat_left_map, plane, np.array([0.5, 0.0]), j_max=2)
    assert (capped.status, capped.return_time, capped.image) == ("no_return", None, None)
    far, _ = _induced_at(flat_left_map, plane, np.array([1e6, 0.0]), escape_radius=1e3)
    assert (far.status, far.return_time, far.image) == ("escaped", None, None)


def test_induced_map_left_step_overflow_is_non_finite():
    # A left step returns at once, but an image that overflowed is reported
    # first, as without an escape radius it is not an escape.
    a_l = np.array([[1e300, 0.0], [0.0, 0.0]])
    pwl = PwlMap(a_l, a_l, np.zeros(2), np.array([1.0, 0.0]))
    plane = AffineHyperplane.from_normal_point([0.0, 1.0], [0.0, 0.0])
    chart = plane_chart(plane)
    grid = [chart.project([-1e10, 0.0])]
    unbounded = sample_induced(pwl, plane, grid, chart=chart, escape_radius=np.inf)
    assert (unbounded.status.tolist(), unbounded.steps.tolist()) == (["non_finite"], [1])
    bounded = sample_induced(pwl, plane, grid, chart=chart)
    assert (bounded.status.tolist(), bounded.steps.tolist()) == (["escaped"], [1])


def test_sample_induced(flat_left_map):
    # Grid points and images are chart coordinates on the plane.
    plane = zero_eig_reduction(flat_left_map)
    chart = plane_chart(plane)
    # the chart spans both switching sides over this window
    grid = np.linspace(-5.0, 1.0, 21)[:, None]
    samples = sample_induced(flat_left_map, plane, grid, chart=chart)
    assert len(samples) == 21
    assert all(s.status == "ok" for s in samples)
    for s in samples:
        assert s.image is not None
        assert s.return_time >= 1
        assert reference_contains(plane, reference_lift(chart, s.image), 1e-9)
    capped = sample_induced(flat_left_map, plane, grid, chart=chart, j_max=1)
    statuses = {s.status for s in capped}
    assert "no_return" in statuses


def _mixed_samples(flat_left_map):
    """Induced samples on the flat 2-D map whose statuses are ok, escaped and
    no_return."""
    plane = zero_eig_reduction(flat_left_map)
    grid = np.linspace(-5.0, 1.0, 21)
    samples = sample_induced(flat_left_map, plane, grid, j_max=2, escape_radius=4.0)
    assert {"ok", "escaped", "no_return"} <= set(samples.status.tolist())
    return samples


def _same_sample(a, b) -> bool:
    def key(s):
        image = None if s.image is None else s.image.tobytes()
        return s.point.tobytes(), image, s.return_time, s.itinerary, s.status
    return key(a) == key(b)


def test_induced_samples_len_and_iteration(flat_left_map):
    samples = _mixed_samples(flat_left_map)
    assert isinstance(samples, InducedSamples)
    assert not isinstance(samples, collections.abc.Sequence)
    assert not hasattr(samples, "__getitem__")
    assert len(samples) == 21
    items = list(samples)
    assert len(items) == 21
    assert all(type(s) is InducedSample for s in items)
    # each pass builds new records of the same samples, row by row
    assert all(a is not b and _same_sample(a, b) for a, b in zip(items, samples))
    for i, s in enumerate(items):
        assert s.point.tobytes() == samples.points[i].tobytes()
        assert s.status == samples.status[i]
        if s.status == "ok":
            assert s.image.tobytes() == samples.images[i].tobytes()
            assert s.return_time == samples.steps[i]
            assert s.itinerary == ("R",) * (s.return_time - 1) + (
                "L" if samples.last_left[i] else "R",)
        else:
            assert s.image is None and s.return_time is None and s.itinerary is None
    # the records have Python fields, as the list of samples had
    for s in items:
        assert type(s.status) is str
        assert s.return_time is None or type(s.return_time) is int


def test_induced_samples_columns_are_read_only(flat_left_map):
    samples = _mixed_samples(flat_left_map)
    for name in ("points", "images", "steps", "last_left", "status"):
        column = getattr(samples, name)
        assert len(column) == 21
        assert not column.flags.writeable
        with pytest.raises(ValueError):
            column[0] = column[1]
    assert not next(iter(samples)).point.flags.writeable


def test_induced_samples_columns_agree_with_views(flat_left_map):
    samples = _mixed_samples(flat_left_map)
    ok = samples.status == "ok"
    assert np.array_equal(np.isnan(samples.images).any(axis=1), ~ok)
    assert np.array_equal(np.isnan(samples.images).all(axis=1), ~ok)
    views = list(samples)
    for code in ("ok", "escaped", "no_return", "non_finite"):
        assert int(np.count_nonzero(samples.status == code)) == sum(
            s.status == code for s in views)
    assert int(samples.steps[ok].sum()) == sum(s.return_time for s in views if s.status == "ok")
    assert np.all(samples.steps[samples.status == "no_return"] == 0)


def test_sample_induced_without_chart(flat_left_map):
    plane = zero_eig_reduction(flat_left_map)
    samples = sample_induced(flat_left_map, plane, np.linspace(-1.0, 1.0, 11))
    assert all(s.status == "ok" for s in samples)
    first = next(iter(samples))
    assert first.point.shape == (1,)
    assert first.image.shape == (1,)


def test_flags_derive_from_the_fields_they_restate():
    # escaped is escape_index set, transversal is restricted set; neither is
    # stored, so neither can disagree with the field it restates
    two = 2.0 * np.eye(2)
    growing = PwlMap(two, two, np.zeros(2), np.array([1.0, 0.0]))
    orbits = [orbit(growing, np.ones(2), 0, 100, 1e3), orbit(growing, np.ones(2), 5, 5, 1e3),
              orbit(bcnf(SHARED_2D), default_x0(bcnf(SHARED_2D)), 10, 10)]
    assert [(o.escaped, o.escape_index) for o in orbits] == [(True, 10), (False, None),
                                                             (False, None)]
    parallel = PwlMap(np.diag([0.2, 2.0]) - np.outer([0.0, 0.3], [1.0, 0.0]), np.diag([0.2, 2.0]),
                      np.ones(2), np.array([1.0, 0.0]))
    reductions = [detect_shared_eigenvalue(bcnf(SHARED_2D)), detect_shared_eigenvalue(parallel)]
    assert [(r.transversal, r.restricted is not None) for r in reductions] == [(True, True),
                                                                               (False, False)]
    for cls, flag in ((type(orbits[0]), "escaped"), (type(reductions[0]), "transversal")):
        assert flag not in {f.name for f in dataclasses.fields(cls)}


def test_result_objects_compare_by_identity():
    # Each result type holding arrays, its arrays of two or more entries: a
    # generated __eq__ would compare them elementwise and raise ValueError.
    flat = bcnf(FLAT_LEFT_3D)
    plane = zero_eig_reduction(flat)
    chart = plane_chart(plane)
    samples = sample_induced(flat, plane, [[0.0, 0.0], [1.0, 2.0], [3.0, 4.0]], chart=chart)
    sample = next(s for s in samples if s.status == "ok")
    fp = fixed_points(flat)
    spectrum = linalg.real_eigen(flat.A_R)
    red = detect_shared_eigenvalue(bcnf(shared_3d_params()))
    objects = [
        flat, orbit(flat, default_x0(flat), 10, 10), fp.right, fp, spectrum.real[0], spectrum,
        plane, chart, red.restricted, red, sample,
        scan(FLAT_LEFT_3D, "dr", [0.5, 1.0], n_transient=10, n_keep=10),
    ]
    assert [type(obj).__name__ for obj in objects] == [
        "PwlMap", "OrbitData", "FixedPointInfo", "FixedPoints", "EigenTriple", "Spectrum",
        "AffineHyperplane", "Chart", "ReducedPwlMap", "SharedEigReduction",
        "InducedSample", "ScanResult"]
    for obj in objects:
        twin = copy.copy(obj)  # the same field values in another object
        assert (obj == obj) is True and (obj != obj) is False
        assert (obj == twin) is False and (obj != twin) is True
        assert (obj in [twin, obj]) is True and (obj in [twin]) is False
        assert hash(obj) == hash(obj) and len({obj, twin, obj}) == 2
    again = next(s for s in samples if s.status == "ok")
    assert (sample == again) is False  # two records of one sample
    assert (sample in samples) is False


def _reference_excursion(pwl, plane, x, j_max, escape_radius, tol):
    """The one-point excursion loop, kept as the oracle of the batched
    sampler: ``reference_step`` and one return test per step.  Returns the
    outcome, the last iterate, the step it ended at (0 when it ran out) and
    the symbols taken."""
    y = np.asarray(x, dtype=float).copy()
    if not reference_contains(plane, y, tol):
        raise ValueError("start point is not on the section")
    syms = []
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, j_max + 1):
            left, image = reference_step(pwl.A_L, pwl.b, pwl.A_R, pwl.b, pwl.c, 0.0, y)
            sym = "L" if left else "R"
            syms.append(sym)
            y = np.array(image)
            r = reference_norm(y)
            if r > escape_radius:
                return "escaped", y, j, tuple(syms)
            if not math.isfinite(r):
                return "non_finite", y, j, tuple(syms)
            if sym == "L" or reference_contains(plane, y, tol):
                return "ok", y, j, tuple(syms)
    return "no_return", y, 0, tuple(syms)


def _reference_samples(pwl, plane, chart, grid, j_max, escape_radius, tol):
    """Per grid point ``(xi, image, return_time, itinerary, status, step,
    last_left)``: the first five as the sample view gives them, the last two
    as the columns hold them."""
    out = []
    for xi in grid:
        status, y, j, syms = _reference_excursion(pwl, plane, reference_lift(chart, xi),
                                                  j_max, escape_radius, tol)
        last_left = status != "no_return" and syms[-1] == "L"
        if status == "ok":
            out.append((xi, reference_project(chart, y), j, syms, status, j, last_left))
        else:
            out.append((xi, None, None, None, status, j, last_left))
    return out


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 5),
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(0, 40),
    j_max=st.integers(0, 300),
    escape_radius=st.sampled_from([10.0, 1e12, np.inf]),
    tol=st.sampled_from([1e-9, 0.05]),
    block=st.sampled_from([3, reduction._BLOCK]),
)
def test_sample_induced_matches_reference_loop(n, seed, count, j_max, escape_radius, tol,
                                               block):
    # A rank n-1 left piece maps everything onto the plane w . x = w . b, w its
    # left null vector.  Right pieces from contracting to strongly expanding
    # mix returns, escapes, overflows and j_max caps.
    rng = np.random.default_rng(seed)
    U = rng.standard_normal((n, n - 1))
    A_L = U @ rng.standard_normal((n - 1, n)) / n
    c = rng.standard_normal(n)
    A_R = A_L + np.outer(rng.standard_normal(n) * rng.choice([0.5, 2.0, 8.0]), c)
    b = rng.standard_normal(n)
    pwl = PwlMap(A_L, A_R, b, c)
    w = np.linalg.svd(U.T)[2][-1]
    plane = AffineHyperplane.from_normal_point(w, b)
    chart = plane_chart(plane)
    grid = rng.uniform(-3.0, 3.0, (count, n - 1))
    ref = _reference_samples(pwl, plane, chart, grid, j_max, escape_radius, tol)
    with mock.patch.object(reduction, "_BLOCK", block):
        got = sample_induced(pwl, plane, grid, chart=chart, j_max=j_max,
                             escape_radius=escape_radius, membership_tol=tol)
    assert len(got) == count
    for s, (xi, image, j, syms, status, _, _) in zip(got, ref):
        assert s.point.tobytes() == xi.tobytes()
        assert s.status == status
        assert s.return_time == j
        assert s.itinerary == syms
        if image is None:
            assert s.image is None
        else:
            assert s.image.shape == image.shape
            assert s.image.tobytes() == image.tobytes()
    # the columns themselves
    assert got.points.shape == got.images.shape == (count, n - 1)
    assert got.points.tobytes() == grid.tobytes()
    assert got.status.tolist() == [r[4] for r in ref]
    assert got.steps.tolist() == [r[5] for r in ref]
    assert got.last_left.tolist() == [r[6] for r in ref]
    nan_row = np.full(n - 1, np.nan).tobytes()
    for row, r in zip(got.images, ref):
        assert row.tobytes() == (nan_row if r[1] is None else r[1].tobytes())


def test_reduced_map_rows_match_points(shared_map, rng):
    for pwl in (shared_map, bcnf(shared_3d_params())):
        rmap = restrict_to_manifold(detect_shared_eigenvalue(pwl))
        pts = rng.uniform(-2.0, 2.0, (300, rmap.dimension))
        rows = rmap(pts)
        assert rows.shape == pts.shape
        for xi, y in zip(pts, rows):
            assert rmap(xi).tobytes() == y.tobytes()


def test_induced_slopes_expand(flat_left_map):
    # Adjacent samples with the same symbol sequence estimate the piece
    # slope of the one-dimensional induced map; every piece expands.
    plane = zero_eig_reduction(flat_left_map)
    chart = plane_chart(plane)
    grid = np.linspace(-8.0, 2.0, 400)[:, None]
    items = list(sample_induced(flat_left_map, plane, grid, chart=chart))
    checked = 0
    for s0, s1 in zip(items, items[1:]):
        if s0.status != "ok" or s1.status != "ok":
            continue
        if s0.itinerary != s1.itinerary:
            continue
        slope = (s1.image[0] - s0.image[0]) / (s1.point[0] - s0.point[0])
        assert abs(slope) > 1.0
        checked += 1
    assert checked > 300


# ---------------------------------------------------------------------------
# hyperplanes and charts


def test_hyperplane_normalization():
    plane = AffineHyperplane.from_normal_point(
        np.array([0.0, -2.0]), np.array([1.0, 3.0])
    )
    assert plane.normal == pytest.approx([0.0, 1.0], abs=1e-15)
    assert plane.offset == pytest.approx(3.0, abs=1e-15)
    X = np.array([[5.0, 4.0], [9.0, 3.0], [9.0, 3.1]])
    assert plane.distances(X) == pytest.approx([1.0, 0.0, 0.1])
    assert reduction._on_plane(plane, X, np.linalg.norm(X, axis=1), 1e-9).tolist() == [
        False, True, False]


@pytest.mark.parametrize("normal, unit", [
    ([1e-170, 0.0], [1.0, 0.0]),
    ([0.0, -1e-170], [0.0, 1.0]),
    ([1e200, 1e200], [math.sqrt(0.5), math.sqrt(0.5)]),
])
def test_hyperplane_from_a_normal_whose_squares_under_or_overflow(normal, unit):
    plane = AffineHyperplane.from_normal_point(normal, [2.0, 3.0])
    assert plane.normal == pytest.approx(unit, abs=1e-15)
    assert plane.offset == pytest.approx(2.0 * unit[0] + 3.0 * unit[1], abs=1e-15)


def test_chart_roundtrip(rng):
    for n in (2, 3, 4):
        w = rng.standard_normal(n)
        point = rng.standard_normal(n)
        plane = AffineHyperplane.from_normal_point(w, point)
        chart = plane_chart(plane)
        xi = rng.standard_normal((50, n - 1))
        lifted = chart.lift_many(xi)
        assert np.abs(plane.distances(lifted)).max() <= 1e-10
        back = chart.project_many(lifted)
        assert np.abs(back - xi).max() <= 1e-10


@pytest.mark.parametrize("n", range(2, 9))
def test_chart_many_rows_equal_one_point_forms(n):
    rng = np.random.default_rng(n)
    chart = plane_chart(AffineHyperplane.from_normal_point(rng.standard_normal(n),
                                                           rng.standard_normal(n)))
    xi = rng.standard_normal((500, n - 1))
    x = 10.0 * rng.standard_normal((500, n))
    lifted = np.array([reference_lift(chart, r) for r in xi])
    projected = np.array([reference_project(chart, r) for r in x])
    assert chart.lift_many(xi).tobytes() == lifted.tobytes()
    assert chart.project_many(x).tobytes() == projected.tobytes()
    assert chart.lift_many(np.empty((0, n - 1))).shape == (0, n)


# ---------------------------------------------------------------------------
# unit modulus classification


def test_classify_none(shared_map):
    assert classify_unit_modulus(shared_map) == []


def test_classify_saddle_node():
    pwl = bcnf(BcnfParams(dim=2, tl=2.2, dl=0.4, tr=1.5, dr=0.5))
    reports = classify_unit_modulus(pwl)
    assert len(reports) == 1
    rep = reports[0]
    assert rep.side == "R"
    assert rep.kind == "SN"
    assert rep.value == pytest.approx(1.0, abs=1e-9)
    assert rep.theta is None
    assert not rep.resonant


def test_classify_period_doubling():
    pwl = bcnf(BcnfParams(dim=2, tl=-1.7, dl=0.7, tr=2.2, dr=0.4))
    reports = classify_unit_modulus(pwl)
    assert len(reports) == 1
    rep = reports[0]
    assert rep.side == "L"
    assert rep.kind == "PD"
    assert rep.value == pytest.approx(-1.0, abs=1e-9)


@pytest.mark.parametrize(
    "tr,theta,resonant",
    [
        (0.0, np.pi / 2.0, True),
        (-1.0, 2.0 * np.pi / 3.0, True),
        (1.0, np.pi / 3.0, False),
    ],
)
def test_classify_neimark_sacker(tr, theta, resonant):
    pwl = bcnf(BcnfParams(dim=2, tl=2.2, dl=0.4, tr=tr, dr=1.0))
    reports = classify_unit_modulus(pwl)
    assert len(reports) == 1
    rep = reports[0]
    assert rep.side == "R"
    assert rep.kind == "NS"
    assert rep.value is None
    assert rep.theta == pytest.approx(theta, abs=1e-9)
    assert rep.resonant == resonant


def test_classify_both_sides():
    pwl = bcnf(BcnfParams(dim=2, tl=1.5, dl=0.5, tr=0.0, dr=1.0))
    kinds = {(r.side, r.kind) for r in classify_unit_modulus(pwl)}
    assert kinds == {("L", "SN"), ("R", "NS")}


# ---------------------------------------------------------------------------
# one report per map


def _record_of(call, *args) -> str:
    """The ``"Type: message"`` record of the error ``call(*args)`` raises."""
    with pytest.raises(PwldynError) as info:
        call(*args)
    return f"{type(info.value).__name__}: {info.value}"


def test_analyze_records_a_discontinuous_map():
    pwl = PwlMap([[0.0, 1.0], [0.0, 0.0]], [[0.5, 1.0], [-0.3, 0.2]], [1.0, 0.0], [1.0, 0.0])
    report = analyze(pwl)
    assert report.p == _record_of(validate_continuity, pwl)
    assert report.p.startswith("NotContinuous: ")
    # detection checks continuity first; the nilpotent left piece has a double zero
    assert report.shared == report.p
    assert report.zero_plane.startswith("MultipleZero: ")
    assert report.fixed_points.right.point is not None


def test_analyze_records_a_multiple_zero():
    pwl = PwlMap([[0.0, 1.0], [0.0, 0.0]], [[0.5, 1.0], [-0.3, 0.0]], [1.0, 0.0], [1.0, 0.0])
    report = analyze(pwl)
    assert report.p.tolist() == validate_continuity(pwl).tolist()
    assert report.zero_plane == _record_of(zero_eig_reduction, pwl)
    assert report.zero_plane.startswith("MultipleZero: ")


def test_analyze_records_a_hypothesis_violation(tmp_path):
    path = tmp_path / "map.txt"
    path.write_text(MATRIX_3D)
    pwl = read_matrix_file(str(path))
    report = analyze(pwl)
    assert report.shared == _record_of(detect_shared_eigenvalue, pwl)
    assert report.shared == ("HypothesisViolated: shared eigenvalue -2: "
                             "algebraic multiplicity exceeds one")
    assert report.zero_plane is None  # NotSingular is no record


def test_analyze_gives_the_values_of_the_calls(shared_map):
    report = analyze(shared_map)
    assert report.zero_plane is None
    red = detect_shared_eigenvalue(shared_map)
    assert (report.shared.value, report.shared.left.tolist()) == (red.value, red.left.tolist())
    assert report.spectrum_left is linalg.real_eigen(shared_map.A_L)
    assert report.spectrum_right is linalg.real_eigen(shared_map.A_R)
    assert report.fixed_points.right.point.tolist() == (
        fixed_points(shared_map).right.point.tolist())
    assert report.unit_modulus == ()
    flat = bcnf(FLAT_LEFT_2D)
    plane = analyze(flat).zero_plane
    assert (plane.normal.tolist(), plane.offset) == (
        zero_eig_reduction(flat).normal.tolist(), zero_eig_reduction(flat).offset)


def test_analyze_passes_other_errors_on():
    # the eigenvalue 3e308 is past the float range
    huge = np.full((2, 2), 1.5e308)
    with pytest.raises(IllConditioned):
        analyze(PwlMap(huge, huge, [1.0, 0.0], [0.0, 1.0]))


def test_analyze_decomposes_each_piece_once(rng, monkeypatch):
    # a map no other test has decomposed: the memo misses once per piece
    a_l = rng.standard_normal((4, 4))
    pwl = PwlMap(a_l, a_l + np.outer(rng.standard_normal(4), [1.0, 0.0, 0.0, 0.0]),
                 rng.standard_normal(4), [1.0, 0.0, 0.0, 0.0])
    roots = []
    char_roots = linalg._char_roots
    monkeypatch.setattr(linalg, "_char_roots", lambda *args: roots.append(args) or char_roots(*args))
    before = linalg._spectrum.cache_info()
    analyze(pwl)
    after = linalg._spectrum.cache_info()
    assert after.misses - before.misses == 2
    assert len(roots) == 2
    assert after.hits > before.hits
