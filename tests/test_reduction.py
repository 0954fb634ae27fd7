from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pwldyn import (
    AffineHyperplane,
    BcnfParams,
    Escaped,
    HypothesisViolated,
    MultipleZero,
    NoFixedPoint,
    NonFinite,
    NonTransversal,
    NoReturn,
    NotSingular,
    PwlMap,
    bcnf,
    classify_unit_modulus,
    detect_shared_eigenvalue,
    fixed_points,
    induced_map,
    plane_chart,
    reduced_orbit,
    restrict_to_manifold,
    sample_induced,
    zero_eig_reduction,
)
from pwldyn import linalg, reduction
from pwldyn.cli import main

from conftest import (
    FLAT_LEFT_2D,
    SHARED_2D,
    bcnf_argv,
    reference_detect_shared,
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
    assert abs(red.manifold.signed_distance(star)) <= 1e-14


def test_deviation_values(shared_map):
    red = detect_shared_eigenvalue(shared_map)
    assert red.deviation(np.array([0.5, 0.15])) == pytest.approx(0.0, abs=1e-14)
    assert red.deviation(np.zeros(2)) == pytest.approx(-0.25, abs=1e-14)
    # left . right stays away from zero for a transversal pair
    assert float(red.left @ red.right) == pytest.approx(1.7, abs=1e-12)
    shifted = np.array([0.5, 0.15]) + red.right
    assert red.deviation(shifted) == pytest.approx(1.7, abs=1e-12)


def test_deviation_contracts(shared_map, rng):
    red = detect_shared_eigenvalue(shared_map)
    lam = red.value
    for _ in range(300):
        x = rng.uniform(-3.0, 3.0, 2)
        before = red.deviation(x)
        after = red.deviation(shared_map(x))
        assert abs(after - lam * before) <= 1e-12 * (1.0 + abs(before))


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
        x = chart.lift(xi)
        assert abs(red.deviation(x)) <= 1e-12
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
    for _ in range(500):
        x = rng.uniform(-3.0, 3.0, 2)
        before = red.deviation(x)
        assert abs(red.deviation(pwl(x)) - red.value * before) <= 1e-12 * (1.0 + abs(before))
    rmap = restrict_to_manifold(red)
    assert rmap.slopes() == pytest.approx((0.5, -1.5), abs=1e-12)
    for _ in range(500):
        xi = rng.uniform(-5.0, 5.0, 1)
        x = rmap.chart.lift(xi)
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
@given(pwl=_planted, scale=st.sampled_from([1e-6, 1e-3, 1e3, 1e6]))
def test_detection_invariant_under_switching_normal_scale(pwl, scale):
    # c -> scale c leaves the map unchanged (p -> p / scale), so every
    # decision must stay the same.
    assume(_well_separated(pwl))
    _assert_same_detection(pwl, PwlMap(pwl.A_L, pwl.A_R, pwl.b, scale * pwl.c))


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
            assert abs(plane.signed_distance(y)) <= 1e-10 * (1.0 + np.linalg.norm(y))


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


def test_induced_map_left_start(flat_left_map):
    plane = zero_eig_reduction(flat_left_map)
    res = induced_map(flat_left_map, plane, np.array([-0.5, 0.0]))
    assert res.return_time == 1
    assert res.itinerary == ("L",)
    assert res.image == pytest.approx([0.35, 0.0], abs=1e-12)


def test_induced_map_right_start(flat_left_map):
    plane = zero_eig_reduction(flat_left_map)
    res = induced_map(flat_left_map, plane, np.array([0.5, 0.0]))
    assert res.return_time == 3
    assert res.itinerary == ("R", "R", "L")
    assert res.image == pytest.approx([0.329, 0.0], abs=1e-12)


def test_induced_map_first_return_is_minimal(flat_left_map):
    plane = zero_eig_reduction(flat_left_map)
    x = np.array([0.5, 0.0])
    res = induced_map(flat_left_map, plane, x)
    y = x.copy()
    for _ in range(res.return_time - 1):
        y = flat_left_map(y)
        assert not plane.contains(y)


def test_induced_map_rejects_off_plane(flat_left_map):
    plane = zero_eig_reduction(flat_left_map)
    with pytest.raises(ValueError):
        induced_map(flat_left_map, plane, np.array([0.5, 0.3]))


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
    assert plane.contains(star)
    res = induced_map(pwl, plane, star)
    assert res.return_time == 1
    assert res.itinerary == ("R",)
    assert res.image == pytest.approx(star, abs=1e-10)


def test_induced_map_failure_statuses(flat_left_map):
    plane = zero_eig_reduction(flat_left_map)
    with pytest.raises(NoReturn):
        induced_map(flat_left_map, plane, np.array([0.5, 0.0]), j_max=2)
    with pytest.raises(Escaped):
        induced_map(flat_left_map, plane, np.array([1e6, 0.0]), escape_radius=1e3)


def test_induced_map_left_step_overflow_is_non_finite():
    # A left step returns at once, but an image that overflowed is reported
    # first, as without an escape radius it is not an escape.
    a_l = np.array([[1e300, 0.0], [0.0, 0.0]])
    pwl = PwlMap(a_l, a_l, np.zeros(2), np.array([1.0, 0.0]))
    plane = AffineHyperplane.from_normal_point([0.0, 1.0], [0.0, 0.0])
    with pytest.raises(NonFinite, match=r"^excursion iterate 1 is not finite$"):
        induced_map(pwl, plane, np.array([-1e10, 0.0]), escape_radius=np.inf)
    with pytest.raises(Escaped):
        induced_map(pwl, plane, np.array([-1e10, 0.0]))


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
        assert plane.contains(chart.lift(s.image))
    capped = sample_induced(flat_left_map, plane, grid, chart=chart, j_max=1)
    statuses = {s.status for s in capped}
    assert "no_return" in statuses


def test_sample_induced_without_chart(flat_left_map):
    plane = zero_eig_reduction(flat_left_map)
    samples = sample_induced(flat_left_map, plane, np.linspace(-1.0, 1.0, 11))
    assert all(s.status == "ok" for s in samples)
    assert samples[0].point.shape == (1,)
    assert samples[0].image.shape == (1,)


def _reference_induced(pwl, plane, x, j_max, escape_radius, tol):
    """The one-point excursion loop that the batched sampler replaced."""
    y = np.asarray(x, dtype=float).copy()
    if not plane.contains(y, tol):
        raise ValueError("start point is not on the section")
    syms = []
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, j_max + 1):
            sym = pwl.side(y)
            syms.append(sym)
            y = (pwl.A_L if float(pwl.c @ y) < 0.0 else pwl.A_R) @ y + pwl.b
            r = math.sqrt(y @ y)
            if r > escape_radius:
                raise Escaped(f"excursion left |x| <= {escape_radius:g} after {j} steps")
            if not math.isfinite(r):
                raise NonFinite(f"excursion iterate {j} is not finite")
            if sym == "L" or plane.contains(y, tol):
                return y, j, tuple(syms)
    raise NoReturn(f"no return to the section within {j_max} iterations")


def _reference_samples(pwl, plane, chart, grid, j_max, escape_radius, tol):
    out = []
    for xi in grid:
        try:
            y, j, syms = _reference_induced(pwl, plane, chart.lift(xi), j_max,
                                            escape_radius, tol)
        except (NoReturn, Escaped, NonFinite) as exc:
            status = {NoReturn: "no_return", Escaped: "escaped", NonFinite: "non_finite"}
            out.append((xi, None, None, None, status[type(exc)]))
        else:
            out.append((xi, chart.project(y), j, syms, "ok"))
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
    for s, (xi, image, j, syms, status) in zip(got, ref):
        assert s.point.tobytes() == xi.tobytes()
        assert s.status == status
        assert s.return_time == j
        assert s.itinerary == syms
        if image is None:
            assert s.image is None
        else:
            assert s.image.shape == image.shape
            assert s.image.tobytes() == image.tobytes()


def test_induced_map_matches_reference_loop(flat_left_map):
    plane = zero_eig_reduction(flat_left_map)
    chart = plane_chart(plane)
    for xi in np.linspace(-6.0, 2.0, 41):
        x = chart.lift([xi])
        y, j, syms = _reference_induced(flat_left_map, plane, x, 100, 1e12, 1e-9)
        res = induced_map(flat_left_map, plane, x, j_max=100)
        assert res.image.tobytes() == y.tobytes()
        assert (res.return_time, res.itinerary) == (j, syms)


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
    samples = sample_induced(flat_left_map, plane, grid, chart=chart)
    checked = 0
    for s0, s1 in zip(samples, samples[1:]):
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
    assert plane.signed_distance(np.array([5.0, 4.0])) == pytest.approx(1.0)
    assert plane.contains(np.array([9.0, 3.0]))
    assert not plane.contains(np.array([9.0, 3.1]))


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
    assert chart.lift_many(xi).tobytes() == np.array([chart.lift(r) for r in xi]).tobytes()
    assert chart.project_many(x).tobytes() == np.array([chart.project(r) for r in x]).tobytes()
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
