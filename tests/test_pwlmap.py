from __future__ import annotations

import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwldyn import (
    AffineHyperplane,
    BcnfParams,
    NonFinite,
    NotContinuous,
    PwlMap,
    ReducedPwlMap,
    UnsupportedDimension,
    bcnf,
    detect_shared_eigenvalue,
    fixed_points,
    orbit,
    plane_chart,
    reduced_orbit,
    restrict_to_manifold,
    validate_continuity,
)
from pwldyn import pwlmap

from conftest import (
    FLAT_LEFT_2D,
    FLAT_LEFT_3D,
    SHARED_2D,
    pieces,
    reference_chunked_orbit,
    reference_norm,
    reference_orbit,
    reference_step,
    shared_3d_params,
)


def test_bcnf_2d_matrices(shared_map):
    assert np.array_equal(shared_map.A_L, np.array([[2.2, 1.0], [-0.4, 0.0]]))
    assert np.array_equal(shared_map.A_R, np.array([[-1.3, 1.0], [0.3, 0.0]]))
    assert np.array_equal(shared_map.b, np.array([1.0, 0.0]))
    assert np.array_equal(shared_map.c, np.array([1.0, 0.0]))


def test_bcnf_3d_matrices():
    pwl = bcnf(BcnfParams(dim=3, tl=1.5, dl=0.25, sl=-0.5, tr=2.0, dr=0.5, sr=1.0))
    assert np.array_equal(
        pwl.A_L, np.array([[1.5, 1.0, 0.0], [0.5, 0.0, 1.0], [0.25, 0.0, 0.0]])
    )
    assert np.array_equal(
        pwl.A_R, np.array([[2.0, 1.0, 0.0], [-1.0, 0.0, 1.0], [0.5, 0.0, 0.0]])
    )
    assert np.array_equal(pwl.b, np.array([1.0, 0.0, 0.0]))
    assert np.array_equal(pwl.c, np.array([1.0, 0.0, 0.0]))


def test_bcnf_coefficient_identities(rng):
    # Trace, second symmetric function and determinant of each piece come
    # straight from the construction parameters.
    for _ in range(20):
        t, s, d = rng.uniform(-2.0, 2.0, 3)
        pwl = bcnf(BcnfParams(dim=3, tl=t, dl=d, sl=s, tr=0.0, dr=0.0, sr=0.0))
        a = pwl.A_L
        assert np.trace(a) == pytest.approx(t, abs=1e-14)
        assert np.linalg.det(a) == pytest.approx(d, abs=1e-12)
        minors = (
            np.linalg.det(a[np.ix_([0, 1], [0, 1])])
            + np.linalg.det(a[np.ix_([0, 2], [0, 2])])
            + np.linalg.det(a[np.ix_([1, 2], [1, 2])])
        )
        assert minors == pytest.approx(s, abs=1e-12)


def test_bcnf_char_poly(shared_map):
    for a, (t, d) in ((shared_map.A_L, (2.2, 0.4)), (shared_map.A_R, (-1.3, -0.3))):
        for lam in np.linalg.eigvals(a):
            assert abs(lam**2 - t * lam + d) <= 1e-12


def test_bcnf_rejects_other_dims():
    with pytest.raises(UnsupportedDimension,
                       match="^normal form exists for dimensions 2 and 3, not 4$"):
        bcnf(BcnfParams(dim=4, tl=1.0, dl=1.0, tr=1.0, dr=1.0))
    with pytest.raises(ValueError,
                       match="^second traces sl/sr are only meaningful in dimension 3$"):
        bcnf(BcnfParams(dim=2, tl=1.0, dl=1.0, tr=1.0, dr=1.0, sl=0.5, sr=0.5))
    with pytest.raises(ValueError, match="^missing normal-form coefficients: sl, sr$"):
        bcnf(BcnfParams(dim=3, tl=1.0, dl=1.0, tr=1.0, dr=1.0))
    with pytest.raises(ValueError, match="^missing normal-form coefficients: dl, sr$"):
        BcnfParams(dim=3, tl=1.0, dl=None, tr=1.0, dr=1.0, sl=0.5)


def _literal_bcnf(p: BcnfParams) -> tuple[np.ndarray, ...]:
    """The normal form written out entry by entry, as the library once built it."""
    if p.dim == 2:
        return (np.array([[p.tl, 1.0], [-p.dl, 0.0]]), np.array([[p.tr, 1.0], [-p.dr, 0.0]]),
                np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    return (np.array([[p.tl, 1.0, 0.0], [-p.sl, 0.0, 1.0], [p.dl, 0.0, 0.0]]),
            np.array([[p.tr, 1.0, 0.0], [-p.sr, 0.0, 1.0], [p.dr, 0.0, 0.0]]),
            np.array([1.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))


@pytest.mark.parametrize("params", [
    SHARED_2D, FLAT_LEFT_2D, FLAT_LEFT_3D, shared_3d_params(),
    BcnfParams(dim=2, tl=0.0, dl=0.0, tr=-0.0, dr=-0.0),
    BcnfParams(dim=2, tl=1.0, dl=-1.0, tr=0.0, dr=1e-300),
    BcnfParams(dim=3, tl=0.0, dl=0.0, sl=0.0, tr=-0.0, dr=-0.0, sr=-0.0),
    BcnfParams(dim=3, tl=1.0, dl=-0.0, sl=1.0, tr=-1.0, dr=0.0, sr=-1.0),
], ids=lambda p: ",".join(f"{k}={v!r}" for k, v in vars(p).items() if v is not None))
def test_bcnf_is_the_literal_companion_form(params):
    # byte for byte, so each -0.0 that -dl or -sl puts in a piece is kept:
    # the step kernels are keyed on the exact zeros of the coefficients
    pwl = bcnf(params)
    got = (pwl.A_L, pwl.A_R, pwl.b, pwl.c)
    for a, b in zip(got, _literal_bcnf(params)):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert pwl._pieces.pattern == PwlMap(*_literal_bcnf(params))._pieces.pattern


def test_continuity_vector(shared_map):
    p = validate_continuity(shared_map)
    assert p == pytest.approx([-3.5, 0.7], abs=1e-12)


def test_continuity_rejects_mismatch(shared_map):
    a_r = shared_map.A_R.copy()
    a_r[0, 1] += 1e-3
    broken = PwlMap(shared_map.A_L, a_r, shared_map.b, shared_map.c)
    with pytest.raises(NotContinuous):
        validate_continuity(broken)


def test_continuity_decided_where_the_difference_overflows():
    # A_R - A_L overflows in its (0, 0) entry; the residual 1e300 against
    # |A_R - A_L| = 2e308 is about 5e-9 relative, above CONTINUITY_TOL.
    broken = PwlMap([[1e308, 0], [0, 1]], [[-1e308, 1e300], [0, 1]], [0, 0], [1, 0])
    with pytest.raises(NotContinuous):
        validate_continuity(broken)
    # without the off-diagonal entry the map is continuous, and p = -2e308
    # lies past the float range
    p = validate_continuity(PwlMap([[1e308, 0], [0, 1]], [[-1e308, 0], [0, 1]], [0, 0], [1, 0]))
    assert p.tolist() == [-math.inf, 0.0]
    # the decision in the map's frame keeps the bits of p where it is finite
    p = validate_continuity(PwlMap([[1e308]], [[2e307]], [0], [1]))
    assert p.tolist() == [2e307 - 1e308]


def test_continuity_decided_where_the_fit_overflows():
    # |A_R - A_L| / |c| is past the float range: the fit q overflowed, the
    # residual was inf - inf and NaN > bound accepted the map.  Its residual
    # 1e300 against |A_R - A_L| = 2e307 is 5e-8 relative; the message names
    # the residual at the map's scale.
    broken = PwlMap([[1e307, 0], [0, 1]], [[-1e307, 1e300], [0, 1]], [0, 0], [1e-150, 0])
    with pytest.raises(NotContinuous, match=r"residual 1\.000e\+300"):
        validate_continuity(broken)
    # the continuous variant: p = -2e457 lies past the float range (warnings
    # are errors in this suite)
    p = validate_continuity(PwlMap([[1e307, 0], [0, 1]], [[-1e307, 0], [0, 1]], [0, 0],
                                   [1e-150, 0]))
    assert p.tolist() == [-math.inf, 0.0]
    # the products of A_R - A_L with a large c overflowed, and p came out -inf
    p = validate_continuity(PwlMap([[1e307, 0], [0, 1]], [[-1e307, 0], [0, 1]], [0, 0],
                                   [1e100, 0]))
    assert p.tolist() == [-2e207, 0.0]


def test_continuity_decided_where_the_norm_of_the_difference_overflows():
    # Every entry of A_R - A_L is -1.6e308 or 0, each finite and below 2^1023,
    # but the Frobenius norm of that difference passes the float range: the
    # check raised IllConditioned on this continuous map.
    A_L, A_R = np.eye(3), np.eye(3)
    A_L[:, 0], A_R[:, 0] = 8e307, -8e307
    p = validate_continuity(PwlMap(A_L, A_R, np.zeros(3), [1.0, 0.0, 0.0]))
    assert p.tolist() == [-1.6e308] * 3


# A_R - A_L = diag(size, r) leaves the residual r of the fit along c = e1.
# At half its threshold CONTINUITY_TOL max(1, |A_R - A_L|), CONTINUITY_TOL
# being 1e-10, the map is continuous and at twice it is not, on either side
# of |A_R - A_L| = 1.
@pytest.mark.parametrize("size", [2.0**-20, 1.0, 2.0**20])
@pytest.mark.parametrize("ratio", [0.5, 2.0])
def test_continuity_threshold(size, ratio):
    r = ratio * 1e-10 * max(1.0, size)
    pwl = PwlMap(np.zeros((2, 2)), np.diag([size, r]), [0.0, 0.0], [1.0, 0.0])
    if ratio < 1.0:
        assert validate_continuity(pwl).tolist() == [size, 0.0]
    else:
        with pytest.raises(NotContinuous):
            validate_continuity(pwl)


def test_continuity_on_switching_plane(rng):
    # Both pieces agree exactly on the switching plane when c is an axis.
    for _ in range(50):
        a_l = rng.standard_normal((3, 3))
        p = rng.standard_normal(3)
        c = np.array([1.0, 0.0, 0.0])
        a_r = a_l + np.outer(p, c)
        b = rng.standard_normal(3)
        pwl = PwlMap(a_l, a_r, b, c)
        x = rng.standard_normal(3)
        x[0] = 0.0
        assert np.array_equal(pwl.A_L @ x + b, pwl.A_R @ x + b)
        assert pwl.side(x) == "R"


def test_evaluation(shared_map):
    y = shared_map(np.array([-1.2, 0.4]))
    assert y == pytest.approx([-1.24, 0.48], abs=1e-14)
    assert shared_map.side(np.array([-1.2, 0.4])) == "L"
    y = shared_map(np.array([0.3, 0.3]))
    assert y == pytest.approx([0.91, 0.09], abs=1e-14)
    assert shared_map.side(np.array([0.3, 0.3])) == "R"


def test_evaluation_unit_axis_points(shared_map):
    # At the origin both branches return b.
    assert np.array_equal(shared_map(np.zeros(2)), shared_map.b)
    assert shared_map(np.array([-1.0, 0.0])) == pytest.approx([-1.2, 0.4], abs=1e-14)
    assert shared_map(np.array([1.0, 0.0])) == pytest.approx([-0.3, 0.3], abs=1e-14)


def test_map_points_matches_loop(shared_map, rng):
    pts = rng.uniform(-2.0, 2.0, (200, 2))
    # points within a few ulps of the switching line exercise the side test
    pts[:20, 0] = rng.uniform(-1e-15, 1e-15, 20)
    batched = shared_map.map_points(pts)
    assert batched.shape == pts.shape
    for x, y in zip(pts, batched):
        assert shared_map(x).tobytes() == y.tobytes()


def test_map_data_immutable(shared_map):
    with pytest.raises(ValueError):
        shared_map.A_L[0, 0] = 9.9


def test_pwlmap_validation():
    eye = np.eye(2)
    with pytest.raises(ValueError, match=re.escape("A_L must be square, got shape (2, 3)")):
        PwlMap(np.ones((2, 3)), eye, np.zeros(2), np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="^A_L and A_R must have the same shape$"):
        PwlMap(eye, np.eye(3), np.zeros(2), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        PwlMap(eye, eye, np.zeros(3), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        PwlMap(eye, eye, np.zeros(2), np.zeros(2))
    bad = eye.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        PwlMap(bad, eye, np.zeros(2), np.array([1.0, 0.0]))
    pwl = PwlMap(eye, eye, np.zeros(2), np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match=re.escape("points must have 2 coordinates, got shape (3,)")):
        pwl(np.zeros(3))


def test_orbit_at_fixed_point_exact():
    half = 0.5 * np.eye(2)
    pwl = PwlMap(half, half, np.array([0.25, 0.0]), np.array([1.0, 0.0]))
    star = np.array([0.5, 0.0])
    orb = orbit(pwl, star, n_transient=0, n_keep=5)
    assert orb.points.shape == (5, 2)
    assert np.array_equal(orb.points, np.tile(star, (5, 1)))
    assert all(sym == "R" for sym in orb.itinerary)


def test_orbit_at_admissible_fixed_point(shared_map):
    star = fixed_points(shared_map).right.point
    orb = orbit(shared_map, star, n_transient=0, n_keep=5)
    assert np.abs(orb.points - star).max() <= 1e-12


def test_orbit_escape():
    two = 2.0 * np.eye(2)
    pwl = PwlMap(two, two, np.zeros(2), np.array([1.0, 0.0]))
    orb = orbit(pwl, np.array([1.0, 1.0]), n_transient=0, n_keep=100,
                escape_radius=1e3)
    assert orb.escaped
    assert orb.escape_index == 10
    assert orb.points.shape[0] == 10
    assert np.array_equal(orb.points[3], np.array([8.0, 8.0]))


def test_orbit_escape_discards_only_seen_transient():
    two = 2.0 * np.eye(2)
    pwl = PwlMap(two, two, np.zeros(2), np.array([1.0, 0.0]))
    orb = orbit(pwl, np.array([1.0, 1.0]), n_transient=50, n_keep=100,
                escape_radius=1e3)
    assert orb.escaped
    assert orb.points.shape[0] == 0
    assert orb.transient_discarded == 10


def test_orbit_nonfinite_without_escape_radius():
    two = 2.0 * np.eye(2)
    pwl = PwlMap(two, two, np.zeros(2), np.array([1.0, 0.0]))
    # |x_k|^2 = 2 * 4^k first overflows at k = 512.
    with pytest.raises(NonFinite, match=r"^orbit iterate 512 is not finite$"):
        orbit(pwl, np.array([1.0, 1.0]), n_transient=0, n_keep=3000,
              escape_radius=np.inf)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([0.5, 0.95, 1.05, 2.0, 8.0]),
    n_transient=st.integers(0, 60),
    n_keep=st.integers(1, 400),
    escape_radius=st.sampled_from([10.0, 1e12, np.inf]),
)
def test_orbit_matches_reference_loop(n, seed, scale, n_transient, n_keep, escape_radius):
    rng = np.random.default_rng(seed)
    A_L = rng.standard_normal((n, n)) * (scale / np.sqrt(n))
    c = rng.standard_normal(n)
    A_R = A_L + np.outer(rng.standard_normal(n), c)
    pwl = PwlMap(A_L, A_R, rng.standard_normal(n), c)
    x0 = rng.standard_normal(n)
    try:
        ref = reference_orbit(*pieces(pwl), x0, n_transient, n_keep, escape_radius)
    except NonFinite as exc:
        with pytest.raises(NonFinite, match=f"^{exc}$"):
            orbit(pwl, x0, n_transient, n_keep, escape_radius)
        return
    pts, its, discarded, escape_index = ref
    got = orbit(pwl, x0, n_transient, n_keep, escape_radius)
    assert got.points.shape == pts.shape
    assert got.points.tobytes() == pts.tobytes()
    assert got.itinerary.dtype == its.dtype
    assert np.array_equal(got.itinerary, its)
    assert got.transient_discarded == discarded
    assert got.escape_index == escape_index
    assert got.escaped == (escape_index is not None)


def _planted(rng, values, choices, weights):
    """``values`` with each entry replaced, at the given weights, by one of
    ``choices``; the entry itself where the choice is None."""
    pick = rng.choice(len(choices), size=values.shape, p=weights)
    out = values.copy()
    for k, value in enumerate(choices):
        if value is not None:
            out[pick == k] = value
    return out


def _map_with_exact_entries(rng, n, scale, reduced):
    """A random map, or restricted map, on R^n whose matrices and normal
    carry planted exact 0.0, -0.0 and 1.0 entries and whose offsets carry
    planted 0.0 and -0.0, the entries a folded step treats apart."""
    coeffs = [None, 0.0, -0.0, 1.0]
    weights = [0.4, 0.2, 0.2, 0.2]
    A_L, A_R = (_planted(rng, rng.standard_normal((n, n)) * (scale / np.sqrt(n)),
                         coeffs, weights) for _ in range(2))
    c = _planted(rng, rng.standard_normal(n), coeffs, weights)
    d_L, d_R = (_planted(rng, rng.standard_normal(n), [None, 0.0, -0.0], [0.4, 0.3, 0.3])
                for _ in range(2))
    if not reduced:
        return PwlMap(A_L, A_R, d_L, c if c.any() else np.eye(n)[0])
    return ReducedPwlMap(
        matrix_left=A_L, offset_left=d_L, matrix_right=A_R, offset_right=d_R,
        switch_normal=c, switch_offset=float(rng.choice([0.0, -0.0, rng.standard_normal()])),
        chart=plane_chart(AffineHyperplane.from_normal_point(np.ones(n + 1), np.zeros(n + 1))),
    )


def assert_orbit_matches_chunked_loop(two_pieces, x0, n_transient, n_keep, escape_radius):
    try:
        pts, its, discarded, escape_index = reference_chunked_orbit(
            two_pieces, x0, n_transient, n_keep, escape_radius)
    except NonFinite as exc:
        with pytest.raises(NonFinite, match=f"^{exc}$"):
            orbit(two_pieces, x0, n_transient, n_keep, escape_radius)
        return None
    got = orbit(two_pieces, x0, n_transient, n_keep, escape_radius)
    assert got.points.shape == pts.shape
    assert got.points.tobytes() == pts.tobytes()
    assert got.itinerary.dtype == its.dtype
    assert np.array_equal(got.itinerary, its)
    assert got.transient_discarded == discarded
    assert got.escape_index == escape_index
    assert got.escaped is (escape_index is not None)
    return got


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([0.5, 0.95, 1.05, 2.0, 8.0]),
    reduced=st.booleans(),
    n_transient=st.integers(0, 600),
    n_keep=st.integers(1, 600),
    escape_radius=st.sampled_from([10.0, 1e12, 1e200, np.inf]),
)
def test_folded_orbit_matches_the_generic_chunked_loop(n, seed, scale, reduced, n_transient,
                                                       n_keep, escape_radius):
    # The kernel folded for exact zeros and ones, with the transient tested
    # iterate by iterate, against the generic kernel tested chunk by chunk:
    # the same bits, down to the sign of a zero coordinate, and the same
    # stop.  Starts carry exact zeros of both signs, and some are NaN or
    # far outside the box in which no norm is needed.
    rng = np.random.default_rng(seed)
    two_pieces = _map_with_exact_entries(rng, n, scale, reduced)
    x0 = _planted(rng, rng.standard_normal(n), [None, 0.0, -0.0], [0.6, 0.2, 0.2])
    x0 *= rng.choice([1.0, 1.0, 1e160, np.nan])
    assert_orbit_matches_chunked_loop(two_pieces, x0, n_transient, n_keep, escape_radius)


def test_folded_orbit_keeps_the_sign_of_a_zero_row_with_offset_minus_zero():
    # The second image row is 0.0 x_0 + 0.0 x_1 + -0.0: +0.0 wherever one
    # coordinate is positive.  A step that dropped its zero terms would give
    # -0.0, the offset alone.
    A = np.array([[0.5, 1.0], [0.0, 0.0]])
    pwl = PwlMap(A, A, np.array([1.0, -0.0]), np.array([1.0, 0.0]))
    for n_transient in (0, 1, 300):
        got = assert_orbit_matches_chunked_loop(pwl, np.array([0.3, 0.2]), n_transient, 5, 1e12)
        assert not np.signbit(got.points[:, 1]).any()


# Stop indices s next to the end t of the transient, to the edges t + 256 k
# of the kept chunks, and to the edge 256 of a chunk of the reference loop
# inside the transient.
STOPS = sorted({(t, s) for t in (0, 1, 300) for edge in (t, t + 256, t + 512, 256)
                for s in (edge - 1, edge, edge + 1) if s >= 0})


@pytest.mark.parametrize("n_transient, s", STOPS, ids=[f"t={t}, s={s}" for t, s in STOPS])
def test_orbit_stops_around_the_transient_and_chunk_boundaries(n_transient, s):
    # Doubling from 2^-s (1, 1) escapes the unit ball at iterate s, and
    # doubling from 2^(512 - s) (1, 1) overflows |x|^2 at iterate s, which
    # with an infinite radius is NonFinite.  Before that it leaves the
    # box (about 2^498) in which no norm is needed, inside the radius.  The
    # step folds the zeros off the diagonal and in the offset.
    two = 2.0 * np.eye(2)
    pwl = PwlMap(two, two, np.zeros(2), np.array([1.0, 0.0]))
    got = assert_orbit_matches_chunked_loop(pwl, np.full(2, 2.0**-s), n_transient, 600, 1.0)
    assert got.escape_index == s
    with pytest.raises(NonFinite, match=f"^orbit iterate {s} is not finite$"):
        orbit(pwl, np.full(2, 2.0 ** (512 - s)), n_transient, 600, np.inf)
    assert_orbit_matches_chunked_loop(pwl, np.full(2, 2.0 ** (512 - s)), n_transient, 600, np.inf)


def _counted_skips(calls):
    """A stand-in for ``pwlmap._kernel`` whose ``skip`` records the length
    ``k`` of each call in ``calls``."""
    kernel_of = pwlmap._kernel

    def kernel(n, pattern=""):
        steps, skip = kernel_of(n, pattern)

        def counted(flat, x, k, q, radius):
            calls.append(k)
            return skip(flat, x, k, q, radius)
        return steps, counted
    return kernel


def test_transient_outside_the_quiet_box_inside_the_radius():
    # The quarter turn keeps (8, 0) at norm 8, inside the radius 10, but
    # every iterate has a coordinate outside the box of side 10 / sqrt(2) in
    # which no norm is needed, so each of its 10 000 transient iterates gets
    # its norm.  Halving from 1e153 leaves the box of the radius 1e200 (side
    # 1e150 / sqrt(2)) for the first 11 iterates.  Either way the whole
    # transient is one ``skip`` call, which takes those norms itself.
    turn = np.array([[0.0, -1.0], [1.0, 0.0]])
    half = 0.5 * np.eye(2)
    for A, x0, radius, n_transient in [(turn, [8.0, 0.0], 10.0, 10_000),
                                       (half, [1e153, -1e153], 1e200, 300)]:
        pwl = PwlMap(A, A, np.zeros(2), np.array([1.0, 0.0]))
        got = assert_orbit_matches_chunked_loop(pwl, np.array(x0), n_transient, 10, radius)
        assert not got.escaped
        pts, its, _, _ = reference_orbit(*pieces(pwl), np.array(x0), n_transient, 10, radius)
        assert got.points.tobytes() == pts.tobytes()
        assert np.array_equal(got.itinerary, its)
        calls: list[int] = []
        with mock.patch.object(pwlmap, "_kernel", _counted_skips(calls)):
            again = orbit(pwl, np.array(x0), n_transient, 10, radius)
        assert calls == [n_transient]
        assert again.points.tobytes() == got.points.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1.0, 1e-160, 0.9e154, 1e154, 1.1e154, np.nan]),
    folded=st.booleans(),
)
def test_skip_norm_has_the_bits_of_length(n, seed, scale, folded):
    # With an empty box (q = 0) and a negative radius every iterate gets its
    # norm and stops the loop at once: ``r`` must be ``linalg._length`` of
    # the start, bit for bit, also where the squares overflow or are NaN.
    rng = np.random.default_rng(seed)
    p = _map_with_exact_entries(rng, n, 1.0, False)._pieces
    skip = pwlmap._kernel(n, p.pattern if folded else "")[1]
    x = _planted(rng, rng.standard_normal(n), [None, 0.0, -0.0, 1.0], [0.5, 0.2, 0.1, 0.2])
    x *= scale * rng.choice([1.0, -1.0], n)
    i, y, r = skip(p.flat, x.tolist(), 5, 0.0, -1.0)
    assert i == 0
    assert np.array(y).tobytes() == x.tobytes()
    assert np.float64(r).tobytes() == np.float64(pwlmap.linalg._length(x.tolist())).tobytes()


def _random_continuous_map(rng, n, scale):
    A_L = rng.standard_normal((n, n)) * (scale / np.sqrt(n))
    c = rng.standard_normal(n)
    A_R = A_L + np.outer(rng.standard_normal(n), c)
    return PwlMap(A_L, A_R, rng.standard_normal(n), c)


def _random_restricted_map(rng, n, scale):
    """Restriction to the invariant plane of a random continuous map on
    R^(n+1) whose pieces share the eigenvalue -0.5; the other eigenvalues of
    the right piece are ``scale`` times draws from (-1, 1), all 0.02 apart."""
    r = np.zeros(n + 1)
    while np.abs(np.subtract.outer(r, r) + np.eye(n + 1)).min() < 0.02:
        r = np.concatenate(([-0.5], scale * rng.uniform(-1.0, 1.0, n)))
    while True:
        S = np.eye(n + 1) + 0.3 * rng.standard_normal((n + 1, n + 1))
        if np.linalg.cond(S) <= 20.0:
            break
    S_inv = np.linalg.inv(S)
    u = S_inv[0]  # the left eigenvector of -0.5, orthogonal to p
    p = rng.standard_normal(n + 1)
    p -= u * (u @ p) / (u @ u)
    c = rng.standard_normal(n + 1)
    A_R = S @ np.diag(r) @ S_inv
    pwl = PwlMap(A_R - np.outer(p, c), A_R, rng.standard_normal(n + 1), c)
    return restrict_to_manifold(detect_shared_eigenvalue(pwl))


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 5),
    P=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    n_transient=st.integers(0, 600),
    n_keep=st.integers(1, 600),
    escape_radius=st.sampled_from([10.0, 1e12, np.inf]),
)
def test_lockstep_orbits_match_reference_loop(n, P, seed, n_transient, n_keep, escape_radius):
    # P orbits of maps and P of restricted maps, each stepped alone as
    # ``scan`` steps its values.  They mix bounded, escaping and overflowing
    # maps, and NaN starts; transient and keep lengths cross the escape-test
    # chunk boundary.
    rng = np.random.default_rng(seed)
    scales = [0.5, 0.95, 1.05, 2.0, 8.0]
    maps = [_random_continuous_map(rng, n, rng.choice(scales)) for _ in range(P)]
    maps += [_random_restricted_map(rng, n, rng.choice(scales)) for _ in range(P)]
    X0 = rng.standard_normal((2 * P, n))
    X0[rng.random(2 * P) < 0.15] = np.nan
    for two_pieces, x0 in zip(maps, X0):
        try:
            pts, its, discarded, escape_index = reference_orbit(
                *pieces(two_pieces), x0, n_transient, n_keep, escape_radius)
        except NonFinite as exc:
            with pytest.raises(NonFinite, match=f"^{exc}$"):
                orbit(two_pieces, x0, n_transient, n_keep, escape_radius)
            continue
        res = orbit(two_pieces, x0, n_transient, n_keep, escape_radius)
        assert res.points.shape == pts.shape
        assert res.points.tobytes() == pts.tobytes()
        assert np.array_equal(res.itinerary, its)
        assert res.itinerary.dtype == its.dtype
        assert res.transient_discarded == discarded
        assert res.escape_index == escape_index
        assert res.escaped is (escape_index is not None)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_orbit_escape_radius_at_the_cheap_test_bound(n):
    # x -> 0.99 x + 0.01 a climbs towards (a, ..., a) over many chunks.  At
    # radii within a few ulps of sqrt(n) max|x_i| of the last iterates the
    # early chunks pass the cheap coordinate test, and the norms decide the
    # late ones, as the reference loop does.
    a, steps = 0.7, 5000
    eye = np.eye(n)
    pwl = PwlMap(0.99 * eye, 0.99 * eye, np.full(n, 0.01 * a), eye[0])
    x0 = np.zeros(n)
    pts, _, _, _ = reference_orbit(*pieces(pwl), x0, 0, steps, 1e12)
    top = math.sqrt(n) * float(np.abs(pts[-1]).max())
    escapes = set()
    for ulps in range(-3, 4):
        radius = top + ulps * math.ulp(top)
        ref_pts, _, _, escape_index = reference_orbit(*pieces(pwl), x0, 0, steps, radius)
        with mock.patch.object(pwlmap, "_norms", wraps=pwlmap._norms) as norms:
            got = orbit(pwl, x0, 0, steps, radius)
        assert got.escape_index == escape_index
        assert got.points.tobytes() == ref_pts.tobytes()
        assert 0 < norms.call_count < steps // pwlmap._CHUNK
        escapes.add(escape_index)
    assert len(escapes) > 1
    # far inside the radius no chunk needs its norms
    with mock.patch.object(pwlmap, "_norms", wraps=pwlmap._norms) as norms:
        assert not orbit(pwl, x0, 0, steps, 2.0 * top).escaped
    assert norms.call_count == 0


@pytest.mark.parametrize("n", [1, 2, 5])
def test_transient_escape_radius_at_the_cheap_test_bound(n):
    # The climb above as a transient with a short keep: ``skip``'s norms
    # decide the late iterates against radii within a few ulps of sqrt(n)
    # max|x_i| of the last iterates, as the reference loop does.
    a, steps = 0.7, 5000
    eye = np.eye(n)
    pwl = PwlMap(0.99 * eye, 0.99 * eye, np.full(n, 0.01 * a), eye[0])
    x0 = np.zeros(n)
    pts, _, _, _ = reference_orbit(*pieces(pwl), x0, 0, steps, 1e12)
    top = math.sqrt(n) * float(np.abs(pts[-1]).max())
    escapes = set()
    for ulps in range(-3, 4):
        radius = top + ulps * math.ulp(top)
        ref_pts, ref_its, discarded, escape_index = reference_orbit(
            *pieces(pwl), x0, steps, 3, radius)
        got = orbit(pwl, x0, steps, 3, radius)
        assert got.escape_index == escape_index
        assert got.transient_discarded == discarded
        assert got.points.tobytes() == ref_pts.tobytes()
        assert np.array_equal(got.itinerary, ref_its)
        escapes.add(escape_index)
    assert None in escapes
    assert any(e is not None and e < steps for e in escapes)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 5), P=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_orbits_escape_radius_at_an_iterate_norm(n, P, seed):
    # An escape radius equal to the in-order norm of some iterate puts the
    # escape test on its boundary: a norm rounded any other way moves the
    # escape index.
    rng = np.random.default_rng(seed)
    maps = [_random_continuous_map(rng, n, 0.95) for _ in range(P)]
    X0 = rng.standard_normal((P, n))
    pts, _, _, _ = reference_orbit(*pieces(maps[0]), X0[0], 0, 300, 1e12)
    radius = reference_norm(pts[rng.integers(len(pts))])
    for pwl, x0 in zip(maps, X0):
        res = orbit(pwl, x0, 0, 300, radius)
        ref_pts, _, _, escape_index = reference_orbit(*pieces(pwl), x0, 0, 300, radius)
        assert res.escape_index == escape_index
        assert res.points.tobytes() == ref_pts.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1e-100, 1e-3, 1.0, 1e3, 1e100]),
)
def test_step_within_rounding_of_blas(n, seed, scale):
    # The kernel's in-order sums and BLAS's A @ x + d each lie within
    # (n + 1) eps (|A| |x| + |d|) of the exact row, so they differ by at most
    # twice that; rows and one-point steps agree bit for bit.
    rng = np.random.default_rng(seed)
    pwl = _random_continuous_map(rng, n, 1.0)
    X = scale * rng.standard_normal((40, n)) * 10.0 ** rng.uniform(-3.0, 3.0, (40, 1))
    eps = np.finfo(float).eps
    rows = pwl.map_points(X)
    for x, row in zip(X, rows):
        A = pwl.A_L if pwl.side(x) == "L" else pwl.A_R
        y = pwl(x)
        assert row.tobytes() == y.tobytes()
        bound = 2 * (n + 1) * eps * (np.abs(A) @ np.abs(x) + np.abs(pwl.b))
        assert np.all(np.abs(y - (A @ x + pwl.b)) <= bound)


def _near_plane(rng, c, offset, ulps):
    """A random point moved onto ``c . x = offset`` along its largest
    coordinate of ``c``, then ``ulps`` steps of one ulp off it."""
    x = rng.standard_normal(c.size)
    k = int(np.argmax(np.abs(c)))
    x[k] -= (float(c @ x) - offset) / c[k]
    for _ in range(abs(ulps)):
        x[k] = np.nextafter(x[k], np.copysign(np.inf, ulps))
    return x


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1), ulps=st.integers(-4, 4))
def test_side_matches_itinerary_near_the_plane(n, seed, ulps):
    # Within a few ulps of the switching plane the side test is decided by
    # the rounding of c . x: side() must round it as the step does.
    rng = np.random.default_rng(seed)
    pwl = _random_continuous_map(rng, n, 1.0)
    x = _near_plane(rng, pwl.c, 0.0, ulps)
    left, image = reference_step(pwl.A_L, pwl.b, pwl.A_R, pwl.b, pwl.c, 0.0, x)
    assert pwl.side(x) == orbit(pwl, x, 0, 1).itinerary[0] == ("L" if left else "R")
    assert pwl(x).tobytes() == np.array(image).tobytes()
    # a restricted map with a nonzero switching offset, in chart coordinates
    m_l = rng.standard_normal((n, n))
    normal = rng.standard_normal(n)
    offset = float(rng.standard_normal())
    rmap = ReducedPwlMap(
        matrix_left=m_l,
        offset_left=rng.standard_normal(n),
        matrix_right=m_l + np.outer(rng.standard_normal(n), normal),
        offset_right=rng.standard_normal(n),
        switch_normal=normal,
        switch_offset=offset,
        chart=plane_chart(AffineHyperplane.from_normal_point(np.ones(n + 1), np.zeros(n + 1))),
    )
    xi = _near_plane(rng, normal, -offset, ulps)
    left, image = reference_step(rmap.matrix_left, rmap.offset_left, rmap.matrix_right,
                                 rmap.offset_right, normal, -offset, xi)
    assert rmap.side(xi) == reduced_orbit(rmap, xi, 0, 1).itinerary[0] == ("L" if left else "R")
    assert rmap(xi).tobytes() == np.array(image).tobytes()


def test_orbit_huge_transient_allocates_one_chunk():
    # The transient is stepped without storing it, so one far beyond memory
    # is fine as long as the orbit escapes.
    two = 2.0 * np.eye(2)
    pwl = PwlMap(two, two, np.zeros(2), np.array([1.0, 0.0]))
    orb = orbit(pwl, np.array([1.0, 1.0]), n_transient=10**15, n_keep=5,
                escape_radius=1e3)
    assert orb.escape_index == 10
    assert orb.transient_discarded == 10
    assert orb.points.shape == (0, 2)


def test_orbit_deterministic(shared_map):
    x0 = np.array([0.3, -0.2])
    o1 = orbit(shared_map, x0, n_transient=100, n_keep=500)
    o2 = orbit(shared_map, x0, n_transient=100, n_keep=500)
    assert np.array_equal(o1.points, o2.points)
    assert np.array_equal(o1.itinerary, o2.itinerary)


def test_orbit_argument_validation(shared_map):
    with pytest.raises(ValueError):
        orbit(shared_map, np.zeros(3))
    with pytest.raises(ValueError):
        orbit(shared_map, np.zeros(2), n_transient=-1)
    with pytest.raises(ValueError):
        orbit(shared_map, np.zeros(2), n_keep=0)
    with pytest.raises(ValueError):
        orbit(shared_map, np.zeros(2), escape_radius=0.0)


def test_fixed_points_shared(shared_map):
    fp = fixed_points(shared_map)
    assert fp.right.point == pytest.approx([0.5, 0.15], abs=1e-12)
    assert fp.right.admissible
    assert not fp.right.borderline
    assert fp.left.point == pytest.approx([-1.25, 0.5], abs=1e-12)
    assert fp.left.admissible
    assert not fp.left.borderline


def test_fixed_points_flat_left(flat_left_map):
    fp = fixed_points(flat_left_map)
    assert fp.left.point == pytest.approx([-10.0 / 3.0, 0.0], abs=1e-12)
    assert fp.left.admissible


def test_fixed_points_3d(flat_left_map_3d):
    fp = fixed_points(flat_left_map_3d)
    assert fp.left.point == pytest.approx([5.0, -4.0, 0.0], abs=1e-12)
    assert not fp.left.admissible


def test_fixed_point_absent_when_one_is_eigenvalue():
    a_l = np.array([[0.5, 0.0], [0.0, 1.0]])
    a_r = np.eye(2)
    pwl = PwlMap(a_l, a_r, np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    fp = fixed_points(pwl)
    assert fp.right.point is None
    assert fp.right.reason is not None
    assert "eigenvalue" in fp.right.reason


def test_fixed_point_borderline():
    a_r = 0.5 * np.eye(2)
    a_l = np.array([[0.4, 0.0], [0.0, 0.5]])
    pwl = PwlMap(a_l, a_r, np.array([0.0, 0.5]), np.array([1.0, 0.0]))
    fp = fixed_points(pwl)
    assert fp.right.point == pytest.approx([0.0, 1.0], abs=1e-14)
    assert fp.right.borderline
    assert fp.right.admissible
    assert fp.left.borderline
    assert not fp.left.admissible


# x -> x / 2 + beta has its fixed point 2 beta, that far from the switching
# plane x = 0: borderline at beta = 2.5e-13 for BORDERLINE_ATOL = 1e-12 but
# not for 1e-13, and not at beta = 1e-12 for 1e-12 but for 1e-11.
@pytest.mark.parametrize("beta, borderline", [(2.5e-13, True), (1e-12, False)])
def test_borderline_threshold(beta, borderline):
    fp = fixed_points(PwlMap([[0.5]], [[0.5]], [beta], [1.0]))
    assert fp.right.point.tolist() == [2.0 * beta]
    assert fp.right.admissible
    assert fp.right.borderline is borderline


@pytest.mark.parametrize("n", [2, 3, 4])
def test_admissible_flag_is_the_side_test(n):
    # c . pt = 0 and b = (I - A_R) pt put both fixed points on the switching
    # plane up to rounding, where a margin summed in another order than the
    # step's side test can have the other sign.
    rng = np.random.default_rng(n)
    checked = 0
    for _ in range(500):
        a_r = rng.standard_normal((n, n))
        c = rng.standard_normal(n)
        pt = rng.standard_normal(n)
        pt -= c * (pt @ c) / (c @ c)
        pwl = PwlMap(a_r - np.outer(rng.standard_normal(n), c), a_r, pt - a_r @ pt, c)
        fp = fixed_points(pwl)
        for info, side in ((fp.right, "R"), (fp.left, "L")):
            if info.point is not None:
                assert info.admissible == (pwl.side(info.point) == side)
                checked += 1
    assert checked == 1000


def test_shared_3d_params_continuity():
    pwl = bcnf(shared_3d_params())
    p = validate_continuity(pwl)
    assert p.shape == (3,)


def test_orbit_bounded_on_shared(shared_map):
    orb = orbit(shared_map, np.array([1.0, 0.001]))
    assert orb.points.shape == (3000, 2)
    assert not orb.escaped
    assert np.abs(orb.points).max() < 10.0
    assert set(orb.itinerary) == {"L", "R"}


def test_flat_left_orbits_reach_plane(flat_left_map):
    # One left step lands on the plane x2 = 0 for a singular left piece.
    orb = orbit(flat_left_map, np.array([0.1, 0.7]), n_transient=0, n_keep=50)
    for k in range(49):
        if orb.itinerary[k] == "L":
            assert abs(orb.points[k + 1][1]) <= 1e-12
