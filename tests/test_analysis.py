from __future__ import annotations

import math
import re
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from pwldyn import (
    BcnfParams,
    EmptyCloud,
    NonFinite,
    PwldynError,
    PwlMap,
    analysis,
    attractor,
    bcnf,
    default_x0,
    detect_shared_eigenvalue,
    hausdorff,
    scan,
)

from pwldyn import pwlmap
from pwldyn.pwlmap import ESCAPE_RADIUS, OrbitData

from conftest import SHARED_2D, pieces, reference_orbit, shared_3d_params


def test_default_x0(shared_map):
    x0 = default_x0(shared_map)
    assert x0 == pytest.approx([1.0, 0.001])


def test_default_x0_one_dimensional():
    pwl = PwlMap([[0.5]], [[-1.5]], [1.0], [1.0])
    assert default_x0(pwl).tolist() == [1.001]


def test_attractor_sits_on_invariant_plane(shared_map):
    red = detect_shared_eigenvalue(shared_map)
    cloud = attractor(shared_map, default_x0(shared_map))
    assert cloud.points.shape == (3000, 2)
    assert not cloud.escaped
    dev = red.deviation_many(cloud.points)
    assert np.abs(dev).max() <= 1e-8


def test_attractor_contracting_map():
    half = 0.5 * np.eye(2)
    pwl = PwlMap(half, half, np.array([0.25, 0.0]), np.array([1.0, 0.0]))
    cloud = attractor(pwl, np.array([3.0, -2.0]), n_transient=200, n_keep=100)
    spread = cloud.points.max(axis=0) - cloud.points.min(axis=0)
    assert spread.max() <= 1e-10
    assert cloud.points[0] == pytest.approx([0.5, 0.0], abs=1e-10)


def test_hausdorff_frozen_values():
    a = np.array([[0.0, 0.0]])
    b = np.array([[1.0, 0.0]])
    assert hausdorff(a, a) == 0.0
    assert hausdorff(a, b) == pytest.approx(1.0, abs=1e-15)
    c = np.array([[0.0, 0.0], [2.0, 0.0]])
    assert hausdorff(a, c) == pytest.approx(2.0, abs=1e-15)
    assert hausdorff(c, a) == pytest.approx(2.0, abs=1e-15)


def test_hausdorff_metric_properties(rng):
    for _ in range(20):
        a = rng.standard_normal((40, 3))
        b = rng.standard_normal((50, 3))
        c = rng.standard_normal((30, 3))
        dab = hausdorff(a, b)
        dba = hausdorff(b, a)
        assert dab == pytest.approx(dba, abs=1e-12)
        assert dab >= 0.0
        assert hausdorff(a, a) == 0.0
        assert dab <= hausdorff(a, c) + hausdorff(c, b) + 1e-12


def test_hausdorff_accepts_clouds(shared_map):
    cloud = attractor(shared_map, default_x0(shared_map), n_transient=500, n_keep=200)
    assert hausdorff(cloud, cloud.points) == 0.0


def test_hausdorff_empty():
    with pytest.raises(EmptyCloud):
        hausdorff(np.zeros((0, 2)), np.zeros((1, 2)))


def _brute_hausdorff(a, b):
    a = np.asarray(a, dtype=float).reshape(len(a), -1)
    b = np.asarray(b, dtype=float).reshape(len(b), -1)
    d = cdist(a, b)
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def _assert_matches_brute(a, b, n):
    got = hausdorff(a, b)
    ref = _brute_hausdorff(a, b)
    if n <= 3:
        assert got == ref
    else:
        assert abs(got - ref) <= 4 * np.spacing(ref)


@pytest.mark.parametrize("n", range(1, 9))
def test_hausdorff_matches_brute_force(n, rng):
    for size_a, size_b in [(1, 1), (1, 40), (40, 1), (2, 3), (60, 45), (300, 250)]:
        a = rng.standard_normal((size_a, n))
        b = rng.standard_normal((size_b, n))
        _assert_matches_brute(a, b, n)
        # duplicated points, and a cloud that nearly overlaps the other one
        dup = np.concatenate([a, a[rng.integers(0, size_a, size_a)]])
        near = a + 1e-9 * rng.standard_normal(a.shape)
        _assert_matches_brute(dup, b, n)
        _assert_matches_brute(a, dup, n)
        _assert_matches_brute(a, near, n)
        # coarse integer grids give many exact distance ties
        grid_a = rng.integers(-3, 4, (size_a, n)).astype(float)
        grid_b = rng.integers(-3, 4, (size_b, n)).astype(float)
        _assert_matches_brute(grid_a, grid_b, n)


@st.composite
def _cloud_pairs(draw):
    """Two clouds of one dimension n = 1..8, of one of several shapes, scaled
    by 2^-300, 1 or 2^300."""
    n = draw(st.integers(1, 8))
    sizes = st.one_of(st.just(1), st.integers(1, 300))
    m_a, m_b = draw(sizes), draw(sizes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["normal", "collinear", "duplicates", "grid", "far", "offset"]))
    a = rng.standard_normal((m_a, n))
    b = rng.standard_normal((m_b, n))
    if shape == "collinear":  # one line, as the 2-D attractor on its invariant line
        direction, base = rng.standard_normal(n), rng.standard_normal(n)
        a = base + rng.standard_normal((m_a, 1)) * direction
        b = base + rng.standard_normal((m_b, 1)) * direction
    elif shape == "duplicates":
        a = a[rng.integers(0, m_a, m_a)]
        b = np.concatenate([b, a])[rng.integers(0, m_a + m_b, m_b)]
    elif shape == "grid":  # many exact distance ties
        a = rng.integers(-3, 4, (m_a, n)).astype(float)
        b = rng.integers(-3, 4, (m_b, n)).astype(float)
    elif shape == "far":
        b += 1e6 * rng.standard_normal(n)
    elif shape == "offset":  # spread far below the rounding of the coordinates
        offset = 1e8 * rng.standard_normal(n)
        a = offset + 1e-3 * a
        b = offset + 1e-3 * b
    scale = 2.0 ** draw(st.sampled_from([-300, 0, 300]))
    return scale * a, scale * b


@settings(max_examples=300, deadline=None)
@given(pair=_cloud_pairs())
def test_hausdorff_matches_brute_force_on_drawn_clouds(pair):
    a, b = pair
    _assert_matches_brute(a, b, a.shape[1])


def test_hausdorff_flat_input_is_one_dimensional(rng):
    a = rng.standard_normal(70)
    b = rng.standard_normal(30)
    assert hausdorff(a, b) == _brute_hausdorff(a, b)
    assert hausdorff(a, b) == hausdorff(a[:, None], b[:, None])


def _counting_codes():
    """``_Indexed.codes`` wrapped, so that its ``call_count`` counts the
    Morton codes computed for a cloud or a query."""
    return mock.patch.object(analysis._Indexed, "codes", autospec=True,
                             side_effect=analysis._Indexed.codes)


@pytest.mark.parametrize("base", [SHARED_2D, shared_3d_params()], ids=["2d", "3d"])
def test_hausdorff_matches_brute_force_on_scan_clouds(base):
    values = np.linspace(base.tl - 0.05, base.tl + 0.05, 4)
    for keep in (1000, 3000):
        with _counting_codes() as codes:
            result = scan(base, "tl", values, n_transient=500, n_keep=keep)
        assert codes.call_count == 4  # the sweep shares one grid
        for left, right, dist in zip(result.clouds, result.clouds[1:],
                                     result.consecutive_hausdorff):
            assert dist == _brute_hausdorff(left.points, right.points)
            assert dist == hausdorff(left, right)


def _square(rng, m: int, corner, side: float) -> np.ndarray:
    """``m`` points in the square of ``side`` at ``corner``, its two extreme
    corners among them, so that its bounding box is that square."""
    unit = np.vstack([[0.0, 0.0], [1.0, 1.0], rng.uniform(0.0, 1.0, (m - 2, 2))])
    return np.asarray(corner, dtype=float) + side * unit


def _sweep_clouds(kind: str) -> list[np.ndarray]:
    """Five 2-D clouds of 200 points, all in the unit square but the middle
    one, or growing 340 times over the sweep."""
    rng = np.random.default_rng(31)
    clouds = [_square(rng, 200, (0.0, 0.0), 1.0) for _ in range(5)]
    if kind == "span 1/200":
        clouds[2] = _square(rng, 200, (0.4, 0.4), 1 / 200)
    elif kind == "span 1/300":
        clouds[2] = _square(rng, 200, (0.4, 0.4), 1 / 300)
    elif kind == "far":
        clouds[2] = clouds[2] + 1e6
    elif kind == "single point":
        clouds[2] = clouds[2][2:3]
    elif kind == "grows":
        clouds = [340.0 ** (i / 4) * c for i, c in enumerate(clouds)]
    return clouds


def _scan_of(clouds):
    """``scan`` whose orbits are ``clouds`` (None for a failed orbit), with the
    number of ``_Indexed.codes`` calls it made."""
    def fake_orbit(*args):
        pts = next(it)
        if pts is None:
            raise NonFinite("orbit iterate is not finite")
        return OrbitData(pts, np.zeros(len(pts), dtype=np.int8), 0)

    it = iter(clouds)
    with mock.patch.object(analysis, "orbit", side_effect=fake_orbit), _counting_codes() as codes:
        result = scan(SHARED_2D, "tl", np.linspace(2.1, 2.3, len(clouds)))
    return result, codes.call_count


# Sweeps whose clouds each span at least 2^-8 of the sweep's box share its grid.
@pytest.mark.parametrize("kind, shared", [
    ("span 1/200", True),
    ("span 1/300", False),
    ("far", False),
    ("single point", False),
    ("grows", False),
])
def test_scan_shares_a_grid_only_under_the_rule(kind, shared):
    clouds = _sweep_clouds(kind)
    assert (analysis._joint_box(clouds) is not None) == shared
    result, calls = _scan_of(clouds)
    # each cloud's own codes, and on separate grids two queries per pair
    P = len(clouds)
    assert calls == (P if shared else P + 2 * (P - 1))
    for left, right, dist in zip(clouds, clouds[1:], result.consecutive_hausdorff):
        assert dist == _brute_hausdorff(left, right)
        assert dist == hausdorff(left, right)


def test_scan_codes_each_non_empty_cloud_once_on_a_shared_grid():
    clouds = _sweep_clouds("span 1/200")
    clouds.insert(3, None)  # a failed orbit
    clouds.insert(1, clouds[0][:0])  # an escaped orbit that kept nothing
    result, calls = _scan_of(clouds)
    assert calls == 5
    assert [math.isnan(d) for d in result.consecutive_hausdorff] == [
        True, True, False, True, True, False]


@pytest.mark.parametrize("offset, shared", [(0.5, True), (1e4, False)])
def test_hausdorff_shares_a_grid_only_under_the_rule(rng, offset, shared):
    a = rng.standard_normal((300, 2))
    b = rng.standard_normal((200, 2)) + offset
    tiny = 1e-3 * rng.standard_normal((50, 2))
    for x, y, same in ((a, b, shared), (a, tiny, False), (tiny, a, False)):
        with _counting_codes() as codes:
            got = hausdorff(x, y)
        assert codes.call_count == (2 if same else 4)
        assert got == _brute_hausdorff(x, y)


def _concentric_circles(m: int) -> tuple[np.ndarray, np.ndarray]:
    """``m`` random points on each of two circles of radii 0.5 and 1: nearly
    every nearest-neighbour distance sits near the maximum, so the early
    break settles little and the windows are wide."""
    rng = np.random.default_rng(0)
    inner, outer = rng.uniform(0.0, 2.0 * np.pi, (2, m))
    return (0.5 * np.column_stack([np.cos(inner), np.sin(inner)]),
            np.column_stack([np.cos(outer), np.sin(outer)]))


def _gaussians_3d(m: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(1)
    return rng.standard_normal((m, 3)), rng.standard_normal((m, 3)) + 0.01


# Measured traced peaks: 1.6 MB on the circles and 8.3 MB on the Gaussians,
# where the sorted copies of the two clouds take most of it; 39 and 24 MB
# when a window block held 2^20 candidate pairs.
@pytest.mark.parametrize("make, m, limit_mb", [
    (_concentric_circles, 3000, 3.0),
    (_gaussians_3d, 40000, 11.0),
], ids=["circles", "gaussians"])
def test_hausdorff_memory_is_bounded(make, m, limit_mb):
    clouds = make(m)
    tracemalloc.start()
    try:
        hausdorff(*clouds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mb * 1e6


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_hausdorff_rejects_non_finite(bad):
    good = np.zeros((3, 2))
    cloud = np.ones((4, 2))
    cloud[2, 1] = bad
    for a, b in ((cloud, good), (good, cloud)):
        with pytest.raises(ValueError, match="^point clouds must have finite coordinates$") as info:
            hausdorff(a, b)
        assert "\n" not in str(info.value)


def test_hausdorff_rejects_mismatched_shapes():
    with pytest.raises(ValueError, match="^clouds of dimension 2 and 3 have no distance$"):
        hausdorff(np.zeros((4, 2)), np.zeros((4, 3)))
    with pytest.raises(ValueError, match=re.escape(
            "expected points of shape (count, dimension), got (2, 2, 2)")):
        hausdorff(np.zeros((2, 2, 2)), np.zeros((4, 2)))


def test_scan_bounded_family():
    result = scan(SHARED_2D, "tl", [2.0, 2.2, 2.4])
    assert result.parameter == "tl"
    assert result.values == (2.0, 2.2, 2.4)
    assert len(result.clouds) == 3
    for cloud, err in zip(result.clouds, result.errors):
        assert err is None
        assert cloud is not None
        assert not cloud.escaped
        assert cloud.points.shape == (3000, 2)
    assert len(result.consecutive_hausdorff) == 2
    assert all(np.isfinite(d) and d < 1.0 for d in result.consecutive_hausdorff)


def test_scan_determinant_family():
    from pwldyn import BcnfParams

    base = BcnfParams(dim=2, tl=1.3, dl=0.0, tr=-1.4, dr=1.5)
    result = scan(base, "dl", [-0.08, 0.0, 0.08])
    for cloud, err in zip(result.clouds, result.errors):
        assert err is None
        assert not cloud.escaped
        assert cloud.points.shape == (3000, 2)
    assert all(np.isfinite(d) and d < 1.0 for d in result.consecutive_hausdorff)


def test_scan_single_value():
    result = scan(SHARED_2D, "tl", [2.2])
    assert result.consecutive_hausdorff == ()


def test_scan_escaping_family():
    from pwldyn import BcnfParams

    base = BcnfParams(dim=2, tl=3.0, dl=-4.0, tr=3.0, dr=-4.0)
    result = scan(base, "tl", [3.0, 3.1])
    for cloud in result.clouds:
        assert cloud is not None
        assert cloud.escaped
        assert cloud.points.shape[0] == 0
    assert all(np.isnan(d) for d in result.consecutive_hausdorff)


def test_scan_rejects_bad_parameter():
    with pytest.raises(ValueError):
        scan(SHARED_2D, "sl", [0.1])
    with pytest.raises(ValueError):
        scan(SHARED_2D, "mu", [0.1])


def test_scan_limit_checked_before_any_orbit(monkeypatch):
    # a sweep keeps len(values) n_keep n coordinates in all
    monkeypatch.setattr(pwlmap, "MAX_ORBIT_FLOATS", 600)
    result = scan(SHARED_2D, "tl", [2.2, 2.0], n_transient=10, n_keep=150)
    assert [c.points.shape for c in result.clouds] == [(150, 2)] * 2
    with mock.patch.object(analysis, "orbit") as stepped, pytest.raises(
            ValueError, match="^orbits keep 604 floats, more than the limit 600$"):
        scan(SHARED_2D, "tl", [2.2, 2.0], n_transient=10, n_keep=151)
    stepped.assert_not_called()


def test_scan_deterministic():
    r1 = scan(SHARED_2D, "dr", [-0.4, -0.3])
    r2 = scan(SHARED_2D, "dr", [-0.4, -0.3])
    for c1, c2 in zip(r1.clouds, r2.clouds):
        assert np.array_equal(c1.points, c2.points)
    assert r1.consecutive_hausdorff == r2.consecutive_hausdorff


def test_scan_refinement_tightens_steps():
    # Halving the parameter step should not increase the largest gap
    # between consecutive attractor clouds.
    maxima = []
    for count in (5, 9, 17):
        values = np.linspace(2.1, 2.3, count)
        result = scan(SHARED_2D, "tl", values)
        assert all(e is None for e in result.errors)
        maxima.append(max(result.consecutive_hausdorff))
    assert maxima[1] <= maxima[0] + 1e-12
    assert maxima[2] <= maxima[1] + 1e-12


def _plane_distances_per_value(result, tol):
    """The per-value loop ``plane_distances`` replaces: detection on every
    map, then the largest distance from a non-empty cloud to the plane."""
    out = []
    for pwl, cloud in zip(result.maps, result.clouds):
        stat = float("nan")
        try:
            red = detect_shared_eigenvalue(pwl, tol)
        except PwldynError:
            red = None
        if red is not None and cloud is not None and cloud.points.shape[0] > 0:
            stat = float(np.max(np.abs(red.manifold.distances(cloud.points))))
        out.append(stat)
    return out


@pytest.mark.parametrize("base, values, escape_radius, finite", [
    # shared, nothing shared, escaped before the first kept point
    (SHARED_2D, [2.2, 2.1, 30.0], ESCAPE_RADIUS, [True, False, False]),
    # shared, then a non-finite orbit (None cloud)
    (SHARED_2D, [2.2, 30.0], np.inf, [True, False]),
    # detection raises HypothesisViolated (the shared eigenvalue is one)
    (BcnfParams(dim=2, tl=1.5, dl=0.5, tr=0.5, dr=-0.5), [1.5, 1.4], ESCAPE_RADIUS,
     [False, False]),
    # 3-D: shared at the tuned map, not at tl = 0.3
    (shared_3d_params(), [shared_3d_params().tl, 0.3], ESCAPE_RADIUS, [True, False]),
])
@pytest.mark.parametrize("tol", [1e-9, 1e-3])
def test_scan_plane_distances_match_the_per_value_loop(base, values, escape_radius, finite,
                                                       tol):
    result = scan(base, "tl", values, n_transient=100, n_keep=200, escape_radius=escape_radius)
    got = result.plane_distances(tol)
    assert np.array(got).tobytes() == np.array(_plane_distances_per_value(result, tol)).tobytes()
    assert [math.isfinite(d) for d in got] == finite
    assert all(type(d) is float for d in got)
    if escape_radius == np.inf:
        assert result.clouds[1] is None


@settings(max_examples=60, deadline=None)
@given(
    dim=st.sampled_from([2, 3]),
    seed=st.integers(0, 2**32 - 1),
    P=st.integers(1, 6),
    n_transient=st.integers(0, 400),
    n_keep=st.integers(1, 400),
    escape_radius=st.sampled_from([10.0, 1e12, np.inf]),
)
def test_scan_matches_reference_loop_per_value(dim, seed, P, n_transient, n_keep,
                                               escape_radius):
    # Values from contracting to strongly expanding, so a scan mixes bounded
    # clouds, escapes and (without an escape radius) non-finite orbits.
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-1.5, 1.5, 6)
    base = BcnfParams(dim=dim, tl=coeffs[0], dl=coeffs[1], tr=coeffs[2], dr=coeffs[3],
                      sl=coeffs[4] if dim == 3 else None,
                      sr=coeffs[5] if dim == 3 else None)
    parameter = str(rng.choice(["tl", "dl", "tr", "dr"] + (["sl", "sr"] if dim == 3 else [])))
    values = rng.uniform(-8.0, 8.0, P)
    result = scan(base, parameter, values, n_transient=n_transient, n_keep=n_keep,
                  escape_radius=escape_radius)
    assert result.values == tuple(values)
    for v, pwl, cloud, err in zip(values, result.maps, result.clouds, result.errors):
        expected = bcnf(replace(base, **{parameter: v}))
        assert np.array_equal(pwl.A_L, expected.A_L)
        assert np.array_equal(pwl.A_R, expected.A_R)
        try:
            pts, _, _, escape_index = reference_orbit(*pieces(pwl), default_x0(pwl),
                                                      n_transient, n_keep, escape_radius)
        except NonFinite as exc:
            assert cloud is None
            assert err == f"NonFinite: {exc}"
            continue
        assert err is None
        assert cloud.points.tobytes() == pts.tobytes()
        assert cloud.points.shape == pts.shape
        assert cloud.escape_index == escape_index
        assert cloud.escaped is (escape_index is not None)
