"""Attractor sampling, exact cloud distances without SciPy, and one-parameter scans."""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import EmptyCloud, NonFinite, PwldynError, _record
from .pwlmap import (ESCAPE_RADIUS, TOL, BcnfParams, OrbitData, PwlMap, _check_orbit_size, bcnf,
                     orbit)
from .reduction import detect_shared_eigenvalue

__all__ = [
    "ScanResult",
    "attractor",
    "default_x0",
    "hausdorff",
    "scan",
]

# Fixed nudge off the first coordinate axis, keeping the default start away
# from measure-zero invariant lines of the normal form.  A one-dimensional
# map has no second coordinate, so its only coordinate is nudged.
X0_OFFSET = 1e-3


def default_x0(pwl: PwlMap) -> np.ndarray:
    x0 = pwl.b.copy()
    x0[1 if pwl.n > 1 else 0] += X0_OFFSET
    return x0


# A sample of the attractor reached from ``x0`` is the orbit after its
# transient, empty only when the orbit escapes.
attractor = orbit


def _cloud_points(obj) -> np.ndarray:
    pts = np.asarray(getattr(obj, "points", obj), dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    return pts


# The Morton code interleaves 16 bits of each of the first four coordinates,
# which fills 64 bits.
_MORTON_DIMS = 4
_MORTON_TOP = 65535.0
# Offsets into the Morton order of the points that witness an upper bound on a
# query's nearest-neighbour distance: the two whose codes bracket the query's,
# and eight on each side for a query the first two leave open.
_NEAR = np.arange(-1, 1)[:, None]
_WIDE = np.arange(-8, 8)[:, None]
# Open queries settled exactly in the first round; each round takes 8 times more.
_FIRST_ROUND = 16
# Most candidate pairs that one window search or witness gather holds at once;
# below 2^14 the peak of scan's keep-10000 pairs falls by under 0.7 MB while
# searches on concentric circles slow down.
_WINDOW_BLOCK = 1 << 14
# A cloud spanning this share of a shared grid's box keeps at least 8 of its own grid's 16 bits.
_SHARED_SPAN = 2.0**-8
_EPS = float(np.finfo(float).eps)
_FLOAT_MAX = float(np.finfo(float).max)


@functools.cache
def _morton_tables(k: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """For coordinate ``i`` of a ``k``-coordinate code: each byte value with
    its bits spread to stride ``k`` and shifted by ``i``, for the low byte,
    and by ``8 k + i``, for the high byte of a 16-bit coordinate."""
    spread = [sum(1 << (b * k) for b in range(8) if v >> b & 1) for v in range(256)]
    return [tuple(np.array([s << shift for s in spread], dtype=np.uint64)
                  for shift in (i, 8 * k + i)) for i in range(k)]


def _joint_box(clouds: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray] | None:
    """The Morton box ``(lo, hi)`` of two or more non-empty clouds, or None where
    some cloud's widest halved span is below ``_SHARED_SPAN`` of the box's."""
    if len(clouds) > 1:
        rows = (np.ascontiguousarray(c[:, :_MORTON_DIMS].T) for c in clouds)  # rows reduce fast
        los, his = map(np.array, zip(*[(r.min(axis=1), r.max(axis=1)) for r in rows]))
        lo, hi = los.min(axis=0)[:, None], his.max(axis=0)[:, None]
        if (0.5 * his - 0.5 * los).max(axis=1).min() >= _SHARED_SPAN * (0.5 * hi - 0.5 * lo).max():
            return lo, hi
    return None


class _Indexed:
    """A finite point cloud, sorted twice for exact nearest-neighbour queries.

    Points are stored one row per coordinate.  ``morton`` holds them in
    Morton (Z-curve) order over a 16-bit grid on ``box`` (the cloud's own
    bounding box, or one shared by ``_joint_box``), so that neighbours in
    that order are close in space and witness cheap upper bounds.
    ``by_axis`` holds them sorted along the coordinate of widest spread,
    ``axis``: a coordinate difference never exceeds the distance, so one
    window of that order holds every point within a given distance.
    """

    def __init__(self, points: np.ndarray, box: tuple[np.ndarray, np.ndarray] | None = None):
        cols = np.ascontiguousarray(points.T)
        self.n, self.m = cols.shape
        lo, hi = cols.min(axis=1), cols.max(axis=1)
        # halved, so that no difference of coordinates overflows
        self.axis = int((0.5 * hi - 0.5 * lo).argmax())
        k = min(self.n, _MORTON_DIMS)
        self._lo, self._hi = self.box = (lo[:k, None], hi[:k, None]) if box is None else box
        self._half_lo = 0.5 * self._lo
        span = float((0.5 * self._hi - self._half_lo).max())
        self._scale = _MORTON_TOP / span if span > _MORTON_TOP / _FLOAT_MAX else 0.0
        codes = self.codes(cols)
        order = codes.argsort()
        self._codes = codes[order]
        self.morton = cols.take(order, axis=1)
        order = cols[self.axis].argsort()
        self.by_axis = cols.take(order, axis=1)

    def codes(self, cols: np.ndarray) -> np.ndarray:
        """Morton codes of points (one row per coordinate) on this cloud's
        grid; points outside its bounding box are clamped onto it."""
        q = np.clip(cols[: self._lo.shape[0]], self._lo, self._hi)
        q *= 0.5
        q -= self._half_lo
        q *= self._scale
        q = q.astype(np.uint64)
        code = np.zeros(q.shape[1], dtype=np.uint64)
        for row, (low, high) in zip(q, _morton_tables(q.shape[0])):
            code |= low[row & np.uint64(255)] | high[row >> np.uint64(8)]
        return code

    def locate(self, query: _Indexed) -> np.ndarray:
        """Position of each point of ``query.morton`` in this cloud's Morton order."""
        codes = query._codes if query.box is self.box else self.codes(query.morton)
        return self._codes.searchsorted(codes)

    def witnessed(self, cols: np.ndarray, pos: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """Squared distance from each query point to the nearest of the points
        at ``pos + offsets`` in Morton order: an upper bound on its
        nearest-neighbour distance."""
        if offsets.size * pos.size > _WINDOW_BLOCK and pos.size > 1:  # halve the queries
            h = pos.size // 2
            return np.concatenate([self.witnessed(cols[:, :h], pos[:h], offsets),
                                   self.witnessed(cols[:, h:], pos[h:], offsets)])
        idx = pos + offsets
        np.minimum(np.maximum(idx, 0, out=idx), self.m - 1, out=idx)
        return _sq_dists([q[None, :] for q in cols], [c.take(idx) for c in self.morton]).min(axis=0)

    def nearest_within(self, cols: np.ndarray, r2: np.ndarray, bound: np.ndarray) -> np.ndarray:
        """``bound`` lowered to the squared distance from each query point to
        its nearest neighbour among the points within ``sqrt(r2)`` of it.

        The half-width of the window along ``axis`` is widened by the
        rounding of the differences, squares, sums and square root, at most
        ``(n + 2) eps`` relative, and by the underflow of the squares, at most
        ``2^-537 sqrt(n)``, so that it holds every point whose computed
        squared distance is at most ``r2``.  Its ends need no slack: the
        coordinates are floats and rounding is monotone.
        """
        p = cols[self.axis]
        w = np.sqrt(r2) * (1.0 + 4 * (self.n + 2) * _EPS) + 2.0**-500
        axis_values = self.by_axis[self.axis]
        start = axis_values.searchsorted(p - w, side="left")
        lens = axis_values.searchsorted(p + w, side="right") - start
        ends = lens.cumsum()
        total = int(ends[-1])
        if total > _WINDOW_BLOCK and p.size > 1:  # keep memory linear: halve the queries
            h = p.size // 2
            return np.concatenate([self.nearest_within(cols[:, :h], r2[:h], bound[:h]),
                                   self.nearest_within(cols[:, h:], r2[h:], bound[h:])])
        best = bound.copy()
        if total:
            offs = ends - lens
            idx = np.arange(total) - (offs - start).repeat(lens)
            d2 = _sq_dists([q.repeat(lens) for q in cols], [c.take(idx) for c in self.by_axis])
            hit = lens > 0
            best[hit] = np.minimum(best[hit], np.minimum.reduceat(d2, offs[hit]))
        return best


def _sq_dists(xs: list[np.ndarray], ys: list[np.ndarray]) -> np.ndarray:
    """``((dx_0^2 + dx_1^2) + dx_2^2) + ...`` over paired coordinate arrays:
    the squared distances that ``scipy.spatial.distance.cdist`` sums, bit
    for bit, so that their minima and maxima are its minima and maxima."""
    d = xs[0] - ys[0]
    total = d * d
    for x, y in zip(xs[1:], ys[1:]):
        d = x - y
        total += d * d
    return total


def _hausdorff_sq(a: _Indexed, b: _Indexed) -> float:
    """Squared Hausdorff distance of two indexed clouds.

    Each point of either cloud gets an upper bound on its nearest-neighbour
    distance from its neighbours in the other cloud's Morton order.  The
    running maximum of exact nearest-neighbour distances only grows, and a
    point with a witnessed neighbour at or below it can no longer raise it
    (the early break of Taha and Hanbury, IEEE TPAMI 37(11), 2015).  Rounds
    settle the open points with the largest bounds first: a window at the
    running maximum settles most of them, and the rest get their exact
    nearest neighbour from a window at their bound.
    """
    with np.errstate(over="ignore"):  # squares past 1e308 are inf, as in cdist
        sides = []
        for target, query in ((b, a), (a, b)):
            pos = target.locate(query)
            sides.append((target, query.morton, pos, target.witnessed(query.morton, pos, _NEAR)))
        h2 = 0.0
        chunk = _FIRST_ROUND
        busy = True
        while busy:
            busy = False
            for target, cols, pos, bound in sides:
                live = (bound > h2).nonzero()[0]
                if not live.size:
                    continue
                busy = True
                if live.size > chunk:
                    live = live[np.argpartition(bound[live], -chunk)[-chunk:]]
                sub = cols.take(live, axis=1)
                ub = np.minimum(bound[live], target.witnessed(sub, pos[live], _WIDE))
                if h2 > 0.0:
                    ub = target.nearest_within(sub, np.full(live.size, h2), ub)
                    bound[live] = ub
                    open_ = ub > h2
                    live, sub, ub = live[open_], sub[:, open_], ub[open_]
                    if not live.size:
                        continue
                nn2 = target.nearest_within(sub, ub, ub)
                bound[live] = nn2
                h2 = max(h2, float(nn2.max()))
            chunk *= 8
    return h2


def hausdorff(a, b) -> float:
    """Exact Hausdorff distance between two finite point clouds.

    The larger of the two directed distances, each the largest
    nearest-neighbour distance from one cloud to the other.  Nearest
    neighbours are exact, found in NumPy with no tree (see
    ``_hausdorff_sq``), and squared distances are summed as
    ``scipy.spatial.distance.cdist`` sums them, so that up to three
    dimensions the result equals the brute-force one bit for bit.  The two
    clouds share one Morton grid where ``_joint_box`` allows; the grid sets
    how fast the search ends, never its result.  Memory is the sorted copies
    of the two clouds, linear in their sizes, plus at most one block of
    ``_WINDOW_BLOCK`` candidate pairs, or one query's window where that alone
    is larger.  Empty clouds raise EmptyCloud; clouds with NaN or infinite
    coordinates, or of different dimensions, raise ValueError.
    """
    A = _cloud_points(a)
    B = _cloud_points(b)
    if A.shape[0] == 0 or B.shape[0] == 0:
        raise EmptyCloud("both clouds must contain at least one point")
    for pts in (A, B):
        if pts.ndim != 2 or pts.shape[1] == 0:
            raise ValueError(f"expected points of shape (count, dimension), got {pts.shape}")
        if not np.isfinite(pts).all():
            raise ValueError("point clouds must have finite coordinates")
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"clouds of dimension {A.shape[1]} and {B.shape[1]} have no distance")
    box = _joint_box([A, B])
    return math.sqrt(_hausdorff_sq(_Indexed(A, box), _Indexed(B, box)))


@dataclass(frozen=True, eq=False)
class ScanResult:
    parameter: str
    values: tuple[float, ...]
    maps: tuple[PwlMap, ...]
    clouds: tuple[OrbitData | None, ...]
    consecutive_hausdorff: tuple[float, ...]
    errors: tuple[str | None, ...]

    def plane_distances(self, tol: float = TOL) -> tuple[float, ...]:
        """Per value, the largest ``|distance|`` from its cloud to the plane of
        ``detect_shared_eigenvalue(map, tol)``, run here and not in ``scan``;
        NaN where the cloud is None or empty, nothing is shared or it raises."""
        out = []
        for pwl, cloud in zip(self.maps, self.clouds):
            red = None
            if cloud is not None and cloud.points.shape[0]:
                try:
                    red = detect_shared_eigenvalue(pwl, tol)
                except PwldynError:
                    pass
            out.append(float("nan") if red is None
                       else float(np.max(np.abs(red.manifold.distances(cloud.points)))))
        return tuple(out)


def scan(
    base: BcnfParams,
    parameter: str,
    values,
    x0=None,
    n_transient: int = 1000,
    n_keep: int = 3000,
    escape_radius: float = ESCAPE_RADIUS,
) -> ScanResult:
    """Attractor clouds along a one-parameter family of normal-form maps.

    One cloud per value: the ``OrbitData`` of ``orbit`` on each value alone.
    A failed orbit (non-finite iterate) is recorded as an error string with
    a None cloud instead of aborting the scan.  The consecutive Hausdorff
    column is ``hausdorff`` of neighbouring clouds, each cloud indexed once
    for both of its neighbours, on one grid over the sweep where
    ``_joint_box`` allows it, and gets NaN wherever either neighbour is
    empty.  The sweep keeps ``len(values) n_keep n`` coordinates in all, at
    most ``pwlmap.MAX_ORBIT_FLOATS``, checked before any orbit is stepped;
    each orbit checks its escape radius and lengths as ``orbit`` does.
    """
    vals = tuple(float(v) for v in values)
    _check_orbit_size(len(vals) * n_keep * base.dim)
    if parameter not in base.coefficients:
        raise ValueError(f"unknown scan parameter {parameter!r} for dimension {base.dim}")
    maps = tuple(bcnf(replace(base, **{parameter: v})) for v in vals)
    clouds: list[OrbitData | None] = []
    errors: list[str | None] = []
    for pwl in maps:
        start = default_x0(pwl) if x0 is None else x0
        try:
            clouds.append(orbit(pwl, start, n_transient, n_keep, escape_radius))
            errors.append(None)
        except NonFinite as exc:
            clouds.append(None)
            errors.append(_record(exc))
    # each cloud is indexed once, on the sweep's grid if any, for both neighbours
    pts = [None if c is None or c.points.shape[0] == 0 else c.points for c in clouds]
    box = _joint_box([p for p in pts if p is not None])
    indexed = (None if p is None else _Indexed(p, box) for p in pts)
    dists = tuple(float("nan") if a is None or b is None else math.sqrt(_hausdorff_sq(a, b))
                  for a, b in itertools.pairwise(indexed))
    return ScanResult(parameter=parameter, values=vals, maps=maps, clouds=tuple(clouds),
                      consecutive_hausdorff=dists, errors=tuple(errors))
