"""Attractor sampling, cloud distances, and one-parameter scans."""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import EmptyCloud
from .pwlmap import ESCAPE_RADIUS, BcnfParams, OrbitData, PwlMap, _orbits, bcnf, orbit

__all__ = [
    "AttractorCloud",
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


@dataclass(frozen=True)
class AttractorCloud:
    """Post-transient orbit samples plus the settings that generated them."""

    points: np.ndarray
    escaped: bool
    escape_index: int | None
    x0: np.ndarray
    n_transient: int
    n_keep: int


def default_x0(pwl: PwlMap) -> np.ndarray:
    x0 = pwl.b.copy()
    x0[1 if pwl.n > 1 else 0] += X0_OFFSET
    return x0


def _cloud(orb: OrbitData, x0, n_transient: int, n_keep: int) -> AttractorCloud:
    return AttractorCloud(
        points=orb.points,
        escaped=orb.escaped,
        escape_index=orb.escape_index,
        x0=np.asarray(x0, dtype=float),
        n_transient=n_transient,
        n_keep=n_keep,
    )


def attractor(
    pwl: PwlMap,
    x0,
    n_transient: int = 1000,
    n_keep: int = 3000,
    escape_radius: float = ESCAPE_RADIUS,
) -> AttractorCloud:
    """Sample the attractor reached from ``x0``; empty only when the orbit escapes."""
    return _cloud(orbit(pwl, x0, n_transient, n_keep, escape_radius), x0, n_transient, n_keep)


def _cloud_points(obj) -> np.ndarray:
    pts = np.asarray(getattr(obj, "points", obj), dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    return pts


def hausdorff(a, b) -> float:
    """Exact Hausdorff distance between two finite point clouds.

    Each direction is one exact nearest-neighbour query of every point of
    one cloud against a KD-tree (``scipy.spatial.cKDTree``) of the other;
    the larger of the two directed distances is returned.  Memory stays
    linear in the cloud sizes.  Empty clouds raise EmptyCloud, clouds with
    NaN or infinite coordinates raise ValueError.
    """
    from scipy.spatial import cKDTree

    A = _cloud_points(a)
    B = _cloud_points(b)
    if A.shape[0] == 0 or B.shape[0] == 0:
        raise EmptyCloud("both clouds must contain at least one point")
    if not (np.isfinite(A).all() and np.isfinite(B).all()):
        raise ValueError("point clouds must have finite coordinates")
    d_ab, _ = cKDTree(B).query(A)
    d_ba, _ = cKDTree(A).query(B)
    return float(max(d_ab.max(), d_ba.max()))


@dataclass(frozen=True)
class ScanResult:
    parameter: str
    values: tuple[float, ...]
    maps: tuple[PwlMap, ...]
    clouds: tuple[AttractorCloud | None, ...]
    consecutive_hausdorff: tuple[float, ...]
    errors: tuple[str | None, ...]


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

    One cloud per value, every value's orbit stepped in lockstep and each
    bit-identical to ``attractor`` on that value alone.  A failed orbit
    (non-finite iterate) is recorded as an error string with a None cloud
    instead of aborting the scan.  The consecutive Hausdorff column gets NaN
    wherever either neighbour is empty.
    """
    allowed = {"tl", "dl", "tr", "dr"} | ({"sl", "sr"} if base.dim == 3 else set())
    if parameter not in allowed:
        raise ValueError(f"unknown scan parameter {parameter!r} for dimension {base.dim}")
    vals = tuple(float(v) for v in values)
    maps = tuple(bcnf(replace(base, **{parameter: v})) for v in vals)
    starts = [default_x0(pwl) if x0 is None else np.asarray(x0, dtype=float) for pwl in maps]
    clouds: list[AttractorCloud | None] = []
    errors: list[str | None] = []
    if maps:
        orbits = _orbits([pwl._pieces for pwl in maps], starts, n_transient, n_keep,
                         escape_radius)
        for start, orb in zip(starts, orbits):
            if isinstance(orb, OrbitData):
                clouds.append(_cloud(orb, start, n_transient, n_keep))
                errors.append(None)
            else:
                clouds.append(None)
                errors.append(f"{type(orb).__name__}: {orb}")
    dists: list[float] = []
    for left, right in zip(clouds, clouds[1:]):
        if (
            left is None
            or right is None
            or left.points.shape[0] == 0
            or right.points.shape[0] == 0
        ):
            dists.append(float("nan"))
        else:
            dists.append(hausdorff(left, right))
    return ScanResult(
        parameter=parameter,
        values=vals,
        maps=maps,
        clouds=tuple(clouds),
        consecutive_hausdorff=tuple(dists),
        errors=tuple(errors),
    )
