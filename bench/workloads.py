"""Seeded inputs, jobs and correctness checks of the four benchmark workloads.

Every workload is a fixed list of jobs (one *batch*) built from the seed.
The seed moves parameters, matrices and the order of jobs; it never changes
how many jobs of each kind a batch holds, so the cost of a batch stays the
same from seed to seed.  ``run`` is the timed part of a job, ``check`` and
``digest`` run outside the timing.  A job that raises anything other than
the documented outcomes (nothing shared, ``HypothesisViolated``,
``NotSingular``, escapes and missed returns) counts as failed.

The module expects ``pwldyn`` importable from the checkout's ``src``; the
entry point ``run.py`` arranges that before importing it.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field, replace

import numpy as np

import pwldyn
from pwldyn import (
    BcnfParams,
    DynamicsError,
    HypothesisViolated,
    NotSingular,
    PwlMap,
    attractor,
    bcnf,
    classify_unit_modulus,
    default_x0,
    detect_shared_eigenvalue,
    fixed_points,
    hausdorff,
    orbit,
    plane_chart,
    real_eigen,
    reduced_orbit,
    restrict_to_manifold,
    sample_induced,
    scan,
    validate_continuity,
    zero_eig_reduction,
)
from pwldyn import cli as pwldyn_cli

# Reference maps of the test suite (tests/conftest.py).
SHARED_2D = BcnfParams(dim=2, tl=2.2, dl=0.4, tr=-1.3, dr=-0.3)
SHARED_3D = BcnfParams(dim=3, tl=0.0, dl=0.0, sl=-1.0, tr=0.0, dr=-0.6, sr=3.0)
FLAT_LEFT_2D = BcnfParams(dim=2, tl=1.3, dl=0.0, tr=-1.4, dr=1.5)
FLAT_LEFT_3D = BcnfParams(dim=3, tl=1.6, dl=0.0, sl=0.8, tr=-1.5, dr=1.0, sr=0.0)

# Per-size settings.  "full" is what the benchmark measures; "tiny" only
# exercises every code path quickly (the smoke test).
SIZES = {
    "full": {
        "transient": 1000,
        # (keep, values, families): many small clouds put the orbit loop at
        # about half the library time, one keep=10000 pair sets the memory peak
        "scan_sweeps": ((1000, 28, (2, 3)), (3000, 4, (2, 3)), (10000, 2, (2,))),
        "census_maps": {2: 180, 3: 120, 4: 24, 6: 3, 8: 3},
        "induced_grid": (2000, 40),  # samples in a 1-D chart, per axis in a 2-D chart
        "reduced": (1000, 3000),
        "reduce_maps": 2,  # maps of each of the four reduce kinds
        "section": (1000, 3000),  # attractor (transient, keep) behind an induced grid
        "cobweb": 512,
        "cli": {"transient": 1000, "keep": 3000, "scan_values": 5},
        "setup_probes": 5,
        "min_batches": 3,
        "trace_batches": {"scan": 2, "census": 2, "reduce": 10, "cli": 2},
        "start_probes": 5,
    },
    "tiny": {
        "transient": 100,
        "scan_sweeps": ((50, 3, (2, 3)), (100, 2, (2, 3)), (200, 2, (2,))),
        "census_maps": {2: 3, 3: 3, 4: 3, 6: 3, 8: 3},
        "induced_grid": (40, 6),
        "reduced": (100, 200),
        "reduce_maps": 1,
        "section": (100, 300),
        "cobweb": 32,
        "cli": {"transient": 100, "keep": 200, "scan_values": 3},
        "setup_probes": 1,
        "min_batches": 1,
        "trace_batches": {"scan": 1, "census": 1, "reduce": 1, "cli": 1},
        "start_probes": 1,
    },
}


# ---------------------------------------------------------------------------
# helpers


class Digest:
    """SHA-256 over a canonical byte form of nested job outputs."""

    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def add(self, obj) -> None:
        h = self._h
        if obj is None:
            h.update(b"N")
        elif isinstance(obj, (bool, np.bool_)):
            h.update(b"T" if obj else b"F")
        elif isinstance(obj, (int, np.integer)):
            h.update(b"i%d;" % int(obj))
        elif isinstance(obj, (float, np.floating)):
            h.update(b"f" + float(obj).hex().encode() + b";")
        elif isinstance(obj, str):
            h.update(b"s%d:" % len(obj) + obj.encode())
        elif isinstance(obj, bytes):
            h.update(b"b%d:" % len(obj) + obj)
        elif isinstance(obj, np.ndarray):
            arr = np.ascontiguousarray(obj)
            h.update(f"a{arr.dtype.str}{arr.shape}".encode())
            h.update(arr.tobytes())
        elif isinstance(obj, (list, tuple)):
            h.update(b"l%d[" % len(obj))
            for item in obj:
                self.add(item)
            h.update(b"]")
        else:
            raise TypeError(f"cannot digest {type(obj)!r}")

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def shared_params(base: BcnfParams, tl: float) -> BcnfParams:
    """Normal form with left trace ``tl`` whose left piece has the right piece's
    smallest real eigenvalue: the left determinant solves the left
    characteristic polynomial at that eigenvalue."""
    lam = min(real_eigen(bcnf(base).A_R).real_values(), key=abs)
    if base.dim == 2:  # lam^2 - tl lam + dl = 0
        dl = tl * lam - lam * lam
    else:  # lam^3 - tl lam^2 + sl lam - dl = 0
        dl = lam**3 - tl * lam * lam + base.sl * lam
    return replace(base, tl=tl, dl=dl)


def shared_value(pwl: PwlMap) -> float:
    return min(real_eigen(pwl.A_R).real_values(), key=abs)


def section_grid(pwl: PwlMap, plane, chart, transient: int, keep: int, count: tuple[int, int]):
    """Grid over the plane section of the attractor, built as the CLI's default
    grid (the bounding box of the on-plane attractor points, padded by 2%) but
    with ``count`` points: the CLI uses 500 in a 1-D chart, and the reduce
    workload deliberately samples 2000 there."""
    cloud = attractor(pwl, default_x0(pwl), transient, keep)
    pts = cloud.points
    mask = np.abs(plane.distances(pts)) <= 1e-9 * (1.0 + np.linalg.norm(pts, axis=1))
    coords = chart.project_many(pts[mask])
    lo, hi = coords.min(axis=0), coords.max(axis=0)
    pad = 0.02 * (hi - lo) + 1e-9
    dims = coords.shape[1]
    n = count[0] if dims == 1 else count[1]
    axes = [np.linspace(lo[d] - pad[d], hi[d] + pad[d], n) for d in range(dims)]
    if dims == 1:
        return axes[0][:, None]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.ravel() for m in mesh])


@dataclass
class Job:
    kind: str
    name: str
    data: dict = field(default_factory=dict)


class Workload:
    """A batch of jobs plus how to run, check and digest each of them."""

    def __init__(self, seed: int, size: str, workdir: str) -> None:
        self.size = SIZES[size]
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)
        self.jobs: list[Job] = []

    def warm_up(self, tr) -> None:
        for job in self.warm_up_jobs():
            self.run(job, tr)

    def warm_up_jobs(self) -> list[Job]:
        seen, out = set(), []
        for job in self.jobs:
            if job.kind not in seen:
                seen.add(job.kind)
                out.append(job)
        return out

    def run(self, job: Job, tr):
        raise NotImplementedError

    def check(self, job: Job, out) -> list[str]:
        return []

    def digest(self, job: Job, out, dg: Digest) -> None:
        raise NotImplementedError

    def work(self, job: Job, out) -> dict:
        """Units of work a finished job did, for the end-to-end rates."""
        return {}

    def verify_first_batch(self, outputs) -> dict[int, list[str]]:
        """Checks that need the whole first batch; maps job index to failures."""
        return {}


# ---------------------------------------------------------------------------
# scan: long orbits and Hausdorff distances along shared-eigenvalue families


class ScanWorkload(Workload):
    """One-parameter sweeps of the left trace along the 2-D and 3-D
    shared-eigenvalue normal forms.  The left determinant is tuned so that one
    value of each sweep (the planted index) shares the right piece's
    eigenvalue; after every sweep the harness runs detection per value and
    takes the largest distance of the cloud from the invariant plane, as
    ``pwldyn scan`` does.  Each batch holds the sweeps of ``scan_sweeps``;
    the seed moves the sweep windows, the planted index and the order of the
    sweeps."""

    FAMILIES = {2: (SHARED_2D, 2.2), 3: (SHARED_3D, 0.0)}  # base and centre of tl

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        s = self.size
        for keep, count, dims in s["scan_sweeps"]:
            for base, centre in (self.FAMILIES[d] for d in dims):
                mid = centre + self.rng.uniform(-0.02, 0.02)
                values = np.linspace(mid - 0.05, mid + 0.05, count)
                planted = int(self.rng.integers(count))
                params = shared_params(base, float(values[planted]))
                self.jobs.append(Job("scan", f"scan-{base.dim}d-keep{keep}", {
                    "base": params,
                    "values": tuple(float(v) for v in values),
                    "planted": planted,
                    "keep": keep,
                    "transient": s["transient"],
                }))
        order = self.rng.permutation(len(self.jobs))
        self.jobs = [self.jobs[i] for i in order]

    def warm_up_jobs(self):
        return [min(self.jobs, key=lambda job: job.data["keep"])]

    def run(self, job, tr):
        d = job.data
        if tr.enabled:
            return self._run_constituents(job, tr)
        result = scan(d["base"], "tl", d["values"], n_transient=d["transient"], n_keep=d["keep"])
        shared, stats = [], []
        for v, cloud in zip(result.values, result.clouds):
            pwl = bcnf(replace(d["base"], tl=v))
            red, stat = _plane_stat(pwl, cloud, tr)
            shared.append(None if red is None else red.value)
            stats.append(stat)
        return {
            "values": result.values,
            "clouds": result.clouds,
            "hausdorff": result.consecutive_hausdorff,
            "errors": result.errors,
            "shared": shared,
            "plane_dist_max": stats,
        }

    def _run_constituents(self, job, tr):
        """The body of ``scan`` call by call, so each layer gets its own span."""
        d = job.data
        values = tuple(float(v) for v in d["values"])
        clouds, errors, pwls = [], [], []
        for v in values:
            with tr.span("pwlmap.bcnf"):
                pwl = bcnf(replace(d["base"], tl=v))
            pwls.append(pwl)
            with tr.span("analysis.default_x0"):
                start = default_x0(pwl)
            try:
                with tr.span("analysis.attractor"):
                    cloud = attractor(pwl, start, d["transient"], d["keep"], 1e12)
            except DynamicsError as exc:
                clouds.append(None)
                errors.append(f"{type(exc).__name__}: {exc}")
                continue
            clouds.append(cloud)
            errors.append(None)
            tr.count("analysis.attractor.iterates",
                     cloud.escape_index if cloud.escaped else d["transient"] + d["keep"])
            tr.count("analysis.attractor.escaped", int(cloud.escaped))
        dists = []
        for left, right in zip(clouds, clouds[1:]):
            if left is None or right is None or not left.points.size or not right.points.size:
                dists.append(float("nan"))
                continue
            with tr.span("analysis.hausdorff"):
                dists.append(hausdorff(left, right))
            tr.count("analysis.hausdorff.point_pairs",
                     left.points.shape[0] * right.points.shape[0])
        shared, stats = [], []
        for pwl, cloud in zip(pwls, clouds):
            red, stat = _plane_stat(pwl, cloud, tr)
            shared.append(None if red is None else red.value)
            stats.append(stat)
        return {
            "values": values,
            "clouds": tuple(clouds),
            "hausdorff": tuple(dists),
            "errors": tuple(errors),
            "shared": shared,
            "plane_dist_max": stats,
        }

    def check(self, job, out):
        fails = []
        j = job.data["planted"]
        for i, (cloud, err) in enumerate(zip(out["clouds"], out["errors"])):
            if err is not None or cloud is None or cloud.escaped:
                fails.append(f"{job.name}: value {i} left the bounded attractor ({err})")
        if out["shared"][j] is None:
            fails.append(f"{job.name}: planted shared eigenvalue not found")
        for i, stat in enumerate(out["plane_dist_max"]):
            if out["shared"][i] is not None and not stat <= 1e-8:
                fails.append(f"{job.name}: value {i} attractor off the invariant plane "
                             f"by {stat:.3e}")
        if not all(np.isfinite(out["hausdorff"])):
            fails.append(f"{job.name}: non-finite Hausdorff distance")
        return fails

    def digest(self, job, out, dg):
        dg.add(list(out["values"]))
        for cloud in out["clouds"]:
            dg.add(None if cloud is None else [cloud.points, cloud.escaped, cloud.escape_index])
        dg.add(list(out["hausdorff"]))
        dg.add(list(out["errors"]))
        dg.add(out["shared"])
        dg.add(out["plane_dist_max"])

    def work(self, job, out):
        return {"values": len(out["values"])}


def _plane_stat(pwl, cloud, tr):
    """Detection plus the largest plane distance of the cloud (NaN if none)."""
    try:
        with tr.span("reduction.detect_shared_eigenvalue"):
            red = detect_shared_eigenvalue(pwl)
    except HypothesisViolated:
        tr.count("reduction.detect_shared_eigenvalue.hypothesis_violated")
        red = None
    stat = float("nan")
    if red is not None:
        tr.count("reduction.detect_shared_eigenvalue.found")
        if cloud is not None and cloud.points.shape[0] > 0:
            stat = float(np.max(np.abs(red.manifold.distances(cloud.points))))
    return red, stat


# ---------------------------------------------------------------------------
# census: the `analyze` calls over random continuous maps in n = 2..8


def census_map(rng, n: int, kind: str) -> tuple[PwlMap, float | None]:
    """Random continuous map with a prescribed spectrum in both pieces.

    The left piece is ``S D S^-1`` with ``n`` distinct real eigenvalues ``r``
    and a well-conditioned ``S``.  The right piece is the rank-one update
    ``A_L + p c^T`` placing ``n // 3`` complex pairs and the remaining real
    eigenvalues near the left ones: in the eigenbasis of ``A_L`` the update
    needs ``p_i c_i = -q(r_i) / prod_{k != i} (r_i - r_k)`` with ``q`` the
    right characteristic polynomial, because
    ``det(lam I - A_R) = prod_k (lam - r_k) - sum_i p_i c_i prod_{k != i} (lam - r_k)``.  ``kind`` "shared" keeps one left
    eigenvalue in the right piece (``p_i = 0``), "singular" sets one left
    eigenvalue to zero, "generic" does neither.  Fixing the number of real
    eigenvalues fixes the work of every eigen call, so the cost of a census
    batch does not depend on the seed.  Returns the map and the planted
    shared eigenvalue (None unless "shared").
    """
    grid = np.array([v for v in np.linspace(-1.8, 1.8, 19)
                     if abs(v) > 0.1 and abs(abs(v) - 1.0) > 0.1])
    r = np.sort(rng.choice(grid, n, replace=False) + rng.uniform(-0.03, 0.03, n))
    if kind == "singular":
        r[int(np.argmin(np.abs(r)))] = 0.0
    pairs = n // 3
    mu: list[complex] = []
    paired = set()
    for k in range(pairs):  # merge r[2k], r[2k+1] into a complex pair
        centre = 0.5 * (r[2 * k] + r[2 * k + 1])
        beta = rng.uniform(0.1, 0.3)
        mu += [complex(centre, beta), complex(centre, -beta)]
        paired |= {2 * k, 2 * k + 1}
    rest = [i for i in range(n) if i not in paired]
    shared_idx = rest[int(rng.integers(len(rest)))] if kind == "shared" else None
    for i in rest:
        # |delta| <= 0.05 keeps the right eigenvalues at least 0.04 apart,
        # since the left ones are at least 0.14 apart
        delta = 0.0 if i == shared_idx else rng.choice([-1.0, 1.0]) * rng.uniform(0.03, 0.05)
        mu.append(complex(r[i] + delta))
    q = np.real(np.poly(mu))
    w = np.array([-np.polyval(q, r[i]) / np.prod([r[i] - r[k] for k in range(n) if k != i])
                  for i in range(n)])
    c_t = rng.choice([-1.0, 1.0], n) * np.sqrt(np.abs(w)) * rng.uniform(0.7, 1.4, n)
    if shared_idx is not None:
        w[shared_idx] = 0.0
        c_t[shared_idx] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5)
    p_t = w / c_t
    while True:
        S = np.eye(n) + 0.3 * rng.standard_normal((n, n))
        if np.linalg.cond(S) <= 20.0:
            break
    S_inv = np.linalg.inv(S)
    a_l = S @ np.diag(r) @ S_inv
    p = S @ p_t
    c = S_inv.T @ c_t
    b = rng.standard_normal(n)
    pwl = PwlMap(a_l, a_l + np.outer(p, c), b, c)
    return pwl, (float(r[shared_idx]) if shared_idx is not None else None)


class CensusWorkload(Workload):
    """The calls of ``pwldyn analyze`` over seeded random continuous maps in
    n = 2, 3, 4, 6, 8: a third with a planted shared simple eigenvalue, a
    third with a singular left piece, a third generic.  The per-dimension
    counts give n <= 3 (closed-form roots) and n >= 4 (LAPACK plus the
    cofactor adjugate) each a large share of the batch time."""

    KINDS = ("shared", "singular", "generic")

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        for n, count in self.size["census_maps"].items():
            for k in range(count):
                kind = self.KINDS[k % 3]
                pwl, lam = census_map(self.rng, n, kind)
                probes = self.rng.uniform(-5.0, 5.0, (200, n))
                self.jobs.append(Job(kind, f"census-n{n}-{kind}", {
                    "pwl": pwl, "n": n, "planted": lam, "probes": probes,
                }))
        order = self.rng.permutation(len(self.jobs))
        self.jobs = [self.jobs[i] for i in order]

    def warm_up_jobs(self):
        seen, out = set(), []
        for job in self.jobs:
            if job.data["n"] not in seen:
                seen.add(job.data["n"])
                out.append(job)
        return out

    def run(self, job, tr):
        pwl, n = job.data["pwl"], job.data["n"]
        out = {}
        with tr.span("pwlmap.validate_continuity"):
            out["p"] = validate_continuity(pwl)
        with tr.span(f"linalg.real_eigen/n{n}"):
            out["spec_l"] = real_eigen(pwl.A_L)
        with tr.span(f"linalg.real_eigen/n{n}"):
            out["spec_r"] = real_eigen(pwl.A_R)
        with tr.span("pwlmap.fixed_points"):
            out["fixed"] = fixed_points(pwl)
        try:
            with tr.span("reduction.detect_shared_eigenvalue"):
                out["shared"] = detect_shared_eigenvalue(pwl)
        except HypothesisViolated as exc:
            tr.count("reduction.detect_shared_eigenvalue.hypothesis_violated")
            out["shared"] = f"HypothesisViolated: {exc}"
        if out["shared"] is not None and not isinstance(out["shared"], str):
            tr.count("reduction.detect_shared_eigenvalue.found")
            if job.data["planted"] is not None:
                tr.count("census.planted_found")
        if job.data["planted"] is not None:
            tr.count("census.planted")
        try:
            with tr.span("reduction.zero_eig_reduction"):
                out["plane"] = zero_eig_reduction(pwl)
            tr.count("reduction.zero_eig_reduction.singular")
        except NotSingular:
            out["plane"] = None
        with tr.span("reduction.classify_unit_modulus"):
            out["unit"] = classify_unit_modulus(pwl)
        tr.count("reduction.classify_unit_modulus.reports", len(out["unit"]))
        return out

    def check(self, job, out):
        fails = []
        pwl, lam = job.data["pwl"], job.data["planted"]
        red = out["shared"]
        if lam is not None:
            if red is None or isinstance(red, str):
                return [f"{job.name}: planted eigenvalue {lam:.6g} not found ({red})"]
            if abs(red.value - lam) > 1e-9 * (1.0 + abs(lam)) and not any(
                abs(v - lam) <= 1e-9 * (1.0 + abs(lam)) for v in red.other_shared
            ):
                fails.append(f"{job.name}: found {red.value:.6g}, planted {lam:.6g}")
            pts = job.data["probes"]
            before = red.deviation_many(pts)
            after = red.deviation_many(pwl.map_points(pts))
            err = float(np.max(np.abs(after - red.value * before) / (1.0 + np.abs(before))))
            if not err <= 1e-10:
                fails.append(f"{job.name}: deviation identity off by {err:.3e}")
        elif red is not None:
            fails.append(f"{job.name}: no eigenvalue was planted but detection returned {red}")
        if (job.kind == "singular") != (out["plane"] is not None):
            state = "missing" if out["plane"] is None else "unexpected"
            fails.append(f"{job.name}: zero-eigenvalue plane {state}")
        return fails

    def digest(self, job, out, dg):
        dg.add(out["p"])
        for spec in (out["spec_l"], out["spec_r"]):
            dg.add([[t.value, t.left, t.right, t.multiplicity, t.canonical] for t in spec.real])
            dg.add([[c.real, c.imag, c.modulus, c.multiplicity] for c in spec.complex_pairs])
        for info in (out["fixed"].right, out["fixed"].left):
            dg.add([info.point, info.admissible, info.borderline, info.reason])
        red = out["shared"]
        if red is None or isinstance(red, str):
            dg.add(red)
        else:
            dg.add([red.value, red.left, red.right, red.offset, red.manifold.normal,
                    red.manifold.base_point, red.transversal, list(red.other_shared)])
            rm = red.restricted
            dg.add(None if rm is None else [rm.matrix_left, rm.offset_left, rm.matrix_right,
                                           rm.offset_right, rm.switch_normal, rm.switch_offset])
        plane = out["plane"]
        dg.add(None if plane is None else [plane.normal, plane.base_point, plane.offset])
        dg.add([[u.side, u.kind, u.value, u.theta, u.resonant] for u in out["unit"]])

    def work(self, job, out):
        return {"maps": 1}


# ---------------------------------------------------------------------------
# reduce: induced return maps and invariant-plane restrictions


class ReduceWorkload(Workload):
    """Induced return maps of singular-piece normal forms (near the test
    suite's flat-left maps) sampled on grids that span the plane section of
    the attractor, and restrictions of shared-eigenvalue normal forms to their
    invariant plane with a chart orbit and a cobweb-style evaluation of the
    restricted map.  Thousands of short (1 to 14 step) excursions and point
    evaluations, where ``scan`` has a few long orbits."""

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        s = self.size
        rng = self.rng
        for base in (FLAT_LEFT_2D, FLAT_LEFT_3D):
            for k in range(s["reduce_maps"]):
                params = replace(base, tl=base.tl + rng.uniform(-0.02, 0.02),
                                 tr=base.tr + rng.uniform(-0.02, 0.02),
                                 dr=base.dr + rng.uniform(-0.02, 0.02))
                pwl = bcnf(params)
                plane = zero_eig_reduction(pwl)
                grid = section_grid(pwl, plane, plane_chart(plane), *s["section"],
                                    s["induced_grid"])
                probes = rng.uniform(-4.0, 4.0, (200, pwl.n))
                probes[:, 0] = -np.abs(probes[:, 0]) - 1e-9  # left half-space (c = e1)
                self.jobs.append(Job("induced", f"induced-{pwl.n}d-{k}", {
                    "pwl": pwl, "grid": grid, "probes": probes,
                }))
        for base, centre in ((SHARED_2D, 2.2), (SHARED_3D, 0.0)):
            for k in range(s["reduce_maps"]):
                params = shared_params(base, centre + rng.uniform(-0.03, 0.03))
                pwl = bcnf(params)
                self.jobs.append(Job("restricted", f"restricted-{pwl.n}d-{k}", {
                    "pwl": pwl, "planted": shared_value(pwl),
                }))
        order = rng.permutation(len(self.jobs))
        self.jobs = [self.jobs[i] for i in order]

    def run(self, job, tr):
        if job.kind == "induced":
            return self._induced(job, tr)
        return self._restricted(job, tr)

    def _induced(self, job, tr):
        pwl = job.data["pwl"]
        with tr.span("reduction.zero_eig_reduction"):
            plane = zero_eig_reduction(pwl)
        tr.count("reduction.zero_eig_reduction.singular")
        with tr.span("reduction.plane_chart"):
            chart = plane_chart(plane)
        with tr.span("reduction.sample_induced"):
            samples = sample_induced(pwl, plane, job.data["grid"], chart=chart)
        if tr.enabled:
            tr.count("reduction.sample_induced.samples", len(samples))
            for s in samples:
                tr.count(f"reduction.sample_induced.{s.status}")
                if s.status == "ok":
                    tr.count("reduction.sample_induced.return_steps", s.return_time)
                    tr.maximum("reduction.sample_induced.max_return_time", s.return_time)
        return {"plane": plane, "samples": samples}

    def _restricted(self, job, tr):
        pwl = job.data["pwl"]
        size = self.size
        with tr.span("reduction.detect_shared_eigenvalue"):
            red = detect_shared_eigenvalue(pwl)
        if red is not None:
            tr.count("reduction.detect_shared_eigenvalue.found")
        with tr.span("reduction.restrict_to_manifold"):
            rmap = restrict_to_manifold(red)
        with tr.span("analysis.default_x0"):
            x0 = default_x0(pwl)
        with tr.span("reduction.Chart.project"):
            xi0 = rmap.chart.project(x0)
        transient, keep = size["reduced"]
        with tr.span("reduction.reduced_orbit"):
            orb = reduced_orbit(rmap, xi0, transient, keep)
        tr.count("reduction.reduced_orbit.iterates",
                 orb.escape_index if orb.escaped else transient + keep)
        pts = _evaluation_points(orb.points, size["cobweb"])
        with tr.span("reduction.ReducedPwlMap.call"):
            images = np.array([rmap(x) for x in pts])
        tr.count("reduction.ReducedPwlMap.call.points", len(pts))
        return {"red": red, "rmap": rmap, "orbit": orb, "points": pts, "images": images}

    def check(self, job, out):
        pwl = job.data["pwl"]
        if job.kind == "induced":
            plane = out["plane"]
            ys = pwl.map_points(job.data["probes"])
            err = float(np.max(np.abs(plane.distances(ys))))
            if not err <= 1e-10:
                return [f"{job.name}: left-piece image off its plane by {err:.3e}"]
            return []
        fails = []
        lam = job.data["planted"]
        if abs(out["red"].value - lam) > 1e-9 * (1.0 + abs(lam)):
            fails.append(f"{job.name}: found {out['red'].value:.6g}, planted {lam:.6g}")
        # the restriction is conjugate to the map through the chart
        chart = out["rmap"].chart
        lifted = pwl.map_points(chart.lift_many(out["points"]))
        direct = chart.lift_many(out["images"])
        err = float(np.max(np.abs(lifted - direct) / (1.0 + np.abs(lifted))))
        if not err <= 1e-9:
            fails.append(f"{job.name}: restricted map differs from the lifted map by {err:.3e}")
        return fails

    def digest(self, job, out, dg):
        if job.kind == "induced":
            plane = out["plane"]
            dg.add([plane.normal, plane.base_point, plane.offset])
            for s in out["samples"]:
                dg.add([s.point, s.image, s.return_time,
                        None if s.itinerary is None else list(s.itinerary), s.status])
            return
        red, rmap, orb = out["red"], out["rmap"], out["orbit"]
        dg.add([red.value, red.left, red.offset])
        dg.add([rmap.matrix_left, rmap.offset_left, rmap.matrix_right, rmap.offset_right,
                rmap.switch_normal, rmap.switch_offset, rmap.chart.base, rmap.chart.basis])
        dg.add([orb.points, orb.itinerary.tolist(), orb.transient_discarded, orb.escaped])
        dg.add([out["points"], out["images"]])

    def work(self, job, out):
        if job.kind == "induced":
            return {"samples": len(out["samples"])}
        orb = out["orbit"]
        its = orb.escape_index if orb.escaped else sum(self.size["reduced"])
        return {"iterates": its}


def _evaluation_points(points: np.ndarray, count: int) -> np.ndarray:
    """Cobweb abscissae as ``pwldyn restrict`` draws them for a 1-D restriction;
    for a 2-D restriction a grid of about ``count`` points over the orbit box."""
    lo, hi = points.min(axis=0), points.max(axis=0)
    pad = 0.05 * (hi - lo) + 1e-9
    if points.shape[1] == 1:
        return np.linspace(lo[0] - pad[0], hi[0] + pad[0], count)[:, None]
    side = int(round(np.sqrt(count)))
    axes = [np.linspace(lo[d] - pad[d], hi[d] + pad[d], side) for d in range(2)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.ravel() for m in mesh])


# ---------------------------------------------------------------------------
# cli: the console entry point, one process per call


def _fmt(v: float) -> str:
    return repr(float(v))


def _bcnf_args(p: BcnfParams) -> list[str]:
    args = ["--dim", str(p.dim), "--tl", _fmt(p.tl), "--dl", _fmt(p.dl),
            "--tr", _fmt(p.tr), "--dr", _fmt(p.dr)]
    if p.dim == 3:
        args += ["--sl", _fmt(p.sl), "--sr", _fmt(p.sr)]
    return args


def _same(a, b) -> bool:
    return a == b or (a != a and b != b)  # NaN equals NaN here


def _read_csv(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def _num(s: str):
    return None if s == "" else float(s)


class CliWorkload(Workload):
    """Sequential ``python -m pwldyn`` processes cycling through the six
    subcommands on the reference maps, plus ``analyze`` of a ``--matrix-file``
    map with n = 6.  Every call pays interpreter start, import and the CSV or
    JSON writing of its ``--out`` file, which no library workload sees."""

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        rng = self.rng
        c = self.size["cli"]
        run = ["--transient", str(c["transient"]), "--keep", str(c["keep"])]
        shared2 = shared_params(SHARED_2D, 2.2 + rng.uniform(-0.02, 0.02))
        shared3 = shared_params(SHARED_3D, rng.uniform(-0.02, 0.02))
        flat2 = replace(FLAT_LEFT_2D, tl=FLAT_LEFT_2D.tl + rng.uniform(-0.02, 0.02))
        flat3 = replace(FLAT_LEFT_3D, tl=FLAT_LEFT_3D.tl + rng.uniform(-0.02, 0.02))
        mid = shared2.tl
        values = np.linspace(mid - 0.05, mid + 0.05, c["scan_values"])
        matrix_map, _ = census_map(rng, 6, "shared")
        self.matrix_path = os.path.join(workdir, "map6.txt")
        self.matrix_map = matrix_map
        specs = [
            ("analyze", shared2, _bcnf_args(shared2)),
            ("orbit", flat2, _bcnf_args(flat2) + run),
            ("portrait", shared3, _bcnf_args(shared3) + run),
            ("restrict", shared2, _bcnf_args(shared2) + run),
            ("induced", flat3, _bcnf_args(flat3) + run),
            ("scan", shared2, _bcnf_args(shared2) + run + [
                "--param", "tl", "--values", ",".join(_fmt(v) for v in values)]),
            ("analyze", None, ["--matrix-file", self.matrix_path]),
        ]
        for i, (sub, params, args) in enumerate(specs):
            out = os.path.join(workdir, f"out{i}")
            self.jobs.append(Job(sub, f"cli-{sub}-{i}", {
                "params": params, "argv": [sub, *args, "--out", out], "out": out,
            }))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.path.dirname(os.path.dirname(pwldyn.__file__))
        self._write_matrix_file()

    def _write_matrix_file(self) -> None:
        pwl = self.matrix_map
        with open(self.matrix_path, "w", encoding="utf-8") as fh:
            fh.write(f"{pwl.n}\n")
            for arr in (pwl.A_L, pwl.A_R):
                for row in arr:
                    fh.write(" ".join(_fmt(v) for v in row) + "\n")
            for vec in (pwl.b, pwl.c):
                fh.write(" ".join(_fmt(v) for v in vec) + "\n")

    def warm_up_jobs(self):
        return self.jobs[:1]

    def run(self, job, tr):
        """One ``pwldyn`` process; returns exit code, stderr and its peak RSS."""
        cmd = [sys.executable, "-m", "pwldyn", *job.data["argv"]]
        with tr.span(f"cli.{job.kind}"):
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                    stderr=subprocess.PIPE, env=self.env, cwd=self.workdir)
            err = proc.stderr.read()
            proc.stderr.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        with open(job.data["out"], "rb") as fh:
            data = fh.read()
        return {"code": proc.returncode, "stderr": err.decode(errors="replace"),
                "rss_kb": usage.ru_maxrss, "bytes": data}

    def run_inprocess(self, job, tr) -> int:
        """The same call through ``pwldyn.cli.main`` in this process."""
        argv = list(job.data["argv"])
        argv[-1] = job.data["out"] + ".inproc"
        with tr.span(f"cli.{job.kind}.inprocess"):
            code = pwldyn_cli.main(argv)
        return code

    def check(self, job, out):
        if out["code"] not in (0, 2, 3, 4) or "Traceback" in out["stderr"]:
            return [f"{job.name}: exit {out['code']}: {out['stderr'].strip()[-300:]}"]
        if out["code"] != 0:
            return [f"{job.name}: exit {out['code']} on a reference map: {out['stderr'].strip()}"]
        return []

    def digest(self, job, out, dg):
        dg.add(out["bytes"])

    def work(self, job, out):
        return {"calls": 1}

    def verify_first_batch(self, outputs):
        """Parse each output of the first batch and compare it, value by value,
        with the library called directly on the same inputs."""
        fails: dict[int, list[str]] = {}
        for i, (job, out) in enumerate(zip(self.jobs, outputs)):
            if out is None:
                continue
            try:
                problems = getattr(self, f"_verify_{job.kind}")(job, out["bytes"].decode())
            except Exception as exc:  # a malformed output is a failed check
                problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
            if problems:
                fails[i] = [f"{job.name}: {p}" for p in problems]
        return fails

    def _map(self, job) -> PwlMap:
        return self.matrix_map if job.data["params"] is None else bcnf(job.data["params"])

    def _verify_analyze(self, job, text):
        rep = json.loads(text)
        pwl = self._map(job)
        out = []
        for side, A in (("L", pwl.A_L), ("R", pwl.A_R)):
            got = [t["value"] for t in rep["eigenvalues"][side]["real"]]
            if got != real_eigen(A).real_values():
                out.append(f"eigenvalues of A_{side} differ")
        red = detect_shared_eigenvalue(pwl)
        if red is None or rep["shared_eigenvalue"] is None:
            out.append("shared eigenvalue missing")
        elif rep["shared_eigenvalue"]["value"] != red.value:
            out.append("shared eigenvalue differs")
        return out

    def _verify_orbit(self, job, text):
        pwl = self._map(job)
        c = self.size["cli"]
        orb = orbit(pwl, default_x0(pwl), 0, c["transient"] + c["keep"])
        header, rows = _read_csv(text)
        pts = np.array([[float(v) for v in row[1:-1]] for row in rows])
        syms = [row[-1] for row in rows]
        if header[0] != "k" or pts.shape != orb.points.shape or not np.array_equal(pts, orb.points):
            return ["orbit points differ"]
        if syms != orb.itinerary.tolist():
            return ["itinerary differs"]
        return []

    def _verify_portrait(self, job, text):
        pwl = self._map(job)
        c = self.size["cli"]
        orb = orbit(pwl, default_x0(pwl), c["transient"], c["keep"])
        _, rows = _read_csv(text)
        pts = np.array([[float(v) for v in row[:-1]] for row in rows])
        if pts.shape != orb.points.shape or not np.array_equal(pts, orb.points):
            return ["portrait points differ"]
        return []

    def _verify_restrict(self, job, text):
        pwl = self._map(job)
        c = self.size["cli"]
        rep = json.loads(text)
        rmap = restrict_to_manifold(detect_shared_eigenvalue(pwl))
        orb = reduced_orbit(rmap, rmap.chart.project(default_x0(pwl)), c["transient"], c["keep"])
        out = []
        if rep["reduced"]["slopes"] != list(rmap.slopes()):
            out.append("slopes differ")
        if not np.array_equal(np.array(rep["orbit"]["points"]), orb.points):
            out.append("chart orbit differs")
        xs = rep["cobweb"]["x"]
        if rep["cobweb"]["fx"] != [float(rmap(np.array([x]))[0]) for x in xs]:
            out.append("cobweb differs")
        return out

    def _verify_induced(self, job, text):
        pwl = self._map(job)
        c = self.size["cli"]
        cfg = pwldyn_cli.RunConfig(transient=c["transient"], keep=c["keep"])
        plane = zero_eig_reduction(pwl, cfg.tol)
        chart = plane_chart(plane)
        grid = pwldyn_cli._default_induced_grid(pwl, plane, chart, cfg)
        samples = sample_induced(pwl, plane, grid, chart=chart, membership_tol=cfg.tol)
        _, rows = _read_csv(text)
        if len(rows) != len(samples):
            return [f"{len(rows)} rows for {len(samples)} samples"]
        d = pwl.n - 1
        for row, s in zip(rows, samples):
            want = [*s.point, *(s.image if s.image is not None else [None] * d),
                    s.return_time, s.status]
            got = [*(_num(v) for v in row[: 2 * d]), _num(row[2 * d]), row[-1]]
            got[2 * d] = None if got[2 * d] is None else int(got[2 * d])
            if len(got) != len(want) or not all(_same(a, b) for a, b in zip(got, want)):
                return ["induced samples differ"]
        return []

    def _verify_scan(self, job, text):
        params = job.data["params"]
        c = self.size["cli"]
        argv = job.data["argv"]
        values = [float(v) for v in argv[argv.index("--values") + 1].split(",")]
        res = scan(params, "tl", values, n_transient=c["transient"], n_keep=c["keep"])
        header, rows = _read_csv(text)
        col = {name: i for i, name in enumerate(header)}
        out = []
        for i, (row, v, cloud) in enumerate(zip(rows, res.values, res.clouds)):
            red = detect_shared_eigenvalue(bcnf(replace(params, tl=v)))
            stat = (float(np.max(np.abs(red.manifold.distances(cloud.points))))
                    if red is not None else float("nan"))
            prev = res.consecutive_hausdorff[i - 1] if i > 0 else float("nan")
            if not (_same(float(row[col["value"]]), v)
                    and _same(float(row[col["plane_dist_max"]]), stat)
                    and _same(float(row[col["hausdorff_prev"]]), prev)
                    and int(row[col["cloud_size"]]) == cloud.points.shape[0]):
                out.append(f"scan row {i} differs")
        if len(rows) != len(values):
            out.append("scan row count differs")
        return out


WORKLOADS = {
    "scan": ScanWorkload,
    "census": CensusWorkload,
    "reduce": ReduceWorkload,
    "cli": CliWorkload,
}
