"""End-to-end acceptance checks, one per release criterion.

Each test prints a single pass line with its runtime; the stated time caps
are asserted, not aspirational.
"""
from __future__ import annotations

import json
import time

import numpy as np
from scipy.optimize import linear_sum_assignment

from pwldyn import (
    BcnfParams,
    HypothesisViolated,
    PwlMap,
    attractor,
    bcnf,
    classify_unit_modulus,
    default_x0,
    detect_shared_eigenvalue,
    plane_chart,
    real_eigen,
    restrict_to_manifold,
    sample_induced,
    scan,
    zero_eig_reduction,
)
from pwldyn.cli import main
from pwldyn.linalg import adjugate

from conftest import FLAT_LEFT_2D, FLAT_LEFT_3D, SHARED_2D, det_lemma_sides, shared_3d_params


def _report(capsys, number: int, label: str, t0: float, cap: float) -> None:
    elapsed = time.perf_counter() - t0
    assert elapsed < cap, f"criterion {number} took {elapsed:.2f}s, cap {cap}s"
    with capsys.disabled():
        print(f"[acceptance] criterion {number} ({label}): PASS ({elapsed:.2f}s)")


def _engineered_shared(rng, n):
    """Random continuous two-piece map built to share one simple eigenvalue."""
    while True:
        a_l = rng.standard_normal((n, n))
        spec = real_eigen(a_l)
        cands = [
            t
            for t in spec.real
            if t.multiplicity == 1 and t.canonical and abs(t.value - 1.0) > 0.1
        ]
        if not cands:
            continue
        t = cands[rng.integers(len(cands))]
        c = rng.standard_normal(n)
        if abs(c @ t.right) < 0.3 * np.linalg.norm(c) * np.linalg.norm(t.right):
            continue
        p = rng.standard_normal(n)
        p -= t.left * (t.left @ p) / (t.left @ t.left)
        b = rng.standard_normal(n)
        return PwlMap(a_l, a_l + np.outer(p, c), b, c)


def test_criterion_1_deviation_identity(capsys):
    # 50 engineered maps in dimensions 2-4: the detected deviation scales
    # by the shared eigenvalue under one application of either piece.
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    validated = 0
    attempts = 0
    while validated < 50:
        attempts += 1
        assert attempts < 500
        n = (2, 3, 4)[validated % 3]
        pwl = _engineered_shared(rng, n)
        try:
            red = detect_shared_eigenvalue(pwl)
        except HypothesisViolated:
            continue
        if red is None:
            continue
        pts = rng.uniform(-5.0, 5.0, (1000, n))
        before = red.deviation_many(pts)
        after = red.deviation_many(pwl.map_points(pts))
        err = np.abs(after - red.value * before) / (1.0 + np.abs(before))
        assert err.max() <= 1e-10
        validated += 1
    _report(capsys, 1, "deviation identity on random maps", t0, 5.0)


def test_criterion_2_adjugate_identities(capsys):
    # 200 random matrices per identity, sizes 2-5, relative error 1e-10:
    # adj(A) A = det(A) I, the rank-one update determinant formula, and the
    # rank-one factorization of adj(lam I - A) at a simple eigenvalue.
    t0 = time.perf_counter()
    rng = np.random.default_rng(13)
    for k in range(200):
        n = (2, 3, 4, 5)[k % 4]
        a = rng.standard_normal((n, n))
        lhs = adjugate(a) @ a
        rhs = np.linalg.det(a) * np.eye(n)
        assert np.abs(lhs - rhs).max() <= 1e-10 * max(1.0, np.abs(lhs).max())
        q = rng.standard_normal(n)
        r = rng.standard_normal(n)
        left, right = det_lemma_sides(a, q, r)
        assert abs(left - right) <= 1e-10 * max(1.0, abs(left), abs(right))
    built = 0
    while built < 200:
        n = (2, 3, 4, 5)[built % 4]
        vals = rng.uniform(-2.0, 2.0, n)
        if np.min(np.abs(np.subtract.outer(vals, vals) + 10.0 * np.eye(n))) < 0.25:
            continue
        s = np.eye(n) + 0.3 * rng.standard_normal((n, n))
        if np.linalg.cond(s) > 50.0:
            continue
        a = s @ np.diag(vals) @ np.linalg.inv(s)
        for t in real_eigen(a).real:
            assert t.multiplicity == 1 and t.canonical
            b = adjugate(t.value * np.eye(n) - a)
            sing = np.linalg.svd(b, compute_uv=False)
            assert sing[1] <= 1e-10 * max(1.0, sing[0])
            outer = np.outer(t.right, t.left)
            assert np.abs(outer - b).max() <= 1e-10 * max(1.0, np.abs(b).max())
        built += 1
    _report(capsys, 2, "adjugate identities", t0, 5.0)


def test_criterion_3_reference_reduction(capsys):
    # The reference two-dimensional map reduces to the skew tent map with
    # slopes 2 and -1.5 at shared eigenvalue 0.2.
    t0 = time.perf_counter()
    red = detect_shared_eigenvalue(bcnf(SHARED_2D))
    assert red is not None
    assert abs(red.value - 0.2) <= 1e-12
    m_l, m_r = restrict_to_manifold(red).slopes()
    assert abs(m_l - 2.0) <= 1e-9
    assert abs(m_r + 1.5) <= 1e-9
    _report(capsys, 3, "reference reduction to skew tent", t0, 1.0)


def test_criterion_4_three_dimensional_family(capsys):
    # Tuning the left determinant to lam**3 - lam plants the right piece's
    # real eigenvalue in the left piece; the attractor then lies on the
    # invariant plane to within 1e-8.
    t0 = time.perf_counter()
    params = shared_3d_params()
    assert abs(params.dl - 0.18973854901443662) <= 1e-6
    pwl = bcnf(params)
    red = detect_shared_eigenvalue(pwl)
    assert red is not None
    assert red.transversal
    cloud = attractor(pwl, default_x0(pwl))
    assert not cloud.escaped
    assert np.abs(red.manifold.distances(cloud.points)).max() <= 1e-8
    _report(capsys, 4, "three-dimensional shared family", t0, 5.0)


def test_criterion_5_singular_piece_collapse(capsys):
    # A singular piece sends its whole half-space onto the image plane in
    # one step, in dimensions 2 and 3.
    t0 = time.perf_counter()
    rng = np.random.default_rng(17)
    for params in (FLAT_LEFT_2D, FLAT_LEFT_3D):
        pwl = bcnf(params)
        plane = zero_eig_reduction(pwl)
        for _ in range(1000):
            x = rng.uniform(-4.0, 4.0, pwl.n)
            x[0] = -abs(x[0]) - 1e-9
            y = pwl(x)
            assert abs(plane.distances(y[None])[0]) <= 1e-10
    _report(capsys, 5, "singular piece plane collapse", t0, 2.0)


def test_criterion_6_induced_map_expands(capsys):
    # 2000 samples across the induced-map attractor interval: every branch
    # of the one-dimensional return map has slope magnitude above one.
    t0 = time.perf_counter()
    pwl = bcnf(FLAT_LEFT_2D)
    plane = zero_eig_reduction(pwl)
    chart = plane_chart(plane)
    cloud = attractor(pwl, default_x0(pwl))
    on_plane = np.abs(plane.distances(cloud.points)) <= 1e-9 * (
        1.0 + np.linalg.norm(cloud.points, axis=1)
    )
    assert on_plane.sum() > 100
    coords = chart.project_many(cloud.points[on_plane])[:, 0]
    grid = np.linspace(coords.min(), coords.max(), 2000)[:, None]
    samples = sample_induced(pwl, plane, grid, chart=chart)
    items = list(samples)
    assert all(s.status == "ok" for s in items)
    checked = 0
    for s0, s1 in zip(items, items[1:]):
        if s0.itinerary != s1.itinerary:
            continue
        slope = (s1.image[0] - s0.image[0]) / (s1.point[0] - s0.point[0])
        assert abs(slope) > 1.0
        checked += 1
    assert checked > 1900
    _report(capsys, 6, "induced return map expands", t0, 10.0)


def test_criterion_7_transversality_dichotomy(capsys):
    # When the invariant plane is parallel to the switching plane the two
    # pieces share their entire spectrum; generic constructions stay
    # transversal.
    t0 = time.perf_counter()
    rng = np.random.default_rng(19)
    for k in range(20):
        n = (2, 3, 4)[k % 3]
        lam = rng.uniform(-0.8, 0.8)
        a_r = rng.standard_normal((n, n))
        a_r[0, :] = 0.0
        a_r[0, 0] = lam
        p = rng.standard_normal(n)
        p[0] = 0.0
        c = np.zeros(n)
        c[0] = 1.0
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a_r = q.T @ a_r @ q
        a_l = a_r - np.outer(q.T @ p, q.T @ c)
        ev_l = np.linalg.eigvals(a_l)
        ev_r = np.linalg.eigvals(a_r)
        cost = np.abs(ev_l[:, None] - ev_r[None, :])
        rows, cols = linear_sum_assignment(cost)
        assert cost[rows, cols].max() <= 1e-8
    generic = 0
    attempts = 0
    while generic < 20:
        attempts += 1
        assert attempts < 200
        pwl = _engineered_shared(rng, (2, 3, 4)[generic % 3])
        try:
            red = detect_shared_eigenvalue(pwl)
        except HypothesisViolated:
            continue
        if red is None:
            continue
        assert red.transversal
        generic += 1
    _report(capsys, 7, "transversality dichotomy", t0, 5.0)


def test_criterion_8_scan_refinement(capsys):
    # Halving the parameter step across a bounded family keeps every cloud
    # finite and does not increase the largest consecutive cloud distance.
    t0 = time.perf_counter()
    maxima = []
    for count in (5, 9):
        result = scan(SHARED_2D, "tl", np.linspace(2.1, 2.3, count))
        assert all(e is None for e in result.errors)
        for cloud in result.clouds:
            assert cloud is not None and not cloud.escaped
        assert all(np.isfinite(d) for d in result.consecutive_hausdorff)
        maxima.append(max(result.consecutive_hausdorff))
    assert maxima[1] <= maxima[0] + 1e-12
    _report(capsys, 8, "scan refinement", t0, 30.0)


def test_criterion_9_unit_modulus(capsys):
    # Unit-circle eigenvalues classify as SN, PD or NS with resonance
    # flagged at the third- and fourth-root angles.
    t0 = time.perf_counter()
    cases = [
        (BcnfParams(dim=2, tl=2.2, dl=0.4, tr=1.5, dr=0.5), "SN", None, False),
        (BcnfParams(dim=2, tl=2.2, dl=0.4, tr=-1.7, dr=0.7), "PD", None, False),
        (BcnfParams(dim=2, tl=2.2, dl=0.4, tr=0.0, dr=1.0), "NS", np.pi / 2, True),
        (
            BcnfParams(dim=2, tl=2.2, dl=0.4, tr=-1.0, dr=1.0),
            "NS",
            2.0 * np.pi / 3.0,
            True,
        ),
        (BcnfParams(dim=2, tl=2.2, dl=0.4, tr=1.0, dr=1.0), "NS", np.pi / 3, False),
    ]
    for params, kind, theta, resonant in cases:
        reports = classify_unit_modulus(bcnf(params))
        assert len(reports) == 1
        rep = reports[0]
        assert rep.side == "R"
        assert rep.kind == kind
        if theta is None:
            assert rep.theta is None
        else:
            assert abs(rep.theta - theta) <= 1e-9
        assert rep.resonant == resonant
    assert classify_unit_modulus(bcnf(SHARED_2D)) == []
    _report(capsys, 9, "unit-modulus classification", t0, 1.0)


def test_criterion_10_cli_round_trip(capsys, tmp_path):
    # The command line reproduces the library numbers exactly and a dumped
    # config reruns to byte-identical output.
    t0 = time.perf_counter()
    args = ["--dim", "2", "--tl", "2.2", "--dl", "0.4", "--tr", "-1.3",
            "--dr", "-0.3"]
    out1 = tmp_path / "a.json"
    cfg = tmp_path / "run.ini"
    assert main(["analyze", *args, "--dump-config", str(cfg),
                 "--out", str(out1)]) == 0
    report = json.loads(out1.read_text())
    shared = report["shared_eigenvalue"]
    red = detect_shared_eigenvalue(bcnf(SHARED_2D))
    assert shared["value"] == red.value
    assert abs(shared["value"] - 0.2) <= 1e-12
    slopes = shared["restricted"]["slopes"]
    assert abs(slopes[0] - 2.0) <= 1e-9
    assert abs(slopes[1] + 1.5) <= 1e-9
    out2 = tmp_path / "b.json"
    assert main(["analyze", "--config", str(cfg), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    _report(capsys, 10, "command-line round trip", t0, 10.0)
