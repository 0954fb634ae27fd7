"""Command-line front end.

Subcommands: ``analyze`` (spectral and reduction report as JSON), ``orbit``
and ``portrait`` (orbit samples as CSV), ``restrict`` (invariant-plane
restriction and chart orbit), ``induced`` (return-map samples on the
zero-eigenvalue plane) and ``scan`` (one-parameter attractor sweep).

Exit codes: 0 success, 2 invalid input, 3 runtime dynamics failure,
4 reduction hypothesis failure.
"""
from __future__ import annotations

import argparse
import configparser
import csv
import io
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field, fields, replace
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .analysis import attractor, default_x0, scan
from .errors import (
    DynamicsError,
    IllConditioned,
    NoReturn,
    NotContinuous,
    NotSingular,
    PwldynError,
    ReductionError,
    UnsupportedDimension,
)
from .linalg import Spectrum, real_eigen
from .pwlmap import (
    ESCAPE_RADIUS,
    BcnfParams,
    PwlMap,
    bcnf,
    fixed_points,
    orbit,
    validate_continuity,
)
from .reduction import (
    classify_unit_modulus,
    detect_shared_eigenvalue,
    plane_chart,
    reduced_orbit,
    restrict_to_manifold,
    sample_induced,
    zero_eig_reduction,
)

__all__ = ["RunConfig", "main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DYNAMICS = 3
EXIT_REDUCTION = 4

# The normal-form source of a map; the other source is a matrix file.
_MAP_KEYS = ("dim", "tl", "dl", "sl", "tr", "dr", "sr")

# Largest sampling grid accepted, checked before anything is allocated.
MAX_GRID_SAMPLES = 10**6


def _float_list(text: str) -> tuple[float, ...]:
    items = [s for s in text.split(",") if s.strip()]
    if not items:
        raise ValueError("empty list")
    return tuple(float(s) for s in items)


# How each parser's values are written to an INI file; floats at full precision.
_TEXT = {
    float: lambda v: repr(float(v)),
    _float_list: lambda v: ",".join(repr(float(x)) for x in v),
}


def _setting(section: str, parse, default=None, **flag):
    """A run setting: INI section and key, text parser and command-line flag."""
    return field(default=default, metadata={"section": section, "parse": parse, "flag": flag})


@dataclass
class RunConfig:
    """Effective settings of one invocation; serializable to an INI file.

    Each field is one setting: flag ``--a-b`` is key ``a_b`` of its section.
    """

    dim: int | None = _setting("map", int, choices=("2", "3"), help="normal-form dimension")
    tl: float | None = _setting("map", float, help="left trace")
    dl: float | None = _setting("map", float, help="left determinant")
    sl: float | None = _setting("map", float, help="left second trace (dimension 3)")
    tr: float | None = _setting("map", float, help="right trace")
    dr: float | None = _setting("map", float, help="right determinant")
    sr: float | None = _setting("map", float, help="right second trace (dimension 3)")
    matrix_file: str | None = _setting(
        "map", str, metavar="FILE", help="explicit map file: n, then rows of A_L, A_R, b, c"
    )
    transient: int = _setting("orbit", int, 1000, help="iterates to discard (default 1000)")
    keep: int = _setting("orbit", int, 3000, help="iterates to keep (default 3000)")
    escape_radius: float = _setting(
        "orbit", float, ESCAPE_RADIUS, help=f"divergence radius (default {ESCAPE_RADIUS:g})"
    )
    x0: tuple[float, ...] | None = _setting(
        "orbit", _float_list, metavar="V1,V2,...",
        help="initial point (default: b nudged off the axis)",
    )
    tol: float = _setting(
        "tolerances", float, 1e-9, help="detection/membership tolerance (default 1e-9)"
    )
    grid: str | None = _setting("sampling", str, metavar="LO:HI:N[,LO:HI:N]", help="sampling grid")
    param: str | None = _setting("sampling", str, choices=_MAP_KEYS[1:], help="scan parameter")
    values: tuple[float, ...] | None = _setting(
        "sampling", _float_list, metavar="V1,V2,...", help="scan parameter values"
    )
    format: str | None = _setting("output", str, choices=("csv", "json"), help="output format")


def _parse_setting(f, text: str):
    try:
        return f.metadata["parse"](text)
    except ValueError as exc:
        raise ValueError(f"could not parse {f.name}: {exc}") from None


# ---------------------------------------------------------------------------
# config file round trip


def dump_config(cfg: RunConfig) -> str:
    sections: dict[str, dict[str, str]] = {}
    for f in fields(RunConfig):
        keys = sections.setdefault(f.metadata["section"], {})
        value = getattr(cfg, f.name)
        if value is not None:
            keys[f.name] = _TEXT.get(f.metadata["parse"], str)(value)
    parser = configparser.ConfigParser()
    parser.read_dict(sections)
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def load_config(path: str) -> RunConfig:
    parser = configparser.ConfigParser()
    with open(path, encoding="utf-8") as fh:
        parser.read_file(fh)
    known = {(f.metadata["section"], f.name): f for f in fields(RunConfig)}
    if parser.defaults():
        raise ValueError(f"unknown section [{parser.default_section}] in {path}")
    cfg = RunConfig()
    for section in parser.sections():
        if section not in {s for s, _ in known}:
            raise ValueError(f"unknown section [{section}] in {path}")
        for key, text in parser[section].items():
            if (section, key) not in known:
                raise ValueError(f"unknown key {key!r} in section [{section}] of {path}")
            f = known[section, key]
            setattr(cfg, f.name, _parse_setting(f, text))
    return cfg


def resolve_config(args: argparse.Namespace, command: str) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    inline = {
        f.name: _parse_setting(f, getattr(args, f.name))
        for f in fields(RunConfig)
        if getattr(args, f.name, None) is not None
    }
    for given in (vars(cfg), inline):
        if given.get("matrix_file") is not None and any(
            given.get(key) is not None for key in _MAP_KEYS
        ):
            raise ValueError("give either normal-form coefficients or a matrix file, not both")
    # an inline map source replaces the other source of the config file
    if "matrix_file" in inline:
        inline.update(dict.fromkeys(_MAP_KEYS))
    elif not inline.keys().isdisjoint(_MAP_KEYS):
        inline["matrix_file"] = None
    cfg = replace(cfg, **inline)
    if cfg.format is None:
        cfg.format = COMMANDS[command].format
    if cfg.format not in ("csv", "json"):
        raise ValueError(f"unknown output format {cfg.format!r}")
    if not (math.isfinite(cfg.tol) and cfg.tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {cfg.tol!r}")
    if not cfg.escape_radius > 0.0:
        raise ValueError(f"escape radius must be positive, got {cfg.escape_radius!r}")
    return cfg


# ---------------------------------------------------------------------------
# map construction


def read_matrix_file(path: str) -> PwlMap:
    """Plain-text map file: first the size n, then row-wise A_L, A_R, b, c."""
    with open(path, encoding="utf-8") as fh:
        tokens = fh.read().split()
    if not tokens:
        raise ValueError(f"matrix file {path!r} is empty")
    try:
        n = int(tokens[0])
        data = [float(t) for t in tokens[1:]]
    except ValueError as exc:
        raise ValueError(f"matrix file {path!r} contains non-numeric data") from exc
    need = 2 * n * n + 2 * n
    if n < 1 or len(data) != need:
        raise ValueError(
            f"matrix file {path!r} must hold {need} numbers after the size, got {len(data)}"
        )
    a_l = np.array(data[: n * n]).reshape(n, n)
    a_r = np.array(data[n * n : 2 * n * n]).reshape(n, n)
    b = np.array(data[2 * n * n : 2 * n * n + n])
    c = np.array(data[2 * n * n + n :])
    return PwlMap(a_l, a_r, b, c)


def build_bcnf_params(cfg: RunConfig) -> BcnfParams:
    if cfg.matrix_file is not None:
        raise ValueError("this command needs normal-form coefficients, not a matrix file")
    if cfg.dim is None:
        raise ValueError(
            "no map specification: give --dim with coefficients, --matrix-file, or --config"
        )
    required = ["tl", "dl", "tr", "dr"] + (["sl", "sr"] if cfg.dim == 3 else [])
    missing = [k for k in required if getattr(cfg, k) is None]
    if missing:
        raise ValueError(f"missing normal-form coefficients: {', '.join(missing)}")
    return BcnfParams(
        dim=cfg.dim, tl=cfg.tl, dl=cfg.dl, tr=cfg.tr, dr=cfg.dr, sl=cfg.sl, sr=cfg.sr
    )


def build_map(cfg: RunConfig) -> PwlMap:
    if cfg.matrix_file is not None:
        return read_matrix_file(cfg.matrix_file)
    return bcnf(build_bcnf_params(cfg))


# ---------------------------------------------------------------------------
# output helpers


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".pwldyn-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit_json(payload, out: str | None) -> None:
    _write_text(json.dumps(payload, indent=2, default=_json_default) + "\n", out)


def _emit_csv(header: list[str], rows: list, out: str | None) -> None:
    """Header and rows of Python scalars in one pass; None is written empty."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _write_text(buf.getvalue(), out)


def _floats(arr) -> list:
    return [float(v) for v in np.asarray(arr).ravel()]


# ---------------------------------------------------------------------------
# report builders


def _spectrum_dict(spec: Spectrum) -> dict:
    return {
        "real": [
            {
                "value": t.value,
                "multiplicity": t.multiplicity,
                "canonical": t.canonical,
                "left": _floats(t.left),
                "right": _floats(t.right),
            }
            for t in spec.real
        ],
        "complex_pairs": [
            {
                "real": p.real,
                "imag": p.imag,
                "modulus": p.modulus,
                "multiplicity": p.multiplicity,
            }
            for p in spec.complex_pairs
        ],
    }


def _fixed_point_dict(info) -> dict:
    if info.point is None:
        return {"point": None, "admissible": None, "borderline": False, "reason": info.reason}
    return {
        "point": _floats(info.point),
        "admissible": info.admissible,
        "borderline": info.borderline,
    }


def _plane_dict(plane) -> dict:
    return {
        "normal": _floats(plane.normal),
        "base_point": _floats(plane.base_point),
        "offset": plane.offset,
    }


def _restricted_dict(rmap) -> dict:
    payload = {
        "dimension": rmap.dimension,
        "matrix_left": rmap.matrix_left.tolist(),
        "offset_left": _floats(rmap.offset_left),
        "matrix_right": rmap.matrix_right.tolist(),
        "offset_right": _floats(rmap.offset_right),
        "switch_normal": _floats(rmap.switch_normal),
        "switch_offset": rmap.switch_offset,
        "chart": {
            "base_point": _floats(rmap.chart.base),
            "basis": rmap.chart.basis.tolist(),
        },
    }
    if rmap.dimension == 1:
        payload["slopes"] = list(rmap.slopes())
    return payload


def _shared_dict(red) -> dict:
    return {
        "value": red.value,
        "other_shared": list(red.other_shared),
        "left_eigenvector": _floats(red.left),
        "right_eigenvector": _floats(red.right),
        "offset": red.offset,
        "manifold": _plane_dict(red.manifold),
        "transversal": red.transversal,
        "restricted": None if red.restricted is None else _restricted_dict(red.restricted),
    }


# ---------------------------------------------------------------------------
# subcommands


def cmd_analyze(cfg: RunConfig, out: str | None) -> int:
    pwl = build_map(cfg)
    report: dict = {
        "map": {
            "n": pwl.n,
            "A_L": pwl.A_L.tolist(),
            "A_R": pwl.A_R.tolist(),
            "b": _floats(pwl.b),
            "c": _floats(pwl.c),
        }
    }
    try:
        report["continuity"] = {"p": _floats(validate_continuity(pwl))}
    except NotContinuous as exc:
        report["continuity"] = {"error": f"NotContinuous: {exc}"}
    report["eigenvalues"] = {
        "L": _spectrum_dict(real_eigen(pwl.A_L)),
        "R": _spectrum_dict(real_eigen(pwl.A_R)),
    }
    fp = fixed_points(pwl)
    report["fixed_points"] = {
        "right": _fixed_point_dict(fp.right),
        "left": _fixed_point_dict(fp.left),
    }
    try:
        red = detect_shared_eigenvalue(pwl, cfg.tol)
        report["shared_eigenvalue"] = None if red is None else _shared_dict(red)
    except PwldynError as exc:
        report["shared_eigenvalue"] = {"error": f"{type(exc).__name__}: {exc}"}
    try:
        plane = zero_eig_reduction(pwl, cfg.tol)
        report["zero_eigenvalue"] = _plane_dict(plane)
    except NotSingular:
        report["zero_eigenvalue"] = None
    except PwldynError as exc:
        report["zero_eigenvalue"] = {"error": f"{type(exc).__name__}: {exc}"}
    report["unit_modulus"] = [
        {
            "side": r.side,
            "kind": r.kind,
            "value": r.value,
            "theta": r.theta,
            "resonant": r.resonant,
        }
        for r in classify_unit_modulus(pwl, cfg.tol)
    ]
    _emit_json(report, out)
    return EXIT_OK


def cmd_orbit(cfg: RunConfig, out: str | None, portrait: bool) -> int:
    pwl = build_map(cfg)
    x0 = np.asarray(cfg.x0, dtype=float) if cfg.x0 is not None else default_x0(pwl)
    if portrait:
        orb = orbit(pwl, x0, cfg.transient, cfg.keep, cfg.escape_radius)
    else:
        orb = orbit(pwl, x0, 0, cfg.transient + cfg.keep, cfg.escape_radius)
    if orb.points.shape[0] == 0:
        print(f"error: orbit escaped at step {orb.escape_index} before any retained point",
              file=sys.stderr)
        return EXIT_DYNAMICS
    coords = [f"x{i + 1}" for i in range(pwl.n)]
    if cfg.format == "json":
        payload = {
            "points": orb.points.tolist(),
            "itinerary": orb.itinerary.tolist(),
            "escaped": orb.escaped,
            "escape_index": orb.escape_index,
            "transient_discarded": orb.transient_discarded,
        }
        if not portrait:
            payload["first_index"] = 0
        _emit_json(payload, out)
        return EXIT_OK
    rows = _point_rows(orb)
    if portrait:
        _emit_csv(coords + ["symbol"], rows, out)
    else:
        _emit_csv(["k"] + coords + ["symbol"], [[k, *row] for k, row in enumerate(rows)], out)
    return EXIT_OK


def _point_rows(orb) -> list[list]:
    """One ``[x1, ..., xn, symbol]`` row per retained orbit point."""
    rows = orb.points.tolist()
    for row, sym in zip(rows, orb.itinerary.tolist()):
        row.append(sym)
    return rows


def cmd_restrict(cfg: RunConfig, out: str | None) -> int:
    grid = None if cfg.grid is None else _parse_grid(cfg.grid, 1)
    pwl = build_map(cfg)
    red = detect_shared_eigenvalue(pwl, cfg.tol)
    if red is None:
        raise ReductionError("no eigenvalue is shared by the two pieces at this tolerance")
    rmap = restrict_to_manifold(red)
    if grid is not None and rmap.dimension != 1:
        raise ValueError(f"--grid needs a one-dimensional restriction, not {rmap.dimension}-D")
    x0 = np.asarray(cfg.x0, dtype=float) if cfg.x0 is not None else default_x0(pwl)
    orb = reduced_orbit(rmap, rmap.chart.project(x0), cfg.transient, cfg.keep, cfg.escape_radius)
    if grid is None and rmap.dimension == 1 and orb.points.shape[0] > 0:
        lo = float(orb.points.min())
        hi = float(orb.points.max())
        pad = 0.05 * (hi - lo) + 1e-9
        grid = _grid_points([(lo - pad, hi + pad, 512)])
    cobweb = None
    if grid is not None:
        cobweb = {"x": grid[:, 0].tolist(), "fx": rmap(grid)[:, 0].tolist()}
    if cfg.format == "json":
        payload = {
            "shared": _shared_dict(red),
            "reduced": _restricted_dict(rmap),
            "orbit": {
                "points": orb.points.tolist(),
                "itinerary": orb.itinerary.tolist(),
                "escaped": orb.escaped,
            },
            "cobweb": cobweb,
        }
        _emit_json(payload, out)
        return EXIT_OK
    if cobweb is not None:
        _emit_csv(["x", "fx"], list(zip(cobweb["x"], cobweb["fx"])), out)
    else:
        coords = [f"xi{i + 1}" for i in range(rmap.dimension)]
        _emit_csv(coords + ["symbol"], _point_rows(orb), out)
    return EXIT_OK


def _parse_grid_axis(spec: str) -> tuple[float, float, int]:
    bits = spec.split(":")
    if len(bits) != 3:
        raise ValueError(f"grid axis must be lo:hi:count, got {spec!r}")
    lo, hi, count = float(bits[0]), float(bits[1]), int(bits[2])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"grid bounds must be finite, got {spec!r}")
    if count < 1:
        raise ValueError("grid count must be at least 1")
    _check_grid_size(count)
    return lo, hi, count


def _check_grid_size(total: int) -> None:
    if total > MAX_GRID_SAMPLES:
        raise ValueError(f"grid has {total} samples, more than the limit {MAX_GRID_SAMPLES}")


def _parse_grid(spec: str, dims: int) -> np.ndarray:
    parts = spec.split(",")
    if len(parts) != dims:
        raise ValueError(f"grid needs {dims} axis specs lo:hi:count, got {len(parts)}")
    specs = [_parse_grid_axis(part) for part in parts]
    _check_grid_size(math.prod(count for _, _, count in specs))
    return _grid_points(specs)


def _grid_points(specs) -> np.ndarray:
    """Points of the product grid of ``(lo, hi, count)`` axes, one per row."""
    axes = [np.linspace(lo, hi, count) for lo, hi, count in specs]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.ravel() for m in mesh])


def _default_induced_grid(pwl, plane, chart, cfg: RunConfig) -> np.ndarray:
    cloud = attractor(pwl, default_x0(pwl), cfg.transient, cfg.keep, cfg.escape_radius)
    mask = np.abs(plane.distances(cloud.points)) <= cfg.tol * (
        1.0 + np.linalg.norm(cloud.points, axis=1)
    )
    if not np.any(mask):
        raise NoReturn("the sampled attractor never visits the section; give --grid explicitly")
    coords = chart.project_many(cloud.points[mask])
    lo = coords.min(axis=0)
    hi = coords.max(axis=0)
    pad = 0.02 * (hi - lo) + 1e-9
    dims = coords.shape[1]
    count = 500 if dims == 1 else 40
    return _grid_points([(lo[d] - pad[d], hi[d] + pad[d], count) for d in range(dims)])


def cmd_induced(cfg: RunConfig, out: str | None) -> int:
    pwl = build_map(cfg)
    if pwl.n < 2:
        raise UnsupportedDimension(
            "induced needs dimension 2 or more: the section of a 1-D map is a point"
        )
    plane = zero_eig_reduction(pwl, cfg.tol)
    chart = plane_chart(plane)
    if cfg.grid is not None:
        grid = _parse_grid(cfg.grid, pwl.n - 1)
    else:
        grid = _default_induced_grid(pwl, plane, chart, cfg)
    samples = sample_induced(pwl, plane, grid, chart=chart, escape_radius=cfg.escape_radius,
                             membership_tol=cfg.tol)
    if all(s.status != "ok" for s in samples):
        print("error: every grid sample failed to return to the section", file=sys.stderr)
        return EXIT_DYNAMICS
    d = pwl.n - 1
    if cfg.format == "json":
        payload = {
            "plane": _plane_dict(plane),
            "chart": {"base_point": _floats(chart.base), "basis": chart.basis.tolist()},
            "samples": [
                {
                    "point": _floats(s.point),
                    "image": None if s.image is None else _floats(s.image),
                    "return_time": s.return_time,
                    "itinerary": None if s.itinerary is None else list(s.itinerary),
                    "status": s.status,
                }
                for s in samples
            ],
        }
        _emit_json(payload, out)
        return EXIT_OK
    header = (
        [f"in{i + 1}" for i in range(d)]
        + [f"out{i + 1}" for i in range(d)]
        + ["j", "status"]
    )
    failed = [None] * d
    rows = [
        [*s.point.tolist(), *(failed if s.image is None else s.image.tolist()),
         s.return_time, s.status]
        for s in samples
    ]
    _emit_csv(header, rows, out)
    return EXIT_OK


def cmd_scan(cfg: RunConfig, out: str | None) -> int:
    base = build_bcnf_params(cfg)
    if cfg.param is None:
        raise ValueError("scan needs --param")
    if not cfg.values:
        raise ValueError("scan needs a non-empty --values list")
    x0 = np.asarray(cfg.x0, dtype=float) if cfg.x0 is not None else None
    result = scan(
        base,
        cfg.param,
        cfg.values,
        x0=x0,
        n_transient=cfg.transient,
        n_keep=cfg.keep,
        escape_radius=cfg.escape_radius,
    )
    n = base.dim
    rows = []
    for i, (v, pwl, cloud) in enumerate(zip(result.values, result.maps, result.clouds)):
        plane_stat = float("nan")
        try:
            red = detect_shared_eigenvalue(pwl, cfg.tol)
        except PwldynError:
            red = None
        if red is not None and cloud is not None and cloud.points.shape[0] > 0:
            plane_stat = float(np.max(np.abs(red.manifold.distances(cloud.points))))
        if cloud is None or cloud.points.shape[0] == 0:
            size = 0 if cloud is not None else None
            bbox = [float("nan")] * (2 * n)
            escaped = cloud.escaped if cloud is not None else None
        else:
            size = cloud.points.shape[0]
            bbox = _floats(cloud.points.min(axis=0)) + _floats(cloud.points.max(axis=0))
            escaped = cloud.escaped
        prev = result.consecutive_hausdorff[i - 1] if i > 0 else float("nan")
        rows.append(
            [v, size, escaped, *bbox, plane_stat, prev, result.errors[i]]
        )
    header = (
        ["value", "cloud_size", "escaped"]
        + [f"min_x{i + 1}" for i in range(n)]
        + [f"max_x{i + 1}" for i in range(n)]
        + ["plane_dist_max", "hausdorff_prev", "error"]
    )
    if cfg.format == "json":
        payload = {
            "parameter": result.parameter,
            "values": list(result.values),
            "consecutive_hausdorff": list(result.consecutive_hausdorff),
            "rows": [dict(zip(header, row)) for row in rows],
        }
        _emit_json(payload, out)
        return EXIT_OK
    _emit_csv(header, rows, out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


class Command(NamedTuple):
    run: Callable[[RunConfig, str | None], int]
    format: str  # default output format
    help: str
    settings: tuple[str, ...]  # the RunConfig fields it reads; only these are flags


_MAP_SETTINGS = (*_MAP_KEYS, "matrix_file")
_ORBIT_SETTINGS = ("transient", "keep", "escape_radius", "x0")

COMMANDS = {
    "analyze": Command(cmd_analyze, "json", "spectral, fixed-point and reduction report (JSON)",
                       (*_MAP_SETTINGS, "tol")),
    "orbit": Command(partial(cmd_orbit, portrait=False), "csv",
                     "orbit samples with iterate index (CSV)",
                     (*_MAP_SETTINGS, *_ORBIT_SETTINGS, "format")),
    "portrait": Command(partial(cmd_orbit, portrait=True), "csv",
                        "post-transient orbit samples without index (CSV)",
                        (*_MAP_SETTINGS, *_ORBIT_SETTINGS, "format")),
    "restrict": Command(cmd_restrict, "json",
                        "restriction to the shared-eigenvalue invariant plane",
                        (*_MAP_SETTINGS, *_ORBIT_SETTINGS, "tol", "grid", "format")),
    "induced": Command(cmd_induced, "csv", "induced return map on the zero-eigenvalue plane",
                       (*_MAP_SETTINGS, "transient", "keep", "escape_radius", "tol", "grid",
                        "format")),
    "scan": Command(cmd_scan, "csv", "one-parameter attractor sweep",
                    (*_MAP_SETTINGS, *_ORBIT_SETTINGS, "tol", "param", "values", "format")),
}


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors are one line: ``error: <message>``."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pwldyn",
        description="Analyze continuous piecewise-linear maps near border collisions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        cmd = sub.add_parser(name, help=command.help)
        spec = cmd.add_argument_group("map specification")
        spec.add_argument("--config", metavar="FILE", help="read settings from an INI file")
        run = cmd.add_argument_group("run settings")
        output = cmd.add_argument_group("output")
        groups = {"map": spec, "output": output}
        # every setting is taken as text and parsed in resolve_config
        for f in fields(RunConfig):
            if f.name in command.settings:
                groups.get(f.metadata["section"], run).add_argument(
                    "--" + f.name.replace("_", "-"), dest=f.name, **f.metadata["flag"]
                )
        output.add_argument("--out", metavar="FILE", help="output path (default: stdout)")
        output.add_argument("--dump-config", dest="dump_config", metavar="FILE",
                            help="write the effective config before running")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args, args.command)
        if args.dump_config:
            _write_text(dump_config(cfg), args.dump_config)
        return COMMANDS[args.command].run(cfg, args.out)
    except (ValueError, UnsupportedDimension, NotContinuous, OSError,
            configparser.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DynamicsError, IllConditioned) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DYNAMICS
    except ReductionError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_REDUCTION


if __name__ == "__main__":
    sys.exit(main())
