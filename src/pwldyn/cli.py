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
import re
import stat
import sys
import tempfile
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .analysis import attractor, default_x0, scan
from .errors import (
    DynamicsError,
    IllConditioned,
    NoReturn,
    NotContinuous,
    ReductionError,
    UnsupportedDimension,
    _record,
)
from .pwlmap import (ESCAPE_RADIUS, NORMAL_FORM, TOL, BcnfParams, PwlMap, _check_lengths, bcnf,
                     orbit, plane_chart, sample_induced)
from .reduction import analyze, detect_shared_eigenvalue, restrict_to_manifold, zero_eig_reduction

__all__ = ["RunConfig", "main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DYNAMICS = 3
EXIT_REDUCTION = 4

# The normal-form source of a map; the other source is a matrix file.
_MAP_KEYS = ("dim", "tl", "dl", "sl", "tr", "dr", "sr")

# Largest sampling grid accepted, checked before anything is allocated.
MAX_GRID_SAMPLES = 10**6
_FLOAT_MAX = float(np.finfo(float).max)


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

    dim: int | None = _setting("map", int, choices=tuple(map(str, NORMAL_FORM)),
                               help="normal-form dimension")
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
        "tolerances", float, TOL, help=f"detection/membership tolerance (default {TOL:g})"
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
    # a key the command does not read is ignored, so one file serves every command
    reads = COMMANDS[command].settings
    if cfg.format is None:
        cfg.format = COMMANDS[command].format
    if "format" in reads and cfg.format not in ("csv", "json"):
        raise ValueError(f"unknown output format {cfg.format!r}")
    if "tol" in reads and not (math.isfinite(cfg.tol) and cfg.tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {cfg.tol!r}")
    if "x0" in reads and cfg.x0 is not None and not all(map(math.isfinite, cfg.x0)):
        raise ValueError(f"x0 must be finite, got {','.join(map(repr, cfg.x0))}")
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
    return BcnfParams(**{key: getattr(cfg, key) for key in _MAP_KEYS})


def build_map(cfg: RunConfig) -> PwlMap:
    if cfg.matrix_file is not None:
        return read_matrix_file(cfg.matrix_file)
    return bcnf(build_bcnf_params(cfg))


# ---------------------------------------------------------------------------
# output helpers


def _write_text(text: str, out: str | None) -> None:
    """Write to stdout, or rename a temporary file to where ``open(out, "w")``
    would write: ``out``, or the file a symlink ``out`` resolves to, which a
    dangling one creates.  Errors name ``out``.  The file gets the mode
    ``open(out, "w")`` would leave: an existing file's own, else 0o666 less
    the umask."""
    if out is None:
        sys.stdout.write(text)
        return
    path = os.path.realpath(out)
    try:
        try:
            mode = stat.S_IMODE(os.stat(path).st_mode)
        except FileNotFoundError:
            umask = os.umask(0)  # the only way to read it: set it back at once
            os.umask(umask)
            mode = 0o666 & ~umask
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".pwldyn-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                os.chmod(tmp, mode)  # mkstemp makes it 0o600
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(f"cannot write {out}: {exc.strerror or exc}") from exc


def _json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _csv(header: list[str], rows: list) -> str:
    """Header and rows of Python scalars in one pass; None is written empty."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# report builders


def _fields_dict(value):
    """A library value as JSON data: a record as the dict of its fields by
    name, in their order, tuples and arrays as lists, recursively."""
    if is_dataclass(value):
        return {f.name: _fields_dict(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [_fields_dict(v) for v in value]
    return value.tolist() if isinstance(value, np.ndarray) else value


def _fixed_point_dict(info) -> dict:
    """The fields of a ``FixedPointInfo``, its reason only where it has one."""
    payload = _fields_dict(info)
    if info.reason is None:
        del payload["reason"]
    return payload


def _chart_dict(chart) -> dict:
    return {"base_point": chart.base.tolist(), "basis": chart.basis.tolist()}


def _restricted_dict(rmap) -> dict:
    payload = {"dimension": rmap.dimension, **_fields_dict(rmap), "chart": _chart_dict(rmap.chart)}
    if rmap.dimension == 1:
        payload["slopes"] = list(rmap.slopes())
    return payload


def _shared_dict(red) -> dict:
    return {
        "value": red.value,
        "other_shared": list(red.other_shared),
        "left_eigenvector": red.left.tolist(),
        "right_eigenvector": red.right.tolist(),
        "offset": red.offset,
        "manifold": _fields_dict(red.manifold),
        "transversal": red.transversal,
        "restricted": None if red.restricted is None else _restricted_dict(red.restricted),
    }


def _record_dict(value, to_dict):
    """``to_dict(value)``, ``{"error": value}`` for an error record, None for None."""
    if isinstance(value, str):
        return {"error": value}
    return None if value is None else to_dict(value)


# ---------------------------------------------------------------------------
# subcommands


def cmd_analyze(cfg: RunConfig) -> str:
    pwl = build_map(cfg)
    report = analyze(pwl, cfg.tol)
    return _json({
        "map": {"n": pwl.n, **_fields_dict(pwl)},
        "continuity": _record_dict(report.p, lambda p: {"p": p.tolist()}),
        "eigenvalues": {
            "L": _fields_dict(report.spectrum_left),
            "R": _fields_dict(report.spectrum_right),
        },
        "fixed_points": {
            "right": _fixed_point_dict(report.fixed_points.right),
            "left": _fixed_point_dict(report.fixed_points.left),
        },
        "shared_eigenvalue": _record_dict(report.shared, _shared_dict),
        "zero_eigenvalue": _record_dict(report.zero_plane, _fields_dict),
        "unit_modulus": [_fields_dict(r) for r in report.unit_modulus],
    })


class _Failed(Exception):
    """A run that ends without a result: exit 3 with this message."""


def _require_points(orb) -> None:
    if orb.points.shape[0] == 0:
        raise _Failed(f"orbit escaped at step {orb.escape_index} before any retained point")


def _x0(cfg: RunConfig, pwl: PwlMap) -> np.ndarray | tuple[float, ...]:
    """The start ``--x0``, else the default start of ``pwl``."""
    return default_x0(pwl) if cfg.x0 is None else cfg.x0


def cmd_orbit(cfg: RunConfig, portrait: bool) -> str:
    pwl = build_map(cfg)
    _check_lengths(cfg.transient, cfg.keep)
    transient, keep = (cfg.transient, cfg.keep) if portrait else (0, cfg.transient + cfg.keep)
    orb = orbit(pwl, _x0(cfg, pwl), transient, keep, cfg.escape_radius)
    _require_points(orb)
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
        return _json(payload)
    rows = _point_rows(orb)
    if portrait:
        return _csv(coords + ["symbol"], rows)
    return _csv(["k"] + coords + ["symbol"], [[k, *row] for k, row in enumerate(rows)])


def _point_rows(orb) -> list[list]:
    """One ``[x1, ..., xn, symbol]`` row per retained orbit point."""
    rows = orb.points.tolist()
    for row, sym in zip(rows, orb.itinerary.tolist()):
        row.append(sym)
    return rows


def cmd_restrict(cfg: RunConfig) -> str:
    grid = None if cfg.grid is None else _parse_grid(cfg.grid, 1)
    pwl = build_map(cfg)
    red = detect_shared_eigenvalue(pwl, cfg.tol)
    if red is None:
        raise ReductionError("no eigenvalue is shared by the two pieces at this tolerance")
    rmap = restrict_to_manifold(red)
    if grid is not None and rmap.dimension != 1:
        raise ValueError(f"--grid needs a one-dimensional restriction, not {rmap.dimension}-D")
    # the CSV of an explicit grid is its cobweb alone, and needs no orbit
    if cfg.format == "json" or grid is None:
        orb = orbit(rmap, rmap.chart.project(_x0(cfg, pwl)), cfg.transient, cfg.keep,
                    cfg.escape_radius)
    if grid is None:
        _require_points(orb)  # an explicit grid's cobweb is a result without points
        if rmap.dimension == 1:
            grid = _box_grid(orb.points, 0.05, 512)
    cobweb = None if grid is None else {"x": grid[:, 0].tolist(), "fx": rmap(grid)[:, 0].tolist()}
    if cfg.format == "json":
        return _json({
            "shared": _shared_dict(red),
            "reduced": _restricted_dict(rmap),
            "orbit": {
                "points": orb.points.tolist(),
                "itinerary": orb.itinerary.tolist(),
                "escaped": orb.escaped,
            },
            "cobweb": cobweb,
        })
    if cobweb is not None:
        return _csv(["x", "fx"], list(zip(cobweb["x"], cobweb["fx"])))
    return _csv([f"xi{i + 1}" for i in range(rmap.dimension)] + ["symbol"], _point_rows(orb))


def _parse_grid_axis(spec: str) -> tuple[float, float, int]:
    bits = spec.split(":")
    if len(bits) != 3:
        raise ValueError(f"grid axis must be lo:hi:count, got {spec!r}")
    lo, hi, count = float(bits[0]), float(bits[1]), int(bits[2])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"grid bounds must be finite, got {spec!r}")
    if count < 1:
        raise ValueError("grid count must be at least 1")
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
    """Points of the product grid of ``(lo, hi, count)`` axes, one per row.
    Each axis is ``np.linspace(lo, hi, count)``, or twice the axis between
    ``lo / 2`` and ``hi / 2`` where ``hi - lo`` overflows."""
    axes = [np.linspace(lo, hi, count) if math.isfinite(hi - lo)
            else 2.0 * np.linspace(0.5 * lo, 0.5 * hi, count) for lo, hi, count in specs]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.ravel() for m in mesh])


def _box_grid(coords: np.ndarray, pad: float, count: int) -> np.ndarray:
    """Grid of ``count`` points per axis over the bounding box of the rows of
    ``coords``, widened on each side by ``pad`` times its width plus 1e-9
    and cut at the largest float."""
    specs = []
    for a, b in zip(coords.min(axis=0).tolist(), coords.max(axis=0).tolist()):
        # pad (b - a) bit for bit wherever that is finite: halving is exact
        # down to 2^-1021, and a width below that vanishes next to 1e-9
        margin = 2.0 * (pad * (0.5 * b - 0.5 * a)) + 1e-9
        specs.append((max(a - margin, -_FLOAT_MAX), min(b + margin, _FLOAT_MAX), count))
    return _grid_points(specs)


def _default_induced_grid(pwl, plane, chart, cfg: RunConfig) -> np.ndarray:
    """Grid over the bounding box of the attractor's points on the section,
    padded by 2%: 500 points in a 1-D chart, 40 per axis above.  Its size is
    checked before the attractor is stepped."""
    dims = pwl.n - 1
    count = 500 if dims == 1 else 40
    _check_grid_size(count**dims)
    cloud = attractor(pwl, default_x0(pwl), cfg.transient, cfg.keep, cfg.escape_radius)
    mask = plane.contains(cloud.points, cfg.tol)
    if not np.any(mask):
        raise NoReturn("the sampled attractor never visits the section; give --grid explicitly")
    return _box_grid(chart.project_many(cloud.points[mask]), 0.02, count)


def cmd_induced(cfg: RunConfig) -> str:
    pwl = build_map(cfg)
    if pwl.n < 2:
        raise UnsupportedDimension(
            "induced needs dimension 2 or more: the section of a 1-D map is a point"
        )
    plane = zero_eig_reduction(pwl, cfg.tol)
    chart = plane_chart(plane)
    grid = (_default_induced_grid(pwl, plane, chart, cfg) if cfg.grid is None
            else _parse_grid(cfg.grid, pwl.n - 1))
    samples = sample_induced(pwl, plane, grid, chart=chart, escape_radius=cfg.escape_radius,
                             membership_tol=cfg.tol)
    if not (samples.status == "ok").any():
        raise _Failed("every grid sample failed to return to the section")
    if cfg.format == "json":
        return _json({
            "plane": _fields_dict(plane),
            "chart": _chart_dict(chart),
            "samples": [_fields_dict(s) for s in samples],
        })
    d = pwl.n - 1
    header = (
        [f"in{i + 1}" for i in range(d)]
        + [f"out{i + 1}" for i in range(d)]
        + ["j", "status"]
    )
    failed = [None] * d
    rows = [
        [*s.point.tolist(), *(failed if s.image is None else s.image.tolist()), s.return_time,
         s.status]
        for s in samples
    ]
    return _csv(header, rows)


def cmd_scan(cfg: RunConfig) -> str:
    base = build_bcnf_params(cfg)
    if cfg.param is None:
        raise ValueError("scan needs --param")
    if not cfg.values:
        raise ValueError("scan needs a non-empty --values list")
    result = scan(base, cfg.param, cfg.values, x0=cfg.x0, n_transient=cfg.transient,
                  n_keep=cfg.keep, escape_radius=cfg.escape_radius)
    if all(result.errors):  # an escaped orbit is a result, not an error
        raise _Failed(f"the orbit failed at every value, first with {result.errors[0]}")
    n = base.dim
    rows = []
    for v, cloud, dist, prev, error in zip(
            result.values, result.clouds, result.plane_distances(cfg.tol),
            (float("nan"), *result.consecutive_hausdorff), result.errors):
        size = None if cloud is None else cloud.points.shape[0]
        if size:
            bbox = cloud.points.min(axis=0).tolist() + cloud.points.max(axis=0).tolist()
        else:
            bbox = [float("nan")] * (2 * n)
        rows.append([v, size, None if cloud is None else cloud.escaped, *bbox, dist, prev, error])
    header = (
        ["value", "cloud_size", "escaped"]
        + [f"min_x{i + 1}" for i in range(n)]
        + [f"max_x{i + 1}" for i in range(n)]
        + ["plane_dist_max", "hausdorff_prev", "error"]
    )
    if cfg.format == "json":
        return _json({
            "parameter": result.parameter,
            "values": list(result.values),
            "consecutive_hausdorff": list(result.consecutive_hausdorff),
            "rows": [dict(zip(header, row)) for row in rows],
        })
    return _csv(header, rows)


# ---------------------------------------------------------------------------
# argument parsing


class Command(NamedTuple):
    run: Callable[[RunConfig], str]  # the output text, or raises
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
    """Argument parser whose usage errors are one line: ``error: <message>``.

    No flag starts with a digit, ``.``, ``inf`` or ``nan``, so every word
    that starts with ``-`` and then a digit, ``-.`` and a digit, or ``-inf``
    or ``-nan`` in any case is a value: ``-2.5e-05``, ``-1,2``, ``-1:1:3``
    and ``-Infinity,1`` as well as argparse's own ``-1`` and ``-.5``.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

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
        _write_text(COMMANDS[args.command].run(cfg), args.out)
        return EXIT_OK
    except (ValueError, UnsupportedDimension, NotContinuous, OSError,
            configparser.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # settings too large for this machine: a usage error
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _Failed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DYNAMICS
    except (DynamicsError, IllConditioned, ReductionError) as exc:
        print(f"error: {_record(exc)}", file=sys.stderr)
        return EXIT_REDUCTION if isinstance(exc, ReductionError) else EXIT_DYNAMICS
