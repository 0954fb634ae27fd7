"""Benchmark harness for pwldyn.

    python3 bench/run.py --workload {scan,census,reduce,cli} --seed N \
        --seconds S --trace {0,1} [--size {full,tiny}]

Run from the root of a checkout: the package is imported from ``src/``
there, never from an installed copy.  With ``--trace 0`` the harness times
closed-loop batches of the workload's jobs for ``--seconds`` seconds (at
least three batches) and reports the end-to-end metrics.  With ``--trace 1``
it runs a fixed number of batches untraced and then traced, and reports the
per-layer metrics from the traced pass.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it is ``{"detail": ...}`` with the output digest, the run environment
and the workload's own throughput names.  See ``bench/README.md``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "batch_s": "s",
}

CLI_SUBCOMMANDS = ("analyze", "orbit", "portrait", "restrict", "induced", "scan")
CENSUS_DIMS = (2, 3, 4, 6, 8)


def _per_layer_units() -> dict[str, str]:
    units = {
        "analysis.attractor.s": "s",
        "analysis.attractor.calls": "count",
        "analysis.attractor.iterates": "count",
        "analysis.attractor.iterates_per_s": "1/s",
        "analysis.attractor.escaped": "count",
        "analysis.hausdorff.s": "s",
        "analysis.hausdorff.calls": "count",
        "analysis.hausdorff.point_pairs": "count",
        "analysis.hausdorff.pairs_per_s": "1/s",
        "linalg.real_eigen.s": "s",
        "linalg.real_eigen.calls": "count",
    }
    for n in CENSUS_DIMS:
        units[f"linalg.real_eigen.s_per_call.n{n}"] = "s"
    units.update({
        "pwlmap.validate_continuity.s": "s",
        "pwlmap.fixed_points.s": "s",
        "reduction.classify_unit_modulus.s": "s",
        "reduction.classify_unit_modulus.reports": "count",
        "reduction.zero_eig_reduction.s": "s",
        "reduction.zero_eig_reduction.calls": "count",
        "reduction.zero_eig_reduction.singular": "count",
        "reduction.detect_shared_eigenvalue.s": "s",
        "reduction.detect_shared_eigenvalue.calls": "count",
        "reduction.detect_shared_eigenvalue.found": "count",
        "reduction.detect_shared_eigenvalue.hypothesis_violated": "count",
        "census.planted_found_ratio": "ratio",
        "reduction.sample_induced.s": "s",
        "reduction.sample_induced.samples": "count",
        "reduction.sample_induced.ok": "count",
        "reduction.sample_induced.no_return": "count",
        "reduction.sample_induced.escaped": "count",
        "reduction.sample_induced.non_finite": "count",
        "reduction.sample_induced.return_steps": "count",
        "reduction.sample_induced.max_return_time": "count",
        "reduction.reduced_orbit.s": "s",
        "reduction.reduced_orbit.iterates": "count",
        "reduction.reduced_orbit.iterates_per_s": "1/s",
        "reduction.restrict_to_manifold.s": "s",
        "reduction.ReducedPwlMap.call.s": "s",
        "reduction.ReducedPwlMap.call.points": "count",
        "cli.interpreter_start_s": "s",
        "cli.import_s": "s",
    })
    for sub in CLI_SUBCOMMANDS:
        units[f"cli.{sub}.p50_s"] = "s"
        units[f"cli.{sub}.inprocess_s"] = "s"
        units[f"cli.{sub}.output_bytes"] = "bytes"
    units["trace.overhead_frac"] = "ratio"
    return units


PER_LAYER = _per_layer_units()


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("scan", "census", "reduce", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: small inputs that only exercise the code paths")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_package():
    """Import pwldyn from this checkout's ``src``; exit 2 when it is absent."""
    if not (SRC / "pwldyn" / "__init__.py").is_file():
        print(f"error: no package sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import pwldyn

    if Path(pwldyn.__file__).resolve().parent != SRC / "pwldyn":
        print(f"error: imported pwldyn from {pwldyn.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return pwldyn


def environment(pwldyn) -> dict:
    import numpy as np
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        try:
            res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            sha = res.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the layout of numpy's build report is not stable
        blas = None
    lines = 0
    for path in sorted((SRC / "pwldyn").glob("*.py")):
        with open(path, encoding="utf-8") as fh:
            lines += sum(1 for line in fh if line.strip())
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "pwldyn": pwldyn.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")},
        "source_lines": lines,
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# running batches


class Ledger:
    """Jobs attempted and failed, with the first failure messages kept."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.extend(problems[:2])


def run_batch(wl, tr, ledger: Ledger, reference: list[str] | None, cal=None):
    """Run every job once.  Returns each job's time (None if it raised), its
    calibrated time (given a ``speed.Calibrator``), work, digest and raw
    output.  A job fails when it raises, fails its checks, or
    (given ``reference``, the first batch's digests) changes its output.  The
    first batch (no reference) also goes through the workload's whole-batch
    verification."""
    from workloads import Digest

    times: list[float | None] = []
    works: list[dict] = []
    digests: list[str] = []
    outputs: list = []
    problems: list[list[str]] = []
    scaled: dict[int, float] = {}
    for i, job in enumerate(wl.jobs):
        with tr.job(f"job.{job.kind}"):
            t0 = time.perf_counter()
            try:
                out = wl.run(job, tr)
            except Exception as exc:  # any undocumented exception is a failed job
                out = None
                error = f"{job.name}: {type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
        outputs.append(out)
        if out is None:
            times.append(None)
            works.append({})
            digests.append("")
            problems.append([error])
            continue
        times.append(dt)
        if cal is not None:
            cal.add(i, dt, scaled)
        works.append(wl.work(job, out))
        found = wl.check(job, out)
        dg = Digest()
        wl.digest(job, out, dg)
        digests.append(dg.hexdigest())
        if reference is not None and digests[-1] != reference[i]:
            found.append(f"{job.name}: output differs from the first batch")
        problems.append(found)
    if reference is None:
        for i, found in wl.verify_first_batch(outputs).items():
            problems[i].extend(found)
    if cal is not None:
        cal.flush(scaled)
    for found in problems:
        ledger.record(found)
    return times, [scaled.get(i) for i in range(len(times))], works, digests, outputs


def combined_digest(digests: list[str]) -> str:
    import hashlib

    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def setup_probes(args, count: int) -> list[tuple[float, float]]:
    """Wall times of fresh processes that import, build the inputs and warm
    up: raw, and calibrated.  Each probe reports how long its inputs and
    warm-up took and its own kernel yardstick; that part is calibrated by the
    kernel, the rest (start-up and imports) by the import yardstick read
    between the probes."""
    from speed import IMPORT_REFERENCE_S, KERNEL_REFERENCE_S, import_time

    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-probe"]
    before = import_time()
    out = []
    for _ in range(count):
        t0 = time.perf_counter()
        res = subprocess.run(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True,
                             text=True, timeout=170)
        wall = time.perf_counter() - t0
        if res.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({res.returncode}): "
                               f"{res.stderr.strip()[-500:]}")
        after = import_time()
        work, kernel = (float(v) for v in res.stdout.split())
        out.append((wall, (wall - work) * IMPORT_REFERENCE_S / (0.5 * (before + after))
                    + work * KERNEL_REFERENCE_S / kernel))
        before = after
    return out


def tail(values: list[float]) -> tuple[float | None, float | None, int]:
    """Highest percentile of a ladder with at least ten samples beyond it."""
    xs = sorted(values)
    n = len(xs)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        k = math.ceil(pct * n / 100.0)  # rank of the percentile
        if k >= 1 and n - k >= 10:
            return pct, xs[k - 1], n - k
    return None, None, 0


def rate(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def workload_rates(name: str, jobs, job_s: list[float], works: list[dict]) -> dict:
    """The workload's own throughput names, from each job's calibrated time."""
    def per_s(unit, kind=None):
        mine = [i for i, job in enumerate(jobs) if kind in (None, job.kind)]
        return rate(sum(works[i].get(unit, 0) for i in mine), sum(job_s[i] for i in mine))

    if name == "scan":
        return {"scan_values_per_s": (per_s("values"), "values/s")}
    if name == "census":
        return {"census_maps_per_s": (per_s("maps"), "maps/s")}
    if name == "reduce":
        return {
            "induced_samples_per_s": (per_s("samples", "induced"), "samples/s"),
            "reduced_iterates_per_s": (per_s("iterates", "restricted"), "iterates/s"),
        }
    return {}


# ---------------------------------------------------------------------------
# the two kinds of run


def measure(args, wl, ledger: Ledger, detail: dict) -> dict:
    """Untraced closed loop for ``--seconds``; returns the end-to-end metrics.

    Every job time is calibrated (``speed.py``).  ``batch_s`` adds up each
    job's median calibrated time over the batches of the run; the wall-clock
    figures go to the detail record.
    """
    from spans import NullTracer
    from speed import Calibrator

    tr = NullTracer()
    cal = Calibrator.for_processes() if args.workload == "cli" else Calibrator.in_process()
    t_start = time.perf_counter()
    walls: list[list[float | None]] = []
    scaled: list[list[float | None]] = []
    works: list[dict] = []
    reference = None
    cli_rss = 0
    while True:
        times, ctimes, batch_works, digests, outputs = run_batch(wl, tr, ledger, reference, cal)
        if reference is None:
            reference = digests
            works = batch_works
            detail["digest"] = combined_digest(digests)
        walls.append(times)
        scaled.append(ctimes)
        if args.workload == "cli":
            cli_rss = max([cli_rss] + [out["rss_kb"] for out in outputs if out is not None])
        if len(walls) >= wl.size["min_batches"] and time.perf_counter() - t_start >= args.seconds:
            break
    job_s = [statistics.median([r[i] for r in scaled if r[i] is not None] or [0.0])
             for i in range(len(wl.jobs))]
    wall_sums = [sum(t for t in r if t is not None) for r in walls]
    detail["batches"] = len(walls)
    detail["wall"] = {
        "batch_s_median": statistics.median(wall_sums),
        "batch_s_best": sum(min((r[i] for r in walls if r[i] is not None), default=0.0)
                            for i in range(len(wl.jobs))),
        "yardstick_s_median": statistics.median(cal.readings),
    }
    if args.workload == "cli":
        peak_kb = cli_rss
        calls = [t for r in scaled for t in r if t is not None]
        pct, value, beyond = tail(calls)
        detail["workload_metrics"] = {
            "cli_call_p50_s": (statistics.median(calls), "s"),
            "cli_call_tail_s": (value, "s"),
        }
        detail["cli_call_tail"] = {"percentile": pct, "calls_beyond": beyond,
                                   "calls": len(calls)}
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        detail["workload_metrics"] = workload_rates(args.workload, wl.jobs, job_s, works)
    return {"peak_rss_mb": peak_kb / 1024.0, "batch_s": sum(job_s)}


def traced(args, wl, ledger: Ledger, detail: dict) -> dict:
    """A fixed number of batches untraced, then traced; per-layer metrics."""
    from spans import NullTracer, Tracer

    batches = wl.size["trace_batches"][args.workload]
    null = NullTracer()
    t_plain = 0.0
    reference = None
    for _ in range(batches):
        times, _, _, digests, _ = run_batch(wl, null, ledger, reference)
        if reference is None:
            reference = digests
        t_plain += sum(t for t in times if t is not None)
    tr = Tracer()
    t_traced = 0.0
    out_bytes: dict[str, int] = {}
    for b in range(batches):
        times, _, _, digests, outputs = run_batch(wl, tr, ledger, reference)
        t_traced += sum(t for t in times if t is not None)
        if b == 0:
            detail["digest"] = combined_digest(digests)
            if args.workload == "cli":
                for job, out in zip(wl.jobs, outputs):
                    if out is not None:
                        out_bytes[job.kind] = out_bytes.get(job.kind, 0) + len(out["bytes"])
    detail["digest_untraced"] = combined_digest(reference)
    if detail["digest"] != detail["digest_untraced"]:
        ledger.failed += 1
        ledger.messages.append("traced outputs differ from the untraced outputs")
    m = layer_metrics(tr)
    m["trace.overhead_frac"] = t_traced / t_plain - 1.0 if t_plain > 0 else 0.0
    if args.workload == "cli":
        m.update(cli_layer_metrics(wl, tr, ledger, out_bytes))
    BUILD.mkdir(exist_ok=True)
    trace_path = BUILD / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tr.write(trace_path)
    detail["trace_file"] = str(trace_path.relative_to(ROOT))
    detail["spans"] = len(tr.spans)
    return m


def layer_metrics(tr) -> dict:
    selfs = tr.self_times()
    calls = tr.calls()
    counts = tr.counts
    m = {name: 0.0 for name in PER_LAYER}

    def s(name):
        return selfs.get(name, 0.0)

    for fn in ("analysis.attractor", "analysis.hausdorff", "reduction.zero_eig_reduction",
               "reduction.detect_shared_eigenvalue"):
        m[f"{fn}.s"] = s(fn)
        m[f"{fn}.calls"] = calls[fn]
    for fn in ("pwlmap.validate_continuity", "pwlmap.fixed_points",
               "reduction.classify_unit_modulus", "reduction.sample_induced",
               "reduction.reduced_orbit", "reduction.restrict_to_manifold",
               "reduction.ReducedPwlMap.call"):
        m[f"{fn}.s"] = s(fn)
    for name in PER_LAYER:
        if PER_LAYER[name] == "count" and name in counts:
            m[name] = counts[name]
    m["reduction.sample_induced.max_return_time"] = tr.maxima.get(
        "reduction.sample_induced.max_return_time", 0)
    m["analysis.attractor.iterates_per_s"] = rate(
        counts["analysis.attractor.iterates"], s("analysis.attractor"))
    m["analysis.hausdorff.pairs_per_s"] = rate(
        counts["analysis.hausdorff.point_pairs"], s("analysis.hausdorff"))
    m["reduction.reduced_orbit.iterates_per_s"] = rate(
        counts["reduction.reduced_orbit.iterates"], s("reduction.reduced_orbit"))
    eig_s = eig_calls = 0
    for n in CENSUS_DIMS:
        name = f"linalg.real_eigen/n{n}"
        eig_s += s(name)
        eig_calls += calls[name]
        m[f"linalg.real_eigen.s_per_call.n{n}"] = rate(s(name), calls[name])
    m["linalg.real_eigen.s"] = eig_s
    m["linalg.real_eigen.calls"] = eig_calls
    m["census.planted_found_ratio"] = rate(counts["census.planted_found"], counts["census.planted"])
    return m


def cli_layer_metrics(wl, tr, ledger: Ledger, out_bytes: dict) -> dict:
    """Per-subcommand call medians, in-process times and the start-up split."""
    m = {}
    for job in wl.jobs:
        code = wl.run_inprocess(job, tr)
        ledger.record([] if code == 0 else [f"{job.name}: in-process exit {code}"])
    for sub in CLI_SUBCOMMANDS:
        walls = tr.durations(f"cli.{sub}")
        inproc = tr.durations(f"cli.{sub}.inprocess")
        m[f"cli.{sub}.p50_s"] = statistics.median(walls) if walls else 0.0
        m[f"cli.{sub}.inprocess_s"] = statistics.median(inproc) if inproc else 0.0
        m[f"cli.{sub}.output_bytes"] = out_bytes.get(sub, 0)
    starts, imports = [], []
    code = ("import time; t = time.perf_counter(); import pwldyn; "
            "print(time.perf_counter() - t)")
    for _ in range(wl.size["start_probes"]):
        with tr.span("cli.interpreter_start"):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "pass"], env=wl.env, check=True,
                           stdin=subprocess.DEVNULL, timeout=60)
            starts.append(time.perf_counter() - t0)
        with tr.span("cli.import"):
            res = subprocess.run([sys.executable, "-c", code], env=wl.env, check=True,
                                 stdin=subprocess.DEVNULL, capture_output=True, text=True,
                                 timeout=60)
            imports.append(float(res.stdout))
    m["cli.interpreter_start_s"] = statistics.median(starts)
    m["cli.import_s"] = statistics.median(imports)
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    pwldyn = import_package()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads
    from spans import NullTracer

    BUILD.mkdir(exist_ok=True)
    workdir = BUILD / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.setup_probe:
            from speed import kernel_time

            before = kernel_time()
            t0 = time.perf_counter()
            wl = workloads.WORKLOADS[args.workload](args.seed, args.size, str(workdir))
            wl.warm_up(NullTracer())
            work = time.perf_counter() - t0
            if args.workload == "cli":  # its warm-up is a pwldyn process: start-up work
                work = 0.0
            print(work, 0.5 * (before + kernel_time()))
            return 0
        size = workloads.SIZES[args.size]
        probes = []
        if not args.trace:
            probes = setup_probes(args, size["setup_probes"])
        wl = workloads.WORKLOADS[args.workload](args.seed, args.size, str(workdir))
        wl.warm_up(NullTracer())
        ledger = Ledger()
        detail: dict = {"workload": args.workload, "seed": args.seed, "size": args.size,
                        "trace": args.trace}
        if args.trace:
            values = traced(args, wl, ledger, detail)
            units = PER_LAYER
        else:
            values = measure(args, wl, ledger, detail)
            values["setup_s"] = statistics.median(c for _, c in probes)
            detail["wall"]["setup_s_median"] = statistics.median(w for w, _ in probes)
            units = END_TO_END
        detail["error_rate"] = rate(ledger.failed, ledger.attempted)
        detail["failures"] = ledger.messages
        detail["environment"] = environment(pwldyn)
        if "workload_metrics" in detail:
            detail["workload_metrics"] = {
                k: {"value": v, "unit": u} for k, (v, u) in detail["workload_metrics"].items()
            }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
        print(json.dumps({"detail": detail}))
        print(json.dumps({
            "correct": ledger.failed == 0,
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
