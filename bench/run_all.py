"""Run every workload once and print its metrics as a table.

    python3 bench/run_all.py [--seed N] [--seconds S] [--trace {0,1}]

Each workload runs as ``bench/run.py`` in its own process.  The table lists
every end-to-end metric (or, with ``--trace 1``, every per-layer metric that
is not zero) by name with its unit, the workload's own throughput names, and
``error_rate`` as failed over attempted jobs.  Exits 1 if any workload
reports a failed job.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="seconds per workload (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    status = 0
    for w in spec["workloads"]:
        cmd = [*spec["command"], "--workload", w["name"], "--seed", str(args.seed),
               "--seconds", str(seconds), "--trace", str(args.trace)]
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = res.stdout.strip().splitlines()
        if res.returncode != 0 or len(lines) < 2:
            print(f"{w['name']}: exit {res.returncode}\n{res.stderr.strip()}")
            status = 1
            continue
        detail = json.loads(lines[-2])["detail"]
        result = json.loads(lines[-1])
        rows = [(k, m["value"], m["unit"]) for k, m in result["metrics"].items()
                if not args.trace or m["value"]]
        rows += [(k, m["value"], m["unit"]) for k, m in detail.get("workload_metrics", {}).items()]
        rows.append(("error_rate", detail["error_rate"],
                     f"{result['failed']}/{result['attempted']} jobs"))
        print(f"== {w['name']}  (seed {args.seed}, digest {detail['digest'][:16]})")
        for name, value, unit in rows:
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"  {name:44s} {shown:>14s}  {unit}")
        for msg in detail["failures"]:
            print(f"  FAILED: {msg}")
        if result["failed"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
