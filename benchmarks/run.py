"""Benchmark of edpflow: time to a verified result, and per-layer timings from a traced run.

One workload per run::

    python3 benchmarks/run.py --workload edb_refinement --seed 0 --seconds 36 --trace 0

Each iteration runs in a fresh interpreter (``worker.py``) and is checked
for correctness.  Iterations repeat until the next one would end after
``--seconds``, with at least one.  The run prints each metric by name with
its unit, and as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` the
end-to-end metrics (medians over iterations), with ``--trace 1`` the
per-layer metrics of traced iterations, alternated with untraced ones so the
tracing overhead is measured in the same run.

All workloads, untraced and traced, plus the shipped default experiments,
with the machine description, written to a report file::

    python3 benchmarks/run.py --all --seconds 36 --out .bench_work/BENCH_head.json

Exit code 0 when a result was printed, 2 when the program could not even be
set up (nothing is printed then).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(HERE))

from tracing import METRIC_UNITS, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
MIN_SETUP_SAMPLES = 5
# a run must end within 180 s even if a worker hangs
RUN_LIMIT_S = 170


class SetupFailed(RuntimeError):
    pass


def _child(workload, seed, mode, index, deadline):
    """Run one worker process to completion (or ``deadline``) and return its result dict."""
    out = WORK / f"result-{os.getpid()}-{index}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode, str(out)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL)
    try:
        proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        pass
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    try:
        return json.loads(out.read_text())
    except (OSError, ValueError):
        return {"ok": False, "problems": [f"worker exited with code {proc.returncode}"]}
    finally:
        out.unlink(missing_ok=True)


def measure(workload, seed, seconds, traced):
    """Iterations of one workload; returns (iterations, setup samples, environment)."""
    WORK.mkdir(exist_ok=True)
    deadline = time.perf_counter() + RUN_LIMIT_S
    counter = iter(range(1 << 30))
    warm = _child(workload, seed, "setup", next(counter), deadline)  # fills caches, compiles .pyc
    if not warm["ok"]:
        raise SetupFailed("\n".join(warm["problems"]))
    start = time.perf_counter()
    iterations = []
    durations = []
    modes = ("traced", "run") if traced else ("run",)
    while True:
        mode = modes[len(iterations) % len(modes)]
        t0 = time.perf_counter()
        res = _child(workload, seed, mode, next(counter), deadline)
        durations.append(time.perf_counter() - t0)
        res["mode"] = mode
        iterations.append(res)
        done_all_modes = len(iterations) >= len(modes)
        if done_all_modes and time.perf_counter() - start + statistics.median(durations) > seconds:
            break
    setups = [r["setup_s"] for r in iterations if "setup_s" in r]
    while len(setups) < MIN_SETUP_SAMPLES:
        res = _child(workload, seed, "setup", next(counter), deadline)
        if not res["ok"]:
            iterations.append(dict(res, mode="setup"))
            break
        setups.append(res["setup_s"])
    return iterations, setups, warm["environment"]


def _median(values):
    return statistics.median(values) if values else math.nan


def summarize(iterations, setups, traced):
    """The result object: correctness counts and the metrics of the requested kind."""
    attempted = len(iterations)
    failed = sum(not r["ok"] for r in iterations)
    measured = [r for r in iterations if "wall_s" in r]
    good = [r for r in measured if r["ok"]] or measured
    runs = [r for r in good if r["mode"] == "run"]
    metrics = {}
    if traced:
        per_run = [layer_metrics(r["spans"]) for r in good if r["mode"] == "traced"]
        for key, unit in METRIC_UNITS.items():
            metrics[key] = {"value": _median([m[key] for m in per_run]), "unit": unit}
        traced_wall = _median([r["wall_s"] for r in good if r["mode"] == "traced"])
        plain_wall = _median([r["wall_s"] for r in runs])
        metrics["trace.overhead_pct"] = {
            "value": 100.0 * (traced_wall - plain_wall) / plain_wall, "unit": "%"}
    else:
        for key in ("wall_s", "cpu_s", "peak_rss_mb"):
            metrics[key] = {"value": _median([r[key] for r in runs]), "unit": END_TO_END_UNITS[key]}
        metrics["setup_s"] = {"value": _median(setups), "unit": "s"}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def _print_human(workload, result, environment, iterations):
    print(f"# workload {workload}: {result['attempted']} attempted, {result['failed']} failed, "
          f"error_rate {result['failed'] / result['attempted']:.4f} (ratio)")
    print("# environment " + json.dumps(environment, sort_keys=True))
    for r in iterations:
        for problem in r["problems"]:
            print(f"# problem ({r['mode']}): {problem.strip()}")
    for mode in ("run", "traced"):
        walls = [f"{r['wall_s']:.4g}" for r in iterations if r["mode"] == mode and "wall_s" in r]
        if walls:
            print(f"# {mode} wall_s per iteration ({len(walls)} samples): {' '.join(walls)}")
    for key, m in result["metrics"].items():
        print(f"{key} = {m['value']:.6g} {m['unit']}")


def run_one(args):
    try:
        iterations, setups, env = measure(args.workload, args.seed, args.seconds, args.trace == 1)
    except SetupFailed as exc:
        print(f"edpflow could not be set up:\n{exc}", file=sys.stderr)
        return 2
    result = summarize(iterations, setups, args.trace == 1)
    _print_human(args.workload, result, env, iterations)
    print(json.dumps(result))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=WORKLOADS)
    which.add_argument("--all", action="store_true", help="every workload, written to --out")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="report file of --all")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.all:
        import report

        return report.main(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
