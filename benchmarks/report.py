"""``run.py --all``: every workload, untraced and traced, and the shipped defaults.

Writes one JSON report with the machine and environment, the end-to-end and
per-layer metrics of each workload, the wall times of the five
``edpflow export-defaults`` experiments as shipped (with ``EDPFLOW_THREADS``
unset and set to 1), and the quantities of the ROADMAP baseline next to the
values measured here.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"

# ROADMAP "Baseline measurements" (2-core machine, Python 3.11, numpy 2.4, scipy 1.17);
# its default-experiment times are those with EDPFLOW_THREADS=1
ROADMAP_BASELINE = {
    "solve_eps_system_us_per_step_n160": 244.0,
    "solve_eps_system_s_n160": 1.22,
    "dissipation_functional_ms_per_interval_n160": 0.87,
    "dissipation_functional_s_n160": 4.3,
    "newton_iters_per_interval_n160": 1.00,
    "solve_effective_s_n160": 0.39,
    "default_wall_s.mixed_diffusion_fit": 1.30,
    "default_wall_s.eps_sweep": 1.96,
    "default_wall_s.recovery_study": 0.13,
    "default_wall_s.edb_refinement": 9.4,
}
# a HEAD value this far from the ROADMAP value, either way, is noted as disagreeing
AGREE_FACTOR = 1.25


def _time_defaults():
    """Child process: run each shipped default config once and print its wall time."""
    sys.path.insert(0, str(ROOT / "src"))
    from edpflow.cli import default_configs, load_config, run_experiment

    walls = {}
    for name, doc in default_configs().items():
        cfg = load_config(dict(doc, output_dir=str(WORK / "defaults" / name)))
        t0 = time.perf_counter()
        passed = bool(run_experiment(cfg).passed)
        walls[name] = {"wall_s": time.perf_counter() - t0, "passed": passed}
    shutil.rmtree(WORK / "defaults", ignore_errors=True)
    print(json.dumps(walls))


def _defaults(threads):
    env = dict(os.environ)
    env.pop("EDPFLOW_THREADS", None)
    if threads is not None:
        env["EDPFLOW_THREADS"] = str(threads)
    out = subprocess.run([sys.executable, __file__, "--defaults"], cwd=ROOT, env=env,
                         capture_output=True, text=True, check=True, timeout=170)
    return json.loads(out.stdout.strip().splitlines()[-1])


def _edb_n160(spans):
    """Per-call numbers of the n = 160 level of a traced ``edb_refinement`` run."""
    out = {}
    for name, key in (("solver.solve_eps_system", "solve_eps_system"),
                      ("solver.solve_effective", "solve_effective"),
                      ("dissipation.dissipation_functional", "dissipation_functional")):
        for _, _, span_name, start, end, info in spans:
            if span_name == name and info[1] == 160:
                out[f"{key}_s_n160"] = end - start
                units = info[0]
                if key == "solve_eps_system":
                    out["solve_eps_system_us_per_step_n160"] = 1e6 * (end - start) / units
                if key == "dissipation_functional":
                    out["dissipation_functional_ms_per_interval_n160"] = 1e3 * (end - start) / units
    newton = [s[5][0] for s in spans
              if s[2] == "dissipation.damped_newton_max" and s[5][2] == 320]
    if newton:
        out["newton_iters_per_interval_n160"] = sum(newton) / len(newton)
    return out


def main(args):
    from run import SetupFailed, measure, summarize
    from workloads import WORKLOADS

    report = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    head = {}
    for workload in WORKLOADS:
        entry = {}
        for traced in (False, True):
            try:
                iterations, setups, env = measure(workload, args.seed, args.seconds, traced)
            except SetupFailed as exc:
                print(f"edpflow could not be set up:\n{exc}", file=sys.stderr)
                return 2
            result = summarize(iterations, setups, traced)
            result["error_rate"] = result["failed"] / result["attempted"]
            result["problems"] = [p for r in iterations for p in r["problems"]]
            entry["per_layer" if traced else "end_to_end"] = result
            if traced and workload == "edb_refinement":
                spans = next(r["spans"] for r in iterations if r["mode"] == "traced" and r["ok"])
                head.update(_edb_n160(spans))
            report["environment"] = env
            print(f"{workload} {'traced' if traced else 'untraced'}: "
                  f"error_rate {result['error_rate']:.4f} ratio; "
                  + "; ".join(f"{k} {m['value']:.6g} {m['unit']}"
                              for k, m in result["metrics"].items()), flush=True)
        report["workloads"][workload] = entry
    report["default_experiments"] = {"EDPFLOW_THREADS unset": _defaults(None),
                                     "EDPFLOW_THREADS=1": _defaults(1)}
    # the ROADMAP default-experiment times that are compared were taken with one thread
    for name, r in report["default_experiments"]["EDPFLOW_THREADS=1"].items():
        head[f"default_wall_s.{name}"] = r["wall_s"]
    edb_overhead = report["workloads"]["edb_refinement"]["per_layer"]["metrics"]["trace.overhead_pct"]
    comparison = {}
    for key, roadmap in ROADMAP_BASELINE.items():
        value = head.get(key)
        note = "not measured"
        if value is not None:
            ratio = value / roadmap
            note = "agrees" if 1 / AGREE_FACTOR <= ratio <= AGREE_FACTOR else "disagrees"
        source = ("one shipped-default run, EDPFLOW_THREADS=1" if key.startswith("default")
                  else "n = 160 level of a traced edb_refinement iteration; tracing adds "
                       f"{edb_overhead['value']:.1f} % to that workload's wall time")
        comparison[key] = {"roadmap": roadmap, "head": value, "note": note, "source": source}
    report["roadmap_baseline"] = comparison
    for key, c in comparison.items():
        print(f"baseline {key}: ROADMAP {c['roadmap']}, here {c['head']} ({c['note']})")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__" and sys.argv[1:] == ["--defaults"]:
    _time_defaults()
