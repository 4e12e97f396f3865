"""Self-tests of the benchmark: its correctness check, its counts, its declared metrics.

Run with ``python3 -m pytest -q benchmarks`` (about a minute; two tests run
the 12-second ``edb_refinement`` workload).
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _checked(workload, tmp_path, seed=0):
    inputs = workloads.make_inputs(workload, seed, tmp_path / workload)
    output = workloads.run(workload, workloads.setup(workload, inputs, tmp_path / workload))
    flags, values = workloads.observe(workload, output, tmp_path / workload, inputs)
    reference = json.loads((HERE / "reference.json").read_text())[workload]
    return flags, values, reference


def test_check_rejects_loosened_ascent(tmp_path, monkeypatch):
    import edpflow.cli

    loose = functools.partial(edpflow.cli.dissipation_functional, tol=1e-4)
    monkeypatch.setattr(edpflow.cli, "dissipation_functional", loose)
    flags, values, reference = _checked("edb_refinement", tmp_path)
    problems = workloads.check(flags, values, reference)
    assert any(p.startswith("fast_slow.L1.vel_react:") for p in problems), problems


def test_check_rejects_perturbed_output(tmp_path):
    flags, values, reference = _checked("network", tmp_path)
    assert workloads.check(flags, values, reference) == []

    value, scale = values["vel_diff"]
    perturbed = dict(values, vel_diff=(value * (1 + 1e-6), scale))
    problems = workloads.check(flags, perturbed, reference)
    assert len(problems) == 1 and problems[0].startswith("vel_diff:"), problems
    assert workloads.check(dict(flags, mass_conserved=False), values, reference) == [
        "flag mass_conserved is false"]
    missing = {k: v for k, v in values.items() if k != "vel_diff"}
    assert workloads.check(flags, missing, reference) == ["vel_diff: missing"]


def test_check_rejects_network_without_mass_conservation(tmp_path):
    import edpflow

    inputs = workloads.make_inputs("network", 0, tmp_path)
    traj, bd = workloads.run("network", workloads.setup("network", inputs, tmp_path))
    states = traj.states.copy()
    states[-1] *= 1 + 1e-9
    leaky = edpflow.Trajectory(traj.times, states, traj.fluxes)
    flags, _ = workloads.observe("network", (leaky, bd), tmp_path, inputs)
    assert not flags["mass_conserved"]
    assert not flags["continuity_equation"]


@pytest.mark.parametrize("workload", ["network", "edb_refinement"])
def test_counts_repeat_exactly(workload):
    deadline = time.perf_counter() + 170
    first, second = (run._child(workload, 0, "traced", i, deadline) for i in range(2))
    assert first["ok"] and second["ok"], first["problems"] + second["problems"]
    counts = [{k: tracing.layer_metrics(r["spans"])[k] for k in tracing.EXACT_COUNTS}
              for r in (first, second)]
    assert counts[0] == counts[1]
    layer = "multispecies" if workload == "network" else "dissipation"
    assert counts[0][f"{layer}.newton_iters_per_call"] >= 1.0


def test_seed_zero_is_the_shipped_config_and_other_seeds_stay_close(tmp_path):
    shipped = workloads.make_inputs("edb_refinement", 0, tmp_path)
    assert {k: v for k, v in shipped.items() if k != "output_dir"} == \
        workloads.SHIPPED["edb_refinement"]
    for seed in (1, 2, 3):
        doc = workloads.make_inputs("edb_refinement", seed, tmp_path)
        assert doc == workloads.make_inputs("edb_refinement", seed, tmp_path)
        assert 0.36 <= doc["initial"]["amplitude"] <= 0.44
        assert doc["initial"]["amplitude"] != 0.4
        assert workloads.make_inputs("trajectory_export", seed, tmp_path)["tilt"] == {"kind": "zero"}


def test_self_time_subtracts_the_union_of_children():
    spans = [
        [0, -1, "cli.run_experiment", 0.0, 10.0, None],
        [1, 0, "cli._parallel_map", 1.0, 5.0, None],
        [2, 1, "cli.sweep_member", 1.0, 4.0, None],
        [3, 1, "cli.sweep_member", 2.0, 5.0, None],
        [4, 2, "solver.solve_eps_system", 1.0, 3.0, (100, 160)],
    ]
    own = tracing.self_times(spans)
    assert own == {0: 6.0, 1: 0.0, 2: 1.0, 3: 3.0, 4: 2.0}
    metrics = tracing.layer_metrics(spans)
    assert metrics["cli.pool_overlap_s"] == 2.0
    assert metrics["solver.eps_step_us"] == 2e4
    # the two members overlap on different threads, so self times add up to
    # thread time (12), not to the 10 seconds of wall time
    assert metrics["cli.self_s"] + metrics["solver.self_s"] == 12.0


def test_benchmark_json_declares_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == dict(tracing.METRIC_UNITS, **{"trace.overhead_pct": "%"})
    assert set(tracing.layer_metrics([])) == set(tracing.METRIC_UNITS)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "network", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
