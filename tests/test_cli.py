import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from edpflow import (
    CoarseTrajectory,
    ConfigError,
    DecayFitError,
    DualAscentError,
    IntegrationError,
    SolverConfig,
    SpatialGrid,
    State,
    SystemParams,
    Tilt,
    coarse_grain_trajectory,
    default_configs,
    fit_decay_rate,
    load_config,
    manifold_split,
    run_experiment,
    solve_effective,
    solve_eps_system,
)
import edpflow
import edpflow.cli as cli_module
from edpflow.cli import _build_initial, _cosine_modes, _fit_mode_decay, main
from edpflow.core import _CSV_BLOCK_ROWS, _csv_windows, trajectory_to_csv
from edpflow.solver import _effective_solve, _eps_solve

from conftest import Windowed, cosine_tilt


def small_config(kind, outdir, **overrides):
    doc = dict(default_configs()[kind])
    doc["output_dir"] = str(outdir)
    doc.update(overrides)
    return doc


class TestConfigValidation:
    def test_defaults_all_valid(self, tmp_path):
        for name, doc in default_configs().items():
            doc = dict(doc)
            doc["output_dir"] = str(tmp_path / name)
            cfg = load_config(doc)
            assert cfg.experiment == name

    def test_empty_epsilons_rejected(self, tmp_path):
        doc = small_config("eps_sweep", tmp_path, epsilons=[])
        with pytest.raises(ConfigError, match="epsilons"):
            load_config(doc)

    def test_increasing_epsilons_rejected(self, tmp_path):
        doc = small_config("eps_sweep", tmp_path, epsilons=[1e-3, 1e-2])
        with pytest.raises(ConfigError, match="strictly decreasing"):
            load_config(doc)

    def test_missing_physical_params_rejected(self, tmp_path):
        doc = small_config("eps_sweep", tmp_path)
        del doc["params"]["alpha"]
        with pytest.raises(ConfigError, match="params"):
            load_config(doc)

    def test_unknown_keys_listed(self, tmp_path):
        doc = small_config("eps_sweep", tmp_path)
        doc["tipo"] = 1
        with pytest.raises(ConfigError, match="tipo"):
            load_config(doc)

    def test_missing_generator_file_rejected(self, tmp_path):
        doc = small_config("multispecies_check", tmp_path,
                           generator={"path": str(tmp_path / "nope.json")})
        with pytest.raises(ConfigError, match="does not exist"):
            load_config(doc)

    def test_bad_initial_spec_rejected(self, tmp_path):
        doc = small_config("eps_sweep", tmp_path,
                           initial={"kind": "off_manifold_cosine", "amplitude": 0.5,
                                    "fractions": [0.7, 0.7]})
        with pytest.raises(ConfigError, match="fractions"):
            load_config(doc)

    # each passed validation, or failed it untyped, and ran into a traceback,
    # a wrong result or a silently altered value
    @pytest.mark.parametrize("kind, key, value", [
        ("recovery_study", "lam", "abc"),
        ("recovery_study", "width_scale", "wide"),
        ("multispecies_check", "n_species", 2),
        ("multispecies_check", "n_species", 4.7),
        ("mixed_diffusion_fit", "write_trajectories", "false"),
        ("multispecies_check", "seed", True),
        ("multispecies_check", "generator", {"species": ["A", "B", "C"], "delta": [1, 1, 1]}),
        ("mixed_diffusion_fit", "initial", {"kind": "slow_manifold_cosine", "amplitude": 0}),
        ("mixed_diffusion_fit", "initial", {"kind": "slow_manifold_cosine", "amplitude": 1e-13}),
        ("eps_sweep", "epsilons", [True]),
        ("eps_sweep", "params", {"delta": [1.0, 2.0], "alpha": True, "beta": 3.0}),
        ("eps_sweep", "params", {"delta": [True, 2.0], "alpha": 1.0, "beta": 3.0}),
        ("eps_sweep", "params", {"delta": [1.0, 2.0], "alpha": 1.0, "beta": float("inf")}),
        ("edb_refinement", "tilt", {"kind": "cosine", "coefficients": [["a"], [-0.2]]}),
        ("edb_refinement", "tilt", {"kind": "cosine", "coefficients": [[0.3], [float("nan")]]}),
        ("eps_sweep", "solver", {"dt": 1e-4, "t_final": float("inf")}),
        ("eps_sweep", "solver", {"dt": True, "t_final": 2.0}),
        ("eps_sweep", "initial", {"kind": "off_manifold_cosine", "amplitude": False,
                                  "fractions": [0.55, 0.45]}),
        ("eps_sweep", "initial", {"kind": "off_manifold_cosine", "amplitude": 0.5,
                                  "fractions": [float("nan"), 0.45]}),
    ])
    def test_malformed_value_rejected_at_load(self, tmp_path, capsys, kind, key, value):
        doc = small_config(kind, tmp_path / "out", **{key: value})
        with pytest.raises(ConfigError, match=key):
            load_config(doc)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        for verb in ("validate", "run"):
            assert main([verb, str(path)]) == 2
            assert capsys.readouterr().out.startswith("config error: ")
        assert not (tmp_path / "out").exists()


class TestFitDecayRate:
    def test_exact_heat_mode(self):
        # analytic single-mode decay reproduces the coefficient to 1e-6
        n, delta = 50, 0.8
        x = (np.arange(n) + 0.5) / n
        times = np.linspace(0.0, 0.05, 21)
        states = 1 + 0.4 * np.exp(-delta * np.pi**2 * times)[:, None] * np.cos(np.pi * x)[None, :]
        traj = CoarseTrajectory(times, states)
        assert fit_decay_rate(traj) == pytest.approx(delta, abs=1e-6)

    def test_effective_solver_recovers_mixed_coefficient(self, params):
        n = 100
        x = (np.arange(n) + 0.5) / n
        hat0 = 1 + 0.4 * np.cos(np.pi * x)
        traj = solve_effective(hat0, params, Tilt.zero(n), SolverConfig(5e-5, 0.04))
        assert fit_decay_rate(traj) == pytest.approx(1.25, rel=2e-3)

    def test_degenerate_amplitude_rejected(self):
        traj = CoarseTrajectory(np.array([0.0, 0.1]), np.ones((2, 10)))
        with pytest.raises(DecayFitError, match="initial cosine content too small"):
            fit_decay_rate(traj)

    def test_decay_too_fast_to_fit_rejected(self):
        # the mode falls below 1e-12 of its start within the first step
        n = 10
        mode = np.cos(np.pi * (np.arange(n) + 0.5) / n)
        traj = CoarseTrajectory(np.array([0.0, 0.1, 0.2]), 1 + np.outer([0.5, 1e-14, 0.0], mode))
        with pytest.raises(DecayFitError, match="decay too fast to fit"):
            fit_decay_rate(traj)


def test_each_level_is_projected_on_its_own():
    # the shipped mixed_diffusion_fit solve at epsilon = 1e-2: a BLAS product
    # over all levels rounds most of them otherwise than a product of one
    doc = default_configs()["mixed_diffusion_fit"]
    n = doc["grid"]["n_cells"]
    grid, tilt = SpatialGrid(n), Tilt.zero(n)
    params = SystemParams(tuple(doc["params"]["delta"]), doc["params"]["alpha"],
                          doc["params"]["beta"], epsilon=1e-2)
    initial = _build_initial(doc["initial"], grid, params, tilt)
    states = solve_eps_system(initial, params, tilt, SolverConfig(**doc["solver"])).states
    modes = _cosine_modes(states)
    assert modes.shape == (1001,)
    alone = np.array([_cosine_modes(states[k:k + 1])[0] for k in range(modes.size)])
    assert alone.tobytes() == modes.tobytes()


class TestStreamedDecayFit:
    """The decay fit of a solve, read window by window, is that of the stored solve, bit for bit."""

    N_CELLS = 40
    CONFIG = SolverConfig(5e-4, 0.1, "strang_cn")  # 200 steps

    def _initial(self):
        n = self.N_CELLS
        params = SystemParams((1.0, 2.0), 1.0, 3.0, epsilon=1e-2)
        tilt = cosine_tilt(n, [[0.3], [-0.2]])
        hat0 = 1 + 0.5 * np.cos(np.pi * (np.arange(n) + 0.5) / n)
        return hat0, State(manifold_split(hat0, params, tilt)), params, tilt

    @pytest.mark.parametrize("window", ["one step", "three steps", "one block", "all steps"])
    def test_same_bits_as_the_stored_fit(self, tmp_path, window):
        steps, levels = self.CONFIG.n_steps, _CSV_BLOCK_ROWS // self.N_CELLS
        assert steps % 3 and 1 < levels < steps
        size = {"one step": 1, "three steps": 3, "one block": levels, "all steps": steps}[window]
        hat0, c0, params, tilt = self._initial()
        traj = solve_eps_system(c0, params, tilt, self.CONFIG)
        stored = fit_decay_rate(coarse_grain_trajectory(traj))
        streamed = fit_decay_rate(Windowed(_eps_solve(c0, params, tilt, self.CONFIG), size))
        assert streamed.hex() == stored.hex()
        # fitted while the CSV writer reads the same windows
        solve = Windowed(_eps_solve(c0, params, tilt, self.CONFIG), size)
        written = _fit_mode_decay(solve.times, _csv_windows(solve, tmp_path / "written.csv"))
        assert written.hex() == stored.hex()
        assert (tmp_path / "written.csv").read_bytes() == \
            trajectory_to_csv(traj, tmp_path / "stored.csv").read_bytes()
        stored = fit_decay_rate(solve_effective(hat0, params, tilt, self.CONFIG))
        streamed = fit_decay_rate(
            Windowed(_effective_solve(hat0, params, tilt, self.CONFIG), size))
        assert streamed.hex() == stored.hex()

    def test_stored_solved_and_written_fits_agree(self, tmp_path):
        # each read in the windows its reader chooses
        hat0, c0, params, tilt = self._initial()
        stored = fit_decay_rate(solve_effective(hat0, params, tilt, self.CONFIG)).hex()
        assert fit_decay_rate(_effective_solve(hat0, params, tilt, self.CONFIG)).hex() == stored
        stored = fit_decay_rate(coarse_grain_trajectory(
            solve_eps_system(c0, params, tilt, self.CONFIG))).hex()
        solve = _eps_solve(c0, params, tilt, self.CONFIG)
        assert fit_decay_rate(solve).hex() == stored
        assert _fit_mode_decay(solve.times, _csv_windows(solve, tmp_path / "t.csv")).hex() == stored


def plain_python(value) -> bool:
    """Whether ``value`` is built of Python's own types only, as ``json.dump`` writes them."""
    if isinstance(value, dict):
        return all(type(k) is str and plain_python(v) for k, v in value.items())
    if isinstance(value, list):
        return all(plain_python(v) for v in value)
    return type(value) in (bool, int, float, str, type(None))


def written_summary(result, outdir, kind):
    """``summary.json`` in ``outdir``, checked for the keys every experiment writes.

    The summary returned by the run holds Python values only (a numpy bool
    or float is not one), so it is written without a converter.
    """
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["experiment"] == kind
    assert summary["seed"] == default_configs()[kind]["seed"]
    assert type(result.passed) is bool and summary["passed"] is result.passed
    assert plain_python(result.summary), result.summary
    assert summary == result.summary
    return summary


class TestRunners:
    def test_mixed_diffusion_fit_small(self, tmp_path):
        doc = small_config(
            "mixed_diffusion_fit", tmp_path / "out",
            grid={"n_cells": 60},
            solver={"dt": 5e-4, "t_final": 0.05, "scheme": "strang_cn"},
            epsilons=[1e-1, 1e-2, 1e-3],
        )
        result = run_experiment(load_config(doc))
        assert result.passed
        assert (tmp_path / "out" / "mixed_diffusion_fit.csv").exists()
        summary = written_summary(result, tmp_path / "out", "mixed_diffusion_fit")
        assert summary["target_delta_hat"] == 1.25

    def test_eps_sweep_small(self, tmp_path):
        doc = small_config(
            "eps_sweep", tmp_path / "out",
            grid={"n_cells": 60},
            solver={"dt": 2e-4, "t_final": 0.1},
            epsilons=[1e-1, 1e-2, 1e-3],
        )
        result = run_experiment(load_config(doc))
        assert result.passed
        written_summary(result, tmp_path / "out", "eps_sweep")
        rows = (tmp_path / "out" / "eps_sweep.csv").read_text().splitlines()
        assert rows[0] == "epsilon,defect,ratio"
        assert len(rows) == 4

    def test_recovery_study_small(self, tmp_path):
        doc = small_config(
            "recovery_study", tmp_path / "out",
            grid={"n_cells": 30},
            solver={"dt": 2e-3, "t_final": 0.05},
            epsilons=[1e-1, 1e-2, 1e-3, 1e-4, 1e-5],
        )
        result = run_experiment(load_config(doc))
        assert result.passed
        written_summary(result, tmp_path / "out", "recovery_study")
        header = (tmp_path / "out" / "recovery_study.csv").read_text().splitlines()[0]
        assert header == "epsilon,gamma,reaction_cost_term,D_eps,D_0,gap"

    def test_edb_refinement_small(self, tmp_path):
        doc = small_config(
            "edb_refinement", tmp_path / "out",
            grid={"n_cells": 16},
            solver={"dt": 1e-3, "t_final": 0.2},
            levels=3,
        )
        result = run_experiment(load_config(doc))
        written_summary(result, tmp_path / "out", "edb_refinement")
        assert result.summary["fitted_order_fast_slow"] >= 0.8
        assert result.summary["fitted_order_effective"] >= 0.8

    def test_multispecies_check(self, tmp_path):
        doc = small_config("multispecies_check", tmp_path / "out")
        result = run_experiment(load_config(doc))
        assert result.passed
        written_summary(result, tmp_path / "out", "multispecies_check")
        assert result.summary["non_detailed_balance_rejected"] is True

    def test_reports_reproducible_bitwise(self, tmp_path):
        outputs = []
        for run in ("a", "b"):
            doc = small_config(
                "eps_sweep", tmp_path / run,
                grid={"n_cells": 40},
                solver={"dt": 5e-4, "t_final": 0.02},
                epsilons=[1e-1, 1e-2],
            )
            run_experiment(load_config(doc))
            outputs.append(
                (tmp_path / run / "eps_sweep.csv").read_bytes()
                + (tmp_path / run / "summary.json").read_bytes()
            )
        assert outputs[0] == outputs[1]


class TestMainEntry:
    def test_export_validate_run_roundtrip(self, tmp_path, capsys):
        assert main(["export-defaults", "-o", str(tmp_path / "configs")]) == 0
        files = sorted(p.name for p in (tmp_path / "configs").glob("*.json"))
        assert len(files) == 5
        assert main(["validate", str(tmp_path / "configs" / "multispecies_check.json")]) == 0

    def test_python_dash_m_entry(self, tmp_path):
        src = str(Path(edpflow.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run(
            [sys.executable, "-m", "edpflow", "export-defaults", "-o", str(tmp_path / "configs")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert "wrote 5 configs" in proc.stdout
        assert len(list((tmp_path / "configs").glob("*.json"))) == 5

    def test_run_exit_codes(self, tmp_path, capsys):
        doc = small_config(
            "multispecies_check", tmp_path / "out", epsilons=[1e-1, 1e-2])
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"experiment": "eps_sweep"}))
        assert main(["run", str(path)]) == 2
        assert main(["validate", str(path)]) == 2
        assert main(["validate", str(tmp_path / "missing.json")]) == 2

    def test_threshold_failure_exit_code(self, tmp_path, monkeypatch):
        # an unresolvable setup: sweep too short/coarse to meet the slope gate
        doc = small_config(
            "eps_sweep", tmp_path / "out",
            grid={"n_cells": 8},
            solver={"dt": 2e-2, "t_final": 0.04},
            epsilons=[1e-1, 9e-2],
        )
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        code = main(["run", str(path)])
        assert code in (0, 1)  # depends on measured slope; exercise the path

    @pytest.mark.parametrize("error", [
        IntegrationError("state left the finite range", 7),
        DualAscentError("iteration limit reached", 1.82e-10),
        DecayFitError("degenerate mode amplitude: decay too fast to fit"),
    ])
    def test_numerical_failure_exit_code(self, tmp_path, monkeypatch, capsys, error):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(small_config("eps_sweep", tmp_path / "out")))

        def fail(cfg):
            raise error

        monkeypatch.setattr(cli_module, "run_experiment", fail)
        assert main(["run", str(path)]) == 3
        out, err = capsys.readouterr()
        assert out.splitlines() == [f"numerical error: {type(error).__name__}: {error}"]
        assert err == ""
