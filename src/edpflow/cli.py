"""Experiment orchestration and the command-line interface.

Configs are single JSON documents with all physical parameters explicit (no
defaults for diffusion constants, rates, or scales).  :func:`load_config`
checks every key, scalar keys included, and parses a ``generator`` spec, so a
malformed config fails there and not halfway through a run.  Each experiment
writes raw per-run CSV tables; :func:`run_experiment` then writes the
machine-readable summary with fitted exponents and pass/fail flags, and the
experiment, seed and overall flag that every summary carries.  Outputs are
reproducible bit-for-bit for a fixed config and seed; the decay fit projects
each time level on its own, so its amplitudes do not depend on how the levels
are batched.

Verbs: ``run <config.json>``, ``validate <config.json>``, ``export-defaults``.
Exit codes: 0 on pass, 1 on acceptance-threshold failure, 2 on config error,
3 on a numerical failure (``IntegrationError``, ``DualAscentError``, ``DecayFitError``).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .coarsegrain import (
    CoarseTrajectory,
    build_recovery_sequence,
    hat_energy,
    manifold_split,
    reconstruct_from_coarse,
)
from .core import SpatialGrid, State, SystemParams, Tilt, _csv_windows
from .dissipation import (
    DualAscentError,
    dissipation_functional,
    flux_dissipation,
    hat_dissipation,
    hat_flux_dissipation,
)
from .functionals import energy, stationary_measure
from .multispecies import (
    MarkovGenerator,
    kappa_coefficients,
    load_generator,
    random_detailed_balance_generator,
    validate_generator,
)
from .solver import (
    IntegrationError,
    SolverConfig,
    _effective_solve,
    _eps_solve,
    solve_effective,
)

__all__ = [
    "ConfigError",
    "DecayFitError",
    "ExperimentConfig",
    "ExperimentResult",
    "load_config",
    "run_experiment",
    "fit_decay_rate",
    "equation_generator",
    "default_configs",
    "main",
]

_EXPERIMENTS = (
    "eps_sweep",
    "edb_refinement",
    "mixed_diffusion_fit",
    "recovery_study",
    "multispecies_check",
)


class ConfigError(ValueError):
    """Invalid experiment config; the message lists every offending key."""


class DecayFitError(ValueError):
    """A decay fit without the cosine content to fit: too little at the start, or gone in a step."""


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    output_dir: str
    params: SystemParams
    seed: int = 0
    n_cells: int | None = None
    solver: SolverConfig | None = None
    tilt_spec: dict = field(default_factory=lambda: {"kind": "zero"})
    initial_spec: dict | None = None
    epsilons: tuple[float, ...] = ()
    levels: int = 4
    lam: float = 0.9
    alpha_exp: float = 0.2
    width_scale: float | None = None
    generator_spec: dict | None = None
    n_species: int = 4
    write_trajectories: bool = False


@dataclass(frozen=True)
class ExperimentResult:
    passed: bool
    summary: dict
    files: tuple[Path, ...]


_TOP_KEYS = {
    "experiment", "output_dir", "seed", "grid", "solver", "params", "tilt",
    "initial", "epsilons", "levels", "lam", "alpha", "width_scale",
    "generator", "n_species", "write_trajectories",
}
_NEEDS_PDE = {"eps_sweep", "edb_refinement", "mixed_diffusion_fit", "recovery_study"}


def _real(v) -> bool:  # a finite float, or an integer within its range; booleans are not numbers
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _check_epsilons(values, problems):
    if not isinstance(values, list) or not values:
        problems.append("'epsilons' must be a non-empty list")
        return ()
    eps = []
    for v in values:
        if not _real(v) or not v > 0:
            problems.append(f"'epsilons' entries must be positive numbers, got {v!r}")
            return ()
        eps.append(float(v))
    if any(b >= a for a, b in zip(eps, eps[1:])):
        problems.append("'epsilons' must be strictly decreasing")
    return tuple(eps)


def load_config(source) -> ExperimentConfig:
    """Parse and validate an experiment config (path or already-parsed dict).

    Raises :class:`ConfigError` listing the offending keys; nothing physical is
    defaulted.
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        if not path.exists():
            raise ConfigError(f"config file {path} does not exist")
        with path.open() as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON: {exc}") from None
    else:
        doc = source
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")

    problems = [f"unknown key {k!r}" for k in doc if k not in _TOP_KEYS]
    experiment = doc.get("experiment")
    if experiment not in _EXPERIMENTS:
        problems.append(f"'experiment' must be one of {_EXPERIMENTS}, got {experiment!r}")
        raise ConfigError("; ".join(problems))
    if "output_dir" not in doc:
        problems.append("missing key 'output_dir'")

    params = None
    pdoc = doc.get("params")
    if not isinstance(pdoc, dict):
        problems.append("missing or invalid 'params' (needs delta, alpha, beta)")
    else:
        missing = [k for k in ("delta", "alpha", "beta") if k not in pdoc]
        extra = [k for k in pdoc if k not in ("delta", "alpha", "beta")]
        if missing or extra:
            problems.append(f"'params' missing {missing}, unknown {extra}")
        elif not isinstance(pdoc["delta"], list) or not all(
                map(_real, [*pdoc["delta"], pdoc["alpha"], pdoc["beta"]])):
            problems.append("'params': delta (a list), alpha and beta must be finite numbers")
        else:
            try:
                params = SystemParams(tuple(pdoc["delta"]), pdoc["alpha"], pdoc["beta"])
            except (TypeError, ValueError) as exc:
                problems.append(f"'params': {exc}")

    epsilons = _check_epsilons(doc.get("epsilons"), problems) if "epsilons" in doc else ()
    if "epsilons" not in doc:
        problems.append("missing key 'epsilons'")
    if experiment == "edb_refinement" and len(epsilons) != 1:
        problems.append("'epsilons' must hold exactly one scale for edb_refinement")

    n_cells = None
    solver = None
    initial_spec = None
    tilt_spec = {"kind": "zero"}
    if experiment in _NEEDS_PDE:
        gdoc = doc.get("grid")
        if not isinstance(gdoc, dict) or set(gdoc) != {"n_cells"}:
            problems.append("'grid' must be an object with exactly 'n_cells'")
        else:
            try:
                n_cells = SpatialGrid(gdoc["n_cells"]).n_cells
            except (TypeError, ValueError) as exc:
                problems.append(f"'grid': {exc}")
        sdoc = doc.get("solver")
        if not isinstance(sdoc, dict) or not {"dt", "t_final"} <= set(sdoc) or not set(sdoc) <= {"dt", "t_final", "scheme"}:
            problems.append("'solver' must provide dt, t_final and optionally scheme")
        elif not _real(sdoc["dt"]) or not _real(sdoc["t_final"]):
            problems.append("'solver': dt and t_final must be finite numbers")
        else:
            try:
                solver = SolverConfig(**sdoc)
            except (TypeError, ValueError) as exc:
                problems.append(f"'solver': {exc}")
        idoc = doc.get("initial")
        if not isinstance(idoc, dict) or "kind" not in idoc:
            problems.append("'initial' must be an object with a 'kind'")
        else:
            kind = idoc["kind"]
            known = {
                "slow_manifold_cosine": {"kind", "amplitude"},
                "off_manifold_cosine": {"kind", "amplitude", "fractions"},
                "stationary_perturbation": {"kind", "amplitude"},
            }
            if kind not in known:
                problems.append(f"'initial.kind' must be one of {sorted(known)}, got {kind!r}")
            elif set(idoc) != known[kind]:
                problems.append(f"'initial' for kind {kind!r} needs exactly keys {sorted(known[kind])}")
            else:
                amp = idoc.get("amplitude")
                if not _real(amp) or not abs(amp) < 1:
                    problems.append("'initial.amplitude' must be a number with |amplitude| < 1")
                elif abs(amp) <= 1e-12 and experiment == "mixed_diffusion_fit":
                    # the decay fit's own floor on the initial mode amplitude
                    problems.append("'initial.amplitude' must exceed 1e-12 in magnitude: the fit"
                                    " follows the decay of the cosine mode")
                if kind == "off_manifold_cosine":
                    fr = idoc.get("fractions")
                    if (not isinstance(fr, list) or len(fr) != 2
                            or any(not _real(f) or f <= 0 for f in fr)
                            or abs(sum(fr) - 1.0) > 1e-12):
                        problems.append("'initial.fractions' must be two positive numbers summing to 1")
                initial_spec = idoc
        tdoc = doc.get("tilt")
        if tdoc is None:
            problems.append("missing key 'tilt'")
        elif not isinstance(tdoc, dict) or tdoc.get("kind") not in ("zero", "cosine"):
            problems.append("'tilt.kind' must be 'zero' or 'cosine'")
        elif tdoc["kind"] == "cosine":
            coeffs = tdoc.get("coefficients")
            if (set(tdoc) != {"kind", "coefficients"} or not isinstance(coeffs, list)
                    or len(coeffs) != 2
                    or any(not isinstance(row, list) or not row or not all(map(_real, row))
                           for row in coeffs)):
                problems.append("'tilt' of kind cosine needs 'coefficients': two lists of"
                                " finite mode amplitudes")
            else:
                tilt_spec = tdoc
        else:
            if set(tdoc) != {"kind"}:
                problems.append("'tilt' of kind zero takes no other keys")
            tilt_spec = tdoc

    generator_spec = doc.get("generator")
    if experiment == "multispecies_check" and generator_spec is not None:
        if not isinstance(generator_spec, dict):
            problems.append("'generator' must be an object (inline spec or {'path': ...})")
        elif set(generator_spec) == {"path"} and not Path(str(generator_spec["path"])).exists():
            problems.append(f"generator file {generator_spec['path']!r} does not exist")
        else:
            try:
                load_generator(_generator_source(generator_spec))
            except (OSError, TypeError, ValueError) as exc:
                problems.append(f"'generator': {exc}")

    def scalar(key, default, admissible, need):
        value = doc.get(key, default)
        if not admissible(value):
            problems.append(f"{key!r} must be {need}, got {value!r}")
        return value

    def integer(v):
        return isinstance(v, int) and not isinstance(v, bool)

    seed = scalar("seed", 0, lambda v: integer(v) and v >= 0, "a non-negative integer")
    levels = scalar("levels", 4, lambda v: integer(v) and v >= 2, "an integer >= 2")
    lam = scalar("lam", 0.9, _real, "a finite number")
    alpha_exp = scalar("alpha", 0.2, _real, "a finite number")
    width_scale = scalar("width_scale", None, lambda v: v is None or _real(v),
                         "a finite number or null")
    n_species = scalar("n_species", 4, lambda v: integer(v) and v >= 3, "an integer >= 3")
    write_trajectories = scalar("write_trajectories", False, lambda v: isinstance(v, bool),
                                "true or false")

    if problems:
        raise ConfigError("; ".join(problems))
    return ExperimentConfig(
        experiment=experiment,
        output_dir=doc["output_dir"],
        params=params,
        seed=seed,
        n_cells=n_cells,
        solver=solver,
        tilt_spec=tilt_spec,
        initial_spec=initial_spec,
        epsilons=epsilons,
        levels=levels,
        lam=float(lam),
        alpha_exp=float(alpha_exp),
        width_scale=width_scale,
        generator_spec=generator_spec,
        n_species=n_species,
        write_trajectories=write_trajectories,
    )


def _generator_source(spec: dict):
    """What :func:`load_generator` reads for a ``generator`` spec: its file or the spec itself."""
    return spec["path"] if set(spec) == {"path"} else spec


def _build_tilt(spec: dict, grid: SpatialGrid) -> Tilt:
    if spec["kind"] == "zero":
        return Tilt.zero(grid.n_cells)
    coeffs = spec["coefficients"]

    def potential(row):
        return lambda x: sum(a * np.cos((m + 1) * np.pi * x) for m, a in enumerate(row))

    return Tilt.from_callables(grid, [potential(r) for r in coeffs])


def _build_initial(spec: dict, grid: SpatialGrid, params: SystemParams, tilt: Tilt) -> State:
    x = grid.cell_centers
    hat = 1.0 + spec["amplitude"] * np.cos(np.pi * x)
    if spec["kind"] == "slow_manifold_cosine":
        c = manifold_split(hat, params, tilt)
    elif spec["kind"] == "off_manifold_cosine":
        fr = np.asarray(spec["fractions"], dtype=float)
        c = fr[:, None] * hat[None, :]
    else:  # stationary_perturbation
        w_v, _ = stationary_measure(params, tilt)
        c = w_v * hat[None, :]
    c = c / (c.sum() / grid.n_cells)
    return State(c)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_csv(path: Path, header, rows) -> Path:
    with path.open("w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    return path


def _write_summary(outdir: Path, summary: dict) -> list[Path]:
    jpath = outdir / "summary.json"
    with jpath.open("w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    tpath = outdir / "summary.txt"
    with tpath.open("w") as fh:
        for key in sorted(summary):
            fh.write(f"{key} = {_fmt(summary[key])}\n")
    return [jpath, tpath]


def _cosine_modes(states) -> np.ndarray:
    """Amplitudes of cos(pi x) in the density of each time level of ``states``.

    Two-species states are summed over the species first, as coarse-graining
    sums them.  Each level is reduced on its own, so its amplitude does not
    depend on which other levels, or how many, are projected with it.
    """
    dens = states if states.ndim == 2 else states.sum(axis=1)
    n = dens.shape[-1]
    return (2.0 / n) * (dens * np.cos(np.pi * ((np.arange(n) + 0.5) / n))).sum(axis=1)


def _fit_mode_decay(times, windows) -> float:
    """Diffusion coefficient from the decay of cos(pi x) in consecutive ``windows`` on ``times``."""
    modes = []
    for _, states, *_ in windows:
        # a window's first level is the previous window's last
        modes.append(_cosine_modes(states)[1 if modes else 0:])
    mode = np.concatenate(modes)
    if abs(mode[0]) < 1e-12:
        raise DecayFitError("degenerate mode amplitude: initial cosine content too small")
    keep = np.abs(mode) > 1e-12 * abs(mode[0])
    if keep.sum() < 2:
        raise DecayFitError("degenerate mode amplitude: decay too fast to fit")
    slope_fit = np.polyfit(times[keep], np.log(np.abs(mode[keep])), 1)[0]
    return float(-slope_fit / np.pi**2)


# time levels x cells per window that the experiments read from a solve: 40
# levels at 200 cells, enough to make a window's cost (about a step's) small
_WINDOW_VALUES = 8192


def fit_decay_rate(hat_traj: CoarseTrajectory) -> float:
    """Diffusion coefficient measured from the decay of the first cosine mode.

    Projects the coarse density on cos(pi x), fits log |amplitude| against
    time by least squares, and returns rate / pi^2.  Requires a nondegenerate
    initial mode amplitude.  ``hat_traj`` may also be a coarse or two-species
    solve (its species summed), read window by window and never stored; the
    fit is that of the stored coarse trajectory, bit for bit.
    """
    return _fit_mode_decay(hat_traj.times,
                           hat_traj.windows(max(1, _WINDOW_VALUES // hat_traj.n_cells)))


def equation_generator(params: SystemParams) -> MarkovGenerator:
    """Two-species fast-exchange generator matching the PDE system's reaction part."""
    a = np.sqrt(params.alpha / params.beta)
    b = np.sqrt(params.beta / params.alpha)
    a_fast = np.array([[-a, b], [a, -b]])
    return MarkovGenerator(("X1", "X2"), np.zeros((2, 2)), a_fast, np.array(params.delta))


# ---------------------------------------------------------------------------
# experiments


def _run_mixed_diffusion_fit(cfg: ExperimentConfig, outdir: Path):
    grid = SpatialGrid(cfg.n_cells)
    tilt = _build_tilt(cfg.tilt_spec, grid)
    initial = _build_initial(cfg.initial_spec, grid, cfg.params, tilt)
    target = (cfg.params.beta * cfg.params.delta[0] + cfg.params.alpha * cfg.params.delta[1]) / (
        cfg.params.alpha + cfg.params.beta
    )

    rows = []
    files = []
    for eps in sorted(cfg.epsilons, reverse=True):
        solve = _eps_solve(initial, replace(cfg.params, epsilon=eps), tilt, cfg.solver)
        if cfg.write_trajectories:
            # the fit reads the windows as they are written, so the solve runs once
            path = outdir / f"trajectory_eps_{eps:g}.csv"
            fitted = _fit_mode_decay(solve.times, _csv_windows(solve, path))
            files.append(path)
        else:
            fitted = fit_decay_rate(solve)
        rows.append((eps, fitted, abs(fitted - target) / target))
    hat0 = initial.c.sum(axis=0)
    eff_fit = fit_decay_rate(_effective_solve(hat0, cfg.params, tilt, cfg.solver))

    errors = [r[2] for r in rows]
    monotone = all(b < a for a, b in zip(errors, errors[1:]))
    passed = monotone and errors[-1] <= 0.02
    files.append(_write_csv(outdir / "mixed_diffusion_fit.csv",
                            ("epsilon", "delta_hat_fit", "rel_error"), rows))
    summary = {
        "target_delta_hat": target,
        "delta_hat_fit_by_epsilon": {f"{eps:g}": fit for eps, fit, _ in rows},
        "rel_error_by_epsilon": {f"{eps:g}": err for eps, _, err in rows},
        "effective_solver_fit": eff_fit,
        "final_rel_error": errors[-1],
        "rel_error_monotone_decreasing": monotone,
        "pass_final_error_le_2pct": errors[-1] <= 0.02,
    }
    return passed, summary, files


def _run_eps_sweep(cfg: ExperimentConfig, outdir: Path):
    grid = SpatialGrid(cfg.n_cells)
    tilt = _build_tilt(cfg.tilt_spec, grid)
    initial = _build_initial(cfg.initial_spec, grid, cfg.params, tilt)
    w_v, _ = stationary_measure(cfg.params, tilt)
    h = grid.h

    def one(eps):
        # the equilibration layer must be resolved in time for the integral
        # of the defect to see its true scale
        dt = min(cfg.solver.dt, eps / 5.0)
        sc = SolverConfig(dt, cfg.solver.t_final, cfg.solver.scheme)
        p = replace(cfg.params, epsilon=eps)
        # the defect's sum over cells at each left endpoint times the step,
        # window by window of the solve: a row's value does not depend on it
        terms, done = np.empty(sc.n_steps), 0
        for times, states, _, _ in _eps_solve(initial, p, tilt, sc).windows(
                max(1, _WINDOW_VALUES // grid.n_cells)):
            rho = states[:-1] / w_v[None]
            row_sums = ((np.sqrt(rho[:, 0]) - np.sqrt(rho[:, 1])) ** 2).sum(axis=1)
            terms[done:done + row_sums.size] = row_sums * h * np.diff(times)
            done += row_sums.size
        integral = float(np.sum(terms))
        return eps, dt, integral

    results = [one(eps) for eps in sorted(cfg.epsilons, reverse=True)]
    rows = [(eps, defect, defect / eps) for eps, _, defect in results]
    slope_fit = float(np.polyfit(np.log([r[0] for r in rows]),
                                 np.log([r[1] for r in rows]), 1)[0])
    passed = slope_fit >= 0.9
    files = [_write_csv(outdir / "eps_sweep.csv",
                        ("epsilon", "defect", "ratio"), rows)]
    summary = {
        "dt_rule": "min(config dt, epsilon / 5)",
        "dt_by_epsilon": {f"{eps:g}": dt for eps, dt, _ in results},
        "loglog_slope": slope_fit,
        "pass_slope_ge_0.9": passed,
    }
    return passed, summary, files


def _breakdown_row(eps, breakdown, edb):
    return (eps, breakdown.vel_diff, breakdown.vel_react, breakdown.slope_diff,
            breakdown.slope_react, breakdown.total, edb)


def _run_edb_refinement(cfg: ExperimentConfig, outdir: Path):
    eps = cfg.epsilons[0]

    def level_run(level):
        n = cfg.n_cells * 2**level
        grid = SpatialGrid(n)
        tilt = _build_tilt(cfg.tilt_spec, grid)
        sc = SolverConfig(cfg.solver.dt / 2**level, cfg.solver.t_final, cfg.solver.scheme)
        p = replace(cfg.params, epsilon=eps)
        initial = _build_initial(cfg.initial_spec, grid, p, tilt)
        # each solve hands its windows straight to the evaluator, so no
        # level holds a whole trajectory; the last window holds the final state
        solve = _eps_solve(initial, p, tilt, sc)
        bd = dissipation_functional(solve, p, tilt, eps)
        drop = energy(initial, p, tilt) - energy(State(solve.states[-1]), p, tilt)
        res = -drop + bd.total
        hat0 = initial.c.sum(axis=0)
        hat_solve = _effective_solve(hat0, p, tilt, sc)
        hbd = hat_dissipation(hat_solve, p, tilt)
        hdrop = hat_energy(hat0, p, tilt) - hat_energy(hat_solve.states[-1], p, tilt)
        hres = -hdrop + hbd.total
        return level, n, sc.dt_effective, bd, res, drop, hbd, hres, hdrop

    results = [level_run(level) for level in range(cfg.levels)]
    rows = []
    for level, n, dt, bd, res, drop, hbd, hres, hdrop in results:
        rows.append(("fast_slow", level, n, dt) + _breakdown_row(eps, bd, res) + (drop,))
        rows.append(("effective", level, n, dt) + _breakdown_row(eps, hbd, hres) + (hdrop,))
    header = ("system", "level", "n_cells", "dt", "epsilon", "vel_diff", "vel_react",
              "slope_diff", "slope_react", "total", "edb_residual", "energy_drop")
    files = [_write_csv(outdir / "edb_refinement.csv", header, rows)]
    files.append(_write_csv(
        outdir / "dissipation_breakdown.csv",
        ("epsilon", "vel_diff", "vel_react", "slope_diff", "slope_react", "total",
         "edb_residual"),
        [_breakdown_row(eps, r[3], r[4]) for r in results],
    ))

    lv = np.array([r[0] for r in results], dtype=float)
    res_eps = np.abs([r[4] for r in results])
    res_eff = np.abs([r[7] for r in results])
    order_eps = float(np.polyfit(lv, np.log2(res_eps), 1)[0] * -1)
    order_eff = float(np.polyfit(lv, np.log2(res_eff), 1)[0] * -1)
    drop_eps, drop_eff = results[-1][5], results[-1][8]
    passed = bool(
        order_eps >= 0.8 and order_eff >= 0.8
        and res_eps[-1] <= 1e-3 * drop_eps and res_eff[-1] <= 1e-3 * drop_eff
    )
    summary = {
        "epsilon": eps,
        "fitted_order_fast_slow": order_eps,
        "fitted_order_effective": order_eff,
        "finest_residual_fast_slow": float(res_eps[-1]),
        "finest_residual_effective": float(res_eff[-1]),
        "finest_energy_drop_fast_slow": drop_eps,
        "finest_energy_drop_effective": drop_eff,
        "pass_orders_ge_0.8": order_eps >= 0.8 and order_eff >= 0.8,
        "pass_finest_residual": bool(res_eps[-1] <= 1e-3 * drop_eps and res_eff[-1] <= 1e-3 * drop_eff),
    }
    return passed, summary, files


def _run_recovery_study(cfg: ExperimentConfig, outdir: Path):
    grid = SpatialGrid(cfg.n_cells)
    tilt = _build_tilt(cfg.tilt_spec, grid)
    hat0 = _build_initial(cfg.initial_spec, grid, cfg.params, tilt).c.sum(axis=0)
    hat_traj = solve_effective(hat0, cfg.params, tilt, cfg.solver)
    limit = reconstruct_from_coarse(hat_traj, cfg.params, tilt).trajectory
    d0 = hat_flux_dissipation(hat_traj, cfg.params, tilt).total

    rows = []
    for eps in sorted(cfg.epsilons, reverse=True):
        rec = build_recovery_sequence(limit, cfg.params, tilt, eps,
                                      lam=cfg.lam, alpha=cfg.alpha_exp,
                                      width_scale=cfg.width_scale)
        bd = flux_dissipation(rec.trajectory, cfg.params, tilt, eps)
        rows.append((eps, rec.gamma, bd.vel_react, bd.total, d0, abs(bd.total - d0)))
        del rec  # keep only its scalars: release it before the next one is built
    files = [_write_csv(outdir / "recovery_study.csv",
                        ("epsilon", "gamma", "reaction_cost_term", "D_eps", "D_0", "gap"),
                        rows)]
    costs = [r[2] for r in rows]
    gaps = [r[5] for r in rows]
    cost_monotone = all(b < a for a, b in zip(costs, costs[1:]))
    gap_monotone = all(b < a for a, b in zip(gaps, gaps[1:]))
    passed = bool(cost_monotone and costs[-1] < 1e-4 and gap_monotone)
    summary = {
        "D_0": float(d0),
        "final_reaction_cost": float(costs[-1]),
        "reaction_cost_monotone": cost_monotone,
        "gap_monotone": gap_monotone,
        "pass_final_cost_lt_1e-4": bool(costs[-1] < 1e-4),
    }
    return passed, summary, files


def _run_multispecies_check(cfg: ExperimentConfig, outdir: Path):
    pair_gen = equation_generator(cfg.params)
    pair_report = validate_generator(pair_gen)
    w = pair_gen.stationary(1.0)
    w_expected = np.array([cfg.params.beta, cfg.params.alpha]) / (cfg.params.alpha + cfg.params.beta)
    pair_w_ok = bool(np.max(np.abs(w - w_expected)) <= 1e-13)

    kappa_rows = []
    kappa_ok = True
    for eps in cfg.epsilons:
        kappa = kappa_coefficients(pair_gen, eps)
        scaled = kappa[0, 1] * eps
        kappa_rows.append((eps, kappa[0, 1], scaled))
        kappa_ok = kappa_ok and bool(abs(scaled - 1.0) <= 1e-13)

    if cfg.generator_spec is None:
        net = random_detailed_balance_generator(np.random.default_rng(cfg.seed), cfg.n_species)
    else:
        net = load_generator(_generator_source(cfg.generator_spec))
    net_report = validate_generator(net)
    sym_defect = 0.0
    for eps in cfg.epsilons:
        kap = kappa_coefficients(net, eps)
        scale = max(1.0, float(np.abs(kap).max()))
        sym_defect = max(sym_defect, float(np.abs(kap - kap.T).max()) / scale)
    sym_ok = sym_defect <= 1e-13

    # a constructed detailed-balance violation must be rejected
    a_fast = net.a_fast.copy()
    i, j = np.argwhere(a_fast > 0)[0]
    a_fast[i, j] *= 1.5
    a_fast[j, j] = 0.0
    a_fast[j, j] = -a_fast[:, j].sum()
    broken = MarkovGenerator(net.species, net.a_slow, a_fast, net.delta)
    broken_report = validate_generator(broken)
    rejection_ok = not broken_report.ok and any(
        "detailed balance" in f for f in broken_report.failures
    )

    passed = (pair_report.ok and pair_w_ok and kappa_ok and net_report.ok
              and sym_ok and rejection_ok)
    files = [_write_csv(outdir / "kappa.csv",
                        ("epsilon", "kappa12", "kappa12_times_epsilon"), kappa_rows)]
    summary = {
        "pair_generator_valid": pair_report.ok,
        "pair_stationary_matches": pair_w_ok,
        "kappa12_equals_inverse_epsilon": kappa_ok,
        "network_species": list(net.species),
        "network_valid": net_report.ok,
        "network_failures": list(net_report.failures),
        "kappa_symmetry_defect": sym_defect,
        "kappa_symmetric_1e-13": sym_ok,
        "non_detailed_balance_rejected": rejection_ok,
        "broken_failures": list(broken_report.failures),
    }
    return passed, summary, files


_RUNNERS = {
    "mixed_diffusion_fit": _run_mixed_diffusion_fit,
    "eps_sweep": _run_eps_sweep,
    "edb_refinement": _run_edb_refinement,
    "recovery_study": _run_recovery_study,
    "multispecies_check": _run_multispecies_check,
}


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Execute the configured study; writes CSV tables and summaries, returns flags.

    Each runner writes its tables and returns ``(passed, summary, files)``;
    the summary gets the experiment, the seed and the overall flag here.
    """
    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    passed, summary, files = _RUNNERS[config.experiment](config, outdir)
    summary = {"experiment": config.experiment, "seed": config.seed, **summary, "passed": passed}
    return ExperimentResult(passed, summary, (*files, *_write_summary(outdir, summary)))


# ---------------------------------------------------------------------------
# default configs and entry point


def default_configs() -> dict[str, dict]:
    """Complete example configs, one per experiment kind."""
    params = {"delta": [1.0, 2.0], "alpha": 1.0, "beta": 3.0}
    return {
        "mixed_diffusion_fit": {
            "experiment": "mixed_diffusion_fit",
            "output_dir": "out/mixed_diffusion_fit",
            "seed": 7,
            "grid": {"n_cells": 200},
            "solver": {"dt": 1e-4, "t_final": 0.1, "scheme": "strang_cn"},
            "params": params,
            "tilt": {"kind": "zero"},
            "initial": {"kind": "slow_manifold_cosine", "amplitude": 0.5},
            "epsilons": [1e-1, 1e-2, 1e-3, 1e-4],
        },
        "eps_sweep": {
            "experiment": "eps_sweep",
            "output_dir": "out/eps_sweep",
            "seed": 7,
            "grid": {"n_cells": 200},
            "solver": {"dt": 1e-4, "t_final": 0.1},
            "params": params,
            "tilt": {"kind": "zero"},
            "initial": {"kind": "off_manifold_cosine", "amplitude": 0.5,
                         "fractions": [0.55, 0.45]},
            "epsilons": [1e-1, 1e-2, 1e-3, 1e-4],
        },
        "edb_refinement": {
            "experiment": "edb_refinement",
            "output_dir": "out/edb_refinement",
            "seed": 7,
            "grid": {"n_cells": 20},
            "solver": {"dt": 4e-4, "t_final": 0.25},
            "params": params,
            "tilt": {"kind": "cosine", "coefficients": [[0.3], [-0.2]]},
            "initial": {"kind": "stationary_perturbation", "amplitude": 0.4},
            "epsilons": [0.1],
            "levels": 4,
        },
        "recovery_study": {
            "experiment": "recovery_study",
            "output_dir": "out/recovery_study",
            "seed": 7,
            "grid": {"n_cells": 60},
            "solver": {"dt": 1e-3, "t_final": 0.1},
            "params": params,
            "tilt": {"kind": "zero"},
            "initial": {"kind": "slow_manifold_cosine", "amplitude": 0.3},
            "epsilons": [1e-1, 1e-2, 1e-3, 1e-4, 1e-5],
        },
        "multispecies_check": {
            "experiment": "multispecies_check",
            "output_dir": "out/multispecies_check",
            "seed": 7,
            "params": params,
            "epsilons": [1e-1, 1e-2, 1e-3],
            "n_species": 4,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="edpflow",
        description="Scale-sweep experiments for the fast-slow reaction-drift-diffusion gradient system",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config")
    p_val = sub.add_parser("validate", help="check a config without running it")
    p_val.add_argument("config")
    p_exp = sub.add_parser("export-defaults", help="write complete example configs")
    p_exp.add_argument("-o", "--output-dir", default="configs")
    args = parser.parse_args(argv)

    if args.command == "export-defaults":
        outdir = Path(args.output_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        for name, doc in default_configs().items():
            with (outdir / f"{name}.json").open("w") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)
                fh.write("\n")
        print(f"wrote {len(default_configs())} configs to {outdir}")
        return 0

    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}")
        return 2
    if args.command == "validate":
        print("config ok")
        return 0
    try:
        result = run_experiment(cfg)
    except (IntegrationError, DualAscentError, DecayFitError) as exc:
        print(f"numerical error: {type(exc).__name__}: {exc}")
        return 3
    for key in sorted(result.summary):
        print(f"{key} = {result.summary[key]}")
    print("PASS" if result.passed else "FAIL")
    return 0 if result.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
