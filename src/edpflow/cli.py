"""Experiment orchestration and the command-line interface.

Configs are single JSON documents with all physical parameters explicit (no
defaults for diffusion constants, rates, or scales).  :func:`load_config`
walks one table, ``_SCHEMA``, that gives each key its
:class:`ExperimentConfig` field, the experiments that require it and its
parser; every key present is parsed, whatever the experiment, a
``generator`` spec included, so a malformed config fails there and not
halfway through a run.  Defaults live in :class:`ExperimentConfig` alone.
Each experiment writes raw per-run CSV tables; :func:`run_experiment` then
writes the machine-readable summary with fitted exponents and pass/fail
flags, and the experiment, seed and overall flag that every summary carries.
The refinement study takes its energy drops and balance residuals from
:mod:`edpflow.dissipation`, as :func:`~edpflow.dissipation.edb_residual` does.
Outputs are reproducible bit-for-bit for a fixed config and seed; the decay
fit projects each time level on its own, so its amplitudes do not depend on
how the levels are batched.

Verbs: ``run <config.json>``, ``validate <config.json>``, ``export-defaults``.
Exit codes: 0 on pass, 1 on acceptance-threshold failure, 2 on config error,
3 on a numerical failure (``IntegrationError``, ``DualAscentError``, ``DecayFitError``).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .coarsegrain import build_recovery_sequence, manifold_split, reconstruct_from_coarse
from .core import (SpatialGrid, State, SystemParams, Tilt, Trajectory, _csv_windows, _fields,
                   _read_json, _window_unit)
from .dissipation import (
    DualAscentError,
    _balance,
    _hat_balance,
    dissipation_functional,
    flux_dissipation,
    hat_flux_dissipation,
)
from .functionals import stationary_measure
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


def _real(v) -> bool:  # a finite float, or an integer within its range; booleans are not numbers
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


# parsers of the config keys: each returns its ExperimentConfig field or
# raises TypeError or ValueError


def _experiment(v):
    if v not in tuple(_RUNNERS):
        raise ValueError(f"must be one of {tuple(_RUNNERS)}, got {v!r}")
    return v


def _value(admissible, need: str, convert=lambda v: v):
    """Parser of a scalar key: its value, converted, if ``admissible``."""
    def parse(v):
        if not admissible(v):
            raise ValueError(f"must be {need}, got {v!r}")
        return convert(v)
    return parse


def _integer(least: int):
    return _value(lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= least,
                  f"an integer >= {least}")


def _epsilons(values):
    if not isinstance(values, list) or not values:
        raise ValueError(f"must be a non-empty list, got {values!r}")
    if not all(_real(v) and v > 0 for v in values):
        raise ValueError(f"entries must be positive numbers, got {values!r}")
    eps = tuple(map(float, values))
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValueError(f"must be strictly decreasing, got {values!r}")
    return eps


def _params(doc):
    _fields(doc, ("delta", "alpha", "beta"))
    # SystemParams reads a string as a sequence and a boolean as a number
    if not isinstance(doc["delta"], list) or not all(
            map(_real, [*doc["delta"], doc["alpha"], doc["beta"]])):
        raise TypeError("delta (a list), alpha and beta must be finite numbers")
    return SystemParams(**doc)


def _solver(doc):
    _fields(doc, ("dt", "t_final"), ("scheme",))
    for key in ("dt", "t_final"):  # SolverConfig takes a boolean
        if not _real(doc[key]):
            raise TypeError(f"{key} must be a finite number, got {doc[key]!r}")
    return SolverConfig(**doc)


def _initial(doc):
    kind = _fields(doc, ("kind",), ("amplitude", "fractions"))["kind"]
    if kind not in ("slow_manifold_cosine", "off_manifold_cosine", "stationary_perturbation"):
        raise ValueError(f"'kind' must be slow_manifold_cosine, off_manifold_cosine or"
                         f" stationary_perturbation, got {kind!r}")
    off = kind == "off_manifold_cosine"
    keys = ("kind", "amplitude", "fractions") if off else ("kind", "amplitude")
    amp = _fields(doc, keys)["amplitude"]
    if not _real(amp) or not abs(amp) < 1:
        raise ValueError(f"'amplitude' must be a number with |amplitude| < 1, got {amp!r}")
    fr = doc.get("fractions")
    if off and (not isinstance(fr, list) or len(fr) != 2 or not all(_real(f) and f > 0 for f in fr)
                or abs(sum(fr) - 1.0) > 1e-12):
        raise ValueError(f"'fractions' must be two positive numbers summing to 1, got {fr!r}")
    return doc


def _tilt(doc):
    kind = _fields(doc, ("kind",), ("coefficients",))["kind"]
    if kind not in ("zero", "cosine"):
        raise ValueError(f"'kind' must be 'zero' or 'cosine', got {kind!r}")
    if kind == "zero":
        return _fields(doc, ("kind",))
    rows = _fields(doc, ("kind", "coefficients"))["coefficients"]
    if not (isinstance(rows, list) and len(rows) == 2
            and all(isinstance(row, list) and row and all(map(_real, row)) for row in rows)):
        raise ValueError("'coefficients' must be two lists of finite mode amplitudes")
    return doc


def _generator(spec):
    if spec is not None:
        if not isinstance(spec, dict):
            raise TypeError(f"must be an object (an inline spec or {{'path': ...}}), got {spec!r}")
        load_generator(_generator_source(spec))
    return spec


def _generator_source(spec: dict):
    """What :func:`load_generator` reads for a ``generator`` spec: its file's path or the spec."""
    if set(spec) != {"path"}:
        return spec
    if not isinstance(spec["path"], str):
        raise TypeError(f"'path' must be a string, got {spec['path']!r}")
    return spec["path"]


_PDE = ("eps_sweep", "edb_refinement", "mixed_diffusion_fit", "recovery_study")

# each config key: the ExperimentConfig field it sets, the experiments that
# require it (None: every one) and its parser.  A key left out sets nothing,
# so ExperimentConfig holds the defaults.
_SCHEMA = {
    "experiment": ("experiment", None, _experiment),
    "output_dir": ("output_dir", None, _value(lambda v: isinstance(v, str), "a string")),
    "params": ("params", None, _params),
    "epsilons": ("epsilons", None, _epsilons),
    "grid": ("n_cells", _PDE, lambda doc: SpatialGrid(**_fields(doc, ("n_cells",))).n_cells),
    "solver": ("solver", _PDE, _solver),
    "initial": ("initial_spec", _PDE, _initial),
    "tilt": ("tilt_spec", _PDE, _tilt),
    "generator": ("generator_spec", (), _generator),
    "seed": ("seed", (), _integer(0)),
    "levels": ("levels", (), _integer(2)),
    "n_species": ("n_species", (), _integer(3)),
    "lam": ("lam", (), _value(_real, "a finite number", float)),
    # a negative exponent widens the mollifier as epsilon shrinks, and a
    # negative width leaves it a no-op
    "alpha": ("alpha_exp", (), _value(lambda v: _real(v) and v >= 0, "a number >= 0", float)),
    "width_scale": ("width_scale", (), _value(lambda v: v is None or _real(v) and v >= 0,
                                              "a number >= 0 or null")),
    "write_trajectories": ("write_trajectories", (),
                           _value(lambda v: isinstance(v, bool), "true or false")),
}


def load_config(source) -> ExperimentConfig:
    """Parse and validate an experiment config (path or already-parsed dict).

    Every key present is parsed, whatever the experiment, by its entry of the
    schema; raises :class:`ConfigError` listing the offending keys.  Nothing
    physical is defaulted.
    """
    if isinstance(source, (str, Path)):
        try:
            source = _read_json(source, "config file")
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    if not isinstance(source, dict):
        raise ConfigError("config must be a JSON object")
    experiment = source.get("experiment")
    problems = [f"unknown key {k!r}" for k in source if k not in _SCHEMA]
    fields = {}
    for key, (name, required_by, parse) in _SCHEMA.items():
        if key in source:
            try:
                fields[name] = parse(source[key])
            except (TypeError, ValueError) as exc:
                problems.append(f"{key!r}: {exc}")
        elif required_by is None or experiment in required_by:
            problems.append(f"missing key {key!r}")
    scales = fields.get("epsilons", ())
    if experiment == "edb_refinement" and len(scales) != 1:
        problems.append("'epsilons' must hold exactly one scale for edb_refinement")
    if experiment == "eps_sweep" and len(scales) == 1:
        problems.append("'epsilons' must hold two scales or more for eps_sweep, to fit its slope")
    labelled = experiment in ("eps_sweep", "mixed_diffusion_fit")  # its outputs key each scale by %g
    if labelled and len({f"{e:g}" for e in scales}) < len(scales):
        problems.append("'epsilons' must differ in their %g labels, which key the outputs of"
                        f" {experiment}, got {list(scales)!r}")
    if experiment in _PDE and "solver" in fields:
        # no solve takes more than 1e7 steps; the finest solve's step decides
        sc = fields["solver"]
        levels = fields.get("levels", ExperimentConfig.levels)

        def too_many(dt):  # SolverConfig.n_steps, round(t_final / dt), above 1e7
            return sc.t_final > (1e7 + 0.5) * dt

        if too_many(sc.dt):
            problems.append(f"'solver': dt = {sc.dt!r} forces more than 1e7 steps up to"
                            f" t_final = {sc.t_final!r}")
        elif experiment == "eps_sweep" and scales and too_many(min(sc.dt, scales[-1] / 5.0)):
            problems.append(f"'epsilons': {scales[-1]!r} forces more than 1e7 steps of"
                            " min(dt, epsilon / 5)")
        elif experiment == "edb_refinement" and too_many(math.ldexp(sc.dt, 1 - levels)):
            problems.append(f"'levels': {levels} forces more than 1e7 steps of"
                            " dt / 2^(levels - 1) at the finest level")
    if (experiment == "mixed_diffusion_fit" and "initial_spec" in fields
            and abs(fields["initial_spec"]["amplitude"]) <= 1e-12):
        # the decay fit's own floor on the initial mode amplitude
        problems.append("'initial': the amplitude must exceed 1e-12 in magnitude: the fit"
                        " follows the decay of the cosine mode")
    if problems:
        raise ConfigError("; ".join(problems))
    return ExperimentConfig(**fields)


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


def _setup(cfg: ExperimentConfig, level: int = 0):
    """The tilt and initial state of a PDE experiment, on its grid refined ``level`` times."""
    grid = SpatialGrid(cfg.n_cells * 2**level)
    tilt = _build_tilt(cfg.tilt_spec, grid)
    return tilt, _build_initial(cfg.initial_spec, grid, cfg.params, tilt)


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


def _write_json(path: Path, doc) -> Path:
    with path.open("w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _write_summary(outdir: Path, summary: dict) -> list[Path]:
    jpath = _write_json(outdir / "summary.json", summary)
    tpath = outdir / "summary.txt"
    with tpath.open("w") as fh:
        for key in sorted(summary):
            fh.write(f"{key} = {_fmt(summary[key])}\n")
    return [jpath, tpath]


def _cosine_modes(states) -> np.ndarray:
    """Amplitudes of cos(pi x) in the density of each time level of ``states`` (T, I, n).

    The species are summed first, as coarse-graining sums them.  Each level
    is reduced on its own, so its amplitude does not depend on which other
    levels, or how many, are projected with it.
    """
    dens = states.sum(axis=1)
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


def fit_decay_rate(hat_traj: Trajectory) -> float:
    """Diffusion coefficient measured from the decay of the first cosine mode.

    Projects the coarse density on cos(pi x), fits log |amplitude| against
    time by least squares, and returns rate / pi^2.  Requires a nondegenerate
    initial mode amplitude.  ``hat_traj`` may also be a coarse or two-species
    solve (its species summed), read window by window and never stored; the
    fit is that of the stored coarse trajectory, bit for bit.
    """
    return _fit_mode_decay(hat_traj.times, hat_traj.windows(_window_unit(hat_traj.states[0].size)))


def equation_generator(params: SystemParams) -> MarkovGenerator:
    """Two-species fast-exchange generator matching the PDE system's reaction part."""
    a = np.sqrt(params.alpha / params.beta)
    b = np.sqrt(params.beta / params.alpha)
    a_fast = np.array([[-a, b], [a, -b]])
    return MarkovGenerator(("X1", "X2"), np.zeros((2, 2)), a_fast, np.array(params.delta))


# ---------------------------------------------------------------------------
# experiments


def _run_mixed_diffusion_fit(cfg: ExperimentConfig, outdir: Path):
    tilt, initial = _setup(cfg)
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
    small = errors[-1] <= 0.02
    files.append(_write_csv(outdir / "mixed_diffusion_fit.csv",
                            ("epsilon", "delta_hat_fit", "rel_error"), rows))
    summary = {
        "target_delta_hat": target,
        "delta_hat_fit_by_epsilon": {f"{eps:g}": fit for eps, fit, _ in rows},
        "rel_error_by_epsilon": {f"{eps:g}": err for eps, _, err in rows},
        "effective_solver_fit": eff_fit,
        "final_rel_error": errors[-1],
        "rel_error_monotone_decreasing": monotone,
        "pass_final_error_le_2pct": small,
    }
    return monotone and small, summary, files


def _run_eps_sweep(cfg: ExperimentConfig, outdir: Path):
    tilt, initial = _setup(cfg)
    w_v, _ = stationary_measure(cfg.params, tilt)
    h = 1.0 / initial.n_cells

    def one(eps):
        # the equilibration layer must be resolved in time for the integral
        # of the defect to see its true scale
        sc = replace(cfg.solver, dt=min(cfg.solver.dt, eps / 5.0))
        p = replace(cfg.params, epsilon=eps)
        # the defect's sum over cells at each left endpoint times the step,
        # window by window of the solve: a row's value does not depend on it
        terms, done = np.empty(sc.n_steps), 0
        for times, states, _, _ in _eps_solve(initial, p, tilt, sc).windows(
                _window_unit(initial.c.size)):
            rho = states[:-1] / w_v[None]
            row_sums = ((np.sqrt(rho[:, 0]) - np.sqrt(rho[:, 1])) ** 2).sum(axis=1)
            terms[done:done + row_sums.size] = row_sums * h * np.diff(times)
            done += row_sums.size
        return eps, sc.dt, float(np.sum(terms))

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
    p = replace(cfg.params, epsilon=eps)

    def level_run(level):
        tilt, initial = _setup(cfg, level)
        sc = replace(cfg.solver, dt=cfg.solver.dt / 2**level)
        # each solve hands its windows straight to the evaluator, so no
        # level holds a whole trajectory.  The evaluator is looked up here, so
        # the benchmark's self-test can loosen this module's dual ascent
        bd, drop, res = _balance(_eps_solve(initial, p, tilt, sc), p, tilt,
                                 evaluate=dissipation_functional)
        hbd, hdrop, hres = _hat_balance(_effective_solve(initial.c.sum(axis=0), p, tilt, sc),
                                        p, tilt)
        return level, initial.n_cells, sc.dt_effective, bd, res, drop, hbd, hres, hdrop

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
    orders_ok = order_eps >= 0.8 and order_eff >= 0.8
    residual_ok = bool(res_eps[-1] <= 1e-3 * drop_eps and res_eff[-1] <= 1e-3 * drop_eff)
    summary = {
        "epsilon": eps,
        "fitted_order_fast_slow": order_eps,
        "fitted_order_effective": order_eff,
        "finest_residual_fast_slow": float(res_eps[-1]),
        "finest_residual_effective": float(res_eff[-1]),
        "finest_energy_drop_fast_slow": drop_eps,
        "finest_energy_drop_effective": drop_eff,
        "pass_orders_ge_0.8": orders_ok,
        "pass_finest_residual": residual_ok,
    }
    return orders_ok and residual_ok, summary, files


def _run_recovery_study(cfg: ExperimentConfig, outdir: Path):
    tilt, initial = _setup(cfg)
    hat0 = initial.c.sum(axis=0)
    hat_traj = solve_effective(hat0, cfg.params, tilt, cfg.solver)
    limit = reconstruct_from_coarse(hat_traj, cfg.params, tilt).trajectory
    d0 = hat_flux_dissipation(hat_traj, cfg.params, tilt).total

    rows = []
    for eps in sorted(cfg.epsilons, reverse=True):
        p = replace(cfg.params, epsilon=eps)
        rec = build_recovery_sequence(limit, p, tilt, lam=cfg.lam, alpha=cfg.alpha_exp,
                                      width_scale=cfg.width_scale)
        bd = flux_dissipation(rec.trajectory, p, tilt)
        rows.append((eps, rec.gamma, bd.vel_react, bd.total, d0, abs(bd.total - d0)))
        del rec  # keep only its scalars: release it before the next one is built
    files = [_write_csv(outdir / "recovery_study.csv",
                        ("epsilon", "gamma", "reaction_cost_term", "D_eps", "D_0", "gap"),
                        rows)]
    costs = [r[2] for r in rows]
    gaps = [r[5] for r in rows]
    cost_monotone = all(b < a for a, b in zip(costs, costs[1:]))
    gap_monotone = all(b < a for a, b in zip(gaps, gaps[1:]))
    cost_small = bool(costs[-1] < 1e-4)
    summary = {
        "D_0": float(d0),
        "final_reaction_cost": float(costs[-1]),
        "reaction_cost_monotone": cost_monotone,
        "gap_monotone": gap_monotone,
        "pass_final_cost_lt_1e-4": cost_small,
    }
    return cost_monotone and cost_small and gap_monotone, summary, files


def _run_multispecies_check(cfg: ExperimentConfig, outdir: Path):
    pair_gen = equation_generator(cfg.params)
    pair_report = validate_generator(pair_gen)
    w = pair_gen.stationary(1.0)
    pair_w_ok = bool(np.max(np.abs(w - cfg.params.w)) <= 1e-13)

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
    "eps_sweep": _run_eps_sweep,
    "edb_refinement": _run_edb_refinement,
    "mixed_diffusion_fit": _run_mixed_diffusion_fit,
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
        configs = default_configs()
        for name, doc in configs.items():
            _write_json(outdir / f"{name}.json", doc)
        print(f"wrote {len(configs)} configs to {outdir}")
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
