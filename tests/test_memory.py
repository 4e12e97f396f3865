"""Array ownership and bounded working sets.

Solvers hand the arrays they allocate to their result, which freezes them in
place; the public constructors copy what callers pass in.  The flux check and
the CSV writer work in chunks, so their temporaries do not grow with the
trajectory, the scale sweeps hold at most one trajectory at a time, and the
refinement study, ``eps_sweep``, ``mixed_diffusion_fit`` and a streamed
network evaluation hold one solver window at a time.  Peaks are
measured with ``tracemalloc``, which numpy reports its buffers to, so the
bounds are deterministic and need nothing from the operating system.
"""

import gc
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from edpflow import (
    FluxAssignment,
    SolverConfig,
    SpatialGrid,
    State,
    SystemParams,
    Trajectory,
    coarse_grain_trajectory,
    load_config,
    manifold_split,
    multispecies_dissipation,
    random_detailed_balance_generator,
    reconstruct_from_coarse,
    run_experiment,
    solve_effective,
    solve_eps_system,
    solve_multispecies,
    trajectory_to_csv,
)
from edpflow.cli import _build_initial, _build_tilt
from edpflow.core import _CSV_BLOCK_ROWS, _g17_tables, _Owned, _window_unit
from edpflow.multispecies import _multispecies_solve

from conftest import cosine_tilt

# states, J and b are the output; the flux check's species sums are taken in
# chunks, so a temporary of half of b (a full two-species sum) exceeds this
PEAK_OVER_OUTPUT = 1.1
# bytes the CSV writer may hold at once, whatever the trajectory's length
CSV_WRITER_BUDGET = 3_000_000
# a sweep holds one trajectory and what is derived from it, never one per scale
SWEEP_PEAK_OVER_TRAJECTORY = 2.0
# eps_sweep reduces its trajectory block by block, without full-size temporaries
DEFECT_PEAK_OVER_TRAJECTORY = 1.3

N_CELLS = 80
CONFIG = SolverConfig(5e-5, 0.05)  # 1000 steps


def _traced_peak(fn):
    """``fn()`` and the peak of the allocations traced while it ran."""
    gc.collect()
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def _arrays(result):
    """Every array a trajectory-like result carries."""
    out = [result.times, result.states]
    if result.fluxes is not None:
        out += [result.fluxes.J, result.fluxes.b]
    return out


def _hat():
    return 1 + 0.5 * np.cos(np.pi * SpatialGrid(N_CELLS).cell_centers)


def _two_species():
    params = SystemParams((1.0, 2.0), 1.0, 3.0, epsilon=1e-3)
    tilt = cosine_tilt(N_CELLS, [[0.3], [-0.2]])
    return params, tilt, State(manifold_split(_hat(), params, tilt))


def _run_eps():
    params, tilt, c0 = _two_species()
    return lambda: solve_eps_system(c0, params, tilt, CONFIG)


def _run_effective():
    params, tilt, _ = _two_species()
    hat = _hat()
    return lambda: solve_effective(hat, params, tilt, CONFIG)


def _run_multispecies():
    gen = random_detailed_balance_generator(np.random.default_rng(0), 4)
    c0 = State(gen.stationary(1e-3)[:, None] * _hat()[None])
    return lambda: solve_multispecies(c0, gen, 1e-3, CONFIG)


SOLVERS = {"eps": _run_eps, "effective": _run_effective, "multispecies": _run_multispecies}


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_solver_peak_is_close_to_its_output(solver):
    run = SOLVERS[solver]()
    result, peak = _traced_peak(run)
    # one species' exchange amounts, 0, are a zero-stride view that holds no memory
    output = sum(a.nbytes for a in _arrays(result) if any(a.strides))
    assert output > 1_000_000  # large enough that fixed overheads do not matter
    # a copy of the output on construction would make the peak about twice it
    assert peak <= PEAK_OVER_OUTPUT * output, f"peak {peak / output:.3f} x output"


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_solver_results_are_read_only(solver):
    result = SOLVERS[solver]()()
    for a in _arrays(result):
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 1.0


def test_derived_trajectories_are_read_only():
    params, tilt, c0 = _two_species()
    traj = solve_eps_system(c0, params, tilt, SolverConfig(1e-3, 0.01))
    hat_traj = solve_effective(_hat(), params, tilt, SolverConfig(1e-3, 0.01))
    rec = reconstruct_from_coarse(hat_traj, params, tilt)
    for result in (coarse_grain_trajectory(traj), rec.trajectory):
        assert all(not a.flags.writeable for a in _arrays(result))
    assert not rec.b_closed_form.flags.writeable


def test_owned_arrays_are_adopted_not_copied():
    states = np.full((3, 2, 4), 0.25)
    J = np.zeros((2, 2, 5))
    b = np.zeros((2, 2, 4))
    traj = Trajectory(_Owned(0.1 * np.arange(3)), _Owned(states),
                      FluxAssignment(_Owned(J), _Owned(b)))
    assert traj.states is states and traj.fluxes.J is J and traj.fluxes.b is b
    assert not states.flags.writeable
    # adoption runs the same checks as a copy
    bad = np.full((3, 2, 4), 0.25)
    bad[1, 0, 2] = -1.0
    with pytest.raises(ValueError, match="finite and nonnegative"):
        Trajectory(_Owned(0.1 * np.arange(3)), _Owned(bad))


def test_public_constructors_copy_their_inputs():
    times = 0.1 * np.arange(3)
    states = np.full((3, 2, 4), 0.25)
    J = np.zeros((2, 2, 5))
    b = np.zeros((2, 2, 4))
    hat_states = np.full((3, 1, 4), 0.5)
    hat_J = np.zeros((2, 1, 5))
    fl = FluxAssignment(J, b)
    traj = Trajectory(times, states, fl)
    hat = Trajectory(times, hat_states, FluxAssignment(hat_J, np.zeros((2, 1, 4))))
    state = State(states[0])
    pairs = [(traj.times, times), (traj.states, states), (fl.J, J), (fl.b, b),
             (hat.times, times), (hat.states, hat_states), (hat.fluxes.J, hat_J),
             (state.c, states[0])]
    for held, given in pairs:
        assert not np.shares_memory(held, given)
    expected = [held.copy() for held, _ in pairs]
    for given in (times, states, J, b, hat_states, hat_J):
        given += 1.0  # the caller's arrays stay writeable and are theirs
    for (held, _), before in zip(pairs, expected):
        assert np.array_equal(held, before) and not held.flags.writeable
    # a read-only input is copied too: its owner may make it writeable again
    frozen = np.full((3, 2, 4), 0.25)
    frozen.setflags(write=False)
    assert not np.shares_memory(Trajectory(0.1 * np.arange(3), frozen).states, frozen)


class TestReductionChecks:
    """The constructors' checks reject exactly what the full-size masks rejected."""

    @pytest.mark.parametrize("value", [-1e-300, -np.inf, np.inf, np.nan])
    def test_states_must_be_finite_and_nonnegative(self, value):
        s = np.full((2, 2, 3), 0.5)
        s[1, 1, 2] = value
        with pytest.raises(ValueError, match="finite and nonnegative"):
            Trajectory(np.array([0.0, 0.1]), s)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            Trajectory(np.array([0.0, 0.1]), s[:, 1:])

    def test_negative_zero_and_empty_cells_pass(self):
        s = np.full((2, 2, 3), 0.5)
        s[0, 0, 0] = -0.0
        s[1, :, 1] = 0.0
        Trajectory(np.array([0.0, 0.1]), s)
        Trajectory(np.array([0.0, 0.1]), s[:, :1])

    def test_reaction_sum_tolerance_is_relative_to_max_abs_b(self):
        J = np.zeros((1, 3, 4))
        b = np.zeros((1, 3, 3))
        b[0, :, 0] = -1e3, 5e2, 5e2  # max |b| comes from a negative entry
        b[0, 0, 1] = 0.9e-9
        FluxAssignment(J, b)
        b[0, 0, 1] = -1.1e-9
        with pytest.raises(ValueError, match=r"sum to zero across species \(max 1\.100e-09\)"):
            FluxAssignment(J, b)

    def test_nan_reaction_sums_are_ignored_as_before(self):
        J = np.zeros((1, 2, 4))
        b = np.zeros((1, 2, 3))
        b[0, 0, 0] = np.nan
        FluxAssignment(J, b)
        b[0, 0, 2] = 1e-3
        with pytest.raises(ValueError, match="sum to zero"):
            FluxAssignment(J, b)


def test_flux_check_sums_species_in_chunks():
    b1 = np.random.default_rng(3).normal(size=(2000, 200))
    b = np.stack([b1, -b1], axis=1)
    J = np.zeros((2000, 2, 201))
    _, peak = _traced_peak(lambda: FluxAssignment(_Owned(J), _Owned(b)))
    # a full species sum would be half of b
    assert peak <= b.nbytes / 16, f"peak {peak} bytes"


@pytest.mark.parametrize("nan_first", [False, True])
def test_flux_check_reports_the_largest_sum_over_all_chunks(nan_first):
    J = np.zeros((3000, 2, 21))
    b = np.zeros((3000, 2, 20))
    b[10, 0, 3] = 5e-4
    b[2990, 0, 5] = -1e-3  # in the last chunk
    if nan_first:
        b[0, 1, 0] = np.nan  # skipped by the check, and by the max it reports
    expected = f"max {np.nanmax(np.abs(b.sum(axis=-2))):.3e}"
    assert expected == "max 1.000e-03"
    with pytest.raises(ValueError, match=re.escape(expected)):
        FluxAssignment(J, b)


def _export_like(n_times, n_cells=200):
    rng = np.random.default_rng(n_times)
    J = np.zeros((n_times - 1, 2, n_cells + 1))
    J[:, :, 1:-1] = rng.normal(size=(n_times - 1, 2, n_cells - 1))
    b1 = rng.normal(size=(n_times - 1, n_cells))
    return Trajectory(1e-4 * np.arange(n_times), rng.uniform(0.1, 2.0, (n_times, 2, n_cells)),
                      FluxAssignment(J, np.stack([b1, -b1], axis=1)))


def test_csv_writer_peak_is_bounded_whatever_the_length(tmp_path):
    _g17_tables()  # built once per process, not per file
    peaks = {}
    for n_times in (101, 1001):
        traj = _export_like(n_times)
        path, peaks[n_times] = _traced_peak(lambda: trajectory_to_csv(traj, tmp_path / "t.csv"))
        assert path.stat().st_size > 1000 * n_times
    assert peaks[1001] <= CSV_WRITER_BUDGET, f"peak {peaks[1001]} bytes"
    assert peaks[1001] <= peaks[101] + 100_000, peaks


def _sweep_config(experiment, tmp_path, **extra):
    doc = {
        "experiment": experiment,
        "output_dir": str(tmp_path / experiment),
        "grid": {"n_cells": N_CELLS},
        "params": {"delta": [1.0, 2.0], "alpha": 1.0, "beta": 3.0},
        "tilt": {"kind": "zero"},
        "epsilons": [1e-1, 1e-2, 1e-3, 1e-4],
    }
    doc.update(extra)
    return load_config(doc)


def _trajectory_bytes(cfg, eps, solver_config):
    """Bytes of the arrays of the trajectory an experiment solves at scale ``eps``."""
    grid = SpatialGrid(cfg.n_cells)
    tilt = _build_tilt(cfg.tilt_spec, grid)
    initial = _build_initial(cfg.initial_spec, grid, cfg.params, tilt)
    traj = solve_eps_system(initial, replace(cfg.params, epsilon=eps), tilt, solver_config)
    return sum(a.nbytes for a in _arrays(traj))


@pytest.mark.parametrize("write", [False, True])
def test_mixed_diffusion_fit_holds_one_trajectory_at_a_time(tmp_path, write):
    cfg = _sweep_config("mixed_diffusion_fit", tmp_path, write_trajectories=write,
                        solver={"dt": 5e-5, "t_final": 0.05, "scheme": "strang_cn"},
                        initial={"kind": "slow_manifold_cosine", "amplitude": 0.5})
    one = _trajectory_bytes(cfg, 1e-4, cfg.solver)
    assert one > 3_000_000
    _g17_tables()  # built once per process, not per file
    result, peak = _traced_peak(lambda: run_experiment(cfg))
    assert result.passed
    names = [p.name for p in result.files]
    expected = ["trajectory_eps_0.1.csv", "trajectory_eps_0.01.csv", "trajectory_eps_0.001.csv",
                "trajectory_eps_0.0001.csv"] if write else []
    assert names == expected + ["mixed_diffusion_fit.csv", "summary.json", "summary.txt"]
    # four trajectories held until the end of the sweep would make it over 4x
    assert peak <= SWEEP_PEAK_OVER_TRAJECTORY * one, f"peak {peak / one:.2f} x one trajectory"


def test_eps_sweep_peak_is_close_to_its_largest_trajectory(tmp_path):
    cfg = _sweep_config("eps_sweep", tmp_path, solver={"dt": 1e-4, "t_final": 0.02},
                        initial={"kind": "off_manifold_cosine", "amplitude": 0.5,
                                 "fractions": [0.55, 0.45]})
    # the smallest scale has the finest step, dt = epsilon / 5, and the largest trajectory
    largest = _trajectory_bytes(cfg, 1e-4, SolverConfig(2e-5, 0.02))
    assert largest > 3_000_000
    _, peak = _traced_peak(lambda: run_experiment(cfg))
    # full-size density ratios and square roots would add over half the states again
    assert peak <= DEFECT_PEAK_OVER_TRAJECTORY * largest, f"peak {peak / largest:.2f} x trajectory"


# a streamed solve holds one window of the trajectory, whatever its length
STREAMED_PEAK_GROWTH = 1.1


def _peak_growth(make_config, steps):
    """Traced peaks of an experiment at ``steps`` and at four times as many time steps."""
    peaks = []
    for factor in (1, 4):
        cfg = make_config(factor * steps)
        peaks.append(_traced_peak(lambda: run_experiment(cfg))[1])
    return peaks


def test_edb_refinement_level_does_not_grow_with_the_steps(tmp_path):
    # levels on 32 and 64 cells: every solve of the shorter run already
    # fills its windows, so only a stored trajectory would grow
    dt = 1e-3
    steps = max(_window_unit(u) for u in (32, 64, 128))

    def config(n_steps):
        return _sweep_config("edb_refinement", tmp_path / str(n_steps), grid={"n_cells": 32},
                             tilt={"kind": "cosine", "coefficients": [[0.3], [-0.2]]},
                             initial={"kind": "stationary_perturbation", "amplitude": 0.4},
                             solver={"dt": dt, "t_final": n_steps * dt}, epsilons=[0.1], levels=2)

    short, long = _peak_growth(config, steps)
    # the level on 64 cells would hold over 6 MB of trajectory after quadrupling
    assert long <= STREAMED_PEAK_GROWTH * short, f"peaks {short} and {long} bytes"


def test_eps_sweep_does_not_grow_with_the_steps(tmp_path):
    # the smallest scale steps at epsilon / 5 and fills its windows; the
    # sweep keeps one value per interval, a small fraction of one window
    n, eps = 80, [1e-3, 1e-4]
    dt = eps[-1] / 5

    def config(n_steps):
        return _sweep_config("eps_sweep", tmp_path / str(n_steps), grid={"n_cells": n},
                             solver={"dt": 1e-4, "t_final": n_steps * dt}, epsilons=eps,
                             initial={"kind": "off_manifold_cosine", "amplitude": 0.5,
                                      "fractions": [0.55, 0.45]})

    # the sweep reads its solves in windows of its own
    short, long = _peak_growth(config, _window_unit(2 * n))
    assert long <= STREAMED_PEAK_GROWTH * short, f"peaks {short} and {long} bytes"


@pytest.mark.parametrize("write", [False, True])
def test_mixed_diffusion_fit_does_not_grow_with_the_steps(tmp_path, write):
    # two solver windows in the shorter run; the fit keeps one amplitude
    # per time level, a small fraction of one level's densities and fluxes
    dt = 5e-5
    steps = 2 * _window_unit(2 * N_CELLS, _CSV_BLOCK_ROWS // N_CELLS)

    def config(n_steps):
        return _sweep_config("mixed_diffusion_fit", tmp_path / str(n_steps),
                             write_trajectories=write,
                             solver={"dt": dt, "t_final": n_steps * dt, "scheme": "strang_cn"},
                             initial={"kind": "slow_manifold_cosine", "amplitude": 0.5})

    _g17_tables()  # built once per process, not per file
    short, long = _peak_growth(config, steps)
    # a stored trajectory would hold over 2 MB more after quadrupling
    assert long <= STREAMED_PEAK_GROWTH * short, f"peaks {short} and {long} bytes"


def test_streamed_network_evaluation_does_not_grow_with_the_steps():
    # on 64 cells and 4 species a window is 64 intervals; the shorter run
    # streams two windows
    n, eps = 64, 1e-3
    gen = random_detailed_balance_generator(np.random.default_rng(0), 4)
    hat = 1 + 0.5 * np.cos(np.pi * SpatialGrid(n).cell_centers)
    c0 = State(gen.stationary(eps)[:, None] * hat[None])
    window = _window_unit(4 * n)

    def evaluate(n_steps):
        config = SolverConfig(1e-4, n_steps * 1e-4)
        solve = _multispecies_solve(c0, gen, eps, config)
        return lambda: multispecies_dissipation(solve, gen, eps)

    short = _traced_peak(evaluate(2 * window))[1]
    long = _traced_peak(evaluate(8 * window))[1]
    # the stored trajectory would make the longer evaluation's peak over 1.5 x
    assert long <= STREAMED_PEAK_GROWTH * short, f"peaks {short} and {long} bytes"
