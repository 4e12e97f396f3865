"""Array ownership: solver results hold one read-only copy of their arrays.

Solvers hand the arrays they allocate to their result, which freezes them in
place; the public constructors copy what callers pass in.  Peaks are measured
with ``tracemalloc``, which numpy reports its buffers to, so the bounds are
deterministic and need nothing from the operating system.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from edpflow import (
    CoarseTrajectory,
    FluxAssignment,
    SolverConfig,
    SpatialGrid,
    State,
    SystemParams,
    Trajectory,
    coarse_grain_trajectory,
    manifold_split,
    random_detailed_balance_generator,
    reconstruct_from_coarse,
    solve_effective,
    solve_eps_system,
    solve_multispecies,
)
from edpflow.core import _Owned

from conftest import cosine_tilt

# states, J and b are the output; the b-sum of the flux check is the one
# allowed temporary (half of b for two species)
PEAK_OVER_OUTPUT = 1.25

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
    if isinstance(result, CoarseTrajectory):
        return [result.times, result.states] + ([result.fluxes] if result.fluxes is not None else [])
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
    output = sum(a.nbytes for a in _arrays(result))
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
    hat_states = np.full((3, 4), 0.5)
    hat_J = np.zeros((2, 5))
    fl = FluxAssignment(J, b)
    traj = Trajectory(times, states, fl)
    hat = CoarseTrajectory(times, hat_states, hat_J)
    state = State(states[0])
    pairs = [(traj.times, times), (traj.states, states), (fl.J, J), (fl.b, b),
             (hat.times, times), (hat.states, hat_states), (hat.fluxes, hat_J),
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
            CoarseTrajectory(np.array([0.0, 0.1]), s[:, 1])

    def test_negative_zero_and_empty_cells_pass(self):
        s = np.full((2, 2, 3), 0.5)
        s[0, 0, 0] = -0.0
        s[1, :, 1] = 0.0
        Trajectory(np.array([0.0, 0.1]), s)
        CoarseTrajectory(np.array([0.0, 0.1]), s[:, 0])

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
