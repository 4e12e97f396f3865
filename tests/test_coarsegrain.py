from dataclasses import replace

import numpy as np
import pytest

from edpflow import (
    FluxAssignment,
    SolverConfig,
    State,
    SystemParams,
    Tilt,
    Trajectory,
    build_recovery_sequence,
    coarse_grain,
    coarse_grain_trajectory,
    coarse_params,
    dissipation_functional,
    edb_residual,
    effective_dissipation,
    energy,
    flux_dissipation,
    flux_equilibration_check,
    gce_residual,
    hat_dissipation,
    hat_edb_residual,
    hat_energy,
    hat_flux_dissipation,
    lagrange_multipliers,
    manifold_split,
    mollify_in_time,
    reconstruct_from_coarse,
    shift_positive,
    slow_manifold_defect,
    solve_effective,
    solve_eps_system,
    stationary_measure,
    total_mass,
)
from edpflow.coarsegrain import SLOW_MANIFOLD_TOL, optimal_coarse_flux
from edpflow.core import _check_trajectory
from edpflow.solver import _effective_solve

from conftest import cosine_tilt, positive_state


def reference_hat_trajectory(params, tilt, n=30, dt=1e-3, t_final=0.05, amp=0.4):
    x = (np.arange(n) + 0.5) / n
    cp = coarse_params(params, tilt)
    hat0 = cp.w_hat * (1 + amp * np.cos(np.pi * x))
    hat0 /= hat0.sum() / n
    return solve_effective(hat0, params, tilt, SolverConfig(dt, t_final))


class TestCoarseGrain:
    def test_uniform(self):
        assert np.allclose(coarse_grain(State(np.full((2, 5), 0.5))), 1.0)

    def test_stationary(self, params):
        tilt = cosine_tilt(8, [[0.3], [0.1]])
        w_v, _ = stationary_measure(params, tilt)
        cp = coarse_params(params, tilt)
        assert np.allclose(coarse_grain(State(w_v)), cp.w_hat)

    def test_mass_preserved(self, params, rng):
        st = positive_state(rng, 9)
        assert coarse_grain(st).sum() / 9 == pytest.approx(total_mass(st))

    def test_trajectory_sums_states_and_face_fluxes(self, params, rng):
        # one species: the species sums, bit for bit, and exchange amounts of 0
        # that hold no memory
        n = 16
        traj = solve_eps_system(positive_state(rng, n), params, cosine_tilt(n, [[0.3], [-0.2]]),
                                SolverConfig(1e-3, 0.02))
        hat = coarse_grain_trajectory(traj)
        assert hat.n_species == 1 and hat.times.tobytes() == traj.times.tobytes()
        assert hat.states[:, 0].tobytes() == traj.states.sum(axis=1).tobytes()
        assert hat.fluxes.J[:, 0].tobytes() == traj.fluxes.J.sum(axis=1).tobytes()
        assert hat.fluxes.b.shape == (20, 1, n) and not hat.fluxes.b.any()
        assert not any(hat.fluxes.b.strides) and not hat.fluxes.b.flags.writeable
        FluxAssignment(hat.fluxes.J, hat.fluxes.b)  # its checks, on copies


@pytest.mark.parametrize("entry", [
    lambda traj, params, tilt: hat_dissipation(traj, params, tilt),
    lambda traj, params, tilt: hat_flux_dissipation(traj, params, tilt),
    lambda traj, params, tilt: hat_edb_residual(traj, params, tilt),
    lambda traj, params, tilt: reconstruct_from_coarse(traj, params, tilt),
    lambda traj, params, tilt: shift_positive(traj, 0.1),
    lambda traj, params, tilt: mollify_in_time(traj, 0.005),
], ids=["hat_dissipation", "hat_flux_dissipation", "hat_edb_residual", "reconstruct_from_coarse",
        "shift_positive", "mollify_in_time"])
def test_coarse_entry_points_reject_two_species(params, rng, entry):
    n = 16
    tilt = cosine_tilt(n, [[0.3], [-0.2]])
    traj = solve_eps_system(positive_state(rng, n), params, tilt, SolverConfig(1e-3, 0.02))
    with pytest.raises(ValueError, match="coarse data have one species, got 2"):
        entry(traj, params, tilt)


_NAN = np.array([1, 1, 1, np.nan, 1, 1, 1, 1])
_NEGATIVE = np.array([1, 1, 1, -0.5, 1.5, 1, 1, 1])


@pytest.mark.parametrize("entry", [
    lambda hat, params, tilt: solve_effective(hat, params, tilt, SolverConfig(1e-3, 0.01)),
    manifold_split,
    lagrange_multipliers,
    hat_energy,
], ids=["solve_effective", "manifold_split", "lagrange_multipliers", "hat_energy"])
@pytest.mark.parametrize("hat, tilt, match", [
    (_NAN, Tilt.zero(8), "coarse density must be finite"),
    (_NEGATIVE, Tilt.zero(8), r"negative density \(min -0\.5\)"),
    (np.ones(7), Tilt.zero(8), r"coarse density shape \(7,\) does not match the tilt's 8 cells"),
    (np.ones(8), Tilt.zero(8, n_species=3), "the coarse system's tilt has two species, got 3"),
], ids=["nan", "negative", "7 cells on 8", "three-species tilt"])
def test_coarse_density_entry_points_share_one_check(params, entry, hat, tilt, match):
    # a NaN cell ran into the solver's time loop (IntegrationError) and gave
    # NaN splits and multipliers; a negative one split into negative species;
    # 7 cells gave numpy's broadcast error
    with pytest.raises(ValueError, match=match):
        entry(hat, params, tilt)


@pytest.mark.parametrize("entry", [
    dissipation_functional, flux_dissipation, edb_residual, slow_manifold_defect,
    effective_dissipation, build_recovery_sequence,
])
@pytest.mark.parametrize("data, tilt, match", [
    ("coarse", Tilt.zero(8), "two-species evaluation, got 1 species: coarse data go to the "
                             r"hat_\* functions, networks to multispecies"),
    ("three", Tilt.zero(8), "two-species evaluation, got 3 species"),
    ("two", Tilt.zero(10), r"tilt shape \(2, 10\) does not match state \(2, 8\)"),
], ids=["one species", "three species", "tilt of another grid"])
def test_fast_slow_entry_points_share_one_species_check(params, entry, data, tilt, match):
    # a coarse solve gave a defect of 1.333, so inf and "off the slow
    # manifold", or State's shape message; three species gave numpy's
    # broadcast error
    traj = {
        "coarse": lambda: solve_effective(np.ones(8), params, Tilt.zero(8), SolverConfig(1e-3, 0.01)),
        "three": lambda: Trajectory(np.array([0.0, 0.01]), np.full((2, 3, 8), 1 / 3)),
        "two": lambda: Trajectory(np.array([0.0, 0.01]), np.full((2, 2, 8), 0.5)),
    }[data]()
    with pytest.raises(ValueError, match=match):
        entry(traj, params, tilt)


def _corrupted(kind, times, states, J):
    """Copies of coarse trajectory data with the invariant ``kind`` broken."""
    times, states, J = times.copy(), states.copy(), J.copy()
    if kind == "non-increasing times":
        times[1] = times[0]
    elif kind == "NaN state":
        states[-1, 0, 2] = np.nan
    elif kind == "negative state":
        states[-1, 0, 2] = -1e-3
    elif kind == "flux shape":
        J = J[..., :-1]
    elif kind == "boundary flux":
        J[-1, 0, -1] = 1e-3
    return times, states, J


class TestCoarseTrajectoryChecks:
    """A coarse trajectory, stored or a window of a solve, is checked as a trajectory of one
    species, the windows after the first but for their start at time 0."""

    def _solve(self, params):
        n = 12
        hat0 = 1 + 0.5 * np.cos(np.pi * (np.arange(n) + 0.5) / n)
        return _effective_solve(hat0, params, cosine_tilt(n, [[0.3], [-0.2]]),
                                SolverConfig(1e-3, 0.02))

    def _sources(self, params):
        """The stored solve and copies of its windows of 7 steps, the later ones after time 0."""
        solve = self._solve(params)
        stored = solve.result()
        windows = [[a.copy() for a in window] for window in solve.windows(7)]
        assert [w[0][0] > 0 for w in windows] == [False, True, True]
        return [(stored.times, stored.states, stored.fluxes.J)] + [w[:3] for w in windows]

    def test_windows_are_coarse_trajectories(self, params):
        for times, states, J in self._sources(params):
            _check_trajectory(times, states, J)
            assert states.shape[1:] == (1, 12)

    @pytest.mark.parametrize("kind", ["non-increasing times", "NaN state", "negative state",
                                      "flux shape", "boundary flux"])
    def test_broken_invariant_raises(self, params, kind):
        for times, states, J in self._sources(params):
            with pytest.raises(ValueError):
                _check_trajectory(*_corrupted(kind, times, states, J))

    def test_solve_checks_its_windows(self, params):
        # a step that leaves flux on the right wall
        solve = self._solve(params)
        make = solve.kernel

        def leaky():
            kernel = make()

            def step(c, out, J, b):
                kernel(c, out, J, b)
                J[..., -1] = 1e-3

            return step

        solve.kernel = leaky
        with pytest.raises(ValueError, match="boundary faces must carry zero flux"):
            list(solve.windows(7))


class TestCoarseParams:
    def test_mixed_coefficient_value(self, params):
        cp = coarse_params(params, Tilt.zero(6))
        assert np.allclose(cp.delta_hat, 1.25)

    def test_common_tilt(self):
        p = SystemParams((1.0, 2.0), 1.0, 3.0)
        tilt = cosine_tilt(10, [[0.7], [0.7]])
        cp = coarse_params(p, tilt)
        assert np.allclose(cp.delta_hat, 1.25)
        shift = cp.v_hat - tilt.v_cells[0]
        assert np.allclose(shift, shift[0])

    def test_equal_diffusion_any_tilt(self, rng):
        p = SystemParams((1.6, 1.6), 2.0, 5.0)
        tilt = cosine_tilt(10, [[0.4, -0.3], [0.8]])
        cp = coarse_params(p, tilt)
        assert np.allclose(cp.delta_hat, 1.6)

    def test_bounds_and_exponential_identity(self, rng):
        p = SystemParams((0.7, 2.3), 1.5, 0.8)
        for _ in range(10):
            coeffs = [list(rng.normal(0, 0.5, 2)), list(rng.normal(0, 0.5, 2))]
            tilt = cosine_tilt(12, coeffs)
            cp = coarse_params(p, tilt)
            assert np.all(cp.delta_hat >= min(p.delta) - 1e-14)
            assert np.all(cp.delta_hat <= max(p.delta) + 1e-14)
            lhs = np.exp(-cp.v_hat)
            rhs = (p.w[:, None] * np.exp(-tilt.v_cells)).sum(axis=0)
            assert np.allclose(lhs, rhs, rtol=1e-13)


class TestHatEnergy:
    def test_matches_two_species_energy_on_manifold(self, params, rng):
        tilt = cosine_tilt(14, [[0.5], [-0.2]])
        hat = rng.uniform(0.5, 1.5, 14)
        hat /= hat.sum() / 14
        st = State(manifold_split(hat, params, tilt))
        assert hat_energy(hat, params, tilt) == pytest.approx(
            energy(st, params, tilt), abs=1e-13
        )

    def test_rejects_negative(self, params):
        with pytest.raises(ValueError):
            hat_energy(np.array([-0.1, 2.1]), params, Tilt.zero(2))

    @pytest.mark.parametrize("hat, match", [
        (np.array([1, 1, 1, np.nan, 1, 1, 1, 1]), "coarse density must be finite"),
        (np.array([1, 1, 1, np.inf, 1, 1, 1, 1]), "coarse density must be finite"),
        (np.ones(7), r"shape \(7,\) does not match the tilt's 8 cells"),
    ], ids=["nan", "inf", "7 cells"])
    def test_rejects_what_energy_rejects(self, params, hat, match):
        # as energy does through State and its shape check; NaN evaluated to
        # nan, inf to a RuntimeWarning and 7 cells to numpy's broadcast error
        with pytest.raises(ValueError, match=match):
            hat_energy(hat, params, Tilt.zero(8))


class TestReconstruction:
    def test_requires_fluxes(self, params):
        hat = Trajectory(np.array([0.0, 0.1]), np.ones((2, 1, 5)))
        with pytest.raises(ValueError, match="no fluxes"):
            reconstruct_from_coarse(hat, params, Tilt.zero(5))

    def test_rejects_broken_continuity(self, params):
        n = 5
        states = np.ones((2, 1, n))
        states[1, 0, 2] += 0.1  # mass appears from nowhere
        J = np.zeros((1, 1, n + 1))
        hat = Trajectory(np.array([0.0, 0.1]), states, FluxAssignment(J, np.zeros((1, 1, n))))
        with pytest.raises(ValueError, match="continuity"):
            reconstruct_from_coarse(hat, params, Tilt.zero(n))

    def test_zero_tilt_constants(self, params):
        # delta=(1,2), rates (1,3): mobility fractions 0.6/0.4 and reaction
        # coefficient -0.15 against the coarse flux divergence
        hat = reference_hat_trajectory(params, Tilt.zero(40), n=40)
        rec = reconstruct_from_coarse(hat, params, Tilt.zero(40))
        J, b = rec.trajectory.fluxes.J, rec.trajectory.fluxes.b
        assert np.max(np.abs(J[:, 0] - 0.6 * hat.fluxes.J[:, 0])) < 1e-12
        assert np.max(np.abs(J[:, 1] - 0.4 * hat.fluxes.J[:, 0])) < 1e-12
        div = (hat.fluxes.J[:, 0, 1:] - hat.fluxes.J[:, 0, :-1]) * 40
        assert np.max(np.abs(b[:, 0] + 0.15 * div)) < 1e-12
        assert np.max(np.abs(b - rec.b_closed_form)) < 1e-12

    def test_gce_identically_zero(self, params):
        tilt = cosine_tilt(24, [[0.4], [-0.3]])
        hat = reference_hat_trajectory(params, tilt, n=24)
        rec = reconstruct_from_coarse(hat, params, tilt)
        assert np.max(np.abs(gce_residual(rec.trajectory))) == 0.0

    def test_reaction_fluxes_sum_to_zero_at_small_steps(self, params):
        # a peaked coarse density (max 4) near equilibrium: the solver's own
        # continuity residual, about 1e-16 |c| / dt = 1.7e-12 at dt = 5e-4,
        # exceeds the tolerance of FluxAssignment if it stays in b1 + b2
        tilt = cosine_tilt(16, [[3.0], [3.0]])
        hat = reference_hat_trajectory(params, tilt, n=16, dt=5e-4, t_final=5e-3, amp=0.05)
        rec = reconstruct_from_coarse(hat, params, tilt)
        b = rec.trajectory.fluxes.b
        assert np.max(np.abs(b.sum(axis=1))) < 1e-14
        assert np.max(np.abs(gce_residual(rec.trajectory))) == 0.0

    def test_output_on_slow_manifold(self, params):
        tilt = cosine_tilt(24, [[0.4], [-0.3]])
        hat = reference_hat_trajectory(params, tilt, n=24)
        rec = reconstruct_from_coarse(hat, params, tilt)
        assert slow_manifold_defect(rec.trajectory, params, tilt) < 1e-14

    def test_minor_species_keeps_its_bits_under_a_large_tilt(self, params):
        # cosine tilt +-35: species 1's stationary fraction falls to 1e-31, so
        # a remainder total - share would leave it 0 and the limit off the
        # manifold; a remainder of a fraction >= 2^-20 loses at most 20 bits
        tilt = cosine_tilt(60, [[35], [-35]])
        hat = reference_hat_trajectory(params, tilt, n=60, t_final=0.02)
        limit = reconstruct_from_coarse(hat, params, tilt).trajectory
        assert limit.states.min() > 0
        assert slow_manifold_defect(limit, params, tilt) < 2.0**-32
        rec = build_recovery_sequence(limit, replace(params, epsilon=1e-3), tilt)
        assert np.max(np.abs(gce_residual(rec.trajectory))) == 0.0

    def test_coarse_grain_is_left_inverse(self, params):
        tilt = cosine_tilt(24, [[0.4], [-0.3]])
        hat = reference_hat_trajectory(params, tilt, n=24)
        rec = reconstruct_from_coarse(hat, params, tilt)
        back = coarse_grain_trajectory(rec.trajectory)
        assert np.max(np.abs(back.states - hat.states)) < 1e-14

    def test_closed_form_reaction_flux_consistent_under_refinement(self, params):
        gaps = []
        for n in (20, 40):
            tilt = cosine_tilt(n, [[0.5], [-0.3]])
            hat = reference_hat_trajectory(params, tilt, n=n, dt=1e-3 * 20 / n)
            rec = reconstruct_from_coarse(hat, params, tilt)
            gaps.append(np.max(np.abs(rec.trajectory.fluxes.b - rec.b_closed_form)))
        assert gaps[1] < gaps[0] / 3.0  # second-order agreement


class TestFluxEquilibration:
    def test_lopsided_fluxes_positive_gap(self, params, rng):
        st = positive_state(rng, 10)
        j1 = np.zeros(11)
        j1[1:-1] = rng.normal(size=9)
        gap = flux_equilibration_check(st, j1, np.zeros(11), params)
        assert gap > 0

    def test_reconstructed_fluxes_equalize(self, params):
        hat = reference_hat_trajectory(params, Tilt.zero(30))
        rec = reconstruct_from_coarse(hat, params, Tilt.zero(30))
        m = rec.trajectory.n_times // 2
        gap = flux_equilibration_check(
            rec.trajectory.state(m),
            rec.trajectory.fluxes.J[m, 0],
            rec.trajectory.fluxes.J[m, 1],
            params,
        )
        assert abs(gap) < 1e-12

    def test_quadratic_homogeneity(self, params, rng):
        st = positive_state(rng, 8)
        j1 = np.zeros(9); j1[1:-1] = rng.normal(size=7)
        j2 = np.zeros(9); j2[1:-1] = rng.normal(size=7)
        g1 = flux_equilibration_check(st, j1, j2, params)
        g3 = flux_equilibration_check(st, 3 * j1, 3 * j2, params)
        assert g3 == pytest.approx(9 * g1, rel=1e-12)

    def test_requires_positive_densities(self, params):
        c = np.full((2, 4), 0.5); c[0, 1] = 0.0
        with pytest.raises(ValueError):
            flux_equilibration_check(State(c), np.zeros(5), np.zeros(5), params)


class TestPositiveShift:
    def test_lower_bound_and_mass(self, params, rng):
        n = 12
        states = rng.uniform(0.0, 2.0, (4, n))
        states /= states.sum(axis=1, keepdims=True) / n
        hat = Trajectory(0.1 * np.arange(4), states[:, None])
        for gamma in (1e-4, 0.01, 0.2, 0.5):
            shifted = shift_positive(hat, gamma)
            assert shifted.states.min() >= gamma - 1e-15
            assert np.max(np.abs(shifted.states.sum(axis=2) / n - 1.0)) < 1e-12

    def test_energy_control(self, params, rng):
        # energy of shifted states stays bounded by original + O(gamma)
        n = 16
        hat = rng.uniform(0.0, 2.0, n)
        hat /= hat.sum() / n
        tilt = cosine_tilt(n, [[0.3], [0.2]])
        base = hat_energy(hat, params, tilt)
        sup = -np.inf
        for gamma in np.linspace(1e-3, 0.5, 20):
            shifted = (hat + 2 * gamma) / (1 + 2 * gamma)
            val = hat_energy(shifted, params, tilt)
            sup = max(sup, val - 8.0 * gamma)
        assert np.isfinite(sup)
        assert sup <= base + 1e-12

    def test_preserves_continuity(self, params):
        hat = reference_hat_trajectory(params, Tilt.zero(20), n=20)
        shifted = shift_positive(hat, 0.3)
        dt = np.diff(shifted.times)[:, None, None]
        ce = (shifted.states[1:] - shifted.states[:-1]) / dt + (
            shifted.fluxes.J[..., 1:] - shifted.fluxes.J[..., :-1]
        ) * 20
        assert np.max(np.abs(ce)) < 1e-11


class TestMollification:
    def test_preserves_continuity_and_mass(self, params):
        hat = reference_hat_trajectory(params, Tilt.zero(20), n=20, t_final=0.04)
        sm = mollify_in_time(hat, half_width=0.006)
        dt = np.diff(sm.times)[:, None, None]
        ce = (sm.states[1:] - sm.states[:-1]) / dt + (sm.fluxes.J[..., 1:] - sm.fluxes.J[..., :-1]) * 20
        assert np.max(np.abs(ce)) < 1e-11
        assert np.max(np.abs(sm.states.sum(axis=2) / 20 - 1.0)) < 1e-12

    def test_tiny_width_is_noop(self, params):
        hat = reference_hat_trajectory(params, Tilt.zero(20), n=20, t_final=0.04)
        sm = mollify_in_time(hat, half_width=1e-9)
        assert sm is hat

    def test_smooths_rate(self, params):
        hat = reference_hat_trajectory(params, Tilt.zero(20), n=20, t_final=0.04)
        sm = mollify_in_time(hat, half_width=0.01)
        dt = np.diff(hat.times)[:, None, None]
        raw = np.max(np.abs((hat.states[1:] - hat.states[:-1]) / dt))
        smooth = np.max(np.abs((sm.states[1:] - sm.states[:-1]) / dt))
        assert smooth < raw


def test_optimal_coarse_flux_solves_continuity(rng):
    n = 14
    h = 1.0 / n
    rate = rng.normal(size=n)
    rate -= rate.mean()
    J = optimal_coarse_flux(rate, h)
    assert J[0] == 0.0 and J[-1] == 0.0
    assert np.max(np.abs(rate + (J[1:] - J[:-1]) / h)) < 1e-11


def test_optimal_coarse_flux_is_the_only_flux_of_the_rate(rng):
    # in one dimension the continuity equation fixes the flux, whatever the
    # mobilities, so it takes none; stacked rates alike
    n, h = 9, 1.0 / 9
    rate = rng.normal(size=(3, n))
    rate -= rate.mean(axis=1, keepdims=True)
    J = optimal_coarse_flux(rate, h)
    assert np.max(np.abs(J[:, 1:-1] + h * np.cumsum(rate, axis=1)[:, :-1])) < 1e-15
    assert np.array_equal(J[1], optimal_coarse_flux(rate[1], h))


class TestRecoverySequence:
    def test_shift_mollify_reconstruct_pipeline(self, params):
        tilt = Tilt.zero(30)
        hat = reference_hat_trajectory(params, tilt, n=30, t_final=0.05, amp=0.3)
        limit = reconstruct_from_coarse(hat, params, tilt).trajectory
        rec = build_recovery_sequence(limit, replace(params, epsilon=1e-3), tilt)
        assert rec.gamma == pytest.approx(1e-3 ** 0.1)
        assert np.max(np.abs(gce_residual(rec.trajectory))) == 0.0
        assert total_mass(rec.trajectory.final_state) == pytest.approx(1.0, abs=1e-12)
        assert rec.trajectory.states.min() > 0

    def test_exchange_cost_trend(self, params):
        # the exchange-cost term of the scale-indexed trajectory decreases
        # monotonically; the coarse-level value has no exchange cost at all
        tilt = Tilt.zero(30)
        hat = reference_hat_trajectory(params, tilt, n=30, t_final=0.05, amp=0.3)
        limit = reconstruct_from_coarse(hat, params, tilt).trajectory
        d0 = hat_flux_dissipation(hat, params, tilt).total
        costs, gaps = [], []
        for eps in (1e-1, 1e-2, 1e-3):
            p = replace(params, epsilon=eps)
            rec = build_recovery_sequence(limit, p, tilt)
            bd = flux_dissipation(rec.trajectory, p, tilt)
            costs.append(bd.vel_react)
            gaps.append(abs(bd.total - d0))
        assert costs[0] > costs[1] > costs[2]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_limit_without_fluxes_gets_optimal_ones(self, params):
        tilt = Tilt.zero(20)
        hat = reference_hat_trajectory(params, tilt, n=20, t_final=0.03)
        limit_full = reconstruct_from_coarse(hat, params, tilt).trajectory
        limit_bare = Trajectory(limit_full.times, limit_full.states)
        rec = build_recovery_sequence(limit_bare, replace(params, epsilon=1e-2), tilt)
        assert np.max(np.abs(gce_residual(rec.trajectory))) == 0.0

    def test_one_manifold_threshold(self, params):
        # a slow-manifold trajectory with mass moved from species 2 to species
        # 1 in one cell: the summed density keeps its values and the defect
        # grows linearly with the amount moved, to just below and just above
        # the threshold that the limit dissipation and the recovery share
        tilt = cosine_tilt(12, [[0.3], [-0.2]])
        hat = reference_hat_trajectory(params, tilt, n=12, dt=1e-2, t_final=0.05)
        on = reconstruct_from_coarse(hat, params, tilt).trajectory
        moved = np.zeros(on.states.shape)
        moved[:, 0, 5], moved[:, 1, 5] = 1.0, -1.0

        def shifted(amount):
            return Trajectory(on.times, on.states + amount * moved)

        per_unit = slow_manifold_defect(shifted(1e-3), params, tilt) / 1e-3
        below = shifted(0.99 * SLOW_MANIFOLD_TOL / per_unit)
        above = shifted(1.01 * SLOW_MANIFOLD_TOL / per_unit)
        assert 0.98 * SLOW_MANIFOLD_TOL < slow_manifold_defect(below, params, tilt) < SLOW_MANIFOLD_TOL
        assert SLOW_MANIFOLD_TOL < slow_manifold_defect(above, params, tilt) < 1.02 * SLOW_MANIFOLD_TOL

        assert np.isfinite(effective_dissipation(below, params, tilt))
        rec = build_recovery_sequence(below, replace(params, epsilon=1e-2), tilt)
        assert np.max(np.abs(gce_residual(rec.trajectory))) == 0.0
        with pytest.warns(UserWarning, match="off the slow manifold"):
            assert effective_dissipation(above, params, tilt) == np.inf
        with pytest.raises(ValueError, match="off the slow manifold"):
            build_recovery_sequence(above, replace(params, epsilon=1e-2), tilt)

    def test_underflowed_weights_keep_the_defect_defined(self, params):
        # cosine tilt +-400 on 20 cells: w_v underflows to 0 in 6 cells, where
        # the manifold holds none of that species
        tilt = cosine_tilt(20, [[400], [-400]])
        w_v, _ = stationary_measure(params, tilt)
        assert np.count_nonzero(w_v == 0) == 6
        on = manifold_split(np.ones(20), params, tilt)
        off, stray = on.copy(), on.copy()
        off[:, 10] = 0.7, 0.3
        stray[0, 0] = 1e-3  # on a zero weight
        assert slow_manifold_defect(State(on), params, tilt) < 1e-15
        assert slow_manifold_defect(State(off), params, tilt) > 1e20
        assert slow_manifold_defect(State(stray), params, tilt) == np.inf
        traj = Trajectory(np.array([0.0, 0.1]), np.stack([off, off]))
        with pytest.warns(UserWarning, match="off the slow manifold"):
            assert effective_dissipation(traj, params, tilt) == np.inf

    def test_off_manifold_limit_rejected(self, params, rng):
        st = positive_state(rng, 12)
        traj = Trajectory(np.array([0.0, 0.1]), np.repeat(st.c[None], 2, axis=0))
        with pytest.raises(ValueError, match="off the slow manifold"):
            build_recovery_sequence(traj, replace(params, epsilon=1e-2), Tilt.zero(12))
