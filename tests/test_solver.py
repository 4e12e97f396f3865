import logging
import warnings

import numpy as np
import pytest
from scipy.linalg import solve_banded

import edpflow.core
from edpflow import (
    IntegrationError,
    SolverConfig,
    SpatialGrid,
    State,
    SystemParams,
    Tilt,
    gce_residual,
    lagrange_multipliers,
    manifold_split,
    random_detailed_balance_generator,
    solve_effective,
    solve_eps_system,
    solve_multispecies,
    stationary_measure,
    total_mass,
)
from edpflow.coarsegrain import coarse_grain_trajectory, coarse_params
from edpflow.core import _window_unit
from edpflow.multispecies import _generator_exp, _multispecies_solve
from edpflow.solver import (
    _Clamps,
    _effective_solve,
    _eps_solve,
    _exchange_rates,
    _guard_nonnegative,
    central_first_derivative,
    central_second_derivative,
)

from conftest import blow_up_case, cosine_tilt, positive_state
from reference_step import reference_effective, reference_eps, reference_multispecies

_ALL_SCHEMES = ["strang_exact_reaction", "strang_cn"]


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(0.0, 1.0)
    with pytest.raises(ValueError):
        SolverConfig(0.5, 0.1)
    with pytest.raises(ValueError):
        SolverConfig(0.1, 1.0, scheme="rk4")
    for t_final in (np.inf, np.nan):  # no step count: round() overflows or fails
        with pytest.raises(ValueError, match="finite"):
            SolverConfig(0.1, t_final)
    with pytest.raises(ValueError, match="dt must be finite, got inf"):
        SolverConfig(np.inf, 1.0)
    cfg = SolverConfig(0.3, 1.0)
    assert cfg.n_steps == 3
    assert cfg.n_steps * cfg.dt_effective == pytest.approx(1.0)


@pytest.mark.parametrize("scheme", ["strang_exact_reaction", "strang_cn"])
def test_tilted_stationary_state_is_fixed(params, scheme):
    tilt = cosine_tilt(30, [[0.4], [-0.3, 0.1]])
    w_v, _ = stationary_measure(params, tilt)
    traj = solve_eps_system(State(w_v), params, tilt, SolverConfig(1e-3, 0.02, scheme))
    assert np.max(np.abs(traj.states - w_v[None])) < 1e-12


def test_uniform_manifold_equilibrium_is_fixed(params):
    n = 12
    c0 = State(np.tile(params.w[:, None], (1, n)))
    traj = solve_eps_system(c0, params, Tilt.zero(n), SolverConfig(1e-3, 0.02))
    assert np.max(np.abs(traj.states - c0.c[None])) < 1e-13


def test_equal_diffusion_sum_solves_heat_equation():
    # summing the two equations cancels the exchange for any epsilon
    n = 24
    grid = SpatialGrid(n)
    x = grid.cell_centers
    hat0 = 1 + 0.5 * np.cos(np.pi * x)
    cfg = SolverConfig(1e-3, 0.03)
    tilt = Tilt.zero(n)
    sums = []
    for eps in (1.0, 1e-4):
        p = SystemParams((1.4, 1.4), 1.0, 3.0, epsilon=eps)
        c0 = State(np.stack([0.7 * hat0, 0.3 * hat0]))
        traj = solve_eps_system(c0, p, tilt, cfg)
        sums.append(traj.states.sum(axis=1))
    heat = solve_effective(hat0, SystemParams((1.4, 1.4), 1.0, 3.0), tilt, cfg)
    for hat in sums:
        assert np.max(np.abs(hat - heat.states[:, 0])) < 1e-12


@pytest.mark.parametrize("scheme", _ALL_SCHEMES)
def test_mass_conservation_and_positivity(params, scheme, rng):
    n = 20
    tilt = cosine_tilt(n, [[0.3], [0.2]])
    c0 = rng.uniform(0.2, 1.0, (2, n))
    c0 = State(c0 / (c0.sum() / n))
    p = SystemParams(params.delta, params.alpha, params.beta, epsilon=1.0)
    traj = solve_eps_system(c0, p, tilt, SolverConfig(5e-4, 0.02, scheme))
    masses = traj.states.sum(axis=(1, 2)) / n
    assert np.max(np.abs(masses - 1.0)) < 1e-12
    assert traj.states.min() >= 0.0


@pytest.mark.parametrize("scheme", _ALL_SCHEMES)
def test_solver_fluxes_satisfy_gce(params, scheme):
    n = 15
    tilt = cosine_tilt(n, [[0.25], [-0.15]])
    w_v, _ = stationary_measure(params, tilt)
    c0 = w_v * (1 + 0.3 * np.cos(np.pi * (np.arange(n) + 0.5) / n))
    c0 = State(c0 / (c0.sum() / n))
    p = SystemParams(params.delta, params.alpha, params.beta, epsilon=0.5)
    traj = solve_eps_system(c0, p, tilt, SolverConfig(1e-3, 0.01, scheme))
    assert np.max(np.abs(gce_residual(traj))) < 1e-10


def test_stiff_scale_costs_nothing(params):
    # exact exchange exponential: extreme scale separation stays stable
    n = 10
    p = SystemParams((1.0, 2.0), 1.0, 3.0, epsilon=1e-8)
    x = (np.arange(n) + 0.5) / n
    hat0 = 1 + 0.2 * np.cos(np.pi * x)
    c0 = State(np.stack([0.5 * hat0, 0.5 * hat0]))
    traj = solve_eps_system(c0, p, Tilt.zero(n), SolverConfig(1e-3, 0.01))
    assert np.all(np.isfinite(traj.states))
    assert traj.states.min() >= 0.0
    assert abs(total_mass(traj.final_state) - 1.0) < 1e-12


def test_blowup_reports_step():
    c0, p, tilt, config = blow_up_case()
    with pytest.raises(IntegrationError, match=r"density went negative \(-1.391e-01\)") as err:
        solve_eps_system(c0, p, tilt, config)
    assert err.value.step == 1


def _steep_tilt(n, slope, common):
    """Linear potentials with face differences of ``slope`` per cell.

    With ``common`` both species share the slope, so only the drift factors
    overflow; otherwise species 1 alone is tilted and |V1 - V2| grows to
    about ``slope * n``, which overflows the exchange rates.
    """
    ramp = slope * np.arange(n + 1.0)
    v_faces = np.stack([ramp, ramp if common else np.zeros(n + 1)])
    v_cells = 0.5 * (v_faces[:, 1:] + v_faces[:, :-1])
    return Tilt(v_cells, v_faces)


@pytest.mark.parametrize("common", [False, True], ids=["exchange", "drift"])
@pytest.mark.parametrize("scheme", _ALL_SCHEMES)
def test_overflowing_tilt_raises_typed_error(params, scheme, common):
    n = 8
    tilt = _steep_tilt(n, 1500.0 if common else 400.0, common)
    c0 = State(np.full((2, n), 0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError, match="tilt too large") as err:
            solve_eps_system(c0, params, tilt, SolverConfig(1e-3, 0.01, scheme))
        assert err.value.step == 0
        if common:
            with pytest.raises(IntegrationError, match="tilt too large"):
                solve_effective(np.ones(n), params, tilt, SolverConfig(1e-3, 0.01, scheme))


def test_initial_mass_checked(params):
    c0 = State(np.full((2, 5), 0.9))
    with pytest.raises(ValueError, match="unit mass"):
        solve_eps_system(c0, params, Tilt.zero(5), SolverConfig(1e-3, 0.01))


def test_coarse_solution_approaches_effective_monotonically(params):
    # fixed smooth slow-manifold data: the L1 space-time distance between the
    # summed fast-slow solution and the effective solution shrinks with the scale
    n = 50
    grid = SpatialGrid(n)
    tilt = Tilt.zero(n)
    hat0 = 1 + 0.4 * np.cos(np.pi * grid.cell_centers)
    hat0 /= hat0.sum() / n
    cfg = SolverConfig(2e-4, 0.05)
    eff = solve_effective(hat0, params, tilt, cfg)
    dists = []
    for eps in (1e-1, 1e-2, 1e-3, 1e-4):
        p = SystemParams(params.delta, params.alpha, params.beta, epsilon=eps)
        c0 = State(manifold_split(hat0, p, tilt))
        traj = solve_eps_system(c0, p, tilt, cfg)
        hat = traj.states.sum(axis=1)
        dists.append(float(np.abs(hat - eff.states[:, 0]).mean()) * cfg.t_final)
    assert all(b < a for a, b in zip(dists, dists[1:]))


class TestEffectiveSolver:
    def test_pure_heat_for_zero_tilt(self, params):
        # mixing-weighted coefficient is constant: (3*1 + 1*2)/4
        n = 30
        cp = coarse_params(params, Tilt.zero(n))
        assert np.allclose(cp.delta_hat, 1.25)
        x = (np.arange(n) + 0.5) / n
        hat0 = 1 + 0.3 * np.cos(np.pi * x)
        traj = solve_effective(hat0, params, Tilt.zero(n), SolverConfig(1e-4, 0.02))
        # analytic single-mode decay of the heat problem with coefficient 1.25
        lam = 1.25 * (2 * n * np.sin(np.pi / (2 * n))) ** 2  # discrete mode eigenvalue
        mode0 = 2.0 / n * hat0 @ np.cos(np.pi * x)
        mode_T = 2.0 / n * traj.states[-1, 0] @ np.cos(np.pi * x)
        assert mode_T == pytest.approx(mode0 * np.exp(-lam * 0.02), rel=2e-3)

    def test_common_tilt_keeps_each_coefficient(self):
        p = SystemParams((1.7, 1.7), 1.0, 3.0)
        tilt = cosine_tilt(14, [[0.5], [0.5]])
        cp = coarse_params(p, tilt)
        assert np.allclose(cp.delta_hat, 1.7)
        assert np.allclose(cp.v_hat - tilt.v_cells[0], cp.v_hat[0] - tilt.v_cells[0][0])

    def test_coarse_stationary_fixed(self, params):
        tilt = cosine_tilt(25, [[0.4], [-0.2]])
        cp = coarse_params(params, tilt)
        traj = solve_effective(cp.w_hat, params, tilt, SolverConfig(1e-3, 0.02))
        assert np.max(np.abs(traj.states - cp.w_hat[None])) < 1e-12

    def test_mass_conserved(self, params):
        tilt = cosine_tilt(25, [[0.4], [-0.2]])
        n = 25
        x = (np.arange(n) + 0.5) / n
        hat0 = 1 + 0.45 * np.cos(np.pi * x)
        hat0 /= hat0.sum() / n
        traj = solve_effective(hat0, params, tilt, SolverConfig(1e-3, 0.05))
        assert np.max(np.abs(traj.states.sum(axis=2) / n - 1.0)) < 1e-12
        assert np.max(np.abs(gce_coarse(traj))) < 1e-11

    @pytest.mark.parametrize("scheme", _ALL_SCHEMES)
    def test_two_cells(self, params, scheme):
        # one interior face: the implicit step is the 2 x 2 system of its flux
        config = SolverConfig(1e-3, 0.01, scheme)
        traj = solve_effective(np.array([1.2, 0.8]), params, Tilt.zero(2), config)
        r = 1.25 * 4 * config.dt  # delta_hat dt / h^2
        hat = np.array([1.2, 0.8])
        for _ in range(config.n_steps):
            jump = hat[0] - hat[1]
            hat = hat - np.array([1, -1]) * (r * jump / (1 + 2 * r) if scheme == "strang_exact_reaction"
                                             else r * jump / (1 + r))
        assert np.allclose(traj.states[-1, 0], hat, rtol=1e-12, atol=0)
        assert np.max(np.abs(gce_coarse(traj))) < 1e-11


def gce_coarse(hat_traj):
    dt = np.diff(hat_traj.times)[:, None, None]
    n = hat_traj.n_cells
    return (hat_traj.states[1:] - hat_traj.states[:-1]) / dt + (
        hat_traj.fluxes.J[..., 1:] - hat_traj.fluxes.J[..., :-1]
    ) * n


class TestLagrangeMultipliers:
    def test_equal_rates_and_potentials_vanish(self):
        p = SystemParams((1.3, 1.3), 1.0, 3.0)
        tilt = cosine_tilt(12, [[0.4], [0.4]])
        n = 12
        x = (np.arange(n) + 0.5) / n
        lam1, lam2 = lagrange_multipliers(1 + 0.3 * np.cos(np.pi * x), p, tilt)
        assert np.max(np.abs(lam1)) < 1e-12
        assert np.max(np.abs(lam2)) < 1e-12

    def test_zero_tilt_closed_form(self, params):
        n = 18
        x = (np.arange(n) + 0.5) / n
        hat = 1 + 0.3 * np.cos(np.pi * x)
        lam1, lam2 = lagrange_multipliers(hat, params, Tilt.zero(n))
        w1, w2 = params.w
        dbar = params.delta[0] - params.delta[1]
        expected = -w1 * w2 * dbar * central_second_derivative(hat, 1.0 / n)
        assert np.allclose(lam1, expected, atol=1e-13)
        # cancellation is algebraically exact for constant tilts
        assert np.max(np.abs(lam1 + lam2)) < 1e-13

    def test_fewer_than_three_cells_raise(self, params):
        # a grid of 2 cells is valid, but the end stencils reach 3 cells: the
        # second derivative would return entries it never wrote
        for f in ([1.0, 3.0], [5.0, 1.0], [2.0]):
            for derivative in (central_first_derivative, central_second_derivative):
                with pytest.raises(ValueError, match="at least 3 cells"):
                    derivative(f, 0.5)
        with pytest.raises(ValueError, match="at least 3 cells"):
            lagrange_multipliers(np.ones(2), params, Tilt.zero(2))
        second = central_second_derivative([0.0, 1.0, 4.0], 1.0)
        assert np.array_equal(second, [2.0, 2.0, 2.0])
        assert np.array_equal(central_first_derivative([0.0, 1.0, 4.0], 1.0), [0.0, 2.0, 4.0])

    def test_cancellation_refines_at_first_order(self, params):
        errs = []
        for n in (40, 80):
            tilt = cosine_tilt(n, [[0.5], [0.3, -0.1]])
            cp = coarse_params(params, tilt)
            hat = cp.w_hat * (1 + 0.4 * np.cos(np.pi * (np.arange(n) + 0.5) / n))
            hat /= hat.sum() / n
            traj = solve_effective(hat, params, tilt, SolverConfig(1e-3 * 40 / n, 0.02))
            lam1, lam2 = lagrange_multipliers(traj.states[-1, 0], params, tilt)
            errs.append(np.max(np.abs(lam1 + lam2)))
        assert errs[1] < errs[0] / 1.8

    def test_constrained_system_residual_refines(self, params):
        # a posteriori check of the constrained evolution: the per-species
        # drift-diffusion operator plus the multiplier reproduces the rate
        errs = []
        for n in (40, 80):
            h = 1.0 / n
            tilt = cosine_tilt(n, [[0.4], [0.2]])
            cp = coarse_params(params, tilt)
            hat = cp.w_hat * (1 + 0.4 * np.cos(np.pi * (np.arange(n) + 0.5) / n))
            hat /= hat.sum() / n
            dt = 2e-5 * (40 / n) ** 2
            traj = solve_effective(hat, params, tilt, SolverConfig(dt, 400 * dt))
            m = traj.n_times // 2
            w_v, _ = stationary_measure(params, tilt)
            theta = w_v / w_v.sum(axis=0)
            c = theta[None] * traj.states
            cdot = (c[m + 1] - c[m - 1]) / (2 * dt)
            grad_v = (tilt.v_faces[:, 1:] - tilt.v_faces[:, :-1]) / h
            lam1, lam2 = lagrange_multipliers(traj.states[m, 0], params, tilt)
            res = []
            for j, lam in ((0, lam1), (1, lam2)):
                dj = params.delta[j]
                op = dj * (
                    central_second_derivative(c[m, j], h)
                    + central_first_derivative(c[m, j], h) * grad_v[j]
                    + c[m, j] * central_second_derivative(tilt.v_cells[j], h)
                )
                res.append(np.max(np.abs(cdot[j] - op - lam)[2:-2]))
            errs.append(max(res))
        assert errs[1] < errs[0] / 1.7


def _reference_diffusion_step(c, delta_faces, g, dt, h, crank_nicolson):
    """One species, one fresh ``solve_banded`` per step: the pre-factoring stepper."""
    def fluxes(u):
        J = np.zeros(u.size + 1)
        J[1:-1] = -(delta_faces / h) * (u[1:] * g - u[:-1] / g)
        return J

    def banded(tau):
        r = tau / (h * h)
        ab = np.zeros((3, c.size))
        ab[1, :] = 1.0
        ab[1, :-1] += r * delta_faces / g
        ab[1, 1:] += r * delta_faces * g
        ab[0, 1:] = -r * delta_faces * g
        ab[2, :-1] = -r * delta_faces / g
        return ab

    if crank_nicolson:
        J0 = fluxes(c)
        rhs = c + 0.5 * dt * (-(J0[1:] - J0[:-1]) / h)
        J = 0.5 * (J0 + fluxes(solve_banded((1, 1), banded(0.5 * dt), rhs)))
    else:
        J = fluxes(solve_banded((1, 1), banded(dt), c))
    return c - (dt / h) * (J[1:] - J[:-1]), J


def _reference_eps_system(c, params, tilt, config):
    n = c.shape[1]
    h, dt, eps = 1.0 / n, config.dt_effective, params.epsilon
    cn = config.scheme == "strang_cn"
    a, b = _exchange_rates(params, tilt)
    g = [np.exp(np.diff(tilt.v_cells[j]) / 2.0) for j in range(2)]
    delta_faces = [np.full(n - 1, params.delta[j]) for j in range(2)]

    def exchange(u):
        s = a + b
        d1 = -np.expm1(-s * (0.5 * dt) / eps) / s * (b * u[1] - a * u[0])
        return np.stack([u[0] + d1, u[1] - d1]), d1

    states, J, bflux = [c], [], []
    for _ in range(config.n_steps):
        c_half, exch = exchange(c)
        steps = [_reference_diffusion_step(c_half[j], delta_faces[j], g[j], dt, h, cn)
                 for j in range(2)]
        c = np.stack([s[0] for s in steps])
        c, d1b = exchange(c)
        exch = exch + d1b
        J.append(np.stack([s[1] for s in steps]))
        bflux.append(np.stack([exch / dt, -exch / dt]))
        c = np.maximum(c, 0.0)
        states.append(c)
    return np.array(states), np.array(J), np.array(bflux)


@pytest.mark.parametrize("scheme", _ALL_SCHEMES)
def test_factored_stepper_matches_per_species_solves(params, scheme, rng):
    n = 37
    tilt = cosine_tilt(n, [[0.8, -0.3], [-0.5, 0.2]])
    c0 = positive_state(rng, n)
    config = SolverConfig(2e-3, 0.1, scheme)
    traj = solve_eps_system(c0, params, tilt, config)
    states, J, b = _reference_eps_system(c0.c.copy(), params, tilt, config)
    assert np.array_equal(traj.states, states)
    assert np.array_equal(traj.fluxes.J, J)
    assert np.array_equal(traj.fluxes.b, b)

    cp = coarse_params(params, tilt)
    delta_faces = 0.5 * (cp.delta_hat[1:] + cp.delta_hat[:-1])
    g = np.exp(np.diff(cp.v_hat) / 2.0)
    coarse = solve_effective(c0.c.sum(axis=0), params, tilt, config)
    hat = c0.c.sum(axis=0)
    for m in range(config.n_steps):
        hat, J_hat = _reference_diffusion_step(hat, delta_faces, g, config.dt_effective,
                                               1.0 / n, scheme == "strang_cn")
        hat = np.maximum(hat, 0.0)
        assert np.array_equal(coarse.fluxes.J[m, 0], J_hat)
        assert np.array_equal(coarse.states[m + 1, 0], hat)


@pytest.mark.parametrize("scheme", ["strang_exact_reaction", "strang_cn"])
def test_factored_stepper_matches_per_species_solves_multispecies(scheme):
    gen = random_detailed_balance_generator(np.random.default_rng(5), 4)
    n, eps = 37, 1e-3
    # unequal deltas, one of which does not survive (delta / h) * h; on this
    # generator a matrix built from those scaled deltas changes the fluxes
    assert np.unique(gen.delta).size == 4
    assert np.any((gen.delta / (1.0 / n)) * (1.0 / n) != gen.delta)
    c = np.random.default_rng(12).uniform(0.2, 2.0, (4, n))
    c /= c.sum() / n
    config = SolverConfig(1e-3, 0.05, scheme)
    traj = solve_multispecies(State(c), gen, eps, config)
    dt, h = config.dt_effective, 1.0 / n
    propagator = _generator_exp(gen.assemble(eps) * (0.5 * dt))

    def exchange(u):  # the amounts the propagator moves, centred over the species
        d = propagator @ u - u
        d -= d.sum(axis=0) / 4
        return u + d, d

    for m in range(config.n_steps):
        c_half, d = exchange(c)
        steps = [_reference_diffusion_step(c_half[j], np.full(n - 1, delta), np.ones(n - 1), dt,
                                           h, scheme == "strang_cn")
                 for j, delta in enumerate(gen.delta)]
        c_next, d_next = exchange(np.stack([s[0] for s in steps]))
        exch = d + d_next
        assert np.array_equal(traj.fluxes.J[m], np.stack([s[1] for s in steps]))
        assert np.array_equal(traj.fluxes.b[m], exch / dt)
        assert np.array_equal(traj.states[m + 1], c_next)
        c = c_next


class TestFusedKernel:
    """Each solve's in-place kernel against the step's separate array expressions, byte for byte."""

    N = 40

    @classmethod
    def _cases(cls, kind, scheme):
        """``(solve, reference)`` of a tilted two-species solve with exactly-zero cells, the
        coarse solve of its summed density, or the seed-0 4-species network."""
        n = cls.N
        params = SystemParams((1.0, 2.0), 1.0, 3.0, epsilon=1e-3)
        tilt = cosine_tilt(n, [[3.0], [-2.0]])
        x = SpatialGrid(n).cell_centers
        c0 = np.stack([1 + 0.5 * np.cos(np.pi * x), 0.5 + 0.3 * np.cos(2 * np.pi * x)])
        c0[:, n // 3:n // 2] = 0.0
        c0 = State(c0 / (c0.sum() / n))
        config = SolverConfig(1e-3, 0.05, scheme)
        if kind == "eps":
            return _eps_solve(c0, params, tilt, config), reference_eps(c0, params, tilt, config)
        hat = c0.c.sum(axis=0)
        if kind == "effective":
            return (_effective_solve(hat, params, tilt, config),
                    reference_effective(hat, params, tilt, config))
        gen = random_detailed_balance_generator(np.random.default_rng(0), 4)
        net0 = State(gen.stationary(1e-3)[:, None] * hat)
        return (_multispecies_solve(net0, gen, 1e-3, config),
                reference_multispecies(net0, gen, 1e-3, config))

    @pytest.mark.parametrize("kind", ["eps", "effective", "network"])
    @pytest.mark.parametrize("scheme", _ALL_SCHEMES)
    @pytest.mark.parametrize("window", [1, 7, None])
    def test_bytes_match_the_reference_steps(self, kind, scheme, window):
        solve, (states, J, b) = self._cases(kind, scheme)
        assert kind == "effective" or np.any(states == 0.0)
        unit = window or _window_unit(solve.initial.size)  # None: the budget
        got = [[a.copy() for a in w] for w in solve.windows(unit)]
        assert len(got) == -(-50 // unit)
        got_states = np.concatenate([w[1][:-1] for w in got] + [got[-1][1][-1:]])
        assert got_states.tobytes() == states.tobytes()
        assert np.concatenate([w[2] for w in got]).tobytes() == J.tobytes()
        if b is not None:
            assert np.concatenate([w[3] for w in got]).tobytes() == b.tobytes()


class TestWindowCheck:
    """A block of steps is stepped without the guard and stepped again under it from the first
    new state that is not finite and positive, so what the guard does stays that of the
    per-step loop, for both schemes and all three solves."""

    STEP, CELL = 10, (-1, 5)  # inside windows of 7 steps, and of 64; the last species

    @staticmethod
    def _case(kind, scheme):
        """``(solve, reference)`` of a tilted two-species solve of 50 steps with positive
        states, the coarse solve of its summed density, or the seed-0 4-species network;
        ``reference(inject)`` takes the solve's steps through :mod:`reference_step`."""
        n = 20
        params = SystemParams((1.0, 2.0), 1.0, 3.0, epsilon=1e-3)
        tilt = cosine_tilt(n, [[3.0], [-2.0]])
        x = SpatialGrid(n).cell_centers
        c0 = np.stack([1 + 0.5 * np.cos(np.pi * x), 0.5 + 0.3 * np.cos(2 * np.pi * x)])
        c0 = State(c0 / (c0.sum() / n))
        config = SolverConfig(1e-3, 0.05, scheme)
        if kind == "eps":
            return (_eps_solve(c0, params, tilt, config),
                    lambda inject=None: reference_eps(c0, params, tilt, config, inject))
        hat = c0.c.sum(axis=0)
        if kind == "effective":
            return (_effective_solve(hat, params, tilt, config),
                    lambda inject=None: reference_effective(hat, params, tilt, config, inject))
        gen = random_detailed_balance_generator(np.random.default_rng(0), 4)
        net0 = State(gen.stationary(1e-3)[:, None] * hat)
        return (_multispecies_solve(net0, gen, 1e-3, config),
                lambda inject=None: reference_multispecies(net0, gen, 1e-3, config, inject))

    def _injected(self, kind, scheme, value, every=False):
        """The case's solve, its reference steps and a count of the solve's kernel calls, step
        STEP's new state (with ``every``, that of each step from STEP on) set to ``value`` at CELL.

        The solve's kernel is wrapped and keyed on the state the step starts
        from, not on a call count: a replayed window calls the kernel again.
        """
        solve, reference = self._case(kind, scheme)

        def inject(m, c):
            if m == self.STEP or every and m > self.STEP:
                c[self.CELL] = value

        hit = reference(inject)[0][self.STEP:-1] if every else reference()[0][self.STEP:self.STEP + 1]
        starts, calls = {c.tobytes() for c in hit}, [0]
        make = solve.kernel

        def injecting():
            kernel = make()

            def step(c, out, J, b):
                calls[0] += 1
                kernel(c, out, J, b)
                if c.tobytes() in starts:
                    out[self.CELL] = value

            return step

        solve.kernel = injecting
        return solve, lambda: reference(inject), calls

    def _assert_clamped_as_the_steps_do(self, solve, reference, calls, unit, every, caplog):
        """The solve's windows against the reference steps, and its kernel calls and record:
        the block of STEP is replayed from STEP on, and the block after each block that
        clamped is stepped under the guard from its start."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with caplog.at_level(logging.DEBUG, logger="edpflow.solver"):
                got = [[a.copy() for a in w] for w in solve.windows(unit)]
            states, J, b = reference()
        assert np.concatenate([w[1][:-1] for w in got] + [got[-1][1][-1:]]).tobytes() == states.tobytes()
        assert np.concatenate([w[2] for w in got]).tobytes() == J.tobytes()
        if b is not None:
            assert np.concatenate([w[3] for w in got]).tobytes() == b.tobytes()
        clamped = np.flatnonzero(states[1:].min(axis=(1, 2)) == 0.0)  # a clamp leaves a zero
        assert clamped.size == (50 - self.STEP if every else 1)
        check = _window_unit(solve.initial.size)
        ends = [min(s + c + check, s + unit, 50) for s in range(0, 50, unit) for c in range(0, unit, check)]
        end = min(e for e in ends if e > self.STEP)  # of the block of STEP
        replayed = end - self.STEP
        guarded = 50 - self.STEP if every else replayed + min([e for e in ends if e > end], default=end) - end
        assert calls[0] == 50 + replayed
        (record,) = caplog.records
        assert record.getMessage() == (
            f"{solve.solver}: 50 steps in {-(-50 // unit)} windows, {clamped.size} clamped "
            "(lowest value -1.000e-13, limit -1.000e-12, margin 9.000e-13), "
            f"{guarded} step{'s' * (guarded != 1)} guarded, {replayed} replayed")

    @pytest.mark.parametrize("kind", ["eps", "effective", "network"])
    @pytest.mark.parametrize("scheme", _ALL_SCHEMES)
    @pytest.mark.parametrize("unit", [1, 7, 64])
    @pytest.mark.parametrize("budget", [None, 200])  # 200 values: blocks of 3 to 10 steps
    @pytest.mark.parametrize("value, message", [
        (np.nan, "state left the finite range"),
        (-1e-3, r"density went negative \(-1.000e-03\)"),
    ])
    def test_raises_at_the_step(self, kind, scheme, unit, budget, value, message, monkeypatch):
        if budget:
            monkeypatch.setattr(edpflow.core, "_WINDOW_BUDGET", budget)
        solve, reference, _ = self._injected(kind, scheme, value)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(IntegrationError, match=message) as err:
                list(solve.windows(unit))
            with pytest.raises(IntegrationError) as ref_err:
                reference()
        assert err.value.step == ref_err.value.step == self.STEP
        assert str(err.value) == str(ref_err.value)

    @pytest.mark.parametrize("kind", ["eps", "effective", "network"])
    @pytest.mark.parametrize("scheme", _ALL_SCHEMES)
    @pytest.mark.parametrize("unit", [1, 7, 64])
    @pytest.mark.parametrize("budget", [None, 200])  # 200 values: blocks of 3 to 10 steps
    @pytest.mark.parametrize("every", [False, True], ids=["once", "every_step"])
    def test_clamps_as_the_steps_do(self, kind, scheme, unit, budget, every, caplog, monkeypatch):
        """A roundoff negative at STEP alone, or at every step from STEP on."""
        if budget:
            monkeypatch.setattr(edpflow.core, "_WINDOW_BUDGET", budget)
        solve, reference, calls = self._injected(kind, scheme, -1e-13, every)
        self._assert_clamped_as_the_steps_do(solve, reference, calls, unit, every, caplog)

    @pytest.mark.parametrize("kind", ["eps", "effective", "network"])
    @pytest.mark.parametrize("scheme", _ALL_SCHEMES)
    @pytest.mark.parametrize("unit", [1, 7, 64])
    @pytest.mark.parametrize("budget", [None, 200])
    def test_replay_runs_under_the_callers_errstate(self, kind, scheme, unit, budget, monkeypatch):
        """The kernel overflows on the step after the injection: a RuntimeWarning where the
        per-step loop warns, and its IntegrationError where warnings are ignored."""
        if budget:
            monkeypatch.setattr(edpflow.core, "_WINDOW_BUDGET", budget)
        solve, reference, _ = self._injected(kind, scheme, 1.7e308)
        for run in (lambda: list(solve.windows(unit)), reference):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(RuntimeWarning, match="overflow|invalid value"):
                    run()
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(IntegrationError, match="finite range") as err:
                    run()
            assert err.value.step == self.STEP + 1


class TestClampRecord:
    """One DEBUG record per solve: steps, windows and what the nonnegativity guard clamped."""

    def test_guard_counts_only_clamped_steps(self):
        clamps = _Clamps()
        c = np.array([[0.5, 0.25], [0.25, 0.5]])
        assert _guard_nonnegative(c, 0, clamps) is c and clamps.steps == 0
        out = _guard_nonnegative(np.array([[0.5, -0.0], [-3e-13, 1.0]]), 1, clamps)
        assert out.min() == 0.0 and not np.signbit(out).any()
        assert (clamps.steps, clamps.lowest, clamps.limit) == (1, -3e-13, -1e-12)
        # below -1e-12 the limit scales with the largest density
        _guard_nonnegative(np.array([[4.0, -2e-12], [0.5, 0.5]]), 2, clamps)
        assert (clamps.steps, clamps.lowest, clamps.limit) == (2, -2e-12, -4e-12)
        _guard_nonnegative(np.array([[0.5, -1e-13], [0.5, 0.5]]), 3, clamps)
        assert (clamps.steps, clamps.lowest) == (3, -2e-12)  # the lowest value is kept
        with pytest.raises(IntegrationError, match="went negative"):
            _guard_nonnegative(np.array([[1.0, -2e-12], [0.5, 0.5]]), 4, clamps)
        assert clamps.steps == 3

    def test_record_reports_the_clamps(self, caplog):
        clamps = _Clamps()
        _guard_nonnegative(np.array([[4.0, -2e-12], [0.5, 0.5]]), 0, clamps)
        with caplog.at_level(logging.DEBUG, logger="edpflow.solver"):
            clamps.log("solve_eps_system", 100, 2)
        (record,) = caplog.records
        assert record.getMessage() == (
            "solve_eps_system: 100 steps in 2 windows, 1 clamped "
            "(lowest value -2.000e-12, limit -4.000e-12, margin 2.000e-12)")
        for clamps.guarded, clamps.replayed, tail in ((1, 1, "1 step guarded, 1 replayed"),
                                                      (30, 2, "30 steps guarded, 2 replayed")):
            with caplog.at_level(logging.DEBUG, logger="edpflow.solver"):
                clamps.log("solve_eps_system", 100, 2)
            assert caplog.records[-1].getMessage().endswith(f"margin 2.000e-12), {tail}")

    def test_one_record_per_solve(self, params, caplog):
        n = 8
        c0 = State(np.full((2, n), 0.5))
        config = SolverConfig(1e-3, 0.1)
        with caplog.at_level(logging.DEBUG, logger="edpflow.solver"):
            solve_eps_system(c0, params, Tilt.zero(n), config)
            solve_effective(np.ones(n), params, Tilt.zero(n), config)
            solve_multispecies(State(np.full((4, n), 0.25)),
                               random_detailed_balance_generator(np.random.default_rng(0), 4),
                               0.1, config)
            for _ in _eps_solve(c0, params, Tilt.zero(n), config).windows(32):
                pass
        assert [r.getMessage() for r in caplog.records] == [
            "solve_eps_system: 100 steps in 1 windows, none clamped",
            "solve_effective: 100 steps in 1 windows, none clamped",
            "solve_multispecies: 100 steps in 1 windows, none clamped",
            "solve_eps_system: 100 steps in 4 windows, none clamped",
        ]
