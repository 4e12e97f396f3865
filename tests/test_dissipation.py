import numpy as np
import pytest
from scipy.optimize import minimize

from edpflow import (
    CoarseTrajectory,
    DualAscentError,
    FluxAssignment,
    SolverConfig,
    State,
    SystemParams,
    Tilt,
    Trajectory,
    coarse_params,
    dissipation_functional,
    dual_dissipation,
    edb_residual,
    effective_dissipation,
    energy,
    energy_gradient,
    hat_dissipation,
    hat_edb_residual,
    hat_flux_dissipation,
    manifold_split,
    perspective_eval,
    primal_R_eps,
    primal_objective,
    reconstruct_from_coarse,
    slope,
    slow_manifold_defect,
    solve_effective,
    solve_eps_system,
    stationary_measure,
)

from edpflow.dissipation import _network_dual

from conftest import cosine_tilt, positive_state


def brute_force_three_cell(c, v, params, epsilon):
    """Independent oracle: minimize the explicit flux cost on a 3-cell grid.

    The feasible set (fluxes realizing v with species-summed reaction flux
    zero) is parametrized by eliminating the constraint: a particular summed
    flux is integrated from the rate, and the remaining freedom is an
    antisymmetric interior flux pair.
    """
    h = 1.0 / 3
    cbar = 0.5 * (c[:, 1:] + c[:, :-1])
    s = -(v[0] + v[1])
    j_sum = np.zeros(4)
    for k in range(2):
        j_sum[k + 1] = j_sum[k] + h * s[k]
    assert abs(j_sum[3]) < 1e-12
    base = np.zeros((2, 2))
    base[0] = j_sum[1:3]

    def cost(y):
        j_int = base + np.stack([y, -y])
        J = np.zeros((2, 4))
        J[:, 1:-1] = j_int
        b = v + (J[:, 1:] - J[:, :-1]) / h
        kin = 0.5 * np.sum(j_int**2 / (params.delta_array[:, None] * cbar)) * h
        a = np.sqrt(c[0] * c[1]) / epsilon
        ex = np.sum(perspective_eval("cosh", a, b[1])) * h
        return kin + ex

    out = minimize(cost, np.zeros(2), method="Nelder-Mead",
                   options={"xatol": 1e-12, "fatol": 1e-15, "maxiter": 50000})
    return out.fun


class TestPrimalRate:
    def test_zero_rate(self, params, rng):
        st = positive_state(rng, 9)
        res = primal_R_eps(st, params, Tilt.zero(9), np.zeros((2, 9)))
        assert res.value == 0.0
        assert np.all(res.fluxes.J == 0.0) and np.all(res.fluxes.b == 0.0)
        assert res.dual.iterations == 0

    def test_quadratic_case_matches_elliptic_solve(self, rng):
        # equal diffusion constants, equal potential components: the exchange
        # term is inactive and the cost is the weighted Dirichlet energy
        n = 14
        p = SystemParams((1.3, 1.3), 1.0, 3.0, epsilon=0.7)
        st = positive_state(rng, n)
        h = 1.0 / n
        phi = 0.6 * np.cos(np.pi * (np.arange(n) + 0.5) / n)
        cbar = 0.5 * (st.c[:, 1:] + st.c[:, :-1])
        J = np.zeros((2, n + 1))
        J[:, 1:-1] = 1.3 * cbar * np.diff(phi)[None, :] / h
        v = -(J[:, 1:] - J[:, :-1]) / h
        res = primal_R_eps(st, p, Tilt.zero(n), v)
        expected = 0.5 * np.sum(1.3 * cbar * np.diff(phi)[None, :] ** 2) / h
        assert res.value == pytest.approx(expected, abs=1e-8)
        assert np.max(np.abs(res.fluxes.J - J)) < 1e-8
        assert np.max(np.abs(res.fluxes.b)) < 1e-8

    @pytest.mark.parametrize("seed", [0, 1])
    def test_three_cell_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        p = SystemParams((1.0, 2.0), 1.0, 3.0)
        c = rng.uniform(0.3, 1.5, (2, 3))
        v = rng.normal(size=(2, 3))
        v -= v.mean()
        res = primal_R_eps(State(c), p, Tilt.zero(3), v, epsilon=0.5)
        oracle = brute_force_three_cell(c, v, p, 0.5)
        assert res.value == pytest.approx(oracle, abs=1e-6)

    def test_returned_fluxes_satisfy_gce(self, params, rng):
        n = 11
        st = positive_state(rng, n)
        v = rng.normal(size=(2, n))
        v -= v.mean()
        res = primal_R_eps(st, params, Tilt.zero(n), v)
        div = (res.fluxes.J[:, 1:] - res.fluxes.J[:, :-1]) * n
        assert np.max(np.abs(v + div - res.fluxes.b)) < 1e-8
        assert res.dual.gradient_norm <= 1e-10
        assert res.dual.xi.shape == (2, n)
        # the maximizer certifies its own value
        assert res.dual.value == res.value

    def test_weak_duality(self, params, rng):
        # any feasible flux assignment costs at least the dual value
        n = 8
        st = positive_state(rng, n)
        for _ in range(5):
            j_int = rng.normal(size=(2, n - 1))
            J = np.zeros((2, n + 1))
            J[:, 1:-1] = j_int
            b1 = rng.normal(size=n)
            b = np.stack([b1, -b1])
            v = -(J[:, 1:] - J[:, :-1]) * n + b
            res = primal_R_eps(st, params, Tilt.zero(n), v)
            vd, vr = primal_objective(st, params, FluxAssignment(J, b))
            assert vd + vr >= res.value - 1e-10
        # at the optimum the gap closes
        gap = sum(primal_objective(st, params, res.fluxes)) - res.value
        assert abs(gap) < 1e-8

    def test_mass_violation_rejected(self, params, rng):
        st = positive_state(rng, 6)
        v = np.ones((2, 6))
        with pytest.raises(ValueError, match="mass"):
            primal_R_eps(st, params, Tilt.zero(6), v)

    def test_blocked_transport_fails_with_diagnostics(self, params):
        # two adjacent empty cells cut the domain (the face between them has
        # zero mobility); rates requiring transport across make the dual
        # unbounded and the ascent reports its last gradient norm
        c = np.array([[1.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 1.0]])
        v = np.array([[-1.0, 0.0, 0.0, 1.0], [-1.0, 0.0, 0.0, 1.0]])
        with pytest.raises(DualAscentError) as err:
            primal_R_eps(State(c), params, Tilt.zero(4), v)
        assert err.value.gradient_norm > 0


def _central_jacobian(fn, x, step=1e-5):
    cols = []
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = step
        cols.append((np.asarray(fn(x + e)) - np.asarray(fn(x - e))) / (2 * step))
    return np.array(cols).T


def _banded_to_dense(ab, bw):
    size = ab.shape[1]
    dense = np.zeros((size, size))
    for r in range(size):
        for c in range(max(0, r - bw), min(size, r + bw + 1)):
            dense[r, c] = ab[bw + r - c, c]
    return dense


class TestNetworkDualKernel:
    @pytest.mark.parametrize("case", ["three_species", "two_species"])
    def test_banded_hessian_and_gradient_match_differences(self, case, params, rng):
        if case == "three_species":
            c = rng.uniform(0.3, 1.5, (3, 6))
            delta = np.array([1.0, 2.0, 0.5])
            edges = [(0, 1, 2.0), (1, 2, 0.7), (0, 2, 1.3)]
        else:
            c = positive_state(rng, 6).c
            delta = params.delta_array
            edges = [(0, 1, 1.0 / params.epsilon)]
        i_sp, n = c.shape
        v = rng.normal(size=c.shape)
        value_grad, hess_banded, _ = _network_dual(c, delta, edges, v, 1.0 / n)
        x = rng.normal(scale=0.3, size=i_sp * n)

        grad = value_grad(x)[1]
        fd_grad = _central_jacobian(lambda y: [value_grad(y)[0]], x)[0]
        assert np.max(np.abs(grad - fd_grad)) <= 1e-6 * np.max(np.abs(grad))

        dense = _banded_to_dense(hess_banded(x), i_sp)
        fd_hess = -_central_jacobian(lambda y: value_grad(y)[1], x)
        assert np.max(np.abs(dense - fd_hess)) <= 1e-6 * np.max(np.abs(dense))
        if case == "three_species":
            # every band offset up to the bandwidth carries a coupling
            assert all(np.any(np.diag(dense, d) != 0) for d in (1, 2, 3))


class TestZeroMobility:
    """Zero flux through zero mobility costs nothing; any other flux costs +inf."""

    def test_two_species_kinetic_cost_and_slope(self, params):
        c = np.array([[1.0, 1.2, 0.8, 0.9, 1.1, 1.0],
                      [0.9, 1.1, 0.0, 0.0, 1.0, 1.2]])
        st = State(c)
        tilt = Tilt.zero(6)
        J = np.zeros((2, 7))
        J[:, 1:-1] = [[0.1, -0.2, 0.3, 0.1, -0.1], [0.2, 0.0, 0.0, 0.0, 0.1]]
        b = np.zeros((2, 6))  # exchange mobility vanishes where species 2 is empty
        finite = primal_objective(st, params, FluxAssignment(J, b))
        assert np.all(np.isfinite(finite))
        J[1, 3] = 0.05  # face between the two empty cells
        vel_diff, vel_react = primal_objective(st, params, FluxAssignment(J, b))
        assert vel_diff == np.inf and vel_react == finite[1]
        assert np.all(np.isfinite(slope(st, params, tilt)))

    def test_coarse_kinetic_cost(self, params):
        hat_c = np.array([1.5, 2.0, 0.0, 0.0, 1.9, 0.6])
        fluxes = np.zeros((1, 7))
        fluxes[0, 1:-1] = [0.1, 0.0, 0.0, 0.0, -0.2]
        times = np.array([0.0, 0.01])
        tilt = Tilt.zero(6)
        hat = CoarseTrajectory(times, np.stack([hat_c, hat_c]), fluxes)
        assert np.isfinite(hat_flux_dissipation(hat, params, tilt).total)
        fluxes[0, 3] = 0.05
        hat = CoarseTrajectory(times, np.stack([hat_c, hat_c]), fluxes)
        bd = hat_flux_dissipation(hat, params, tilt)
        assert bd.vel_diff == np.inf and np.isfinite(bd.slope_diff)


class TestDissipationFunctional:
    def test_constant_stationary_trajectory_zero(self, params):
        tilt = cosine_tilt(10, [[0.3], [-0.1]])
        w_v, _ = stationary_measure(params, tilt)
        states = np.repeat(w_v[None], 4, axis=0)
        traj = Trajectory(0.05 * np.arange(4), states)
        bd = dissipation_functional(traj, params, tilt)
        assert bd.total == pytest.approx(0.0, abs=1e-12)

    def test_frozen_off_manifold_state_slope_grows(self, params, rng):
        st = positive_state(rng, 8)
        states = np.repeat(st.c[None], 3, axis=0)
        traj = Trajectory(0.1 * np.arange(3), states)
        vals = []
        for eps in (0.1, 0.01):
            bd = dissipation_functional(traj, params, tilt=Tilt.zero(8), epsilon=eps)
            _, sr = slope(st, params, Tilt.zero(8), eps)
            assert bd.slope_react == pytest.approx(0.2 * sr, rel=1e-12)
            vals.append(bd.slope_react)
        assert vals[1] == pytest.approx(10 * vals[0], rel=1e-12)

    def test_flux_reported_alongside(self, params):
        tilt = cosine_tilt(12, [[0.2], [0.1]])
        w_v, _ = stationary_measure(params, tilt)
        c0 = w_v * (1 + 0.3 * np.cos(np.pi * (np.arange(12) + 0.5) / 12))
        c0 /= c0.sum() / 12
        traj = solve_eps_system(State(c0), params, tilt, SolverConfig(1e-3, 0.01))
        bd = dissipation_functional(traj, params, tilt)
        assert bd.flux_vel_diff is not None
        # solver fluxes are near-optimal: costs agree to leading order
        assert bd.flux_vel_diff + bd.flux_vel_react >= bd.vel_diff + bd.vel_react - 1e-12
        assert bd.flux_total >= bd.total - 1e-12


class TestEnergyDissipationBalance:
    def test_stationary_zero(self, params):
        tilt = cosine_tilt(10, [[0.3], [-0.1]])
        w_v, _ = stationary_measure(params, tilt)
        traj = Trajectory(0.05 * np.arange(3), np.repeat(w_v[None], 3, axis=0))
        assert edb_residual(traj, params, tilt) == pytest.approx(0.0, abs=1e-12)

    def test_frozen_nonequilibrium_positive(self, params, rng):
        st = positive_state(rng, 8)
        traj = Trajectory(0.1 * np.arange(3), np.repeat(st.c[None], 3, axis=0))
        assert edb_residual(traj, params, Tilt.zero(8)) > 0

    def test_first_order_refinement(self, params):
        residuals = []
        for n, dt in ((20, 8e-4), (40, 4e-4)):
            tilt = cosine_tilt(n, [[0.3], [-0.2]])
            w_v, _ = stationary_measure(params, tilt)
            c0 = w_v * (1 + 0.4 * np.cos(np.pi * (np.arange(n) + 0.5) / n))
            c0 /= c0.sum() / n
            traj = solve_eps_system(State(c0), params, tilt, SolverConfig(dt, 0.2))
            residuals.append(abs(edb_residual(traj, params, tilt)))
        assert residuals[1] < residuals[0] / 1.7

    def test_power_balance_along_solution(self, params):
        # per-interval Fenchel-Young defect integrates to the EDB residual scale
        n = 20
        tilt = cosine_tilt(n, [[0.3], [-0.2]])
        w_v, _ = stationary_measure(params, tilt)
        c0 = w_v * (1 + 0.4 * np.cos(np.pi * (np.arange(n) + 0.5) / n))
        c0 /= c0.sum() / n
        defects = []
        for dt in (1e-3, 5e-4):
            traj = solve_eps_system(State(c0), params, tilt, SolverConfig(dt, 0.1))
            total = 0.0
            for m in range(traj.n_times - 1):
                st = State(traj.states[m])
                rate = (traj.states[m + 1] - traj.states[m]) / dt
                r_val = primal_R_eps(st, params, tilt, rate).value
                sd, sr = slope(st, params, tilt)
                power = float(np.sum(energy_gradient(st, params, tilt) * rate)) / n
                total += dt * (r_val + sd + sr + power)
            defects.append(abs(total))
        assert defects[1] < defects[0] / 1.6


class TestMonotoneSingularLimit:
    def test_dual_potential_grows_monotonically(self, params, rng):
        st = positive_state(rng, 7)
        xi = rng.normal(size=(2, 7))
        vals = [dual_dissipation(st, params, Tilt.zero(7), xi, epsilon=e)
                for e in (1.0, 0.1, 0.01, 0.001)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestEffectiveDissipation:
    def test_stationary_zero(self, params):
        tilt = cosine_tilt(10, [[0.3], [-0.1]])
        cp = coarse_params(params, tilt)
        hat = CoarseTrajectory(0.05 * np.arange(3), np.repeat(cp.w_hat[None], 3, axis=0))
        assert hat_dissipation(hat, params, tilt).total == pytest.approx(0.0, abs=1e-12)
        st = manifold_split(cp.w_hat, params, tilt)
        traj = Trajectory(0.05 * np.arange(3), np.repeat(st[None], 3, axis=0))
        assert effective_dissipation(traj, params, tilt) == pytest.approx(0.0, abs=1e-12)

    def test_off_manifold_infinite_with_warning(self, params, rng):
        st = positive_state(rng, 8)
        traj = Trajectory(np.array([0.0, 0.1]), np.repeat(st.c[None], 2, axis=0))
        assert slow_manifold_defect(traj, params, Tilt.zero(8)) > 1e-3
        with pytest.warns(UserWarning, match="off the slow manifold"):
            assert effective_dissipation(traj, params, Tilt.zero(8)) == np.inf

    def test_matches_coarse_value_on_reconstruction(self, params):
        tilt = cosine_tilt(24, [[0.4], [-0.3]])
        cp = coarse_params(params, tilt)
        hat0 = cp.w_hat * (1 + 0.4 * np.cos(np.pi * (np.arange(24) + 0.5) / 24))
        hat0 /= hat0.sum() / 24
        htraj = solve_effective(hat0, params, tilt, SolverConfig(1e-3, 0.03))
        rec = reconstruct_from_coarse(htraj, params, tilt)
        d_two = effective_dissipation(rec.trajectory, params, tilt)
        d_hat = hat_dissipation(CoarseTrajectory(htraj.times, htraj.states), params, tilt).total
        assert d_two == pytest.approx(d_hat, abs=1e-8)

    def test_hat_edb_first_order(self, params):
        residuals = []
        for n, dt in ((20, 8e-4), (40, 4e-4)):
            tilt = cosine_tilt(n, [[0.3], [-0.2]])
            cp = coarse_params(params, tilt)
            hat0 = cp.w_hat * (1 + 0.4 * np.cos(np.pi * (np.arange(n) + 0.5) / n))
            hat0 /= hat0.sum() / n
            htraj = solve_effective(hat0, params, tilt, SolverConfig(dt, 0.2))
            residuals.append(abs(hat_edb_residual(htraj, params, tilt)))
        assert residuals[1] < residuals[0] / 1.7


class TestGammaTrend:
    def test_scale_gap_vanishes_with_reconstructed_fluxes(self, params):
        # fixed slow-manifold trajectory with reconstructed fluxes: the
        # scale-dependent value approaches the limit value monotonically
        from edpflow import flux_dissipation, hat_flux_dissipation
        tilt = Tilt.zero(20)
        x = (np.arange(20) + 0.5) / 20
        hat0 = 1 + 0.3 * np.cos(np.pi * x)
        hat0 /= hat0.sum() / 20
        htraj = solve_effective(hat0, params, tilt, SolverConfig(1e-3, 0.03))
        rec = reconstruct_from_coarse(htraj, params, tilt)
        d0 = hat_flux_dissipation(htraj, params, tilt).total
        gaps = [abs(flux_dissipation(rec.trajectory, params, tilt, eps).total - d0)
                for eps in (1.0, 0.1, 0.01, 0.001)]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-4
