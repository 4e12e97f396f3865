import ast
import importlib
import inspect
import json
import logging
import re
from dataclasses import astuple, replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg.lapack import dpbtrf, dpttrf
from scipy.optimize import minimize

from edpflow import (
    CoarseTrajectory,
    DualAscentError,
    FluxAssignment,
    IntegrationError,
    SolverConfig,
    State,
    SystemParams,
    Tilt,
    Trajectory,
    build_recovery_sequence,
    coarse_params,
    default_configs,
    dissipation_functional,
    dual_dissipation,
    flux_dissipation,
    edb_residual,
    effective_dissipation,
    energy,
    energy_gradient,
    hat_dissipation,
    hat_edb_residual,
    hat_energy,
    hat_flux_dissipation,
    kappa_coefficients,
    load_config,
    manifold_split,
    multispecies_dissipation,
    perspective_eval,
    primal_R_eps,
    primal_objective,
    random_detailed_balance_generator,
    reconstruct_from_coarse,
    run_experiment,
    slope,
    slow_manifold_defect,
    solve_effective,
    solve_eps_system,
    solve_multispecies,
    stationary_measure,
)

import edpflow.dissipation as dissipation_module
from edpflow.core import _window_unit
from edpflow.dissipation import _dual, damped_newton_max
from edpflow.functionals import _network_cost
from edpflow.multispecies import _multispecies_solve, build_detailed_balance_generator
from edpflow.solver import _effective_solve, _eps_solve

from conftest import Windowed, blow_up_case, cosine_tilt, positive_state
from full_dual import full_dual


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
        res = primal_R_eps(st, params, np.zeros((2, 9)))
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
        res = primal_R_eps(st, p, v)
        expected = 0.5 * np.sum(1.3 * cbar * np.diff(phi)[None, :] ** 2) / h
        assert res.value == pytest.approx(expected, abs=1e-8)
        assert np.max(np.abs(res.fluxes.J - J)) < 1e-8
        assert np.max(np.abs(res.fluxes.b)) < 1e-8

    @pytest.mark.parametrize("seed", [0, 1])
    def test_three_cell_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        p = SystemParams((1.0, 2.0), 1.0, 3.0, epsilon=0.5)
        c = rng.uniform(0.3, 1.5, (2, 3))
        v = rng.normal(size=(2, 3))
        v -= v.mean()
        res = primal_R_eps(State(c), p, v)
        oracle = brute_force_three_cell(c, v, p, 0.5)
        assert res.value == pytest.approx(oracle, abs=1e-6)

    def test_returned_fluxes_satisfy_gce(self, params, rng):
        n = 11
        st = positive_state(rng, n)
        v = rng.normal(size=(2, n))
        v -= v.mean()
        res = primal_R_eps(st, params, v)
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
            res = primal_R_eps(st, params, v)
            vd, vr = primal_objective(st, params, FluxAssignment(J, b))
            assert vd + vr >= res.value - 1e-10
        # at the optimum the gap closes
        gap = sum(primal_objective(st, params, res.fluxes)) - res.value
        assert abs(gap) < 1e-8

    def test_mass_violation_rejected(self, params, rng):
        st = positive_state(rng, 6)
        v = np.ones((2, 6))
        with pytest.raises(ValueError, match="mass"):
            primal_R_eps(st, params, v)

    @pytest.mark.parametrize("shape", [(6, 2), (2, 7)])
    def test_xi0_of_another_shape_rejected(self, params, rng, shape):
        # an (n, 2) start must not be read as the transpose of a (2, n) one
        st = positive_state(rng, 6)
        with pytest.raises(ValueError, match=r"xi0 shape .* does not match state \(2, 6\)"):
            primal_R_eps(st, params, np.zeros((2, 6)), xi0=np.zeros(shape))

    def test_blocked_transport_fails_with_diagnostics(self, params):
        # two adjacent empty cells cut the domain (the face between them has
        # zero mobility); rates requiring transport across make the dual
        # unbounded and the ascent reports its last gradient norm
        c = np.array([[1.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 1.0]])
        v = np.array([[-1.0, 0.0, 0.0, 1.0], [-1.0, 0.0, 0.0, 1.0]])
        with pytest.raises(DualAscentError) as err:
            primal_R_eps(State(c), params, v)
        assert err.value.gradient_norm > 0


def _central_jacobian(fn, x, step=1e-5):
    cols = []
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = step
        cols.append((np.asarray(fn(x + e)) - np.asarray(fn(x - e))) / (2 * step))
    return np.array(cols).T


def _banded_to_dense(ab, bw):
    """Symmetric dense matrix from upper banded storage (bw + 1 rows)."""
    size = ab.shape[1]
    dense = np.zeros((size, size))
    for c in range(size):
        for r in range(max(0, c - bw), c + 1):
            dense[r, c] = dense[c, r] = ab[bw + r - c, c]
    return dense


def _network(rng, i_sp, epsilon):
    """A seeded network of ``i_sp`` species: its generator and edges (i, j, kappa)."""
    if i_sp == 2:
        gen = build_detailed_balance_generator(("A", "B"), rng.uniform(0.5, 2.0, 2), {},
                                               {(0, 1): float(rng.uniform(0.5, 2.0))},
                                               rng.uniform(0.5, 2.0, 2))
    else:
        gen = random_detailed_balance_generator(rng, i_sp)
    kappa = kappa_coefficients(gen, epsilon)
    return gen, [(i, j, kappa[i, j]) for i, j, _ in gen.edges()]


def _full_dual_at(c, delta, edges, v, h, xi):
    """The full dual's value, gradient without its constant mode, rounding level and
    fluxes at the potentials ``xi`` (M, I, n)."""
    full_vg, full_hess, full_fluxes = full_dual(c, delta, edges, v, h)
    everyone = np.arange(c.shape[0])
    y = xi.transpose(0, 2, 1).reshape(c.shape[0], -1)
    val, grad = full_vg(y, everyone)
    grad -= grad.mean(axis=1, keepdims=True)
    dmax = full_hess(y, everyone)[c.shape[1]].reshape(c.shape[0], -1).max(axis=1)
    rounding = np.finfo(float).eps * np.sqrt(y.shape[1]) * dmax * (1.0 + np.abs(y).max(axis=1))
    return val, np.linalg.norm(grad, axis=1), rounding, full_fluxes(y)[1:]


def _potentials(c, delta, v, h, x):
    """The potentials xi (M, I, n) of the reduced dual's maximizers ``x``: xi_0 summed from
    its face jumps s = (sum_i w_i d_i - G) / W, xi_i = xi_0 - eta_i, shifted to a mean of zero."""
    n_prob, i_sp, n = c.shape
    eta = x.reshape(n_prob, n, i_sp - 1).transpose(0, 2, 1)
    w = delta[:, None] * 0.5 * (c[..., 1:] + c[..., :-1]) / h
    W = w.sum(axis=1)
    G = np.cumsum(h * v.sum(axis=1), axis=1)[:, :-1]
    s = (np.sum(w[:, 1:] * np.diff(eta), axis=1) - G) / np.where(W == 0, 1.0, W)
    xi = np.zeros_like(c)
    xi[:, 0, 1:] = np.cumsum(s, axis=1)
    xi[:, 1:] = xi[:, :1] - eta
    return xi - xi.mean(axis=(1, 2), keepdims=True)


class TestNewtonIterationCap:
    """``_MAX_NEWTON_ITER`` bounds every ascent, whichever function runs it."""

    def test_one_iteration_is_not_enough(self, monkeypatch):
        # a mild rate, whose ascent from zero takes two Newton iterations
        rng = np.random.default_rng(0)
        p = SystemParams((1.0, 2.0), 1.0, 3.0, epsilon=0.5)
        st = State(rng.uniform(0.5, 1.5, (2, 6)))
        v = 0.1 * rng.normal(size=(2, 6))
        v -= v.mean()
        assert primal_R_eps(st, p, v).dual.iterations == 2
        # the gradient after one full Newton step from zero, from a dense solve
        vg, hess, _ = _dual(st.c[None], p.delta_array, [(0, 1, 1.0 / p.epsilon)], v[None], 1.0 / 6)
        one = np.arange(1)
        x0 = np.zeros((1, 6))
        step = np.linalg.solve(_banded_to_dense(hess(x0, one), 1), vg(x0, one)[1][0])
        expected = np.linalg.norm(vg(x0 + step, one)[1])
        assert expected > 1e-10

        monkeypatch.setattr(dissipation_module, "_MAX_NEWTON_ITER", 1)
        with pytest.raises(DualAscentError, match="iteration limit reached") as err:
            primal_R_eps(st, p, v)
        assert err.value.gradient_norm == pytest.approx(expected, rel=1e-6)
        # the evaluators run the same ascent under the same cap
        traj = Trajectory(np.array([0.0, 0.1]), np.stack([st.c, st.c + 0.1 * v]))
        with pytest.raises(DualAscentError, match="iteration limit reached"):
            dissipation_functional(traj, p, Tilt.zero(6))


class TestSingularHessian:
    """A negative Hessian that is not positive definite raises, naming its own problem."""

    @staticmethod
    def _quadratics(bw, size=6):
        """Three concave quadratics g.x - x.A x / 2 with banded A of bandwidth ``bw``."""
        band = sum(np.eye(size, k=d) + np.eye(size, k=-d) for d in range(1, bw + 1))
        A = np.stack([(4.0 + m) * np.eye(size) - 0.5 * band for m in range(3)])
        g = np.arange(1.0, 4.0)[:, None] * np.linspace(1.0, 2.0, size)

        def value_grad(x, act):
            ax = np.einsum("mij,mj->mi", A[act], x)
            return np.einsum("mi,mi->m", g[act] - 0.5 * ax, x), g[act] - ax

        def hess_banded(x, act):
            ab = np.zeros((bw + 1, act.size * size))
            for m, p in enumerate(act):
                for d in range(bw + 1):
                    ab[bw - d, m * size + d:(m + 1) * size] = np.diag(A[p], d)
            return ab

        return A, g, value_grad, hess_banded

    @pytest.mark.parametrize("bw, routine", [(1, "dpttrf"), (3, "dpbtrf")])
    def test_zero_pivot_in_the_second_problem(self, bw, routine, monkeypatch):
        called = []

        def recorded(name):
            real = getattr(dissipation_module, name)

            def factor(*args, **kwargs):
                called.append(name)
                return real(*args, **kwargs)
            return factor

        for name in ("dpttrf", "dpbtrf"):
            monkeypatch.setattr(dissipation_module, name, recorded(name))
        A, g, value_grad, hess_banded = self._quadratics(bw)
        # positive definite: the ascent reaches each maximizer
        x, *_ = damped_newton_max(value_grad, hess_banded, np.zeros_like(g))
        assert np.allclose(x, np.linalg.solve(A, g[..., None])[..., 0], rtol=1e-12, atol=0)
        assert set(called) == {routine}
        # problem 2 loses its last row and column: the zero pivot is the
        # stack's order 2 * size minor, still problem 2's
        A[1, -1, :] = A[1, :, -1] = 0.0
        with pytest.raises(DualAscentError, match="singular dual Hessian") as err:
            damped_newton_max(value_grad, hess_banded, np.zeros_like(g))
        assert err.value.gradient_norm == np.linalg.norm(g[1])
        assert set(called) == {routine}


class TestOneEpsilon:
    """The scale epsilon is read from ``SystemParams`` alone."""

    @pytest.fixture
    def case(self, params, rng):
        st = positive_state(rng, 6)
        tilt = Tilt.zero(6)
        v = rng.normal(size=(2, 6))
        v -= v.mean()
        xi = rng.normal(size=(2, 6))
        fluxes = primal_R_eps(st, params, v).fluxes
        traj = Trajectory(np.array([0.0, 0.1]), np.stack([st.c, st.c + 0.1 * v]),
                          FluxAssignment(fluxes.J[None], fluxes.b[None]))
        hat = solve_effective(st.c.sum(axis=0), params, tilt, SolverConfig(1e-2, 0.05))
        limit = reconstruct_from_coarse(hat, params, tilt).trajectory
        return {
            "primal_R_eps": (primal_R_eps, (st, params, v)),
            "primal_objective": (primal_objective, (st, params, fluxes)),
            "dissipation_functional": (dissipation_functional, (traj, params, tilt)),
            "flux_dissipation": (flux_dissipation, (traj, params, tilt)),
            "edb_residual": (edb_residual, (traj, params, tilt)),
            "_balance": (dissipation_module._balance, (traj, params, tilt)),
            "dual_dissipation": (dual_dissipation, (st, params, tilt, xi)),
            "slope": (slope, (st, params, tilt)),
            "build_recovery_sequence": (build_recovery_sequence, (limit, params, tilt)),
        }

    @pytest.mark.parametrize("name", [
        "primal_R_eps", "primal_objective", "dissipation_functional", "flux_dissipation",
        "edb_residual", "_balance", "dual_dissipation", "slope", "build_recovery_sequence",
    ])
    def test_no_epsilon_override(self, case, name):
        fn, args = case[name]
        fn(*args)
        # an override would bypass the check that epsilon > 0
        with pytest.raises(TypeError, match="epsilon"):
            fn(*args, epsilon=-1.0)

    def test_params_reject_an_epsilon_out_of_range(self, params):
        # an infinite epsilon made the dual ascent multiply 0 by inf and stall
        for eps in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="epsilon must be positive and finite"):
                replace(params, epsilon=eps)

    @pytest.mark.parametrize("module", ["dissipation", "functionals", "coarsegrain"])
    def test_no_public_function_takes_a_fixed_option(self, module):
        mod = importlib.import_module(f"edpflow.{module}")
        fixed = {"epsilon", "max_iter", "bandwidth", "tol_manifold", "ce_tol", "tol_eq"}
        for name in mod.__all__:
            obj = getattr(mod, name)
            if inspect.isfunction(obj):
                assert not fixed & set(inspect.signature(obj).parameters), name


class TestNetworkDualKernel:
    """The dual reduced to the potential differences to species 0, for every species count."""

    @pytest.mark.parametrize("i_sp", [2, 3, 4],
                             ids=["two_species", "three_species", "four_species"])
    def test_banded_hessian_and_gradient_match_differences(self, i_sp, rng):
        # two stacked problems: each block matches the differences of its own
        # objective, and nothing couples the blocks
        n = 6
        _, edges = _network(rng, i_sp, 0.5)
        c = rng.uniform(0.3, 1.5, (2, i_sp, n))
        v = rng.normal(size=c.shape)
        v -= v.mean(axis=(1, 2), keepdims=True)
        value_grad, hess_banded, _ = _dual(c, rng.uniform(0.5, 2.0, i_sp), edges, v, 1.0 / n)
        size = (i_sp - 1) * n
        x = rng.normal(scale=0.3, size=(2, size))
        both = np.arange(2)
        ab = hess_banded(x, both)
        band = ab.shape[0] - 1
        assert band == 2 * i_sp - 3

        dense = _banded_to_dense(ab, band)
        for m in range(2):
            one = np.array([m])
            grad = value_grad(x[m:m + 1], one)[1][0]
            assert np.array_equal(grad, value_grad(x, both)[1][m])
            fd_grad = _central_jacobian(lambda y: value_grad(y[None], one)[0], x[m])[0]
            assert np.max(np.abs(grad - fd_grad)) <= 1e-6 * np.max(np.abs(grad))

            block = dense[m * size:(m + 1) * size, m * size:(m + 1) * size]
            fd_hess = -_central_jacobian(lambda y: value_grad(y[None], one)[1][0], x[m])
            assert np.max(np.abs(block - fd_hess)) <= 1e-6 * np.max(np.abs(block))
            # every band offset up to the bandwidth carries a coupling
            assert all(np.any(np.diag(block, d) != 0) for d in range(1, band + 1))
        assert np.all(dense[:size, size:] == 0.0)

    @pytest.mark.parametrize("epsilon", [1e-1, 1e-4, 1e-8])
    @pytest.mark.parametrize("i_sp", [2, 3, 4, 6])
    def test_agrees_with_the_full_dual(self, i_sp, epsilon):
        # three states near the stationary composition, with mass-balanced
        # rates, on seeded networks
        rng = np.random.default_rng(i_sp)
        n, h, tol = 20, 1.0 / 20, 1e-10
        gen, edges = _network(rng, i_sp, epsilon)
        c = gen.stationary(epsilon)[:, None] * rng.uniform(0.5, 1.5, (3, i_sp, n))
        v = rng.normal(size=c.shape)
        v -= v.mean(axis=(1, 2), keepdims=True)
        vg, hess, fluxes = _dual(c, gen.delta, edges, v, h)
        x, val, _, _, _ = damped_newton_max(vg, hess, np.zeros((3, (i_sp - 1) * n)), tol=tol)
        J, b = fluxes(x)
        xi = _potentials(c, gen.delta, v, h, x)
        # the reconstructed potentials maximize the full dual: its value there
        # is the reduced one, its gradient is below sqrt(I) times the stopping
        # threshold, and the fluxes it reads off them are the reduced ones
        val_at, gnorm, rounding, (J_at, b_at) = _full_dual_at(c, gen.delta, edges, v, h, xi)
        assert np.all(np.abs(val_at - val) <= 1e-12 * np.abs(val))
        assert np.all(gnorm <= np.sqrt(i_sp) * np.maximum(tol, rounding))
        assert np.max(np.abs(J - J_at)) <= 1e-8
        assert max(np.max(np.abs(bb - bb_at)) for bb, bb_at in zip(b, b_at)) <= 1e-8

    def test_face_where_every_species_is_empty(self):
        # cells 1 and 2 hold no species, so the face between them has no
        # mobility; it drops out if the rate moves no mass across it
        gen = random_detailed_balance_generator(np.random.default_rng(3), 3)
        kappa = kappa_coefficients(gen, 0.1)
        edges = [(i, j, kappa[i, j]) for i, j, _ in gen.edges()]
        c = np.ones((1, 3, 4))
        c[..., 1:3] = 0.0
        v = np.zeros_like(c)
        v[0, :, :2] = [[-1.0, 1.0], [0.5, -0.5], [0.2, -0.2]]
        vg, hess, fluxes = _dual(c, gen.delta, edges, v, 0.25)
        x, val, _, _, _ = damped_newton_max(vg, hess, np.zeros((1, 8)))
        J, b = fluxes(x)
        assert np.isfinite(val[0]) and val[0] > 0
        assert np.all(J[0, :, 2] == 0.0)
        kinetic, exchange = _network_cost(c[0], gen.delta, edges, J[0], b[:, 0], 0.25)
        assert kinetic + sum(exchange) == pytest.approx(val[0], rel=1e-8)
        # a rate that moves mass across it has no finite cost
        v[0, 0] = [-1.0, 0.0, 0.0, 1.0]
        with pytest.raises(DualAscentError, match="needs a flux across a face where both species"
                           " are empty") as err:
            _dual(c, gen.delta, edges, v, 0.25)
        assert err.value.gradient_norm == pytest.approx(0.25)


class TestReducedTwoSpeciesDual:
    """The two-species case of the reduced dual, on the potential difference."""

    @staticmethod
    def _problems(rng, n, tilt):
        # three positive states shaped by the tilt's stationary measure, and
        # mass-balanced rates
        w, _ = stationary_measure(SystemParams((1.0, 2.0), 1.0, 3.0), tilt)
        c = w * rng.uniform(0.5, 1.5, (3, 2, n))
        v = rng.normal(size=(3, 2, n))
        return c, v - v.mean(axis=(1, 2), keepdims=True)

    @pytest.mark.parametrize("tilted", [False, True])
    @pytest.mark.parametrize("epsilon", [1e-1, 1e-4, 1e-8])
    @pytest.mark.parametrize("n", [3, 20, 160])
    def test_agrees_with_the_full_dual(self, n, epsilon, tilted):
        rng = np.random.default_rng(n + int(tilted))
        tilt = cosine_tilt(n, [[0.3], [-0.2]]) if tilted else Tilt.zero(n)
        c, v = self._problems(rng, n, tilt)
        delta, h, tol = np.array([1.0, 2.0]), 1.0 / n, 1e-10
        edges = [(0, 1, 1.0 / epsilon)]
        vg, hess, fluxes = _dual(c, delta, edges, v, h)
        x, val, _, _, _ = damped_newton_max(vg, hess, np.zeros((3, n)), tol=tol)
        J, (b,) = fluxes(x)
        xi = _potentials(c, delta, v, h, x)
        # the reconstructed potentials maximize the full dual: its value there
        # is the reduced one, its gradient is below sqrt(2) times the stopping
        # threshold, and the fluxes it reads off them are the reduced ones
        val_at, gnorm, rounding, (J_at, (b_at,)) = _full_dual_at(c, delta, edges, v, h, xi)
        assert np.all(np.abs(val_at - val) <= 1e-12 * (1.0 + np.abs(val)))
        assert np.all(gnorm <= np.sqrt(2) * np.maximum(tol, rounding))
        assert np.max(np.abs(J - J_at)) <= 1e-8 and np.max(np.abs(b - b_at)) <= 1e-8

    def test_banded_hessian_and_gradient_match_differences(self, params, rng):
        # the system's own rates on positive states: one unknown per cell and
        # a tridiagonal Hessian, each problem's block matching its differences
        n = 6
        c = np.stack([positive_state(rng, n).c for _ in range(2)])
        v = rng.normal(size=c.shape)
        v -= v.mean(axis=(1, 2), keepdims=True)
        edges = [(0, 1, 1.0 / params.epsilon)]
        value_grad, hess_banded, _ = _dual(c, params.delta_array, edges, v, 1.0 / n)
        x = rng.normal(scale=0.3, size=(2, n))
        ab = hess_banded(x, np.arange(2))
        assert ab.shape == (2, 2 * n)
        dense = _banded_to_dense(ab, 1)
        for m in range(2):
            one = np.array([m])
            grad = value_grad(x[m:m + 1], one)[1][0]
            fd_grad = _central_jacobian(lambda y: value_grad(y[None], one)[0], x[m])[0]
            assert np.max(np.abs(grad - fd_grad)) <= 1e-6 * np.max(np.abs(grad))
            block = dense[m * n:(m + 1) * n, m * n:(m + 1) * n]
            fd_hess = -_central_jacobian(lambda y: value_grad(y[None], one)[1][0], x[m])
            assert np.max(np.abs(block - fd_hess)) <= 1e-6 * np.max(np.abs(block))
        assert np.all(dense[:n, n:] == 0.0)

    def test_two_species_paths_factor_tridiagonal_matrices(self, params, monkeypatch):
        # (routine, bandwidth) of every factorization
        factored = []

        def tridiagonal(d, e, **kwargs):
            factored.append(("dpttrf", 1 if e.size == d.size - 1 else None))
            return dpttrf(d, e, **kwargs)

        def banded(ab, **kwargs):
            factored.append(("dpbtrf", ab.shape[0] - 1))
            return dpbtrf(ab, **kwargs)

        monkeypatch.setattr(dissipation_module, "dpttrf", tridiagonal)
        monkeypatch.setattr(dissipation_module, "dpbtrf", banded)
        traj, tilt = _criterion_3_level_0(params, 1e-3, 0.05)
        dissipation_functional(traj, params, tilt)
        rate = (traj.states[1] - traj.states[0]) / 1e-3
        primal_R_eps(State(traj.states[0]), params, rate)
        assert factored and set(factored) == {("dpttrf", 1)}
        # networks factor at bandwidth 2 I - 3
        for i_sp in (3, 4):
            factored.clear()
            gen = random_detailed_balance_generator(np.random.default_rng(i_sp), i_sp)
            x = (np.arange(6) + 0.5) / 6
            c0 = gen.stationary(1e-2)[:, None] * (1 + 0.4 * np.cos(np.pi * x))
            net_traj = solve_multispecies(State(c0), gen, 1e-2, SolverConfig(1e-3, 0.01))
            multispecies_dissipation(net_traj, gen, 1e-2)
            assert factored and set(factored) == {("dpbtrf", 2 * i_sp - 3)}

    def test_empty_face_without_summed_flux_drops_out(self, params):
        # cells 1 and 2 are empty, so the face between them has no mobility;
        # the rate moves mass on the left half only, so nothing crosses it
        c = np.array([[1.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 1.0]])
        v = np.array([[-1.0, 1.0, 0.0, 0.0], [0.5, -0.5, 0.0, 0.0]])
        res = primal_R_eps(State(c), params, v)
        assert np.isfinite(res.value) and res.value > 0
        assert res.fluxes.J[:, 2].tolist() == [0.0, 0.0]
        assert sum(primal_objective(State(c), params, res.fluxes)) == pytest.approx(
            res.value, rel=1e-8)


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
            p = replace(params, epsilon=eps)
            bd = dissipation_functional(traj, p, Tilt.zero(8))
            _, sr = slope(st, p, Tilt.zero(8))
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
        carried = flux_dissipation(traj, params, tilt)
        # solver fluxes are near-optimal: costs agree to leading order
        assert carried.vel_diff + carried.vel_react >= bd.vel_diff + bd.vel_react - 1e-12
        assert carried.total >= bd.total - 1e-12


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
                r_val = primal_R_eps(st, params, rate).value
                sd, sr = slope(st, params, tilt)
                power = float(np.sum(energy_gradient(st, params, tilt) * rate)) / n
                total += dt * (r_val + sd + sr + power)
            defects.append(abs(total))
        assert defects[1] < defects[0] / 1.6


class TestMonotoneSingularLimit:
    def test_dual_potential_grows_monotonically(self, params, rng):
        st = positive_state(rng, 7)
        xi = rng.normal(size=(2, 7))
        vals = [dual_dissipation(st, replace(params, epsilon=e), Tilt.zero(7), xi)
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


    @pytest.mark.parametrize("evaluate", [hat_dissipation, hat_flux_dissipation, hat_edb_residual])
    def test_tilt_of_another_grid_rejected(self, params, evaluate):
        hat0 = 1 + 0.4 * np.cos(np.pi * (np.arange(10) + 0.5) / 10)
        htraj = solve_effective(hat0, params, Tilt.zero(10), SolverConfig(1e-3, 0.01))
        with pytest.raises(ValueError, match="tilt does not match coarse trajectory"):
            evaluate(htraj, params, cosine_tilt(12, [[0.3], [-0.2]]))


class TestEDPConvergence:
    """The paper's claim on computed solutions: D_eps approaches the coarse D_0 as the grid refines.

    Both systems start on the slow manifold from the same coarse density; the
    fast-slow dissipation stays below the coarse one, and their gap closes at
    first order in h (dt = 0.04 h) for every small epsilon.
    """

    @pytest.mark.parametrize("eps", [1e-4, 1e-8, 1e-10])
    def test_gap_to_coarse_dissipation_closes_at_first_order(self, eps):
        p = SystemParams((1.0, 2.0), 1.0, 3.0, epsilon=eps)
        sizes = np.array([20, 40, 80])
        gaps = []
        for n in sizes:
            tilt = cosine_tilt(n, [[0.3], [-0.2]])
            c0 = manifold_split(1 + 0.5 * np.cos(np.pi * (np.arange(n) + 0.5) / n), p, tilt)
            cfg = SolverConfig(0.04 / n, 0.05)
            d_eps = dissipation_functional(solve_eps_system(State(c0), p, tilt, cfg), p, tilt).total
            d_0 = hat_dissipation(solve_effective(c0.sum(axis=0), p, tilt, cfg), p, tilt).total
            gaps.append((d_eps - d_0) / d_0)
        gaps = np.array(gaps)
        # about -1.9e-3, -9.5e-4 and -4.8e-4 at every epsilon here
        assert np.all(gaps < 0), gaps
        order = np.polyfit(np.log(1.0 / sizes), np.log(-gaps), 1)[0]
        assert order >= 0.8, (order, gaps)


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
        gaps = [abs(flux_dissipation(rec.trajectory, replace(params, epsilon=eps), tilt).total - d0)
                for eps in (1.0, 0.1, 0.01, 0.001)]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-4


def _criterion_3_level_0(params, dt=4e-4, t_final=0.25, n=20):
    """Solver trajectory of acceptance criterion 3 at its coarsest level (n = 20), or on n cells."""
    tilt = cosine_tilt(n, [[0.3], [-0.2]])
    w_v, _ = stationary_measure(params, tilt)
    c0 = w_v * (1 + 0.4 * np.cos(np.pi * (np.arange(n) + 0.5) / n))
    c0 /= c0.sum() / n
    return solve_eps_system(State(c0), params, tilt, SolverConfig(dt, t_final)), tilt


def _sequential_breakdown(traj, params, tilt):
    """One interval at a time, warm-started across intervals: the evaluation the batch replaced."""
    acc = np.zeros(6)
    xi = None
    for m, dt in enumerate(np.diff(traj.times)):
        st = State(traj.states[m])
        rate = (traj.states[m + 1] - traj.states[m]) / dt
        res = primal_R_eps(st, params, rate, xi0=xi)
        xi = res.dual.xi
        stored = FluxAssignment(traj.fluxes.J[m], traj.fluxes.b[m])
        acc += dt * np.array([*primal_objective(st, params, res.fluxes), *slope(st, params, tilt),
                              *primal_objective(st, params, stored)])
    return acc


def _sequential_multispecies(traj, gen, eps):
    """One interval at a time with explicit cost and slope formulas (strictly positive states)."""
    w = gen.stationary(eps)
    kappa = kappa_coefficients(gen, eps)
    edges = [(i, j, kappa[i, j], kind) for i, j, kind in gen.edges()]
    i_sp, n = traj.states.shape[1:]
    h = 1.0 / n
    out = np.zeros(6)
    for m, dt in enumerate(np.diff(traj.times)):
        c = traj.states[m]
        v = (traj.states[m + 1] - c) / dt
        vg, hess, fluxes = _dual(c[None], gen.delta, [e[:3] for e in edges], v[None], h)
        x = damped_newton_max(vg, hess, np.zeros((1, (i_sp - 1) * n)))[0]
        J, edge_b = fluxes(x)
        terms = np.zeros(6)
        mob = gen.delta[:, None] * 0.5 * (c[:, 1:] + c[:, :-1])
        terms[0] = 0.5 * np.sum(J[0, :, 1:-1] ** 2 / mob) * h
        rho = c / w[:, None]
        rho_f = 0.5 * (rho[:, 1:] + rho[:, :-1])
        terms[3] = 0.5 * np.sum(gen.delta[:, None] * w[:, None] * np.diff(rho) ** 2 / rho_f) / h
        sq = np.sqrt(rho)
        for (i, j, k, kind), b in zip(edges, edge_b):
            col = 2 if kind == "fast" else 1
            terms[col] += np.sum(perspective_eval("cosh", k * np.sqrt(c[i] * c[j]), b[0])) * h
            terms[col + 3] += 2.0 * k * np.sqrt(w[i] * w[j]) * np.sum((sq[i] - sq[j]) ** 2) * h
        out += dt * terms
    return out


def _network_trajectory():
    """A 3-species solver trajectory spanning two windows."""
    gen = random_detailed_balance_generator(np.random.default_rng(11), 3)
    n, eps = 16, 1e-2
    x = (np.arange(n) + 0.5) / n
    c0 = gen.stationary(eps)[:, None] * (1 + 0.4 * np.cos(np.pi * x))[None, :]
    return solve_multispecies(State(c0), gen, eps, SolverConfig(1e-3, 0.5)), gen, eps


def _relative_gaps(got, want):
    return np.abs(np.asarray(got) - want) / np.abs(want)


class TestBatchedEvaluation:
    """The windowed, stacked evaluation against one interval at a time."""

    def test_two_species_matches_sequential_loop(self, params):
        traj, tilt = _criterion_3_level_0(params)
        assert traj.n_times - 1 == 625
        bd = dissipation_functional(traj, params, tilt)
        carried = flux_dissipation(traj, params, tilt)
        got = [*_breakdown_terms(bd), carried.vel_diff, carried.vel_react]
        gaps = _relative_gaps(got, _sequential_breakdown(traj, params, tilt))
        # vel_react: the absolute 1e-10 gradient tolerance is reached from a
        # cold start here and from the previous interval's maximizer there
        assert gaps[1] <= 5e-9
        assert np.all(np.delete(gaps, 1) <= 1e-9), gaps

    def test_network_matches_sequential_loop(self):
        traj, gen, eps = _network_trajectory()
        assert traj.n_times - 1 > _window_unit(traj.states[0].size)
        bd = multispecies_dissipation(traj, gen, eps)
        got = [bd.vel_diff, bd.vel_react_slow, bd.vel_react_fast,
               bd.slope_diff, bd.slope_react_slow, bd.slope_react_fast]
        want = _sequential_multispecies(traj, gen, eps)
        assert np.all(np.array(want) > 0)
        gaps = _relative_gaps(got, want)
        assert np.all(gaps[[1, 2]] <= 5e-9) and np.all(gaps[[0, 3, 4, 5]] <= 1e-9), gaps

    def test_stacked_newton_matches_single_problems(self, rng):
        # a converged start, a mild rate and a strong exchange rate whose full
        # Newton step overflows, so only that problem backtracks
        n = 6
        c = rng.uniform(0.5, 1.5, (3, 2, n))
        v = np.zeros((3, 2, n))
        v[1] = 0.1 * rng.normal(size=(2, n))
        v[2] = [[2000.0] * n, [-2000.0] * n]
        v -= v.mean(axis=(1, 2), keepdims=True)
        delta, edges = np.array([1.0, 2.0]), [(0, 1, 1.0)]
        value_grad, hess, _ = _dual(c, delta, edges, v, 1.0 / n)
        evaluated = []

        def counted(x, act):
            evaluated.append(act.copy())
            return value_grad(x, act)

        x, val, gnorm, sweeps, iters = damped_newton_max(
            counted, hess, np.zeros((3, n)))
        assert iters[0] == 0 < iters[1] < iters[2] == sweeps and gnorm <= 1e-10
        assert len(evaluated) > 1 + sweeps  # the line search halved
        assert any(len(act) < 3 for act in evaluated[1:])  # converged problems dropped out
        for m in range(3):
            one = _dual(c[m:m + 1], delta, edges, v[m:m + 1], 1.0 / n)
            x1, val1, _, sweeps1, _ = damped_newton_max(one[0], one[1], np.zeros((1, n)))
            assert np.array_equal(x1[0], x[m]) and val1[0] == val[m] and sweeps1 == iters[m]

    def test_chunking_does_not_change_intervals(self, params):
        # dt is a power of two, so both halves keep the exact time steps
        dt = 2.0 ** -11
        traj, tilt = _criterion_3_level_0(params, dt, 640 * dt)
        assert traj.n_times - 1 > _window_unit(traj.states[0].size)
        halves = []
        for lo, hi in ((0, 320), (320, 640)):
            fluxes = FluxAssignment(traj.fluxes.J[lo:hi], traj.fluxes.b[lo:hi])
            times = traj.times[lo:hi + 1] - traj.times[lo]
            assert np.array_equal(np.diff(times), np.diff(traj.times[lo:hi + 1]))
            halves.append(Trajectory(times, traj.states[lo:hi + 1], fluxes))
        for evaluate in (dissipation_functional, flux_dissipation):
            whole = evaluate(traj, params, tilt)
            parts = [evaluate(half, params, tilt) for half in halves]
            for name in ("vel_diff", "vel_react", "slope_diff", "slope_react"):
                assert getattr(whole, name) == pytest.approx(
                    sum(getattr(p, name) for p in parts), rel=1e-13, abs=0), (evaluate, name)

    def test_blocked_interval_inside_a_batch_raises_typed_error(self, params):
        # the empty-pair state of test_blocked_transport_fails_with_diagnostics
        # as the third of four intervals, after two regular ones
        blocked = np.array([[1.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 1.0]])
        v = np.array([[-1.0, 0.0, 0.0, 1.0], [-1.0, 0.0, 0.0, 1.0]])
        dt = 0.1
        moved = blocked + dt * v
        states = np.array([np.full((2, 4), 0.5), np.full((2, 4), 0.5), blocked, moved, moved])
        traj = Trajectory(dt * np.arange(5), states)
        with pytest.raises(DualAscentError) as err:
            dissipation_functional(traj, params, Tilt.zero(4))
        assert err.value.gradient_norm > 0
        with pytest.raises(DualAscentError) as alone:
            primal_R_eps(State(blocked), params, v)
        # the error is the blocked interval's (its rate differs in the last bit)
        assert err.value.gradient_norm == pytest.approx(alone.value.gradient_norm, rel=1e-12)

    def test_debug_log_reports_the_ascent(self, params, caplog):
        traj, tilt = _criterion_3_level_0(params, 1e-3, 0.05)
        quiet = dissipation_functional(traj, params, tilt)
        assert not caplog.records
        with caplog.at_level(logging.DEBUG, logger="edpflow.dissipation"):
            logged = dissipation_functional(traj, params, tilt)
        assert logged == quiet
        (record,) = caplog.records
        msg = record.getMessage()
        assert record.levelno == logging.DEBUG and record.name == "edpflow.dissipation"
        assert "over 50 intervals in 1 windows" in msg
        hist, gnorm = re.search(r"per interval (\{.*\}), max final gradient norm (\S+)$", msg).groups()
        hist = ast.literal_eval(hist)
        assert sum(hist.values()) == 50 and min(hist) >= 1
        assert float(gnorm) <= 1e-10

        gen = random_detailed_balance_generator(np.random.default_rng(11), 3)
        c0 = np.repeat(gen.stationary(1e-2)[:, None], 6, axis=1)
        c0[:, :3] *= 1.2
        c0 /= c0.sum() / 6
        net_traj = solve_multispecies(State(c0), gen, 1e-2, SolverConfig(1e-3, 0.01))
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="edpflow.multispecies"):
            multispecies_dissipation(net_traj, gen, 1e-2)
        (record,) = caplog.records
        assert record.name == "edpflow.multispecies"
        assert "over 10 intervals in 1 windows" in record.getMessage()

        # 625 intervals on 20 cells: a window of 410 and the rest
        traj, tilt = _criterion_3_level_0(params)
        assert _window_unit(2 * traj.n_cells) == 410
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="edpflow.dissipation"):
            dissipation_functional(traj, params, tilt)
        (record,) = caplog.records
        assert "over 625 intervals in 2 windows" in record.getMessage()


def _breakdown_terms(bd):
    return [bd.vel_diff, bd.vel_react, bd.slope_diff, bd.slope_react]


def _network_breakdown_terms(bd):
    return [bd.vel_react_slow, bd.vel_react_fast, bd.vel_diff,
            bd.slope_diff, bd.slope_react_slow, bd.slope_react_fast]


class TestWarmStart:
    """Every interval's ascent starts at the energy gradient of its own two states."""

    @pytest.fixture
    def all_cold(self, monkeypatch):
        # every interval solved from zero
        def evaluate(fn, *args, **kwargs):
            with monkeypatch.context() as m:
                m.setattr(dissipation_module, "_energy_gradient_start",
                          lambda states, w: np.zeros((states.shape[0] - 1, (w.shape[0] - 1) * w.shape[1])))
                return fn(*args, **kwargs)
        return evaluate

    @pytest.fixture
    def newton_counts(self, monkeypatch):
        counts = []

        def recorded(*args, **kwargs):
            result = damped_newton_max(*args, **kwargs)
            counts.append(result[4])
            return result

        monkeypatch.setattr(dissipation_module, "damped_newton_max", recorded)
        return counts

    def test_start_is_the_energy_gradient(self, params, monkeypatch):
        # eta = l_1 - l_0, l the mean of log(c / w) at the interval's ends; a
        # cell empty at one end starts at zero
        traj, tilt = _criterion_3_level_0(params, 1e-3, 0.003)
        states = np.array(traj.states)
        states[1:, 1, 4] = 0.0
        states[1:, 0, 4] += traj.states[1:, 1, 4]  # the mass moves to species 0
        starts = []

        def recorded(value_grad, hess, x0, **kwargs):
            starts.append(np.array(x0))
            return damped_newton_max(value_grad, hess, x0, **kwargs)

        monkeypatch.setattr(dissipation_module, "damped_newton_max", recorded)
        dissipation_functional(Trajectory(traj.times, states), params, tilt)
        w_v, _ = stationary_measure(params, tilt)
        (x0,) = starts
        with np.errstate(divide="ignore"):
            level = np.log(states / w_v)
        level = 0.5 * (level[:-1] + level[1:])
        want = level[:, 1] - level[:, 0]
        assert np.all(np.isneginf(want[:, 4])) and np.all(np.isfinite(np.delete(want, 4, 1)))
        want[:, 4] = 0.0
        assert x0.shape == (3, 20) and np.array_equal(x0, want)

    def test_two_species_matches_all_cold(self, params, all_cold):
        traj, tilt = _criterion_3_level_0(params)
        got = _breakdown_terms(dissipation_functional(traj, params, tilt))
        cold = _breakdown_terms(all_cold(dissipation_functional, traj, params, tilt))
        gaps = _relative_gaps(got, cold)
        # only the start of each interval's ascent moved; the absolute gradient
        # tolerance leaves vel_react, the smallest term, the least accurate
        assert gaps[1] <= 5e-9
        assert np.all(np.delete(gaps, 1) <= 1e-9), gaps

    def test_network_matches_all_cold(self, all_cold):
        traj, gen, eps = _network_trajectory()
        got = _network_breakdown_terms(multispecies_dissipation(traj, gen, eps))
        cold = _network_breakdown_terms(all_cold(multispecies_dissipation, traj, gen, eps))
        gaps = _relative_gaps(got, cold)
        assert np.all(gaps[:2] <= 5e-9) and np.all(gaps[2:] <= 1e-9), gaps

    def test_mean_newton_iterations_per_interval(self, params, newton_counts):
        # criterion 3 at n = 40 (its second level): one iteration per interval
        traj, tilt = _criterion_3_level_0(params, 2e-4, 0.25, n=40)
        dissipation_functional(traj, params, tilt)
        iters = np.concatenate(newton_counts)
        assert iters.size == traj.n_times - 1  # every interval solved exactly once
        assert iters.mean() <= 1.05, np.bincount(iters)

    @pytest.mark.parametrize("extra", [1, 2, 5])
    def test_partial_last_block(self, params, all_cold, newton_counts, extra):
        # the last window, a block of one, two or five intervals, after two whole ones
        n_int = 2 * _window_unit(40) + extra
        traj, tilt = _criterion_3_level_0(params, 4e-4, n_int * 4e-4)
        assert traj.n_times - 1 == n_int
        got = _breakdown_terms(dissipation_functional(traj, params, tilt))
        assert [c.size for c in newton_counts] == [_window_unit(40)] * 2 + [extra]
        cold = _breakdown_terms(all_cold(dissipation_functional, traj, params, tilt))
        gaps = _relative_gaps(got, cold)
        assert gaps[1] <= 5e-9 and np.all(np.delete(gaps, 1) <= 1e-9), gaps

    def test_single_interval(self, params, newton_counts):
        traj, tilt = _criterion_3_level_0(params, 4e-4, 4e-4)
        assert traj.n_times == 2
        bd = dissipation_functional(traj, params, tilt)
        (iters,) = newton_counts  # one window of one interval
        assert iters.size == 1
        rate = (traj.states[1] - traj.states[0]) / 4e-4
        res = primal_R_eps(State(traj.states[0]), params, rate)
        diff, react = primal_objective(State(traj.states[0]), params, res.fluxes)
        assert bd.vel_diff == pytest.approx(4e-4 * diff, rel=1e-12)
        assert bd.vel_react == pytest.approx(4e-4 * react, rel=1e-9)

    def test_terms_do_not_depend_on_the_neighbours(self, params, monkeypatch):
        # intervals 1 and 2 of two trajectories that differ only in their
        # first and last states give the same bits, two-species and network
        rows = []

        def recorded(acc, terms, dts):
            rows.append(np.array(terms))
            return integrate(acc, terms, dts)

        integrate = dissipation_module._integrate
        monkeypatch.setattr(dissipation_module, "_integrate", recorded)
        traj, tilt = _criterion_3_level_0(params, 1e-3, 0.004)
        net, gen, eps = _network_trajectory()
        evaluations = (
            (traj, lambda t: dissipation_functional(t, params, tilt)),
            (Trajectory(net.times[:5], net.states[:5]), lambda t: multispecies_dissipation(t, gen, eps)))
        for stored, evaluate in evaluations:
            other = np.array(stored.states)
            x = (np.arange(other.shape[2]) + 0.5) / other.shape[2]
            for m, shift in ((0, 0.05), (4, -0.02)):  # moves of species 0 between cells
                other[m, 0] += shift * np.cos(np.pi * x)
            rows.clear()
            evaluate(stored)
            evaluate(Trajectory(stored.times, other))
            (mine, theirs) = rows
            assert not np.array_equal(mine[:, [0, 3]], theirs[:, [0, 3]])
            assert mine[:, 1:3].tobytes() == theirs[:, 1:3].tobytes()

    def test_stored_flux_terms_match_flux_dissipation(self, params):
        # the costs of the stored fluxes, one interval at a time
        traj, tilt = _criterion_3_level_0(params, 1e-3, 0.05)
        bd = dissipation_functional(traj, params, tilt)
        stored = flux_dissipation(traj, params, tilt)
        want = sum(dt * np.array(primal_objective(
            traj.state(m), params, FluxAssignment(traj.fluxes.J[m], traj.fluxes.b[m])))
            for m, dt in enumerate(np.diff(traj.times)))
        assert stored.vel_diff == pytest.approx(want[0], rel=1e-14)
        assert stored.vel_react == pytest.approx(want[1], rel=1e-14)
        assert bd.slope_diff == pytest.approx(stored.slope_diff, rel=1e-14)
        assert bd.slope_react == pytest.approx(stored.slope_react, rel=1e-14)

    @pytest.mark.parametrize("n", [20, 160])
    def test_stored_flux_terms_equal_flux_dissipation_bitwise(self, params, n):
        # each term is integrated on its own, so its bits do not depend on
        # which velocity terms are evaluated with it (n = 160 runs several windows)
        traj, tilt = _criterion_3_level_0(params, 4e-4, 0.25, n)
        bd = dissipation_functional(traj, params, tilt)
        stored = flux_dissipation(traj, params, tilt)
        assert (bd.slope_diff, bd.slope_react) == (stored.slope_diff, stored.slope_react)

    def test_debug_log_reports_one_solve_per_window(self, params, caplog, newton_counts):
        # two whole windows and three intervals: three stacked solves, one record
        window = _window_unit(40)
        traj, tilt = _criterion_3_level_0(params, 4e-4, (2 * window + 3) * 4e-4)
        with caplog.at_level(logging.DEBUG, logger="edpflow.dissipation"):
            dissipation_functional(traj, params, tilt)
        (record,) = caplog.records
        msg = record.getMessage()
        assert f"over {2 * window + 3} intervals in 3 windows: Newton iterations per interval" in msg
        total = ast.literal_eval(re.search(r"per interval (\{.*?\})", msg).group(1))
        assert [c.size for c in newton_counts] == [window, window, 3]
        assert total == {k: int(m) for k, m in
                         enumerate(np.bincount(np.concatenate(newton_counts))) if m}


class TestRoundoffFloor:
    """The stopping test accepts the gradient's rounding level when it exceeds tol."""

    def _slow_manifold_trajectory(self, epsilon):
        params = SystemParams((1.0, 2.0), 1.0, 3.0, epsilon=epsilon)
        n = 40
        hat = 1 + 0.5 * np.cos(np.pi * (np.arange(n) + 0.5) / n)
        hat /= hat.sum() / n
        c0 = manifold_split(hat, params, Tilt.zero(n))
        return solve_eps_system(State(c0), params, Tilt.zero(n), SolverConfig(1e-3, 0.05)), params

    @pytest.mark.parametrize("epsilon", [1e-8, 1e-10])
    def test_tiny_epsilon_evaluates(self, epsilon):
        # tol = 1e-10 is below the rounding level of an exchange weight of order h / epsilon
        traj, params = self._slow_manifold_trajectory(epsilon)
        bd = dissipation_functional(traj, params, Tilt.zero(40))
        terms = np.array(_breakdown_terms(bd)
                         + _breakdown_terms(flux_dissipation(traj, params, Tilt.zero(40))))
        assert np.all(np.isfinite(terms)) and np.all(terms >= 0)
        traj_ref, params_ref = self._slow_manifold_trajectory(1e-6)
        ref = dissipation_functional(traj_ref, params_ref, Tilt.zero(40))
        # on the slow manifold the diffusion terms have reached their limit
        assert bd.vel_diff == pytest.approx(ref.vel_diff, rel=1e-6)
        assert bd.slope_diff == pytest.approx(ref.slope_diff, rel=1e-6)

    @pytest.mark.parametrize("dt", [2.5e-4, 1e-3])
    def test_tilted_fine_grid_evaluates(self, dt):
        # at n = 160 the gradient norm sums the rounding of 2n entries, which
        # the per-entry level alone (gradient norm 1.82e-10) left out of reach
        n, epsilon = 160, 1e-8
        params = SystemParams((1.0, 2.0), 1.0, 3.0, epsilon=epsilon)
        tilt = cosine_tilt(n, [[0.3], [-0.2]])
        hat = 1 + 0.5 * np.cos(np.pi * (np.arange(n) + 0.5) / n)
        c0 = manifold_split(hat, params, tilt)
        traj = solve_eps_system(State(c0), params, tilt, SolverConfig(dt, 0.05))
        bd = dissipation_functional(traj, params, tilt)
        terms = np.array(_breakdown_terms(bd)
                         + _breakdown_terms(flux_dissipation(traj, params, tilt)))
        assert np.all(np.isfinite(terms)) and np.all(terms >= 0)
        assert bd.total == pytest.approx(0.0823, rel=2e-3)

    @pytest.mark.parametrize("n", [20, 40])
    def test_network_terminal_step_at_the_value_rounding_level(self, n):
        # the seed-0 network at epsilon = 1e-5: the predicted gain of the last
        # Newton steps sits between the value's 1e-12 relative resolution and
        # what the gradient's rounding level can misstate, so the line search
        # rejected them and the ascent hit its iteration limit at a gradient
        # norm of 4.5e-7 (n = 20) and 2.4e-7 (n = 40)
        eps = 1e-5
        gen = random_detailed_balance_generator(np.random.default_rng(0), 4)
        w = gen.stationary(eps)
        c0 = State(w[:, None] * (1 + 0.5 * np.cos(np.pi * (np.arange(n) + 0.5) / n)))
        traj = solve_multispecies(c0, gen, eps, SolverConfig(0.04 / n, 0.05))
        terms = np.array(astuple(multispecies_dissipation(traj, gen, eps)))
        assert np.all(np.isfinite(terms)) and np.all(terms >= 0)

    def test_graded_ill_prepared_trajectory_at_tiny_epsilon(self):
        # off the slow manifold at epsilon = 1e-8, on a time grid graded
        # through the exchange layer: the first step is epsilon / 5 and the
        # step doubles every 4 steps up to 1e-3, spliced from uniform solves.
        # The ascent used to stall at a gradient norm of 2.7e-2
        n, eps, dt_max = 40, 1e-8, 1e-3
        params = SystemParams((1.0, 2.0), 1.0, 3.0, epsilon=eps)
        x = (np.arange(n) + 0.5) / n
        c = np.stack([1 + 0.5 * np.cos(np.pi * x), np.full(n, 0.5)])
        times, states, J, b = [0.0], [c / (c.sum() / n)], [], []
        dt = eps / 5
        while times[-1] < 0.05:
            steps = 4 if dt < dt_max else round((0.05 - times[-1]) / dt)
            seg = solve_eps_system(State(states[-1]), params, Tilt.zero(n),
                                   SolverConfig(dt, steps * dt))
            times += list(times[-1] + seg.times[1:])
            states += list(seg.states[1:])
            J.append(seg.fluxes.J)
            b.append(seg.fluxes.b)
            dt = min(2 * dt, dt_max)
        traj = Trajectory(np.array(times), np.array(states),
                          FluxAssignment(np.concatenate(J), np.concatenate(b)))
        assert traj.n_times == 123
        # the residual at epsilon = 1e-4 on its own graded grid is 7.99e-3
        assert edb_residual(traj, params, Tilt.zero(n)) == pytest.approx(7.99e-3, rel=1e-3)

    def test_single_interval_stops_at_its_rounding_level(self):
        traj, params = self._slow_manifold_trajectory(1e-8)
        st = State(traj.states[0])
        rate = (traj.states[1] - traj.states[0]) / (traj.times[1] - traj.times[0])
        res = primal_R_eps(st, params, rate)
        # Newton reaches the rounding level in a few steps; tol alone is out of reach
        assert res.dual.iterations <= 3
        assert 1e-10 < res.dual.gradient_norm < 1e-8
        assert np.isfinite(res.value) and res.value > 0


class TestGaugePin:
    """Species below rounding under large tilts.

    Named for the gauge pin of the full dual, which these cases defeated: the
    reduced dual runs on potential differences, which have no constant mode,
    so nothing is pinned for any species count.
    """

    def _evaluate(self, delta_v, epsilon):
        # constant tilt V_1 = delta_v / 2, V_2 = -delta_v / 2 on slow-manifold data
        n = 40
        params = SystemParams((1.0, 2.0), 1.0, 3.0, epsilon=epsilon)
        v = np.array([[0.5], [-0.5]]) * delta_v
        tilt = Tilt(v * np.ones(n), v * np.ones(n + 1))
        hat = 1 + 0.5 * np.cos(np.pi * (np.arange(n) + 0.5) / n)
        c0 = manifold_split(hat, params, tilt)
        traj = solve_eps_system(State(c0), params, tilt, SolverConfig(1e-3, 0.01))
        bd = dissipation_functional(traj, params, tilt)
        return traj, bd.total, edb_residual(traj, params, tilt)

    @pytest.mark.parametrize("epsilon", [1e-3, 1e-8])
    @pytest.mark.parametrize("delta_v", [70, 100, 200])
    def test_species_below_rounding_under_a_constant_tilt(self, delta_v, epsilon):
        # species 1 falls below 1e-29: a pin on unknown 0 (species 1 in cell
        # 0, diagonal about 4e-14) left the constant mode of species 2 lifted
        # by an exchange coupling below rounding, and "singular dual Hessian"
        # was raised at delta_v = 100, and at 70 for epsilon = 1e-3; with the
        # pin at the largest diagonal entry, delta_v = 200 still raised
        traj, total, residual = self._evaluate(delta_v, epsilon)
        assert traj.states[:, 0].max() < 1e-29
        # species 2 carries the dynamics alone, as it does at delta_v = 60,
        # which the pin on unknown 0 evaluated too
        assert total == pytest.approx(0.0216421, rel=1e-6)
        assert residual == pytest.approx(2.376e-4, rel=1e-3)
        _, total_60, residual_60 = self._evaluate(60.0, epsilon)
        assert total == pytest.approx(total_60, rel=1e-8)
        assert residual == pytest.approx(residual_60, rel=1e-6)

    @pytest.mark.parametrize("epsilon", [1e-3, 1e-8])
    def test_underflowing_species_under_a_constant_tilt(self, epsilon):
        # exp(-1000) underflows: species 1 and its stationary measure are
        # exactly zero.  The full dual raised "singular dual Hessian"; an
        # empty species is at rest, and the untilted values come out
        traj, total, residual = self._evaluate(1000.0, epsilon)
        assert np.all(traj.states[:, 0] == 0.0)
        assert total == pytest.approx(0.0216421, rel=1e-6)
        assert residual == pytest.approx(2.376e-4, rel=1e-3)

    def test_edb_refinement_under_a_large_cosine_tilt(self, tmp_path):
        # raised "singular dual Hessian" before the two-species dual lost its
        # constant mode; both systems now refine alike, and only the finest
        # residual misses its bound
        doc = dict(default_configs()["edb_refinement"], output_dir=str(tmp_path / "out"),
                   tilt={"kind": "cosine", "coefficients": [[35], [-35]]})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        summary = run_experiment(load_config(path)).summary
        assert summary["fitted_order_fast_slow"] == pytest.approx(1.2897, rel=1e-4)
        assert summary["fitted_order_effective"] == pytest.approx(1.2897, rel=1e-4)
        assert summary["finest_residual_fast_slow"] == pytest.approx(1.12254e-6, rel=1e-5)
        assert summary["finest_residual_fast_slow"] == pytest.approx(
            summary["finest_residual_effective"], rel=1e-6)
        assert summary["pass_orders_ge_0.8"] and not summary["pass_finest_residual"]


class TestTiltLevel:
    """A constant added to both potentials moves no dissipation, however large it is."""

    def _tilt(self, n, s):
        tilt = cosine_tilt(n, [[0.0], [0.3]])
        return Tilt(tilt.v_cells + s, tilt.v_faces + s)

    def _evaluate(self, params, s, split):
        # V_1 = s and V_2 = s + 0.3 cos(pi x) on 20 cells
        n = 20
        tilt = self._tilt(n, s)
        hat = 1 + 0.5 * np.cos(np.pi * (np.arange(n) + 0.5) / n)
        hat /= hat.sum() / n
        c0 = manifold_split(hat, params, tilt) if split else params.w[:, None] * hat
        config = SolverConfig(1e-3, 0.01)
        traj = solve_eps_system(State(c0), params, tilt, config)
        hat_traj = solve_effective(hat, params, tilt, config)
        return np.array([dissipation_functional(traj, params, tilt).total,
                         flux_dissipation(traj, params, tilt).total,
                         hat_dissipation(hat_traj, params, tilt).total,
                         hat_energy(hat, params, tilt) - s])

    @pytest.mark.parametrize("split", [False, True])
    @pytest.mark.parametrize("s", [-720.0, 750.0, -5000.0])
    def test_values_of_the_untilted_level(self, params, s, split):
        # exp(-V) overflowed at s = -720 and underflowed to 0 at s = 750,
        # which gave NaN terms, an energy of -inf and a "tilt too large" solve
        got, want = self._evaluate(params, s, split), self._evaluate(params, 0.0, split)
        assert np.all(np.isfinite(got))
        assert np.all(np.abs(got[:3] - want[:3]) <= 1e-12 * want[:3]), got - want
        assert got[3] == pytest.approx(want[3], abs=1e-15 * abs(s))

    def test_stationary_measure_reads_the_level_in_z_alone(self, params):
        w_0, z_0 = stationary_measure(params, self._tilt(20, 0.0))
        for s, z in ((-720.0, np.inf), (750.0, 0.0)):
            w_v, z_s = stationary_measure(params, self._tilt(20, s))
            assert np.allclose(w_v, w_0, rtol=1e-13, atol=0) and z_s == z
        assert stationary_measure(params, self._tilt(20, 720.0))[1] == pytest.approx(
            z_0 * np.exp(-720.0), rel=1e-9)

    def test_exchange_overflow_is_a_typed_error(self, params):
        # V_1 - V_2 = 1500: the split is finite, and the solver's exchange rates overflow
        n = 20
        v = np.array([[750.0], [-750.0]])
        tilt = Tilt(v * np.ones(n), v * np.ones(n + 1))
        c0 = manifold_split(np.ones(n), params, tilt)
        assert np.all(np.isfinite(c0))
        with pytest.raises(IntegrationError, match="tilt too large"):
            solve_eps_system(State(c0), params, tilt, SolverConfig(1e-3, 0.01))


def _hex(bd):
    return [float(t).hex() for t in (bd.vel_diff, bd.vel_react, bd.slope_diff, bd.slope_react)]


class TestStreamedEvaluation:
    """Solves read window by window by the evaluators, against the stored trajectories."""

    SCHEMES = ["strang_exact_reaction", "strang_cn"]

    def _initial(self, params, n):
        tilt = cosine_tilt(n, [[0.3], [-0.2]])
        w_v, _ = stationary_measure(params, tilt)
        c0 = w_v * (1 + 0.4 * np.cos(np.pi * (np.arange(n) + 0.5) / n))
        return State(c0 / (c0.sum() / n)), tilt

    def _compare(self, params, n, config, window, hat_window, net_window):
        # the stored trajectories are read in the evaluators' default windows
        c0, tilt = self._initial(params, n)
        steps = config.n_steps
        assert steps > window
        traj = solve_eps_system(c0, params, tilt, config)
        # the terms of the fluxes the windows carry, and of the optimal ones
        for evaluate in (flux_dissipation, dissipation_functional):
            stream = Windowed(_eps_solve(c0, params, tilt, config), window)
            assert _hex(evaluate(stream, params, tilt)) == _hex(evaluate(traj, params, tilt))
        assert np.array_equal(stream.states[-1], traj.states[-1])
        assert np.array_equal(stream.times, traj.times)
        hat0 = c0.c.sum(axis=0)
        hat_traj = solve_effective(hat0, params, tilt, config)
        for evaluate in (hat_flux_dissipation, hat_dissipation):
            hat_stream = Windowed(_effective_solve(hat0, params, tilt, config), hat_window)
            assert _hex(evaluate(hat_stream, params, tilt)) == _hex(evaluate(hat_traj, params, tilt))
        assert np.array_equal(hat_stream.states[-1], hat_traj.states[-1])
        gen = random_detailed_balance_generator(np.random.default_rng(0), 4)
        net0 = State(gen.stationary(params.epsilon)[:, None] * hat0)
        net = solve_multispecies(net0, gen, params.epsilon, config)
        net_stream = Windowed(_multispecies_solve(net0, gen, params.epsilon, config), net_window)
        assert net_stream.n_cells == n and config.n_steps > net_window
        streamed = multispecies_dissipation(net_stream, gen, params.epsilon)
        stored = multispecies_dissipation(net, gen, params.epsilon)
        assert [float(v).hex() for v in astuple(streamed)] == \
            [float(v).hex() for v in astuple(stored)]
        assert np.array_equal(net_stream.states[-1], net.states[-1])

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("windows", [1, 3])
    def test_bit_identical_to_the_stored_trajectory(self, params, scheme, windows):
        # solves read in windows of one or three intervals, against the stored
        # trajectories' default windows of 32 fine, 64 coarse and 16 network
        # intervals on 256 cells, none of which divides the 250 intervals
        n = 256
        assert [_window_unit(k * n) for k in (2, 1, 4)] == [32, 64, 16]
        assert all(250 % w for w in (32, 64, 16, 3))
        self._compare(params, n, SolverConfig(1e-3, 0.25, scheme), windows, windows, windows)

    def test_default_windows_on_a_fine_grid(self, params):
        # windows of 52 fine, 103 coarse and 26 network intervals on 160 cells
        n = 160
        window = _window_unit(2 * n)
        config = SolverConfig(2.5e-4, 0.025)
        assert window < config.n_steps < 2 * window  # two windows, the second partial
        assert config.n_steps % _window_unit(4 * n)
        self._compare(params, n, config, window, _window_unit(n), _window_unit(4 * n))

    def test_coarse_windows_of_any_length(self, params):
        # the coarse evaluator runs no ascent, so any window will do
        c0, tilt = self._initial(params, 12)
        config = SolverConfig(1e-3, 0.1)
        hat0 = c0.c.sum(axis=0)
        want = _hex(hat_dissipation(solve_effective(hat0, params, tilt, config), params, tilt))
        for window in (7, 33):
            hat_stream = Windowed(_effective_solve(hat0, params, tilt, config), window)
            assert _hex(hat_dissipation(hat_stream, params, tilt)) == want, window

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_windows_are_the_stored_trajectory(self, params, scheme):
        c0, tilt = self._initial(params, 12)
        config = SolverConfig(1e-3, 0.1, scheme)
        traj = solve_eps_system(c0, params, tilt, config)
        hat_traj = solve_effective(c0.c.sum(axis=0), params, tilt, config)
        parts = [[a.copy() for a in window]
                 for window in _eps_solve(c0, params, tilt, config).windows(32)]
        hat_parts = [[a.copy() for a in window] for window in
                     _effective_solve(c0.c.sum(axis=0), params, tilt, config).windows(32)]
        assert [p[2].shape[0] for p in parts] == [32, 32, 32, 4]
        for got, want in ((parts, [traj.times, traj.states, traj.fluxes.J, traj.fluxes.b]),
                          (hat_parts, [hat_traj.times, hat_traj.states, hat_traj.fluxes])):
            # each window starts at the last time level of the one before
            for p, q in zip(got, got[1:]):
                assert p[0][-1] == q[0][0] and np.array_equal(p[1][-1], q[1][0])
            joined = [np.concatenate([p[0][:-1] for p in got] + [got[-1][0][-1:]]),
                      np.concatenate([p[1][:-1] for p in got] + [got[-1][1][-1:]]),
                      *(np.concatenate([p[k] for p in got]) for k in range(2, len(want)))]
            for a, b in zip(joined, want):
                assert np.array_equal(a, b)

    def test_stored_windows_are_views_of_the_solve_windows(self, params):
        c0, tilt = self._initial(params, 12)
        config = SolverConfig(1e-3, 0.1)
        hat0 = c0.c.sum(axis=0)
        for solve, stored in ((_eps_solve(c0, params, tilt, config),
                               solve_eps_system(c0, params, tilt, config)),
                              (_effective_solve(hat0, params, tilt, config),
                               solve_effective(hat0, params, tilt, config))):
            got = list(stored.windows(32))
            assert [window[0].size for window in got] == [33, 33, 33, 5]
            for window, want in zip(got, solve.windows(32)):
                assert len(window) == len(want)
                for a, b in zip(window, want):
                    assert np.array_equal(a, b) and a.base is not None and not a.flags.writeable
            assert np.shares_memory(got[-1][1], stored.states)

    def test_window_arrays_are_read_only(self, params):
        c0, tilt = self._initial(params, 12)
        config = SolverConfig(1e-3, 0.1)
        for window in (*_eps_solve(c0, params, tilt, config).windows(64),
                       *_effective_solve(c0.c.sum(axis=0), params, tilt, config).windows(64)):
            assert not any(a.flags.writeable for a in window)

    def test_windows_of_any_length(self, params):
        # two-species and network solves read in windows of 7 and 33
        # intervals, neither of which divides the 100 steps, give the stored
        # trajectories' terms
        c0, tilt = self._initial(params, 12)
        config = SolverConfig(1e-3, 0.1)
        gen = random_detailed_balance_generator(np.random.default_rng(0), 4)
        net0 = State(gen.stationary(params.epsilon)[:, None] * c0.c.sum(axis=0))
        want = _hex(dissipation_functional(solve_eps_system(c0, params, tilt, config), params, tilt))
        net_want = astuple(multispecies_dissipation(
            solve_multispecies(net0, gen, params.epsilon, config), gen, params.epsilon))
        for window in (7, 33):
            stream = Windowed(_eps_solve(c0, params, tilt, config), window)
            assert _hex(dissipation_functional(stream, params, tilt)) == want
            net_stream = Windowed(_multispecies_solve(net0, gen, params.epsilon, config), window)
            got = astuple(multispecies_dissipation(net_stream, gen, params.epsilon))
            assert [float(v).hex() for v in got] == [float(v).hex() for v in net_want]

    def test_a_solve_read_twice_gives_the_same_terms(self, params):
        c0, tilt = self._initial(params, 12)
        config = SolverConfig(1e-3, 0.1)
        solve = _eps_solve(c0, params, tilt, config)
        assert np.array_equal(solve.states, c0.c[None]) and solve.n_cells == 12
        hat_solve = _effective_solve(c0.c.sum(axis=0), params, tilt, config)
        for evaluate, s in ((dissipation_functional, solve), (flux_dissipation, solve),
                            (hat_dissipation, hat_solve), (hat_flux_dissipation, hat_solve)):
            first = evaluate(s, params, tilt)
            assert _hex(evaluate(s, params, tilt)) == _hex(first), evaluate

    def test_no_carried_fluxes_raise(self, params):
        c0, tilt = self._initial(params, 12)
        traj = solve_eps_system(c0, params, tilt, SolverConfig(1e-3, 0.1))
        hat = CoarseTrajectory(traj.times, traj.states.sum(axis=1))
        for evaluate, stored in ((flux_dissipation, Trajectory(traj.times, traj.states)),
                                 (hat_flux_dissipation, hat)):
            with pytest.raises(ValueError, match="no flux data"):
                evaluate(stored, params, tilt)

    def test_evaluated_solve_ends_at_the_final_state(self, params):
        # on 64 cells the windows are 128 two-species, 256 coarse and 64
        # network intervals, so each solve ends in a partial window
        c0, tilt = self._initial(params, 64)
        config = SolverConfig(1e-3, 0.15)
        hat0 = c0.c.sum(axis=0)
        gen = random_detailed_balance_generator(np.random.default_rng(0), 4)
        net0 = State(gen.stationary(params.epsilon)[:, None] * hat0)
        for solve, stored, evaluate in (
                (_eps_solve(c0, params, tilt, config), solve_eps_system(c0, params, tilt, config),
                 lambda s: dissipation_functional(s, params, tilt)),
                (_effective_solve(hat0, params, tilt, config),
                 solve_effective(hat0, params, tilt, config),
                 lambda s: hat_dissipation(s, params, tilt)),
                (_multispecies_solve(net0, gen, params.epsilon, config),
                 solve_multispecies(net0, gen, params.epsilon, config),
                 lambda s: multispecies_dissipation(s, gen, params.epsilon))):
            evaluate(solve)
            assert solve.times.size - 1 == config.n_steps
            assert np.array_equal(solve.states[-1], stored.states[-1])

    def test_edb_residuals_of_a_multi_window_solve(self, params):
        # the balance reads the initial energy before the windows are consumed
        # and the final state from the last window, bit for bit as stored
        c0, tilt = self._initial(params, 20)
        config = SolverConfig(1e-3, 0.1)
        hat0 = c0.c.sum(axis=0)
        window = 32
        stream = Windowed(_eps_solve(c0, params, tilt, config), window)
        hat_stream = Windowed(_effective_solve(hat0, params, tilt, config), window)
        assert config.n_steps > 3 * window
        assert edb_residual(stream, params, tilt) == edb_residual(
            solve_eps_system(c0, params, tilt, config), params, tilt)
        assert hat_edb_residual(hat_stream, params, tilt) == hat_edb_residual(
            solve_effective(hat0, params, tilt, config), params, tilt)

    def test_blow_up_raises_integration_error(self):
        # test_blowup_reports_step, streamed: the solver's own step is reported
        c0, p, tilt, config = blow_up_case()
        with pytest.raises(IntegrationError) as stored:
            solve_eps_system(c0, p, tilt, config)
        with pytest.raises(IntegrationError) as streamed:
            dissipation_functional(_eps_solve(c0, p, tilt, config), p, tilt)
        assert streamed.value.step == stored.value.step == 1
        assert str(streamed.value) == str(stored.value)

    def test_blocked_interval_raises_dual_ascent_error(self, params):
        # the blocked state of test_blocked_interval_inside_a_batch_raises_typed_error,
        # handed over as the second of two windows, the first a whole window of
        # regular states
        blocked = np.array([[1.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 1.0]])
        v = np.array([[-1.0, 0.0, 0.0, 1.0], [-1.0, 0.0, 0.0, 1.0]])
        dt = 0.1
        window = _window_unit(8)
        regular = np.full((window + 1, 2, 4), 0.5)
        windows = [(dt * np.arange(window + 1), regular),
                   (dt * np.arange(window, window + 3),
                    np.array([regular[-1], blocked, blocked + dt * v]))]
        stream = SimpleNamespace(times=dt * np.arange(window + 3), states=regular[:1],
                                 initial_state=State(regular[0]), fluxes=None,
                                 windows=lambda unit: windows)
        with pytest.raises(DualAscentError):
            dissipation_functional(stream, params, Tilt.zero(4))
