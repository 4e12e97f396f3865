"""The solvers' per-step formulas, one numpy expression at a time: the oracle of the fused kernel.

The solvers advance each step with one in-place kernel over a padded flat
stack (:func:`edpflow.solver._kernel`); this module takes the same step as
separate array expressions on the (k, n) stack, and the tests compare the
two through ``tobytes()``, signed zeros included.  Each ``reference_*``
function returns the states (N + 1, k, n), the face fluxes (N, k, n + 1)
and, with an exchange, the reaction fluxes (N, k, n) of a whole solve.
``inject(m, c)``, if given, alters step m's new state in place before the
nonnegativity guard sees it.
"""

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from edpflow.coarsegrain import coarse_params
from edpflow.multispecies import _generator_exp
from edpflow.solver import IntegrationError, _exchange_rates

SPECIES_SIGN = np.array([[1.0], [-1.0]])


class ReferenceStepper:
    """The fitted drift-diffusion step of a (k, n) stack, factored once, one block of n per species."""

    def __init__(self, delta_faces, g, dt, h, crank_nicolson):
        self.neg_dh = -(delta_faces / h)
        self.g = g
        self.h = h
        self.dt_h = dt / h
        self.half_dt = 0.5 * dt
        self.cn = crank_nicolson
        self.J_new = np.zeros((g.shape[0], g.shape[1] + 2))
        r = (0.5 * dt if crank_nicolson else dt) / (h * h)
        ab = np.zeros((3, g.shape[0], g.shape[1] + 1))
        ab[1] = 1.0
        ab[1, :, :-1] += r * delta_faces / g
        ab[1, :, 1:] += r * delta_faces * g
        ab[0, :, 1:] = -r * delta_faces * g
        ab[2, :, :-1] = -r * delta_faces / g
        ab = ab.reshape(3, -1)
        dl, d, du, du2, ipiv, info = dgttrf(ab[2, :-1], ab[1], ab[0, 1:])
        assert info == 0
        self.factors = (dl, d, du, du2, ipiv)

    def fluxes(self, c, out):
        out[:, 1:-1] = self.neg_dh * (c[:, 1:] * self.g - c[:, :-1] / self.g)
        return out

    def solve(self, rhs):
        x, _ = dgttrs(*self.factors, rhs.ravel())
        return x.reshape(rhs.shape)

    def step(self, c, J):
        if self.cn:
            self.fluxes(c, J)
            rhs = c + self.half_dt * (-(J[:, 1:] - J[:, :-1]) / self.h)
            J[:] = 0.5 * (J + self.fluxes(self.solve(rhs), self.J_new))
        else:
            self.fluxes(self.solve(c), J)
        return c - self.dt_h * (J[:, 1:] - J[:, :-1])


def _loop(c0, config, delta_faces, g, half=None, inject=None):
    c = np.array(c0, dtype=float).reshape(-1, c0.shape[-1])
    dt = config.dt_effective
    stepper = ReferenceStepper(delta_faces, g, dt, 1.0 / c.shape[1], config.scheme == "strang_cn")
    states, fluxes, reactions = [c], [], []
    for m in range(config.n_steps):
        J = np.zeros((c.shape[0], c.shape[1] + 1))
        if half:
            c_half, d = half(c)
            c_next, d_next = half(stepper.step(c_half, J))
            reactions.append(np.add(d, d_next) / dt)
        else:
            c_next = stepper.step(c, J)
        if inject:
            inject(m, c_next)
        if not np.isfinite(c_next).all():
            raise IntegrationError("state left the finite range", m)
        lowest = c_next.min()  # the nonnegativity guard
        if lowest < -1e-12 * max(1.0, np.abs(c_next).max()):
            raise IntegrationError(f"density went negative ({lowest:.3e})", m)
        c = c_next if lowest > 0.0 else np.maximum(c_next, 0.0)
        states.append(c)
        fluxes.append(J)
    return np.array(states), np.array(fluxes), np.array(reactions) if half else None


def reference_eps(initial, params, tilt, config, inject=None):
    """The steps of :func:`edpflow.solve_eps_system`."""
    dt, eps = config.dt_effective, params.epsilon
    a, b = _exchange_rates(params, tilt)
    s = a + b
    theta = -np.expm1(-s * (0.5 * dt) / eps) / s
    g = np.exp(np.diff(tilt.v_cells) / 2.0)

    def half(c):
        d = SPECIES_SIGN * (theta * (b * c[1] - a * c[0]))
        return c + d, d

    delta_faces = np.repeat(params.delta_array[:, None], initial.n_cells - 1, axis=1)
    return _loop(initial.c, config, delta_faces, g, half, inject)


def reference_effective(hat_c, params, tilt, config, inject=None):
    """The steps of :func:`edpflow.solve_effective`, the states shaped (N + 1, 1, n)."""
    cp = coarse_params(params, tilt)
    g = np.exp(np.diff(cp.v_hat) / 2.0)
    delta_faces = 0.5 * (cp.delta_hat[1:] + cp.delta_hat[:-1])
    return _loop(np.asarray(hat_c, dtype=float), config, delta_faces[None], g[None], inject=inject)


def reference_multispecies(initial, gen, epsilon, config, inject=None):
    """The steps of :func:`edpflow.solve_multispecies`."""
    propagator = _generator_exp(gen.assemble(epsilon) * (0.5 * config.dt_effective))

    def half(c):
        d = propagator @ c - c
        d -= d.sum(axis=0) / len(d)
        return c + d, d

    delta_faces = np.repeat(gen.delta[:, None], initial.n_cells - 1, axis=1)
    return _loop(initial.c, config, delta_faces, np.ones_like(delta_faces), half, inject)
