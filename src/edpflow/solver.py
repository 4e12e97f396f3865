"""Time integration of the fast-slow two-species system, its coarse limit and I-species networks.

One stepping loop (:class:`_Solve`) serves all three systems: a Strang
splitting into an exchange half step, a drift-diffusion step and a second
exchange half step.  Drift-diffusion is advanced implicitly with an
exponentially fitted face flux (the flux depends on the potential only
through its face differences), which makes the tilted stationary measure an
exact fixed point, conserves mass to machine precision, and preserves
positivity (the implicit matrix is an M-matrix).  The implicit matrix of all
species is one block-diagonal tridiagonal system, LU-factored once per run;
each step advances every species with a single triangular solve.  The
exchange is integrated exactly, so the scale separation costs nothing in
stability, by one of three half-step maps: per cell the closed-form
exponential of the two-state generator (its ``imex_euler`` variant takes one
explicit step before the diffusion instead), the exponential of an I-species
generator shared by all cells, or none for the coarse system.

Per-interval fluxes are recorded from the solves themselves: face fluxes from
the implicit step's internal fluxes and reaction fluxes from the exchange-step
increments, so the discrete generalized continuity equation holds on solver
output to machine precision (and bit-exactly after reconstruction, which
defines its reaction fluxes as the exact residuals).

The loop hands out the trajectory in windows of consecutive steps written
into reused buffers, so a caller that reduces each window as it comes never
holds the whole trajectory; a solve has the ``windows`` method of a stored
trajectory (whose windows are views of its arrays), so the evaluators and
the CSV writer take either.  A step depends only on the state before it and the times on
the step index, so a window's values do not depend on the window length;
the solvers return the single window of all steps without a copy.  Every
state passes the nonnegativity guard, and each solve writes one DEBUG
record: steps, windows, and how many steps the guard clamped.  Each run is
single-threaded and deterministic.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from .coarsegrain import CoarseTrajectory, _check_coarse, coarse_params
from .core import (
    FluxAssignment,
    State,
    SystemParams,
    Tilt,
    Trajectory,
    _check_fluxes,
    _check_trajectory,
    _Owned,
    total_mass,
)
from .functionals import stationary_measure

__all__ = [
    "SolverConfig",
    "IntegrationError",
    "solve_eps_system",
    "solve_effective",
    "lagrange_multipliers",
    "central_first_derivative",
    "central_second_derivative",
]

logger = logging.getLogger(__name__)

_SCHEMES = ("strang_exact_reaction", "imex_euler", "strang_cn")


@dataclass(frozen=True)
class SolverConfig:
    """Step size, final time, and splitting scheme.

    ``strang_exact_reaction`` (default): exchange half step by exact matrix
    exponential, implicit-Euler drift-diffusion, exchange half step.
    ``strang_cn`` replaces the diffusion step by Crank-Nicolson (for order
    studies).  ``imex_euler`` treats the exchange explicitly and requires
    dt = O(epsilon) for stability.
    """

    dt: float
    t_final: float
    scheme: str = "strang_exact_reaction"

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt!r}")
        if not self.dt <= self.t_final < np.inf:
            raise ValueError(f"t_final must be finite and at least one step, got {self.t_final!r}")
        if self.scheme not in _SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}, expected one of {_SCHEMES}")

    @property
    def n_steps(self) -> int:
        return max(1, int(round(self.t_final / self.dt)))

    @property
    def dt_effective(self) -> float:
        """Uniform step actually taken so the final time is hit exactly."""
        return self.t_final / self.n_steps


class IntegrationError(RuntimeError):
    """Raised when the state leaves the finite range; carries the step index."""

    def __init__(self, message: str, step: int):
        super().__init__(f"{message} (step {step})")
        self.step = step


class _ImplicitStepper:
    """Fitted drift-diffusion step for a stack of species, factored once per run.

    The tridiagonal matrix of I - tau*L (tau = dt for implicit Euler, dt/2
    for Crank-Nicolson) is LU-factored once; each step advances all species
    with one triangular solve.  The accepted update is recomputed from the
    recorded face fluxes (rather than taken from the linear solve directly),
    so the discrete continuity pairing of states and fluxes holds to the last
    bit instead of inheriting the solver's algebraic residual divided by dt.
    """

    def __init__(self, delta_faces, g, dt, h, crank_nicolson):
        # delta_faces and g: shape (k, n - 1), one row per species
        self._neg_dh = -(delta_faces / h)
        self._g = g
        self._h = h
        self._dt_h = dt / h
        self._half_dt = 0.5 * dt
        self._cn = crank_nicolson
        self._J_new = np.zeros((g.shape[0], g.shape[1] + 2))  # end-of-step flux of Crank-Nicolson
        # I - tau*L, one block of n unknowns per species, no entries coupling two blocks
        r = (0.5 * dt if crank_nicolson else dt) / (h * h)
        ab = np.zeros((3, g.shape[0], g.shape[1] + 1))
        ab[1] = 1.0
        ab[1, :, :-1] += r * delta_faces / g
        ab[1, :, 1:] += r * delta_faces * g
        ab[0, :, 1:] = -r * delta_faces * g
        ab[2, :, :-1] = -r * delta_faces / g
        ab = ab.reshape(3, -1)
        dl, d, du, du2, ipiv, info = dgttrf(ab[2, :-1], ab[1], ab[0, 1:])
        if info != 0 or not np.all(np.isfinite(ab)):
            raise IntegrationError(
                "tilt too large: the drift factors exp(dV/2) leave the floating-point "
                "range and the implicit matrix is not finite or not invertible", 0)
        self._factors = (dl, d, du, du2, ipiv)

    def fluxes(self, c, out):
        """Internal face fluxes of the fitted operator into ``out``, whose boundary faces stay zero."""
        out[:, 1:-1] = self._neg_dh * (c[:, 1:] * self._g - c[:, :-1] / self._g)
        return out

    def _solve(self, rhs):
        x, _ = dgttrs(*self._factors, rhs.ravel())
        return x.reshape(rhs.shape)

    def step(self, c, J):
        """Advance the (k, n) stack by dt, writing the interval flux into the zero-bordered ``J``."""
        if self._cn:
            self.fluxes(c, J)
            rhs = c + self._half_dt * (-(J[:, 1:] - J[:, :-1]) / self._h)
            J[:] = 0.5 * (J + self.fluxes(self._solve(rhs), self._J_new))
        else:
            self.fluxes(self._solve(c), J)
        return c - self._dt_h * (J[:, 1:] - J[:, :-1])


class _Clamps:
    """Steps whose state :func:`_guard_nonnegative` clamped, and the lowest value it clamped.

    ``limit`` is the threshold that lowest value was held against; below it
    the guard raises instead.
    """

    __slots__ = ("steps", "lowest", "limit")

    def __init__(self):
        self.steps, self.lowest, self.limit = 0, 0.0, -1e-12

    def add(self, lowest: float, limit: float):
        self.steps += 1
        if lowest < self.lowest:
            self.lowest, self.limit = lowest, limit

    def log(self, solver: str, steps: int, windows: int):
        """One DEBUG record for the solve."""
        if not logger.isEnabledFor(logging.DEBUG):
            return
        clamped = (f"{self.steps} clamped (lowest value {self.lowest:.3e}, limit {self.limit:.3e}, "
                   f"margin {self.lowest - self.limit:.3e})" if self.steps else "none clamped")
        logger.debug("%s: %d steps in %d windows, %s", solver, steps, windows, clamped)


def _guard_nonnegative(c, step: int, clamps: _Clamps):
    """Clamp roundoff-negative cells to zero; genuine negativity is an error."""
    lowest = float(c.min())
    if lowest > 0.0:  # not >= 0: the clamp also turns -0.0 into +0.0
        return c
    limit = -1e-12
    if lowest < limit:
        limit *= max(1.0, float(np.abs(c).max()))
        if lowest < limit:
            raise IntegrationError(f"density went negative ({lowest:.3e})", step)
    clamps.add(lowest, limit)
    return np.maximum(c, 0.0)


def _exchange_rates(params: SystemParams, tilt: Tilt):
    """Cellwise rates of the tilted two-state exchange generator (without 1/eps)."""
    vdiff = tilt.v_cells[0] - tilt.v_cells[1]
    a = np.sqrt(params.alpha / params.beta) * np.exp(vdiff / 2.0)
    b = np.sqrt(params.beta / params.alpha) * np.exp(-vdiff / 2.0)
    return a, b


# c + _SPECIES_SIGN * d gives (c1 + d, c2 - d) bit for bit in one expression
_SPECIES_SIGN = np.array([[1.0], [-1.0]])


class _Solve:
    """A solve of ``config`` from ``initial`` (the (k, n) densities, or the (n,) coarse one).

    ``delta_faces`` and ``g`` (k, n - 1) define the drift-diffusion step of
    :class:`_ImplicitStepper`; ``exchange`` is None for the coarse system,
    else the half-step maps ``(first, second)``.  ``first(c, b)`` advances
    the (k, n) stack ``c`` before the diffusion step and writes the amounts
    exchanged into the step's row ``b`` of reaction fluxes; ``second``
    (None for ``imex_euler``) advances it after and adds its amounts to
    ``b``.  ``solver`` names the solve in its DEBUG record.

    A solve is read as a trajectory is, through :meth:`windows`, whose
    windows carry its fluxes; ``states`` is the window handed out last
    (before the first, the initial state).
    """

    def __init__(self, solver: str, initial, config: SolverConfig, delta_faces, g, exchange=None):
        self.solver, self.initial, self.config, self.exchange = solver, initial, config, exchange
        self.step = _ImplicitStepper(delta_faces, g, config.dt_effective, 1.0 / initial.shape[-1],
                                     config.scheme == "strang_cn").step
        self.n_cells = initial.shape[-1]
        self.states = initial[None]

    @property
    def times(self) -> np.ndarray:
        """The time grid, built when asked for: a solve holds nothing that grows with its steps."""
        return self.config.dt_effective * np.arange(self.config.n_steps + 1)

    @property
    def initial_state(self) -> State:
        return State(self.initial)

    def windows(self, unit: int):
        """The stepping loop, stepped afresh on each call, ``unit`` steps at a time.

        Yields ``(times, states, J)``, and ``b`` if the system exchanges, per
        window of ``unit`` intervals (the last the rest), shaped as
        ``initial``; its first state is the previous window's last.  The
        windows are read-only views of the loop's buffers, valid until the
        next is requested, and pass the checks of :class:`Trajectory` and
        :class:`FluxAssignment`, or of :class:`CoarseTrajectory`.
        """
        shape = self.initial.shape
        c = self.initial.reshape(-1, shape[-1]).copy()
        steps, dt = self.config.n_steps, self.config.dt_effective
        step, (first_half, second_half) = self.step, self.exchange or (None, None)
        clamps = _Clamps()
        width = min(unit, steps)
        states = np.empty((width + 1, *c.shape))
        J = np.zeros((width, c.shape[0], c.shape[1] + 1))
        b = np.empty((width, *c.shape)) if self.exchange else None
        for start in range(0, steps, width):
            states[0] = c
            k = min(width, steps - start)
            for i, m in enumerate(range(start, start + k)):
                c_next = step(first_half(c, b[i]) if first_half else c, J[i])
                if second_half:
                    c_next = second_half(c_next, b[i])
                if not np.isfinite(c_next).all():
                    raise IntegrationError("state left the finite range", m)
                c = _guard_nonnegative(c_next, m, clamps)
                states[i + 1] = c
            out = (dt * np.arange(start, start + k + 1), states[:k + 1].reshape(k + 1, *shape),
                   J[:k].reshape(k, *shape[:-1], shape[-1] + 1))
            if self.exchange:
                b[:k] /= dt
                out += (b[:k],)
                _check_fluxes(*out[2:])
                _check_trajectory(*out[:3])
            else:
                _check_coarse(*out)
            for a in out:
                a.flags.writeable = False
            self.states = out[1]
            yield out
        clamps.log(self.solver, steps, -(-steps // width))

    def result(self):
        """The stored trajectory: the single window of all steps, adopted without a copy."""
        ((times, states, J, *b),) = self.windows(self.config.n_steps)
        if not b:
            return CoarseTrajectory(_Owned(times), _Owned(states), _Owned(J))
        return Trajectory(_Owned(times), _Owned(states), FluxAssignment(_Owned(J), _Owned(b[0])))


def _eps_solve(initial: State, params: SystemParams, tilt: Tilt, config: SolverConfig) -> _Solve:
    if initial.n_species != 2 or tilt.n_species != 2:
        raise ValueError("the fast-slow solver is two-species")
    if tilt.n_cells != initial.n_cells:
        raise ValueError("tilt does not match initial state")
    if abs(total_mass(initial) - 1.0) > 1e-6:
        raise ValueError(f"initial state must have unit mass, got {total_mass(initial)!r}")
    dt, eps = config.dt_effective, params.epsilon
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        a, b = _exchange_rates(params, tilt)
        s = a + b
        theta = -np.expm1(-s * (0.5 * dt) / eps) / s
        g = np.exp(np.diff(tilt.v_cells) / 2.0)
    if not all(np.all(np.isfinite(x)) for x in (a, b, theta)):
        vdiff = np.max(np.abs(tilt.v_cells[0] - tilt.v_cells[1]))
        raise IntegrationError(f"tilt too large: exchange rates overflow at |V1 - V2| = {vdiff:.4g}", 0)
    imex = config.scheme == "imex_euler"
    factor = dt / eps if imex else theta  # imex_euler: one explicit step over the whole step

    def first(c, out):  # the amounts (d, -d), d moved into species 1
        np.multiply(_SPECIES_SIGN, factor * (b * c[1] - a * c[0]), out=out)
        return c + out

    def second(c, out):
        d = _SPECIES_SIGN * (factor * (b * c[1] - a * c[0]))
        out += d
        return c + d

    delta_faces = np.repeat(params.delta_array[:, None], initial.n_cells - 1, axis=1)
    return _Solve("solve_eps_system", initial.c, config, delta_faces, g,
                  (first, None if imex else second))


def solve_eps_system(initial: State, params: SystemParams, tilt: Tilt,
                     config: SolverConfig) -> Trajectory:
    """Integrate the tilted two-species reaction-drift-diffusion system.

    Returns a trajectory with per-interval fluxes satisfying the discrete
    generalized continuity equation exactly.  Mass is conserved and, for the
    splitting schemes with exact exchange, positivity is preserved for any
    step size.
    """
    return _eps_solve(initial, params, tilt, config).result()


def _effective_solve(initial_hat, params: SystemParams, tilt: Tilt, config: SolverConfig) -> _Solve:
    hat_c = np.asarray(initial_hat, dtype=float)
    if hat_c.ndim != 1 or hat_c.size != tilt.n_cells:
        raise ValueError("initial coarse density does not match the tilt")
    if np.any(hat_c < 0):
        raise ValueError("initial coarse density must be nonnegative")
    if abs(hat_c.sum() / hat_c.size - 1.0) > 1e-6:
        raise ValueError("initial coarse density must have unit mass")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        cp = coarse_params(params, tilt)
        g = np.exp(np.diff(cp.v_hat) / 2.0)
    delta_faces = 0.5 * (cp.delta_hat[1:] + cp.delta_hat[:-1])
    return _Solve("solve_effective", hat_c, config, delta_faces[None], g[None])


def solve_effective(initial_hat, params: SystemParams, tilt: Tilt,
                    config: SolverConfig) -> CoarseTrajectory:
    """Integrate the coarse drift-diffusion problem with the mixed coefficients.

    Face diffusion coefficients are arithmetic means of the cell values of the
    mixing-weighted coefficient; the drift enters through face differences of
    the mixed potential.  Mass is conserved exactly and the coarse stationary
    measure is an exact fixed point.
    """
    return _effective_solve(initial_hat, params, tilt, config).result()


def central_first_derivative(f, h):
    """Cellwise first derivative: central in the interior, one-sided second order at the ends."""
    f = np.asarray(f, dtype=float)
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - f[:-2]) / (2.0 * h)
    out[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * h)
    out[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * h)
    return out


def central_second_derivative(f, h):
    """Cellwise second derivative: central in the interior, neighbor stencil at the ends."""
    f = np.asarray(f, dtype=float)
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / (h * h)
    out[0] = out[1]
    out[-1] = out[-2]
    return out


def lagrange_multipliers(hat_state, params: SystemParams, tilt: Tilt):
    """Cellwise exchange multipliers of the constrained slow-manifold system.

    Distributes the coarse density onto the slow manifold and evaluates the
    closed-form multiplier fields (built from the difference of diffusion
    constants and of potentials) with central second differences for the
    density and exact face differencing for the sampled potentials.  The two
    fields sum to zero up to discretization error, at first order in h under
    refinement; for constant potentials the cancellation is exact.
    """
    hat_c = np.asarray(hat_state, dtype=float)
    n = hat_c.size
    if tilt.n_cells != n or tilt.n_species != 2:
        raise ValueError("tilt does not match coarse state")
    h = 1.0 / n
    w_v, _ = stationary_measure(params, tilt)
    theta = w_v / w_v.sum(axis=0)
    c1, c2 = theta[0] * hat_c, theta[1] * hat_c
    d1c, d2c = params.delta
    dbar = d1c - d2c
    grad_v = (tilt.v_faces[:, 1:] - tilt.v_faces[:, :-1]) / h
    grad_vbar = grad_v[0] - grad_v[1]
    lap_v1 = central_second_derivative(tilt.v_cells[0], h)
    lap_v2 = central_second_derivative(tilt.v_cells[1], h)
    lam1 = theta[1] * (
        -dbar * central_second_derivative(c1, h)
        + (d2c * grad_vbar - dbar * grad_v[0]) * central_first_derivative(c1, h)
        + c1 * (d2c * grad_vbar * grad_v[0] - dbar * lap_v1)
    )
    lam2 = theta[0] * (
        dbar * central_second_derivative(c2, h)
        + (-d1c * grad_vbar + dbar * grad_v[1]) * central_first_derivative(c2, h)
        + c2 * (-d1c * grad_vbar * grad_v[1] + dbar * lap_v2)
    )
    return lam1, lam2
