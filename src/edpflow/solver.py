"""Time integration of the fast-slow two-species system and of its coarse limit.

The stiff exchange term is integrated exactly: per cell it is a two-state
generator whose exponential has a closed form, so the scale separation costs
nothing in stability.  Drift-diffusion is advanced implicitly with an
exponentially fitted face flux (the flux depends on the potential only through
its face differences), which makes the tilted stationary measure an exact
fixed point, conserves mass to machine precision, and preserves positivity
(the implicit matrix is an M-matrix).  The implicit matrix of all species is
one block-diagonal tridiagonal system, LU-factored once per run; each step
advances every species with a single triangular solve.  The same stepper
serves the two-species, coarse and I-species solvers.

Per-interval fluxes are recorded from the solves themselves: face fluxes from
the implicit step's internal fluxes and reaction fluxes from the exchange-step
increments, so the discrete generalized continuity equation holds on solver
output to machine precision (and bit-exactly after reconstruction, which
defines its reaction fluxes as the exact residuals).

The two-species and coarse stepping loops hand out their trajectory in
windows of consecutive steps, each written into buffers reused for the next:
a caller that reduces each window as it comes (the refinement study and the
scale sweep do) never holds the whole trajectory.  Wrapped as a streamed
trajectory, a solve goes to the dissipation evaluators in place of a stored
one, and they read it window by window.  Every step depends only
on the state before it, and the times are computed from the step index, so
a window's values do not depend on the window length; the solvers return the
single window of all steps, adopted by the result without a copy.  Each
window passes the checks a stored result runs, and each solve writes one
DEBUG record: steps, windows, and how many steps the nonnegativity guard
clamped.

Each run is single-threaded and deterministic.
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
        if self.t_final < self.dt:
            raise ValueError("t_final must be at least one step")
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


def _implicit_banded(delta_faces, g, tau, h):
    """Banded matrix of I - tau*L for a stack of species, shape (3, k*n).

    ``delta_faces`` and ``g`` have shape (k, n - 1); species occupy
    consecutive blocks of n unknowns and the entries coupling two blocks are
    zero.
    """
    k, n_faces = delta_faces.shape
    r = tau / (h * h)
    ab = np.zeros((3, k, n_faces + 1))
    ab[1] = 1.0
    ab[1, :, :-1] += r * delta_faces / g
    ab[1, :, 1:] += r * delta_faces * g
    ab[0, :, 1:] = -r * delta_faces * g
    ab[2, :, :-1] = -r * delta_faces / g
    return ab.reshape(3, -1)


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
        ab = _implicit_banded(delta_faces, g, 0.5 * dt if crank_nicolson else dt, h)
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


def _eps_steps(initial: State, params: SystemParams, tilt: Tilt, config: SolverConfig,
               window: int):
    """The stepping loop of :func:`solve_eps_system`, ``window`` steps at a time.

    Yields ``(times, states, J, b)`` per window: ``window`` intervals (the
    last window the rest) and their states, the first the previous window's
    last.  The arrays are the loop's own buffers, overwritten by the next
    window; with ``window >= config.n_steps`` they are the whole trajectory,
    allocated once and never touched again.
    """
    if initial.n_species != 2 or tilt.n_species != 2:
        raise ValueError("the fast-slow solver is two-species")
    if tilt.n_cells != initial.n_cells:
        raise ValueError("tilt does not match initial state")
    if abs(total_mass(initial) - 1.0) > 1e-6:
        raise ValueError(f"initial state must have unit mass, got {total_mass(initial)!r}")
    n = initial.n_cells
    h = 1.0 / n
    dt = config.dt_effective
    steps = config.n_steps
    eps = params.epsilon
    imex = config.scheme == "imex_euler"
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        a, b = _exchange_rates(params, tilt)
        s = a + b
        theta = -np.expm1(-s * (0.5 * dt) / eps) / s
        g = np.exp(np.diff(tilt.v_cells) / 2.0)
    if not all(np.all(np.isfinite(x)) for x in (a, b, theta)):
        vdiff = np.max(np.abs(tilt.v_cells[0] - tilt.v_cells[1]))
        raise IntegrationError(f"tilt too large: exchange rates overflow at |V1 - V2| = {vdiff:.4g}", 0)
    delta_faces = np.repeat(params.delta_array[:, None], n - 1, axis=1)
    stepper = _ImplicitStepper(delta_faces, g, dt, h, config.scheme == "strang_cn")
    rate_dt = dt / eps
    clamps = _Clamps()

    width = min(window, steps)
    states = np.empty((width + 1, 2, n))
    J = np.zeros((width, 2, n + 1))
    bflux = np.empty((width, 2, n))
    exch = bflux[:, 0]  # the exchanged amount per step, scaled to the flux after the window
    states[0] = initial.c
    c = initial.c.copy()
    for first in range(0, steps, width):
        if first:
            states[0] = c
        k = min(width, steps - first)
        for i, m in enumerate(range(first, first + k)):
            if imex:
                exch[i] = rate_dt * (b * c[1] - a * c[0])
                c_next = stepper.step(c + _SPECIES_SIGN * exch[i], J[i])
            else:
                d1a = theta * (b * c[1] - a * c[0])
                c_mid = stepper.step(c + _SPECIES_SIGN * d1a, J[i])
                d1b = theta * (b * c_mid[1] - a * c_mid[0])
                c_next = c_mid + _SPECIES_SIGN * d1b
                np.add(d1a, d1b, out=exch[i])
            if not np.isfinite(c_next).all():
                raise IntegrationError("state left the finite range", m)
            c_next = _guard_nonnegative(c_next, m, clamps)
            states[i + 1] = c_next
            c = c_next
        exch[:k] /= dt
        np.negative(exch[:k], out=bflux[:k, 1])  # -(x / dt) and (-x) / dt agree bit for bit
        yield dt * np.arange(first, first + k + 1), states[:k + 1], J[:k], bflux[:k]
    clamps.log("solve_eps_system", steps, -(-steps // width))


def _eps_windows(initial: State, params: SystemParams, tilt: Tilt, config: SolverConfig,
                 window: int):
    """The trajectory of :func:`solve_eps_system`, one window of ``window`` steps at a time.

    Yields read-only ``(times, states, J, b)`` that pass the checks of
    :class:`Trajectory` and :class:`FluxAssignment`; they are valid until
    the next window is requested.
    """
    for times, states, J, b in _eps_steps(initial, params, tilt, config, window):
        for a in (times, states, J, b):
            a.flags.writeable = False
        _check_fluxes(J, b)
        _check_trajectory(times, states, J)
        yield times, states, J, b


class _StreamedTrajectory:
    """A solver's trajectory handed out window by window as the solve runs, never stored whole.

    ``windows`` yields the windows ``(times, states, ...)`` of the solve of
    ``config`` from ``initial`` (:func:`_eps_windows` or
    :func:`_effective_windows`).  Iterating runs the solve, once; a window is
    valid until the next is requested.  ``times`` is the whole time grid and
    ``states`` the states of the window last handed out (before the first,
    the initial state alone), so after the solve ``states[-1]`` is the final
    state.  A stream carries no fluxes.  :func:`edpflow.dissipation_functional`
    and :func:`edpflow.hat_dissipation` take it in place of a stored
    trajectory.
    """

    fluxes = None

    def __init__(self, windows, config: SolverConfig, initial):
        self._windows = windows
        self._initial = np.asarray(initial)
        self.times = config.dt_effective * np.arange(config.n_steps + 1)
        self.states = self._initial[None]

    @property
    def n_cells(self) -> int:
        return self.states.shape[-1]

    @property
    def initial_state(self) -> State:
        return State(self._initial)

    def __iter__(self):
        windows, self._windows = self._windows, None
        if windows is None:
            raise RuntimeError("a streamed trajectory can be read only once")
        for window in windows:
            self.states = window[1]
            yield window


def solve_eps_system(initial: State, params: SystemParams, tilt: Tilt,
                     config: SolverConfig) -> Trajectory:
    """Integrate the tilted two-species reaction-drift-diffusion system.

    Returns a trajectory with per-interval fluxes satisfying the discrete
    generalized continuity equation exactly.  Mass is conserved and, for the
    splitting schemes with exact exchange, positivity is preserved for any
    step size.
    """
    ((times, states, J, b),) = _eps_steps(initial, params, tilt, config, config.n_steps)
    return Trajectory(_Owned(times), _Owned(states), FluxAssignment(_Owned(J), _Owned(b)))


def _effective_steps(initial_hat, params: SystemParams, tilt: Tilt, config: SolverConfig,
                     window: int):
    """The stepping loop of :func:`solve_effective`, ``window`` steps at a time.

    Yields ``(times, states, J)`` per window, in the loop's own buffers as
    :func:`_eps_steps` does.
    """
    hat_c = np.asarray(initial_hat, dtype=float)
    if hat_c.ndim != 1 or hat_c.size != tilt.n_cells:
        raise ValueError("initial coarse density does not match the tilt")
    if np.any(hat_c < 0):
        raise ValueError("initial coarse density must be nonnegative")
    if abs(hat_c.sum() / hat_c.size - 1.0) > 1e-6:
        raise ValueError("initial coarse density must have unit mass")
    n = hat_c.size
    h = 1.0 / n
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        cp = coarse_params(params, tilt)
        g = np.exp(np.diff(cp.v_hat) / 2.0)
    delta_faces = 0.5 * (cp.delta_hat[1:] + cp.delta_hat[:-1])
    dt = config.dt_effective
    steps = config.n_steps
    stepper = _ImplicitStepper(delta_faces[None], g[None], dt, h, config.scheme == "strang_cn")
    clamps = _Clamps()

    width = min(window, steps)
    states = np.empty((width + 1, n))
    J = np.zeros((width, n + 1))
    states[0] = hat_c
    c = hat_c[None].copy()
    for first in range(0, steps, width):
        if first:
            states[0] = c
        k = min(width, steps - first)
        for i, m in enumerate(range(first, first + k)):
            c = stepper.step(c, J[i, None])
            if not np.isfinite(c).all():
                raise IntegrationError("state left the finite range", m)
            c = _guard_nonnegative(c, m, clamps)
            states[i + 1] = c
        yield dt * np.arange(first, first + k + 1), states[:k + 1], J[:k]
    clamps.log("solve_effective", steps, -(-steps // width))


def _effective_windows(initial_hat, params: SystemParams, tilt: Tilt, config: SolverConfig,
                       window: int):
    """The trajectory of :func:`solve_effective` window by window, as :func:`_eps_windows`."""
    for times, states, J in _effective_steps(initial_hat, params, tilt, config, window):
        for a in (times, states, J):
            a.flags.writeable = False
        _check_coarse(times, states, J)
        yield times, states, J


def solve_effective(initial_hat, params: SystemParams, tilt: Tilt,
                    config: SolverConfig) -> CoarseTrajectory:
    """Integrate the coarse drift-diffusion problem with the mixed coefficients.

    Face diffusion coefficients are arithmetic means of the cell values of the
    mixing-weighted coefficient; the drift enters through face differences of
    the mixed potential.  Mass is conserved exactly and the coarse stationary
    measure is an exact fixed point.
    """
    ((times, states, J),) = _effective_steps(initial_hat, params, tilt, config, config.n_steps)
    return CoarseTrajectory(_Owned(times), _Owned(states), _Owned(J))


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
