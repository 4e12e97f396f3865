"""Time integration of the fast-slow two-species system, its coarse limit and I-species networks.

One stepping loop (:class:`_Solve`) serves all three systems: a Strang
splitting into an exchange half step, a drift-diffusion step and a second
exchange half step.  Drift-diffusion is advanced implicitly with an
exponentially fitted face flux (the flux depends on the potential only
through its face differences), which makes the tilted stationary measure an
exact fixed point, conserves mass to machine precision, and preserves
positivity (the implicit matrix is an M-matrix).  The exchange is
integrated exactly, so the scale separation costs nothing in stability: it
is per cell the closed-form exponential of the two-state generator, or the
exponential of an I-species generator shared by all cells; the coarse
system has none.

Each solve has one fused step kernel (:func:`_kernel`), for both schemes:
it writes each step in place into the window's buffers, allocating nothing,
and its results are those of the step's separate array expressions, bit for
bit.

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
the solvers return the single window of all steps without a copy.  A
block of a window's steps is stepped without checks and its new states are
then checked at once: if all are finite and positive the per-step
nonnegativity guard would do nothing; otherwise the block is stepped again
from the first state that is not, with the guard on every state, so what it
clamps or raises, and at which step, is that of a guard on every step; a
block that follows one in which the guard clamped is guarded from its start.
Each solve writes one DEBUG record: steps, windows, how many steps the guard
clamped, and how many steps it guarded and of those stepped twice.  Each run
is single-threaded and deterministic.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from .coarsegrain import _coarse_density, _manifold_fractions, coarse_params
from .core import (
    FluxAssignment,
    State,
    SystemParams,
    Tilt,
    Trajectory,
    _check_fluxes,
    _check_trajectory,
    _check_two_species,
    _Owned,
    _window_unit,
)

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


@dataclass(frozen=True)
class SolverConfig:
    """Step size, final time, and splitting scheme.

    Both schemes take an exact exchange half step, a drift-diffusion step and
    a second exact exchange half step, so epsilon sets no limit on the step
    size.  ``strang_exact_reaction`` (default) advances the drift-diffusion
    by implicit Euler, ``strang_cn`` by Crank-Nicolson (for order studies;
    it does not preserve positivity at large steps).
    """

    dt: float
    t_final: float
    scheme: str = "strang_exact_reaction"

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt!r}")
        if not self.dt < np.inf:
            raise ValueError(f"dt must be finite, got {self.dt!r}")
        if not self.dt <= self.t_final < np.inf:
            raise ValueError(f"t_final must be finite and at least one step, got {self.t_final!r}")
        if self.scheme not in ("strang_exact_reaction", "strang_cn"):
            raise ValueError(f"unknown scheme {self.scheme!r}, expected "
                             "'strang_exact_reaction' or 'strang_cn'")

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


def _kernel(delta_faces, g, dt, h, crank_nicolson, half=None):
    """The drift-diffusion matrix of a solve, factored once, and a maker of its step kernels.

    ``delta_faces`` and ``g`` (k, n - 1) give the face fluxes -delta/h
    (c_right g - c_left / g); ``half(c, d)``, if given, is the exchange half
    step.  I - tau*L (tau = dt, or dt/2 for Crank-Nicolson) is factored with
    each species padded by a decoupled identity row, so that unknown q and
    face q of the flat (k, n + 1) stack share their index.  Each kernel, with
    buffers of its own, advances ``c`` into ``out`` and writes the face fluxes
    into ``J`` and the half steps' amounts into ``b``; the update is taken
    from the fluxes, not the solve, so states and fluxes pair to the last bit.
    """
    k, n = g.shape[0], g.shape[1] + 1
    m = n + 1  # unknowns per species: its cells and the pad
    size = k * m
    r = (0.5 * dt if crank_nicolson else dt) / (h * h)
    ab = np.zeros((3, k, m))
    ab[1] = 1.0
    ab[1, :, :n - 1] += r * delta_faces / g
    ab[1, :, 1:n] += r * delta_faces * g
    ab[0, :, 1:n] = -r * delta_faces * g
    ab[2, :, :n - 1] = -r * delta_faces / g
    ab = ab.reshape(3, -1)
    dl, d, du, du2, ipiv, info = dgttrf(ab[2, :-1], ab[1], ab[0, 1:])
    if info != 0 or not np.all(np.isfinite(ab)):
        raise IntegrationError(
            "tilt too large: the drift factors exp(dV/2) leave the floating-point "
            "range and the implicit matrix is not finite or not invertible", 0)
    # per flat face 1 .. size - 2: -delta/h and g inside a species, 0 and 1 on its walls
    neg_dh, gf = np.zeros((k, m)), np.ones((k, m))
    neg_dh[:, 1:n], gf[:, 1:n] = -(delta_faces / h), g
    neg_dh, gf = neg_dh.ravel()[1:-1], gf.ravel()[1:-1]
    dt_h, half_dt = dt / h, 0.5 * dt

    def make():
        # operands are views made here, once: slicing, and a keyword argument
        # (hence the positional out), cost a good part of a ufunc call
        x, j, j_end, div = np.zeros((4, size))  # padded stack solved in place, fluxes, divergence
        x_hi, x_lo, j_hi, j_lo, div_head = x[1:-1], x[:-2], j[1:], j[:-1], div[:-1]
        x_v, div_v, j_2d = x.reshape(k, m)[:, :n], div.reshape(k, m)[:, :n], j.reshape(k, m)
        t, s, d2 = np.empty(size - 2), np.empty(size - 2), np.empty((k, n))
        into = [(f[1:-1], f[n:-1].reshape(k - 1, m)[:, :2]) for f in (j, j_end)]  # inner, walls

        def flux(inner, walls):
            """Face fluxes of the padded stack ``x`` into ``inner``, the walls rewritten to zero."""
            np.multiply(neg_dh, np.subtract(np.multiply(x_hi, gf, t), np.divide(x_lo, gf, s), t), inner)
            walls[...] = 0.0

        def kernel(c, out, J, b):
            if half:
                half(c, b)
                c = np.add(c, b, out)
            x_v[...] = c
            if crank_nicolson:  # x + dt/2 (-div(J) / h), J the fluxes of x, solved; J averaged
                flux(*into[0])
                np.subtract(j_hi, j_lo, div_head)
                np.negative(div, div)  # a whole array: into a 64-byte-strided view numpy 2.4 errs
                np.add(x, np.multiply(half_dt, np.divide(div, h, div), div), x)
                dgttrs(dl, d, du, du2, ipiv, x, "N", 1)  # in place
                flux(*into[1])
                np.multiply(0.5, np.add(j, j_end, j), j)
            else:
                dgttrs(dl, d, du, du2, ipiv, x, "N", 1)  # in place
                flux(*into[0])
            J[...] = j_2d
            np.multiply(dt_h, np.subtract(j_hi, j_lo, div_head), div_head)
            np.subtract(c, div_v, out)
            if half:
                half(out, d2)
                np.add(out, d2, out)
                np.add(b, d2, b)

        return kernel

    return make


class _Clamps:
    """Steps whose state :func:`_guard_nonnegative` clamped, and the lowest value it clamped.

    ``limit`` is the threshold that lowest value was held against; below it
    the guard raises instead.  ``guarded`` counts the steps taken under the
    guard, ``replayed`` those of them that had been taken without it before.
    """

    __slots__ = ("steps", "lowest", "limit", "replayed", "guarded")

    def __init__(self):
        self.steps, self.lowest, self.limit, self.replayed, self.guarded = 0, 0.0, -1e-12, 0, 0

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
        if self.guarded:
            clamped += f", {self.guarded} step{'s' * (self.guarded != 1)} guarded, {self.replayed} replayed"
        logger.debug("%s: %d steps in %d windows, %s", solver, steps, windows, clamped)


def _guard_nonnegative(c, step: int, clamps: _Clamps):
    """Check that ``c`` is finite; clamp its roundoff negatives to zero in place, raise on others."""
    lowest, highest = float(np.minimum.reduce(c, None)), float(np.maximum.reduce(c, None))
    if not -np.inf < lowest <= highest < np.inf:
        raise IntegrationError("state left the finite range", step)
    if lowest > 0.0:  # not >= 0: the clamp also turns -0.0 into +0.0
        return c
    limit = -1e-12
    if lowest < limit:
        limit *= max(1.0, float(np.abs(c).max()))
        if lowest < limit:
            raise IntegrationError(f"density went negative ({lowest:.3e})", step)
    clamps.add(lowest, limit)
    return np.maximum(c, 0.0, out=c)


def _exchange_rates(params: SystemParams, tilt: Tilt):
    """Cellwise rates of the tilted two-state exchange generator (without 1/eps)."""
    vdiff = tilt.v_cells[0] - tilt.v_cells[1]
    a = np.sqrt(params.alpha / params.beta) * np.exp(vdiff / 2.0)
    b = np.sqrt(params.beta / params.alpha) * np.exp(-vdiff / 2.0)
    return a, b


class _Solve:
    """A solve of ``config`` from ``initial``, the (k, n) densities (k = 1 for the coarse system).

    ``delta`` and ``v``, the diffusion constants and the cell potential,
    broadcast to ``initial``; the drift-diffusion step of :func:`_kernel`
    takes their face constants (delta_k + delta_{k+1}) / 2 and drift factors
    exp((v_{k+1} - v_k) / 2), and raises if an overflow leaves those
    infinite.  ``half`` is None for the coarse system, else the half step
    ``half(c, d)`` that writes the amounts it moves in the (k, n) stack
    ``c``, summing to zero over the species, into ``d``.  It is applied before
    and after the diffusion step, and the two amounts over dt are the step's
    reaction fluxes.  ``solver`` names the solve in its DEBUG record.

    A solve is read as a trajectory is, through :meth:`windows`, whose
    windows carry its fluxes; ``states`` is the window handed out last
    (before the first, the initial state).
    """

    def __init__(self, solver: str, initial, config: SolverConfig, delta, v, half=None):
        self.solver, self.initial, self.config, self.half = solver, initial, config, half
        delta, v, _ = np.broadcast_arrays(delta, v, initial)
        with np.errstate(over="ignore"):
            g = np.exp(np.diff(v) / 2.0)
        self.kernel = _kernel(0.5 * (delta[:, 1:] + delta[:, :-1]), g, config.dt_effective,
                              1.0 / initial.shape[-1], config.scheme == "strang_cn", half)
        self.n_cells = initial.shape[-1]
        self.states = initial[None]

    @property
    def times(self) -> np.ndarray:
        """The time grid, built when asked for: a solve holds nothing that grows with its steps."""
        return self.config.dt_effective * np.arange(self.config.n_steps + 1)

    def windows(self, unit: int):
        """The stepping loop, stepped afresh on each call, ``unit`` steps at a time.

        Yields ``(times, states, J, b)`` per window of ``unit`` intervals
        (the last the rest), shaped as ``initial``; its first state is the
        previous window's last.  The windows are read-only views of the
        loop's buffers, valid until the next is requested, and pass the
        checks of :class:`Trajectory` and :class:`FluxAssignment`.  A system
        without exchange (the coarse one) moves no amounts: its ``b`` is a
        zero-stride view of 0.

        A window is stepped in blocks of :func:`_window_unit` steps (one
        block, unless the window is longer), each with floating-point errors
        ignored and no guard; then the block's new states are checked
        with one minimum and one maximum.  If one is not finite or not
        positive, the block is replayed from the first such step, with fresh
        kernel buffers and under the caller's errstate, through
        :func:`_guard_nonnegative` after every step: the clamps, the
        :class:`IntegrationError` and its step, and the RuntimeWarnings are
        those of the guarded step-by-step loop.  After a block in which the
        guard clamped, the next is stepped under the guard from the start, so
        a solve steps at most one block's steps twice per run of clamps.
        """
        k_sp, n = self.initial.shape
        steps, dt = self.config.n_steps, self.config.dt_effective
        kernel, clamps, guarded = self.kernel(), _Clamps(), False
        width = min(unit, steps)
        block = _window_unit(self.initial.size)  # steps per check: the readers' window budget
        states, k = np.empty((width + 1, k_sp, n)), 0
        states[0] = self.initial
        J = np.zeros((width, k_sp, n + 1))
        b = np.empty((width, k_sp, n)) if self.half else np.broadcast_to(0.0, (width, k_sp, n))
        for start in range(0, steps, width):
            states[0] = states[k]  # the last window's last state; first, the initial one
            k = min(width, steps - start)
            for lo in range(0, k, block):
                hi = min(lo + block, k)
                first = lo  # the first step taken under the guard
                if not guarded:
                    with np.errstate(all="ignore"):
                        for c, c_next, J_m, b_m in zip(states[lo:hi], states[lo + 1:], J[lo:hi], b[lo:hi]):
                            kernel(c, c_next, J_m, b_m)
                        new = states[lo + 1:hi + 1]
                        first = hi
                        if not (np.minimum.reduce(new, None) > 0.0 and np.maximum.reduce(new, None) < np.inf):
                            # the guard would act: step again from where it first does
                            ok = (new.min(axis=(1, 2)) > 0.0) & (new.max(axis=(1, 2)) < np.inf)
                            first = lo + int(np.argmin(ok))
                            kernel = self.kernel()  # fresh buffers: a non-finite state may have reached the pads
                            clamps.replayed += hi - first
                clamped = clamps.steps
                for m in range(first, hi):
                    kernel(states[m], states[m + 1], J[m], b[m])
                    _guard_nonnegative(states[m + 1], start + m, clamps)
                clamps.guarded += hi - first
                guarded = clamps.steps > clamped
            times = dt * np.arange(start, start + k + 1)
            _check_trajectory(times, states[:k + 1], J[:k])
            if self.half:
                b[:k] /= dt
                _check_fluxes(J[:k], b[:k])
            out = (times, states[:k + 1], J[:k], b[:k])
            for a in out:
                a.flags.writeable = False
            self.states = out[1]
            yield out
        clamps.log(self.solver, steps, -(-steps // width))

    def result(self):
        """The stored trajectory: the single window of all steps, adopted without a copy."""
        ((times, states, J, b),) = self.windows(self.config.n_steps)
        return Trajectory(_Owned(times), _Owned(states), FluxAssignment(_Owned(J), _Owned(b)))


def _check_unit_mass(c, what: str):
    """Raise unless the densities ``c`` (..., n) carry a total mass within 1e-6 of one."""
    mass = float(c.sum() / c.shape[-1])
    if abs(mass - 1.0) > 1e-6:
        raise ValueError(f"{what} must have unit mass, got {mass!r}")


def _eps_solve(initial: State, params: SystemParams, tilt: Tilt, config: SolverConfig) -> _Solve:
    _check_two_species(initial.c, tilt)
    _check_unit_mass(initial.c, "initial state")
    dt, eps = config.dt_effective, params.epsilon
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        a, b = _exchange_rates(params, tilt)
        s = a + b
        theta = -np.expm1(-s * (0.5 * dt) / eps) / s
    if not all(np.all(np.isfinite(x)) for x in (a, b, theta)):
        vdiff = np.max(np.abs(tilt.v_cells[0] - tilt.v_cells[1]))
        raise IntegrationError(f"tilt too large: exchange rates overflow at |V1 - V2| = {vdiff:.4g}", 0)

    rates, signed_theta = np.stack([a, b]), np.stack([theta, -theta])  # -theta u is -(theta u) exactly
    prod, u = np.empty((2, initial.n_cells)), np.empty(initial.n_cells)
    ac, bc = prod

    def half(c, d):  # the amounts (u, -u), u = theta (b c_2 - a c_1) moved into species 1
        np.multiply(rates, c, prod)
        np.multiply(signed_theta, np.subtract(bc, ac, u), d)

    return _Solve("solve_eps_system", initial.c, config, params.delta_array[:, None], tilt.v_cells, half)


def solve_eps_system(initial: State, params: SystemParams, tilt: Tilt,
                     config: SolverConfig) -> Trajectory:
    """Integrate the tilted two-species reaction-drift-diffusion system.

    Returns a trajectory with per-interval fluxes satisfying the discrete
    generalized continuity equation exactly.  Mass is conserved, and with
    the default implicit-Euler scheme positivity is preserved for any step
    size.
    """
    return _eps_solve(initial, params, tilt, config).result()


def _effective_solve(initial_hat, params: SystemParams, tilt: Tilt, config: SolverConfig) -> _Solve:
    hat_c = _coarse_density(initial_hat, tilt)
    _check_unit_mass(hat_c, "initial coarse density")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        cp = coarse_params(params, tilt)
    return _Solve("solve_effective", hat_c[None], config, cp.delta_hat, cp.v_hat)


def solve_effective(initial_hat, params: SystemParams, tilt: Tilt,
                    config: SolverConfig) -> Trajectory:
    """Integrate the coarse drift-diffusion problem with the mixed coefficients.

    Takes the coarse density (n,) and returns a trajectory of one species,
    with its face fluxes and no exchange.

    Face diffusion coefficients are arithmetic means of the cell values of the
    mixing-weighted coefficient; the drift enters through face differences of
    the mixed potential.  Mass is conserved exactly and the coarse stationary
    measure is an exact fixed point.
    """
    return _effective_solve(initial_hat, params, tilt, config).result()


def _three_cells(f):
    f = np.asarray(f, dtype=float)
    if f.shape[0] < 3:
        raise ValueError(f"the derivative stencils need at least 3 cells, got {f.shape[0]}")
    return f


def central_first_derivative(f, h):
    """Cellwise first derivative, 3 cells or more: central inside, one-sided second order at the ends."""
    f = _three_cells(f)
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - f[:-2]) / (2.0 * h)
    out[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * h)
    out[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * h)
    return out


def central_second_derivative(f, h):
    """Cellwise second derivative, 3 cells or more: central inside, neighbor stencil at the ends."""
    f = _three_cells(f)
    inner = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / (h * h)
    return np.concatenate([inner[:1], inner, inner[-1:]])


def lagrange_multipliers(hat_state, params: SystemParams, tilt: Tilt):
    """Cellwise exchange multipliers of the constrained slow-manifold system.

    Distributes the coarse density onto the slow manifold and evaluates the
    closed-form multiplier fields (built from the difference of diffusion
    constants and of potentials) with central second differences for the
    density and exact face differencing for the sampled potentials.  The two
    fields sum to zero up to discretization error, at first order in h under
    refinement; for constant potentials the cancellation is exact.  The
    difference stencils need at least 3 cells; fewer raise ValueError.
    """
    hat_c = _coarse_density(hat_state, tilt)
    h = 1.0 / hat_c.size
    theta = _manifold_fractions(params, tilt)
    c1, c2 = theta * hat_c
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
