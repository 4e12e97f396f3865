"""Primal dissipation by convex duality and the energy-dissipation balance.

The primal flux cost of a density rate is evaluated as the supremum of
<xi, v> - R*(c, xi) over potential fields xi.  The dual objective is smooth
(quadratic mobility plus cosh exchange) and strictly concave once the constant
mode shared by both species is gauged away, so a damped Newton ascent with a
banded Hessian converges quadratically; optimal fluxes are read off the
maximizer.  Weak duality makes every returned value a certified lower bound of
the primal cost.

The module also evaluates the time-integrated dissipation of trajectories
(variationally, and directly on stored fluxes), its four-term breakdown, the
energy-dissipation-balance residual, and the coarse (slow-variable) versions
of all three.

The Newton solve is single-threaded and deterministic.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, solve_banded

from .coarsegrain import (
    CoarseTrajectory,
    coarse_grain_trajectory,
    coarse_params,
    hat_energy,
    optimal_coarse_flux,
    slow_manifold_defect,
)
from .core import FluxAssignment, State, SystemParams, Tilt, Trajectory
from .functionals import (
    DissipationBreakdown,
    _face_fisher,
    _face_kinetic,
    cosh_star,
    cosh_star_prime,
    cosh_star_second,
    energy,
    perspective_eval,
    slope,
)

__all__ = [
    "DualMaximizerState",
    "DualAscentError",
    "PrimalRate",
    "primal_R_eps",
    "primal_objective",
    "dissipation_functional",
    "flux_dissipation",
    "edb_residual",
    "slow_manifold_defect",
    "effective_dissipation",
    "hat_dissipation",
    "hat_flux_dissipation",
    "hat_edb_residual",
    "damped_newton_max",
]


class DualAscentError(RuntimeError):
    """Newton ascent failed to converge; carries the last gradient norm."""

    def __init__(self, message: str, gradient_norm: float):
        super().__init__(f"{message} (gradient norm {gradient_norm:.3e})")
        self.gradient_norm = gradient_norm


@dataclass(frozen=True, eq=False)
class DualMaximizerState:
    """Converged dual ascent: maximizer, value, and convergence diagnostics.

    By weak duality the value is a lower bound of the primal flux cost; at
    convergence the gradient norm is below the solver tolerance.
    """

    xi: np.ndarray
    value: float
    gradient_norm: float
    iterations: int


def damped_newton_max(value_grad, hess_banded, x0, *, bandwidth: int,
                      tol: float = 1e-10, max_iter: int = 200):
    """Maximize a smooth concave function with Armijo-damped Newton steps.

    ``value_grad(x)`` returns the objective and its gradient; ``hess_banded(x)``
    the banded storage (2*bandwidth+1, n) of the negative Hessian, which must
    be positive semidefinite with null space at most the constant vector.  The
    constant mode is pinned inside the solve and projected out of the steps,
    so objectives invariant under constant shifts are handled exactly.
    """
    x = np.array(x0, dtype=float)
    size = x.size
    q = np.full(size, 1.0 / np.sqrt(size))
    val, grad = value_grad(x)
    grad = grad - q * (q @ grad)
    for it in range(max_iter):
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= tol:
            return x, float(val), gnorm, it
        ab = hess_banded(x)
        pin = max(float(ab[bandwidth].max()), 1.0)
        ab[bandwidth, 0] += pin
        try:
            step = solve_banded((bandwidth, bandwidth), ab, grad)
        except LinAlgError as exc:
            raise DualAscentError(f"singular dual Hessian: {exc}", gnorm) from None
        step -= q * (q @ step)
        ascent = float(grad @ step)
        if not np.isfinite(ascent) or ascent <= 0:
            raise DualAscentError("dual Hessian lost definiteness", gnorm)
        if ascent <= 1e-12 * (1.0 + abs(val)):
            # predicted gain is below the objective's floating-point
            # resolution: the value can no longer gate progress, but the raw
            # Newton step still contracts the gradient quadratically
            cand = x + step
            cval, cgrad = value_grad(cand)
            if not np.isfinite(cval):
                raise DualAscentError("terminal Newton step left the finite range", gnorm)
        else:
            t = 1.0
            while True:
                cand = x + t * step
                cval, cgrad = value_grad(cand)
                if np.isfinite(cval) and cval >= val + 1e-4 * t * ascent:
                    break
                t *= 0.5
                if t < 1e-14:
                    raise DualAscentError("line search stalled", gnorm)
        x, val = cand, cval
        grad = cgrad - q * (q @ cgrad)
    raise DualAscentError("iteration limit reached", float(np.linalg.norm(grad)))


def _network_dual(c, delta, edges, v, h):
    """Dual objective of the flux cost of rate v on a reaction network.

    Species i diffuses with mobility delta_i cbar_i on interior faces; each
    edge (i, j, kappa) with i < j exchanges through a cosh term of strength
    kappa sqrt(c_i c_j).  Unknowns are cell-interleaved, x[I*k + i] = xi[i, k],
    so the negative Hessian is banded with bandwidth I: species couple within
    a cell, cells couple within a species.

    Returns ``(value_grad, hess_banded, fluxes)`` for :func:`damped_newton_max`;
    ``fluxes(x)`` reads off the potentials xi, the face fluxes J and the list
    of per-edge exchange fluxes (entering species i with + and j with -).
    """
    i_sp, n = c.shape
    wdiff = delta[:, None] * 0.5 * (c[:, 1:] + c[:, :-1]) / h
    hv = (h * v).T.ravel()
    ew = [(i, j, kappa * h * np.sqrt(c[i] * c[j])) for i, j, kappa in edges]

    def value_grad(x):
        xi = x.reshape(n, i_sp).T
        dxi = xi[:, 1:] - xi[:, :-1]
        t = wdiff * dxi
        val = float(hv @ x) - 0.5 * float(np.sum(t * dxi))
        grad_r = np.zeros_like(xi)
        grad_r[:, 1:] += t
        grad_r[:, :-1] -= t
        for i, j, rw in ew:
            u = xi[i] - xi[j]
            with np.errstate(over="ignore"):
                val -= float(rw @ cosh_star(u))
                s = rw * cosh_star_prime(u)
            grad_r[i] += s
            grad_r[j] -= s
        return val, hv - grad_r.T.ravel()

    def hess_banded(x):
        xi = x.reshape(n, i_sp).T
        ab = np.zeros((2 * i_sp + 1, i_sp * n))
        diag = ab[i_sp]
        for sp in range(i_sp):
            diag[sp:i_sp * (n - 1):i_sp] += wdiff[sp]
            diag[i_sp + sp::i_sp] += wdiff[sp]
            ab[0, i_sp + sp::i_sp] = -wdiff[sp]
        for i, j, rw in ew:
            with np.errstate(over="ignore"):
                r2 = rw * cosh_star_second(xi[i] - xi[j])
            diag[i::i_sp] += r2
            diag[j::i_sp] += r2
            ab[i_sp - (j - i), j::i_sp] -= r2
        for d in range(1, i_sp + 1):
            ab[i_sp + d, :-d] = ab[i_sp - d, d:]
        return ab

    def fluxes(x):
        xi = x.reshape(n, i_sp).T
        J = np.zeros((i_sp, n + 1))
        J[:, 1:-1] = wdiff * (xi[:, 1:] - xi[:, :-1])
        return xi, J, [rw / h * cosh_star_prime(xi[i] - xi[j]) for i, j, rw in ew]

    return value_grad, hess_banded, fluxes


@dataclass(frozen=True, eq=False)
class PrimalRate:
    """Primal flux cost of a rate, with the optimal fluxes and dual diagnostics."""

    value: float
    fluxes: FluxAssignment
    dual: DualMaximizerState


def _mass_balance_check(v: np.ndarray, h: float):
    imbalance = abs(float(v.sum()) * h)
    if imbalance > 1e-7 * max(1.0, float(np.max(np.abs(v)))):
        raise ValueError(
            f"rate must preserve total mass (imbalance {imbalance:.3e})"
        )


def primal_R_eps(state: State, params: SystemParams, tilt: Tilt, v,
                 epsilon=None, *, xi0=None, tol: float = 1e-10,
                 max_iter: int = 200) -> PrimalRate:
    """Flux cost of realizing the rate v from the given state.

    Maximizes <xi, v> - R*(c, xi) over two-species potential fields by damped
    Newton (the dual of the infimal splitting of v into diffusion and exchange
    fluxes under the generalized continuity equation).  The returned fluxes
    J_j = delta_j c_j grad(xi_j) on faces and b_1 = -b_2 =
    (sqrt(c_1 c_2)/eps) (C*)'(xi_1 - xi_2) on cells satisfy the discrete
    continuity equation with rate v up to the dual tolerance.

    This is the network dual with the single fast edge (0, 1, 1/eps).  The
    rate must preserve total mass; the dual objective is invariant under the
    shared constant mode, which is gauged to mean zero.
    """
    _ = tilt
    eps = params.epsilon if epsilon is None else epsilon
    c = state.c
    if c.shape[0] != 2:
        raise ValueError("two-species evaluation; see multispecies for the general case")
    n = state.n_cells
    h = 1.0 / n
    v = np.asarray(v, dtype=float)
    if v.shape != c.shape:
        raise ValueError(f"rate shape {v.shape} does not match state {c.shape}")
    _mass_balance_check(v, h)
    v = v - v.sum() / v.size

    vg, hess, fluxes = _network_dual(c, params.delta_array, [(0, 1, 1.0 / eps)], v, h)
    x0 = np.zeros(2 * n) if xi0 is None else np.asarray(xi0, dtype=float).T.ravel()
    x, val, gnorm, iters = damped_newton_max(
        vg, hess, x0, bandwidth=2, tol=tol, max_iter=max_iter
    )
    xi, J, (b1,) = fluxes(x)
    b = np.stack([b1, -b1])
    dual = DualMaximizerState(xi=xi, value=val, gradient_norm=gnorm, iterations=iters)
    return PrimalRate(value=val, fluxes=FluxAssignment(J, b), dual=dual)


def primal_objective(state: State, params: SystemParams, fluxes: FluxAssignment,
                     epsilon=None):
    """Primal flux cost of an explicit flux assignment: kinetic plus exchange terms.

    Returns ``(vel_diff, vel_react)``: the face-integrated quadratic cost of
    the diffusion fluxes through the mobilities delta_j * cbar_j, and the
    cell-integrated perspective cosh cost of the exchange flux through
    sqrt(c_1 c_2)/eps.  By weak duality their sum dominates the dual value of
    any rate the fluxes realize.
    """
    eps = params.epsilon if epsilon is None else epsilon
    c = state.c
    h = 1.0 / state.n_cells
    wdiff = params.delta_array[:, None] * 0.5 * (c[:, 1:] + c[:, :-1])
    vel_diff = 0.5 * float(np.sum(_face_kinetic(fluxes.J[..., 1:-1], wdiff))) * h
    a = np.sqrt(c[0] * c[1]) / eps
    vel_react = float(np.sum(perspective_eval("cosh", a, fluxes.b[..., 1, :]))) * h
    return vel_diff, vel_react


def dissipation_functional(traj: Trajectory, params: SystemParams, tilt: Tilt,
                           epsilon=None, *, tol: float = 1e-10,
                           max_iter: int = 200) -> DissipationBreakdown:
    """Time-integrated dissipation of a trajectory, split into its four terms.

    Per interval the velocity part is the primal flux cost of the difference
    quotient rate (via the dual ascent, warm-started across intervals) and the
    slope part the Fisher-information terms at the left endpoint; time
    integration is the left-endpoint rule.  If the trajectory carries explicit
    fluxes, the same velocity terms evaluated directly on those fluxes are
    reported alongside.
    """
    eps = params.epsilon if epsilon is None else epsilon
    dts = np.diff(traj.times)
    acc = np.zeros(4)
    flux_acc = np.zeros(2) if traj.fluxes is not None else None
    xi_warm = None
    for m, dt in enumerate(dts):
        st = State(traj.states[m])
        rate = (traj.states[m + 1] - traj.states[m]) / dt
        res = primal_R_eps(st, params, tilt, rate, eps, xi0=xi_warm,
                           tol=tol, max_iter=max_iter)
        xi_warm = res.dual.xi
        vd, vr = primal_objective(st, params, res.fluxes, eps)
        sd, sr = slope(st, params, tilt, eps)
        acc += dt * np.array([vd, vr, sd, sr])
        if flux_acc is not None:
            fd, fr = primal_objective(
                st, params,
                FluxAssignment(traj.fluxes.J[m], traj.fluxes.b[m]), eps,
            )
            flux_acc += dt * np.array([fd, fr])
    if flux_acc is None:
        return DissipationBreakdown(*acc)
    return DissipationBreakdown(*acc, flux_vel_diff=flux_acc[0], flux_vel_react=flux_acc[1])


def flux_dissipation(traj: Trajectory, params: SystemParams, tilt: Tilt,
                     epsilon=None) -> DissipationBreakdown:
    """Dissipation of a trajectory with the velocity part taken from its stored fluxes.

    No optimization is involved: the kinetic and exchange costs of the carried
    fluxes are integrated together with the slope terms (left-endpoint rule).
    Dominates the variational value, with equality when the stored fluxes are
    optimal.
    """
    if traj.fluxes is None:
        raise ValueError("no flux data: trajectory carries no FluxAssignment")
    eps = params.epsilon if epsilon is None else epsilon
    dts = np.diff(traj.times)
    acc = np.zeros(4)
    for m, dt in enumerate(dts):
        st = State(traj.states[m])
        vd, vr = primal_objective(
            st, params, FluxAssignment(traj.fluxes.J[m], traj.fluxes.b[m]), eps
        )
        sd, sr = slope(st, params, tilt, eps)
        acc += dt * np.array([vd, vr, sd, sr])
    return DissipationBreakdown(*acc, flux_vel_diff=acc[0], flux_vel_react=acc[1])


def edb_residual(traj: Trajectory, params: SystemParams, tilt: Tilt,
                 epsilon=None, *, tol: float = 1e-10, max_iter: int = 200) -> float:
    """Energy-dissipation-balance defect: E(end) + dissipation - E(start).

    Zero for exact solutions of the gradient flow; on discrete solver output
    it converges to zero at first order under joint space-time refinement.
    The sign is not constrained for arbitrary discrete data.
    """
    breakdown = dissipation_functional(traj, params, tilt, epsilon,
                                       tol=tol, max_iter=max_iter)
    e0 = energy(traj.initial_state, params, tilt)
    e1 = energy(traj.final_state, params, tilt)
    return e1 + breakdown.total - e0


def _hat_terms(hat_traj: CoarseTrajectory, params: SystemParams, tilt: Tilt,
               use_stored_fluxes: bool):
    cp = coarse_params(params, tilt)
    n = hat_traj.n_cells
    h = 1.0 / n
    dts = np.diff(hat_traj.times)
    slope_weight = cp.delta_hat * cp.w_hat
    swf = 0.5 * (slope_weight[1:] + slope_weight[:-1])
    vel = 0.0
    slp = 0.0
    for m, dt in enumerate(dts):
        hat_c = hat_traj.states[m]
        mob = cp.delta_hat * hat_c
        mob_f = 0.5 * (mob[1:] + mob[:-1])
        if use_stored_fluxes:
            jint = hat_traj.fluxes[m, 1:-1]
        else:
            rate = (hat_traj.states[m + 1] - hat_c) / dt
            jint = optimal_coarse_flux(mob_f, rate, h)[1:-1]
        vel += dt * 0.5 * float(np.sum(_face_kinetic(jint, mob_f))) * h
        slp += dt * 0.5 * float(np.sum(swf * _face_fisher(hat_c / cp.w_hat))) / h
    return vel, slp


def hat_dissipation(hat_traj: CoarseTrajectory, params: SystemParams,
                    tilt: Tilt) -> DissipationBreakdown:
    """Coarse dissipation: minimal kinetic cost of the coarse rate plus coarse slope.

    The velocity part solves the single-species quadratic dual (one elliptic
    solve per interval); the slope part is the coarse Fisher information with
    the mixing-weighted mobility.  Exchange terms vanish on the coarse level.
    """
    vel, slp = _hat_terms(hat_traj, params, tilt, use_stored_fluxes=False)
    return DissipationBreakdown(vel, 0.0, slp, 0.0)


def hat_flux_dissipation(hat_traj: CoarseTrajectory, params: SystemParams,
                         tilt: Tilt) -> DissipationBreakdown:
    """Coarse dissipation with the kinetic term evaluated on the stored coarse fluxes."""
    if hat_traj.fluxes is None:
        raise ValueError("no flux data: coarse trajectory carries no fluxes")
    vel, slp = _hat_terms(hat_traj, params, tilt, use_stored_fluxes=True)
    return DissipationBreakdown(vel, 0.0, slp, 0.0, flux_vel_diff=vel, flux_vel_react=0.0)


def hat_edb_residual(hat_traj: CoarseTrajectory, params: SystemParams,
                     tilt: Tilt) -> float:
    """Energy-dissipation-balance defect of the coarse problem."""
    breakdown = hat_dissipation(hat_traj, params, tilt)
    e0 = hat_energy(hat_traj.states[0], params, tilt)
    e1 = hat_energy(hat_traj.states[-1], params, tilt)
    return e1 + breakdown.total - e0


def effective_dissipation(traj: Trajectory, params: SystemParams, tilt: Tilt,
                          tol_manifold: float = 1e-6) -> float:
    """Limit dissipation of a slow-manifold trajectory, evaluated in coarse variables.

    Off-manifold input (relative defect above ``tol_manifold``) carries the
    singular exchange constraint and returns +inf; a warning reports the
    measured defect.  On the manifold the value equals the coarse dissipation
    of the summed density by construction.
    """
    defect = slow_manifold_defect(traj, params, tilt)
    if defect > tol_manifold:
        warnings.warn(
            f"trajectory is off the slow manifold (max relative defect {defect:.3e})",
            stacklevel=2,
        )
        return np.inf
    hat = coarse_grain_trajectory(traj)
    hat = CoarseTrajectory(hat.times, hat.states)  # variational velocity part
    return hat_dissipation(hat, params, tilt).total
