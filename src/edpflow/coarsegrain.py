"""Coarse-graining to the slow variable and reconstruction back to two species.

The slow variable is the summed density.  On the slow manifold (equal relative
densities) the two-species problem collapses to a single drift-diffusion
problem with a mixing-weighted diffusion coefficient and a mixed potential;
this module provides those coefficient fields, the reconstruction of
two-species densities and fluxes from coarse data, and the approximation
pipeline (positive shift plus temporal mollification) used to build
scale-indexed trajectories from a limit trajectory.

All transformations are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dptsv
from scipy.special import xlogy

from .core import (
    FluxAssignment,
    State,
    SystemParams,
    Tilt,
    Trajectory,
    _finite_nonnegative,
    _interval_windows,
    _Owned,
    _readonly,
)
from .functionals import stationary_measure, stationary_measure_faces

__all__ = [
    "CoarseParams",
    "CoarseTrajectory",
    "coarse_grain",
    "coarse_grain_trajectory",
    "coarse_params",
    "hat_energy",
    "slow_manifold_defect",
    "Reconstruction",
    "reconstruct_from_coarse",
    "flux_equilibration_check",
    "shift_positive",
    "mollify_in_time",
    "optimal_coarse_flux",
    "RecoverySequence",
    "build_recovery_sequence",
]


@dataclass(frozen=True, eq=False)
class CoarseParams:
    """Coefficient fields of the coarse drift-diffusion problem.

    ``delta_hat`` is the stationary-weighted mean of the two diffusion
    constants (cellwise between min and max of the two), ``v_hat`` the mixed
    potential with exp(-v_hat) equal to the stationary-weighted mean of the
    per-species exponentials, and ``w_hat`` the coarse stationary measure,
    all on cells.  Each is taken relative to the least potential, so all are
    finite whatever the tilt's level.
    """

    delta_hat: np.ndarray
    v_hat: np.ndarray
    w_hat: np.ndarray

    def __post_init__(self):
        for name in ("delta_hat", "v_hat", "w_hat"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))


def _check_coarse(t: np.ndarray, s: np.ndarray, J):
    """The invariants of a :class:`CoarseTrajectory`, or of a window of one; ``J`` may be None."""
    if t.ndim != 1 or t.size < 2 or np.any(np.diff(t) <= 0):
        raise ValueError("times must be strictly increasing")
    if s.ndim != 2 or s.shape[0] != t.size:
        raise ValueError(f"states shape {s.shape} does not match {t.size} times")
    if not _finite_nonnegative(s):
        raise ValueError("coarse states must be finite and nonnegative")
    if J is not None:
        if J.shape != (t.size - 1, s.shape[1] + 1):
            raise ValueError(f"flux shape {J.shape} does not match trajectory")
        if np.any(J[:, 0] != 0.0) or np.any(J[:, -1] != 0.0):
            raise ValueError("boundary faces must carry zero flux")


@dataclass(frozen=True, eq=False)
class CoarseTrajectory:
    """Time series of the coarse density, optionally with face fluxes per interval."""

    times: np.ndarray
    states: np.ndarray
    fluxes: np.ndarray | None = None

    def __post_init__(self):
        t = _readonly(self.times)
        s = _readonly(self.states)
        J = None if self.fluxes is None else _readonly(self.fluxes)
        _check_coarse(t, s, J)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", s)
        object.__setattr__(self, "fluxes", J)

    @property
    def n_times(self) -> int:
        return self.times.size

    @property
    def n_cells(self) -> int:
        return self.states.shape[1]

    def windows(self, unit: int):
        """Views ``(times, states[, fluxes])`` of ``unit`` intervals (see
        :meth:`Trajectory.windows`)."""
        fluxes = () if self.fluxes is None else (self.fluxes,)
        return _interval_windows(unit, self.times, self.states, *fluxes)


def coarse_grain(state: State) -> np.ndarray:
    """Coarse density: sum of the species densities, cellwise.  Preserves mass."""
    return state.c.sum(axis=0)


def coarse_grain_trajectory(traj: Trajectory) -> CoarseTrajectory:
    """Coarse-grain a two-species trajectory; summed fluxes carry over when present."""
    hat_j = _Owned(traj.fluxes.J.sum(axis=1)) if traj.fluxes is not None else None
    return CoarseTrajectory(traj.times, _Owned(traj.states.sum(axis=1)), hat_j)


def coarse_params(params: SystemParams, tilt: Tilt) -> CoarseParams:
    """Coefficient fields of the coarse problem for the given tilt."""
    w_v, _ = stationary_measure(params, tilt)
    w_hat = w_v.sum(axis=0)
    delta_hat = (params.delta_array[:, None] * w_v).sum(axis=0) / w_hat
    m = tilt.v_cells.min(axis=0)  # v_hat = m - log sum_i w_i exp(m - V_i), cell by cell
    v_hat = m - np.log((params.w[:, None] * np.exp(m - tilt.v_cells)).sum(axis=0))
    return CoarseParams(delta_hat, v_hat, w_hat)


def hat_energy(hat_c: np.ndarray, params: SystemParams, tilt: Tilt) -> float:
    """Coarse free energy: entropy of the coarse density plus the mixed potential term.

    Equals the two-species tilted energy of the slow-manifold state that
    coarse-grains to ``hat_c``.
    """
    hat_c = np.asarray(hat_c, dtype=float)
    if np.any(hat_c < 0):
        raise ValueError(f"negative density (min {hat_c.min():g})")
    cp = coarse_params(params, tilt)
    h = 1.0 / hat_c.size
    return float(np.sum(xlogy(hat_c, hat_c) + hat_c * cp.v_hat)) * h


def slow_manifold_defect(traj, params: SystemParams, tilt: Tilt) -> float:
    """Relative distance of a state or trajectory from the slow manifold.

    max over cells (and times) of |rho_1 - rho_2| / (1 + rho_hat) in the
    relative densities with respect to the tilted stationary measure.
    """
    states = traj.c[None] if isinstance(traj, State) else traj.states
    w_v, _ = stationary_measure(params, tilt)
    rho = states / w_v[None]
    rho_hat = states.sum(axis=1) / w_v.sum(axis=0)[None]
    return float(np.max(np.abs(rho[:, 0] - rho[:, 1]) / (1.0 + rho_hat)))


def manifold_split(hat_c: np.ndarray, params: SystemParams, tilt: Tilt) -> np.ndarray:
    """Distribute a coarse density onto the slow manifold, shape (2, n_cells)."""
    w_v, _ = stationary_measure(params, tilt)
    theta = w_v / w_v.sum(axis=0)
    return theta * np.asarray(hat_c, dtype=float)


@dataclass(frozen=True, eq=False)
class Reconstruction:
    """Two-species trajectory reconstructed from coarse data.

    ``trajectory`` carries fluxes whose reaction part is the exact discrete
    continuity residual, so the generalized continuity equation holds
    identically.  ``b_closed_form`` is the same reaction flux evaluated from
    the closed-form coefficient fields (divergence and gradient terms); the
    two agree up to spatial discretization error and exactly for constant
    coefficients.
    """

    trajectory: Trajectory
    b_closed_form: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "b_closed_form", _readonly(self.b_closed_form))


def _split(fractions, total):
    """Two species' shares ``fractions * total``, adding up to ``total`` exactly.

    The larger share is the product and the other the remainder, which is
    exact because that product is at least half the total.
    """
    share = fractions.max(axis=0) * total
    out = np.stack([share, total - share], axis=-2)
    minor_first = fractions[0] < fractions[1]
    out[..., minor_first] = out[..., ::-1, :][..., minor_first]
    return out


def reconstruct_from_coarse(hat_traj: CoarseTrajectory, params: SystemParams, tilt: Tilt,
                            ce_tol: float = 1e-9) -> Reconstruction:
    """Reconstruct two-species densities and fluxes from a coarse trajectory.

    Densities are distributed by the stationary-weight fractions (so the
    output sits exactly on the slow manifold), diffusion fluxes by the
    mobility fractions delta_i w_i^V / (delta_1 w_1^V + delta_2 w_2^V) sampled
    at faces.  Requires the coarse pair (c, J) to satisfy the discrete
    continuity equation; raises otherwise.  Its residual, of order
    (machine epsilon) |c| / dt, is moved into the face fluxes first: the
    states go to a grid on which their differences are exact, each level
    gets exactly the mass of the first, and the residual's running sum
    corrects the fluxes.  Each species' reaction flux is its continuity
    residual, so that equation holds to the last bit, and the reaction
    fluxes sum to zero to the rounding of the rates, whatever the step.
    """
    if hat_traj.fluxes is None:
        raise ValueError("coarse trajectory carries no fluxes")
    if tilt.n_cells != hat_traj.n_cells:
        raise ValueError("tilt does not match coarse trajectory")
    hat_c = hat_traj.states
    hat_j = hat_traj.fluxes
    n = hat_traj.n_cells
    h = 1.0 / n
    dt = np.diff(hat_traj.times)[:, None]
    ce = (hat_c[1:] - hat_c[:-1]) / dt + (hat_j[:, 1:] - hat_j[:, :-1]) / h
    scale = max(1.0, float(np.max(np.abs(hat_j))) / h)
    if float(np.max(np.abs(ce))) > ce_tol * scale:
        raise ValueError(
            f"coarse continuity equation violated (max residual {np.max(np.abs(ce)):.3e})"
        )

    q = np.ldexp(1.0, int(np.frexp(hat_c.max())[1]) - 52)  # 52 bits below the largest state
    hat_c = np.rint(hat_c / q) * q
    # each level's exact mass defect against the first, taken from its largest cell
    hat_c[np.arange(len(hat_c)), hat_c.argmax(axis=1)] -= [math.fsum(d) for d in hat_c - hat_c[0]]
    hat_j = hat_j.copy()
    hat_j[:, 1:-1] -= h * np.cumsum((hat_c[1:] - hat_c[:-1]) / dt
                                    + (hat_j[:, 1:] - hat_j[:, :-1]) / h, axis=1)[:, :-1]

    w_v, _ = stationary_measure(params, tilt)
    w_vf = stationary_measure_faces(params, tilt)
    delta = params.delta_array
    theta = w_v / w_v.sum(axis=0)
    phi_f = delta[:, None] * w_vf / (delta[:, None] * w_vf).sum(axis=0)

    c = _split(theta, hat_c)
    J = _split(phi_f, hat_j)
    b = (c[1:] - c[:-1]) / dt[:, None] + (J[..., 1:] - J[..., :-1]) / h

    # closed-form reaction flux from the coefficient fields
    dbar = delta[0] - delta[1]
    mob = (delta[:, None] * w_v).sum(axis=0)
    a1 = dbar / mob * w_v[0] * w_v[1] / w_v.sum(axis=0)
    grad_phi1 = (phi_f[0, 1:] - phi_f[0, :-1]) / h
    div_j = (hat_j[:, 1:] - hat_j[:, :-1]) / h
    jbar = 0.5 * (hat_j[:, 1:] + hat_j[:, :-1])
    b1_form = a1[None, :] * div_j + jbar * grad_phi1[None, :]
    b_closed = np.stack([b1_form, -b1_form], axis=1)

    traj = Trajectory(hat_traj.times, _Owned(c), FluxAssignment(_Owned(J), _Owned(b)))
    return Reconstruction(traj, _Owned(b_closed))


def flux_equilibration_check(state: State, j1: np.ndarray, j2: np.ndarray,
                             params: SystemParams, tilt: Tilt) -> float:
    """Convexity gap between per-species flux costs and the summed-flux cost.

    Integrates |J_1|^2/(delta_1 c_1) + |J_2|^2/(delta_2 c_2)
    - |J_1 + J_2|^2/(delta_1 c_1 + delta_2 c_2) over interior faces with
    arithmetic-mean face densities.  Always >= 0; zero exactly when the fluxes
    split in proportion to the mobilities, which is what the reconstruction
    produces.  Homogeneous of degree two in the fluxes.
    """
    _ = tilt
    c = state.c
    if np.any(c <= 0):
        raise ValueError("flux equilibration check requires strictly positive densities")
    j1 = np.asarray(j1, dtype=float)
    j2 = np.asarray(j2, dtype=float)
    n = state.n_cells
    if j1.shape != (n + 1,) or j2.shape != (n + 1,):
        raise ValueError("fluxes must be per-face arrays")
    h = 1.0 / n
    d1, d2 = params.delta
    m1 = d1 * 0.5 * (c[0, 1:] + c[0, :-1])
    m2 = d2 * 0.5 * (c[1, 1:] + c[1, :-1])
    a, bfl = j1[1:-1], j2[1:-1]
    gap = a * a / m1 + bfl * bfl / m2 - (a + bfl) ** 2 / (m1 + m2)
    return float(np.sum(gap)) * h


def shift_positive(hat_traj: CoarseTrajectory, gamma: float) -> CoarseTrajectory:
    """Controlled positive shift: c -> (c + 2 gamma) / (1 + 2 gamma), fluxes rescaled.

    Preserves unit mass and the discrete continuity equation exactly; for
    gamma <= 1/2 the shifted density is bounded below by gamma cellwise.
    """
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    z = 1.0 + 2.0 * gamma
    states = (hat_traj.states + 2.0 * gamma) / z
    fluxes = None if hat_traj.fluxes is None else hat_traj.fluxes / z
    return CoarseTrajectory(hat_traj.times, states, fluxes)


def _bump_kernel(half_steps: int) -> np.ndarray:
    s = np.arange(-half_steps, half_steps + 1, dtype=float) / (half_steps + 1)
    k = (1.0 - s * s) ** 2
    return k / k.sum()


def mollify_in_time(hat_traj: CoarseTrajectory, half_width: float) -> CoarseTrajectory:
    """Temporal mollification with a compactly supported polynomial bump.

    States are extended constantly beyond the time window and fluxes by zero,
    which keeps the discrete continuity equation exact after smoothing.
    Requires a uniform time grid; a half width below one step is a no-op.
    """
    dts = np.diff(hat_traj.times)
    dt = float(dts[0])
    if not np.allclose(dts, dt, rtol=1e-10, atol=0.0):
        raise ValueError("mollification requires a uniform time grid")
    half_steps = int(round(half_width / dt))
    if half_steps < 1:
        return hat_traj
    k = _bump_kernel(half_steps)
    padded = np.pad(hat_traj.states, ((half_steps, half_steps), (0, 0)), mode="edge")
    states = np.stack([
        np.tensordot(k, padded[m:m + k.size], axes=(0, 0))
        for m in range(hat_traj.n_times)
    ])
    fluxes = None
    if hat_traj.fluxes is not None:
        jp = np.pad(hat_traj.fluxes, ((half_steps, half_steps), (0, 0)), mode="constant")
        fluxes = np.stack([
            np.tensordot(k, jp[m:m + k.size], axes=(0, 0))
            for m in range(hat_traj.n_times - 1)
        ])
    return CoarseTrajectory(hat_traj.times, states, fluxes)


def optimal_coarse_flux(weight_faces: np.ndarray, rate: np.ndarray, h: float) -> np.ndarray:
    """Face flux of minimal quadratic cost transporting the given cell rate.

    Solves the weighted elliptic problem for the potential whose flux
    J = weight * grad(xi) satisfies rate + div J = 0 with zero boundary flux;
    ``weight_faces`` holds the interior-face mobilities.  The rate must sum to
    zero (it is centered to machine precision before solving).  Leading axes
    stack independent problems; they are solved together as one symmetric
    positive definite block-tridiagonal system (LDL^T factorization).
    """
    rate = np.asarray(rate, dtype=float)
    w = np.asarray(weight_faces, dtype=float)
    n = rate.shape[-1]
    if w.shape != rate.shape[:-1] + (n - 1,):
        raise ValueError("weight_faces must hold the interior faces")
    if np.any(w <= 0):
        raise ValueError("face mobilities must be strictly positive")
    rhs = h * h * (rate - rate.mean(axis=-1, keepdims=True))
    diag = np.zeros(rate.shape)
    diag[..., :-1] += w
    diag[..., 1:] += w
    diag[..., 0] += np.maximum(diag.max(axis=-1), 1.0)  # pins each constant null direction
    off = np.zeros(rate.shape)  # the last entry of each block couples to the next: zero
    off[..., :-1] = -w
    _, _, xi, info = dptsv(diag.ravel(), off.ravel()[:-1], rhs.ravel())
    if info != 0:
        raise LinAlgError(f"coarse elliptic system is not positive definite (info {info})")
    xi = xi.reshape(rate.shape)
    xi -= xi.mean(axis=-1, keepdims=True)
    J = np.zeros(rate.shape[:-1] + (n + 1,))
    J[..., 1:-1] = w * np.diff(xi, axis=-1) / h
    return J


@dataclass(frozen=True, eq=False)
class RecoverySequence:
    """Scale-indexed trajectory approximating a limit trajectory.

    ``trajectory`` is the reconstructed two-species trajectory with fluxes;
    ``gamma`` the positive shift, ``half_width`` the mollifier half width, and
    ``rate_bound`` the measured max |dc/dt| of the smoothed coarse density
    (recorded so the scaling of the smoothing can be checked per run).
    """

    epsilon: float
    gamma: float
    half_width: float
    rate_bound: float
    trajectory: Trajectory
    b_closed_form: np.ndarray


def build_recovery_sequence(limit_traj: Trajectory, params: SystemParams, tilt: Tilt,
                            epsilon: float, lam: float = 0.9, alpha: float = 0.2,
                            width_scale: float | None = None) -> RecoverySequence:
    """Build the scale-epsilon approximation of a slow-manifold limit trajectory.

    Applies the positive shift with gamma = epsilon**(1 - lam), then temporal
    mollification with half width (width_scale * epsilon**alpha), then
    reconstructs two-species densities and fluxes.  The default exponents
    lam = 0.9, alpha = 0.2 satisfy the one-dimensional admissibility
    constraint lam / (2 alpha) >= 2 for the joint scaling; the measured rate
    bound of the smoothed density is reported so epsilon**(-alpha) growth can
    be verified per run.  If the limit trajectory carries no fluxes, the
    minimal-cost coarse flux of every interval is computed in one batched solve.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if not np.all(np.isfinite(limit_traj.states)):
        raise ValueError("limit trajectory must be finite")
    # off the slow manifold the limit dissipation is not finite (the exchange
    # gate), so there is nothing to approximate
    defect = slow_manifold_defect(limit_traj, params, tilt)
    if defect > 1e-6:
        raise ValueError(
            f"limit trajectory is off the slow manifold (relative defect {defect:.3e}), "
            "its limit dissipation is not finite"
        )
    hat = coarse_grain_trajectory(limit_traj)
    if hat.fluxes is None:
        cp = coarse_params(params, tilt)
        rate = np.diff(hat.states, axis=0) / np.diff(hat.times)[:, None]
        mob = cp.delta_hat * hat.states[:-1]
        J = optimal_coarse_flux(0.5 * (mob[:, 1:] + mob[:, :-1]), rate, 1.0 / hat.n_cells)
        hat = CoarseTrajectory(hat.times, hat.states, J)

    gamma = float(epsilon ** (1.0 - lam))
    shifted = shift_positive(hat, gamma)
    t_final = float(hat.times[-1])
    scale = 0.25 * t_final if width_scale is None else width_scale
    half_width = scale * float(epsilon ** alpha)
    smooth = mollify_in_time(shifted, half_width)
    dts = np.diff(smooth.times)[:, None]
    rate_bound = float(np.max(np.abs((smooth.states[1:] - smooth.states[:-1]) / dts)))
    recon = reconstruct_from_coarse(smooth, params, tilt)
    return RecoverySequence(
        epsilon=float(epsilon),
        gamma=gamma,
        half_width=half_width,
        rate_bound=rate_bound,
        trajectory=recon.trajectory,
        b_closed_form=recon.b_closed_form,
    )
