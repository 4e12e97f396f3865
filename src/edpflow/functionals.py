"""Energies, stationary measures, and dissipation potentials.

The driving functional is the relative free energy with respect to a tilted
stationary measure; the dual dissipation potential is the sum of a quadratic
mobility term for diffusion and a cosh-type exchange term whose strength grows
like 1/epsilon.  All functions here are pure functions of immutable inputs.

Spatial quadrature is the midpoint rule on cells; gradient-like quantities are
assembled on interior faces with arithmetic-mean face densities.  Boundary
faces never enter, matching the no-flux condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import State, SystemParams, Tilt, _check_two_species

__all__ = [
    "cosh_star",
    "cosh_star_prime",
    "cosh_star_second",
    "cosh_primal",
    "cosh_primal_prime",
    "boltzmann",
    "perspective_eval",
    "energy",
    "energy_gradient",
    "stationary_measure",
    "stationary_measure_faces",
    "dual_dissipation",
    "slope",
    "r_eff_dual",
    "DissipationBreakdown",
    "EQUAL_POTENTIAL_TOL",
]

# Gate for the "equal chemical potentials" characteristic term in the effective
# dual potential.  The constraint is exact in the continuum; a strict absolute
# gate keeps the effective potential meaningful on computed fields.
EQUAL_POTENTIAL_TOL = 1e-9


def cosh_star(x):
    """Cosh-type exchange cost in the force variable: 4 (cosh(x/2) - 1)."""
    return 4.0 * (np.cosh(np.asarray(x, dtype=float) / 2.0) - 1.0)


def cosh_star_prime(x):
    """Derivative of :func:`cosh_star`: 2 sinh(x/2)."""
    return 2.0 * np.sinh(np.asarray(x, dtype=float) / 2.0)


def cosh_star_second(x):
    """Second derivative of :func:`cosh_star`: cosh(x/2)."""
    return np.cosh(np.asarray(x, dtype=float) / 2.0)


def cosh_primal(s):
    """Legendre transform of :func:`cosh_star` in closed form.

    C(s) = 2 s asinh(s/2) - 4 sqrt(1 + s^2/4) + 4.  The supremum defining the
    transform is attained at x = 2 asinh(s/2), which is what the closed form
    evaluates; the test suite cross-checks it against a direct numerical
    maximization.
    """
    s = np.asarray(s, dtype=float)
    return 2.0 * s * np.arcsinh(s / 2.0) - 4.0 * np.sqrt(1.0 + s * s / 4.0) + 4.0


def cosh_primal_prime(s):
    """Derivative of :func:`cosh_primal`: 2 asinh(s/2)."""
    return 2.0 * np.arcsinh(np.asarray(s, dtype=float) / 2.0)


def _xlogx(r: np.ndarray) -> np.ndarray:
    """r log r of each value of the float array ``r``: 0 at r = 0, nan at r < 0 and at nan.

    The log is the C library's, value by value (:func:`math.log`), as in
    ``scipy.special.xlogy``, so the result has xlogy's bits; numpy's
    vectorised log differs from it in the last bit of some values.
    """
    out = np.where(r == 0.0, 0.0, np.nan)
    pos = r > 0.0
    rp = r[pos]
    with np.errstate(over="ignore"):  # inf near the largest double, silently, as xlogy gives it
        out[pos] = rp * np.fromiter(map(math.log, rp.tolist()), dtype=float, count=rp.size)
    return out


def boltzmann(r):
    """Boltzmann entropy density r log r - r + 1, continuously extended by 1 at r = 0.

    At r = inf it is its limit inf, and at r < 0 and at nan it is nan, with
    no warning.  r log r uses the C library's log value by value, which gives
    the bits of ``scipy.special.xlogy(r, r)``.
    """
    r = np.asarray(r, dtype=float)
    with np.errstate(invalid="ignore"):  # inf - inf at r = inf, replaced by the limit
        out = _xlogx(r) - r + 1.0
    return np.where(r == np.inf, np.inf, out)[()]


_PERSPECTIVE_BASES = {
    "quadratic": lambda s: 0.5 * s * s,
    "cosh": cosh_primal,
}


def perspective_eval(base: str, a, x):
    """Perspective (scaled) evaluation a * F(x / a) of a convex base function.

    ``base`` selects F: "quadratic" gives F(x) = x^2 / 2 (so the value is
    |x|^2 / (2a), the kinetic cost of a flux x through mobility a), "cosh"
    gives the exchange cost.  At a = 0 the value is 0 for x = 0 and +inf
    otherwise; a < 0 is a domain error.  The construction is jointly convex
    and decreasing in a when F(0) = 0.
    """
    try:
        f = _PERSPECTIVE_BASES[base]
    except KeyError:
        raise ValueError(f"unknown base {base!r}, expected one of {sorted(_PERSPECTIVE_BASES)}")
    a = np.asarray(a, dtype=float)
    x = np.asarray(x, dtype=float)
    if np.any(a < 0):
        raise ValueError("perspective scale a must be nonnegative")
    a_b, x_b = np.broadcast_arrays(a, x)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = np.array(a_b * f(x_b / a_b), dtype=float)  # rewritten where a is not positive
    pos = a_b > 0
    if not pos.all():
        out[~pos] = np.where(x_b[~pos] == 0.0, 0.0, np.inf)
    if out.ndim == 0:
        return float(out)
    return out


def _face_kinetic(j, mob):
    """Kinetic cost |J|^2 / mobility per face: 0 for J = 0 and +inf for J != 0 at zero mobility.

    ``j`` and ``mob`` are arrays of one shape.  The quotient is taken on every
    face and rewritten where the mobility is not positive; the mobilities of
    trajectories are means of nonnegative densities, so that is where they
    are zero.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        cost = j * j / mob
    pos = mob > 0
    if not pos.all():
        at_rest = ~pos
        cost[at_rest] = np.where(j[at_rest] == 0, 0.0, np.inf)
    return cost


def _face_mobility(c, delta):
    """Mobilities 1/2 (delta_k c_k + delta_{k+1} c_{k+1}) on the interior faces (last axis) of
    ``c`` (..., I, n), with ``delta`` per species (I,) or per species and cell (I, n)."""
    dc = np.reshape(delta, (len(delta), -1)) * c
    return 0.5 * (dc[..., 1:] + dc[..., :-1])


def _face_fisher(rho):
    """Fisher quotient |d rho|^2 / rho_bar on interior faces (last axis), same zero convention."""
    return _face_kinetic(rho[..., 1:] - rho[..., :-1], 0.5 * (rho[..., 1:] + rho[..., :-1]))


def _two_species_edges(c, params: SystemParams, tilt: Tilt | None = None):
    """The two-species system's one exchange edge, (0, 1, 1/epsilon), once ``c`` is checked."""
    _check_two_species(c, tilt)
    return [(0, 1, 1.0 / params.epsilon)]


def _two_species_args(c, params: SystemParams, tilt: Tilt):
    """``(w_v, delta, edges, groups)`` of two-species densities ``c`` (..., 2, n) on ``tilt``,
    as :func:`~edpflow.dissipation._network_terms` takes them after the windows."""
    edges = _two_species_edges(c, params, tilt)
    w_v, _ = stationary_measure(params, tilt)
    return w_v, params.delta_array, edges, [np.array([True])]


def energy(state: State, params: SystemParams, tilt: Tilt) -> float:
    """Tilted free energy: relative Boltzmann entropy plus linear potential term.

    Empty cells contribute the continuous extension value (Boltzmann density 1
    per unit stationary weight), so the energy is finite on every admissible
    density state.  Adding a common constant to both potentials shifts the
    energy by exactly that constant for unit-mass states.  r log r uses the C
    library's log value by value (:func:`boltzmann`), which gives the bits of
    ``scipy.special.xlogy``.
    """
    _check_two_species(state.c, tilt)
    c = state.c
    w = params.w[:, None]
    h = 1.0 / state.n_cells
    entropy = float(np.sum(boltzmann(c / w) * w)) * h
    tilt_term = float(np.sum(tilt.v_cells * c)) * h
    return entropy + tilt_term


def energy_gradient(state: State, params: SystemParams, tilt: Tilt) -> np.ndarray:
    """Variational derivative of the tilted energy: log(c/w) + V, per species and cell.

    Only defined cellwise where c > 0; empty cells produce -inf.
    """
    _check_two_species(state.c, tilt)
    with np.errstate(divide="ignore"):
        return np.log(state.c / params.w[:, None]) + tilt.v_cells


def _shifted_measure(params: SystemParams, tilt: Tilt):
    """V_min, the tilt's least cell value, and the cell normalization of w exp(V_min - V)."""
    v_min = tilt.v_cells.min()
    return v_min, float((params.w[:, None] * np.exp(v_min - tilt.v_cells)).sum()) / tilt.n_cells


def stationary_measure(params: SystemParams, tilt: Tilt):
    """Tilted stationary measure on cells and its normalization.

    Returns ``(w_v, z)`` where ``w_v[i, k] = w_i exp(-V_i(x_k)) / z`` and
    ``z`` normalizes the total measure to one under midpoint quadrature.
    The exponentials are taken relative to V's least cell value V_min, whose
    factor exp(-V_min) the normalization cancels, so ``w_v`` is finite
    whatever V's level; ``z`` is the shifted normalization times
    exp(-V_min) and reads inf or 0 where that leaves the floating-point range.
    """
    v_min, z = _shifted_measure(params, tilt)
    with np.errstate(over="ignore"):
        return params.w[:, None] * np.exp(v_min - tilt.v_cells) / z, z * float(np.exp(-v_min))


def stationary_measure_faces(params: SystemParams, tilt: Tilt) -> np.ndarray:
    """Tilted stationary weights sampled at faces, normalized as the cell measure."""
    v_min, z = _shifted_measure(params, tilt)
    return params.w[:, None] * np.exp(v_min - tilt.v_faces) / z


def _diffusion_dual(c: np.ndarray, delta: np.ndarray, xi: np.ndarray, h: float) -> float:
    """Quadratic mobility form: sum over interior faces of delta * cbar * (dxi)^2 / (2h)."""
    dxi = xi[:, 1:] - xi[:, :-1]
    return 0.5 * float(np.sum(_face_mobility(c, delta) * dxi * dxi)) / h


def dual_dissipation(state: State, params: SystemParams, tilt: Tilt, xi) -> float:
    """Dual dissipation potential: diffusion mobility plus cosh exchange term.

    The diffusion part is the face-difference form of the weighted Dirichlet
    energy of the potential field xi; the exchange part couples the species
    through C*(xi_1 - xi_2) weighted by the geometric mean density over
    ``params.epsilon``.  The value does not depend on the tilt (the tilt
    enters only through the energy), is nonnegative, and vanishes on constant
    fields with equal components.
    """
    _check_two_species(state.c, tilt)
    xi = np.asarray(xi, dtype=float)
    if xi.shape != state.c.shape:
        raise ValueError(f"xi shape {xi.shape} does not match state {state.c.shape}")
    h = 1.0 / state.n_cells
    c = state.c
    react = float(np.sum(cosh_star(xi[0] - xi[1]) * np.sqrt(c[0] * c[1]))) * h / params.epsilon
    return _diffusion_dual(c, params.delta_array, xi, h) + react


def _network_cost(c, delta, edges, J, edge_b, h):
    """Primal flux cost of explicit fluxes on a reaction network, per state.

    ``c`` has shape (..., I, n), ``J`` (..., I, n + 1) and ``edge_b`` holds one
    exchange flux (..., n) per edge (i, j, kappa).  Returns the kinetic cost of
    the interior face fluxes through the mobilities of :func:`_face_mobility`
    and the list of perspective cosh costs of the exchange fluxes through
    kappa sqrt(c_i c_j), each with the leading shape of ``c``.
    """
    kinetic = 0.5 * np.sum(_face_kinetic(J[..., 1:-1], _face_mobility(c, delta)), axis=(-2, -1)) * h
    exchange = [
        np.sum(perspective_eval("cosh", kappa * np.sqrt(c[..., i, :] * c[..., j, :]), b), axis=-1) * h
        for (i, j, kappa), b in zip(edges, edge_b)
    ]
    return kinetic, exchange


def _network_slope(c, w, delta, edges, h):
    """Fisher-information slope terms of a reaction network, per state.

    ``c`` has shape (..., I, n), ``w`` (I, n) is the stationary measure on
    cells and ``edges`` lists (i, j, kappa).  Returns the diffusion part and
    the list of per-edge exchange parts, each with the leading shape of ``c``.
    """
    rho = c / np.where(c > 0, w, 1.0)  # an empty species is at rest where its measure underflows too
    diff = 0.5 * np.sum(_face_mobility(w, delta) * _face_fisher(rho), axis=(-2, -1)) / h
    sq = np.sqrt(rho) if edges else None  # a system without edges, the coarse one, takes no root
    react = [
        2.0 * kappa * h * np.sum(np.sqrt(w[i] * w[j]) * (sq[..., i, :] - sq[..., j, :]) ** 2, axis=-1)
        for i, j, kappa in edges
    ]
    return diff, react


def slope(state: State, params: SystemParams, tilt: Tilt):
    """Fisher-information slope terms of the dissipation functional.

    Works in the relative densities rho_i = c_i / w_i^V.  The diffusion part
    integrates delta_i w_i^V |grad rho_i|^2 / rho_i / 2 with face gradients and
    arithmetic-mean face values; the reaction part integrates
    (2/eps) sqrt(w_1^V w_2^V) (sqrt(rho_1) - sqrt(rho_2))^2 on cells, with
    eps = ``params.epsilon``.  Both terms are nonnegative and vanish exactly
    at the stationary measure; the reaction part vanishes exactly on the slow
    manifold rho_1 = rho_2.
    """
    w_v, delta, edges, _ = _two_species_args(state.c, params, tilt)
    slope_diff, (slope_react,) = _network_slope(state.c, w_v, delta, edges, 1.0 / state.n_cells)
    return float(slope_diff), float(slope_react)


def r_eff_dual(state: State, params: SystemParams, tilt: Tilt, xi) -> float:
    """Effective dual potential: diffusion mobility gated on equal potentials.

    Returns the diffusion term when max |xi_1 - xi_2| <= EQUAL_POTENTIAL_TOL
    and +inf otherwise (the characteristic-function part of the effective
    potential).
    """
    _check_two_species(state.c, tilt)
    xi = np.asarray(xi, dtype=float)
    if xi.shape != state.c.shape:
        raise ValueError(f"xi shape {xi.shape} does not match state {state.c.shape}")
    if float(np.max(np.abs(xi[0] - xi[1]))) > EQUAL_POTENTIAL_TOL:
        return np.inf
    return _diffusion_dual(state.c, params.delta_array, xi, 1.0 / state.n_cells)


@dataclass(frozen=True)
class DissipationBreakdown:
    """Additive pieces of the time-integrated dissipation.

    ``vel_*`` are the velocity (flux-cost) terms of one set of fluxes, the
    optimal or the carried ones, by the evaluator that returned it;
    ``slope_*`` are the Fisher-information terms.  All four are nonnegative
    and ``total`` is their sum.
    """

    vel_diff: float
    vel_react: float
    slope_diff: float
    slope_react: float

    @property
    def total(self) -> float:
        return self.vel_diff + self.vel_react + self.slope_diff + self.slope_react
