"""Primal dissipation by convex duality and the energy-dissipation balance.

The primal flux cost of a density rate is evaluated as the supremum of
<xi, v> - R*(c, xi) over potential fields xi.  The dual objective is smooth
(quadratic mobility plus cosh exchange); weak duality makes every returned
value a certified lower bound of the primal cost, and optimal fluxes are read
off the maximizer.  In one dimension the continuity equation fixes the summed
flux of all species from the rate alone, so the potential of species 0 is
maximized out in closed form, face by face: the ascent runs on the potential
differences to species 0, I - 1 unknowns per cell for I species, whose
objective is strictly concave with a banded Hessian of bandwidth 2I - 3
(tridiagonal for two species) and no constant mode, so a damped Newton
ascent converges quadratically with nothing to pin.  The coarse problem is
the network of one species and no edges, its flux fixed by the continuity
equation (a cumulative sum of the rate); one evaluator serves every system.

The module also evaluates the time-integrated dissipation of trajectories,
its four-term breakdown, the energy-dissipation-balance residual, and the
coarse (slow-variable) versions of all three.  Each evaluation costs one
set of fluxes: the optimal ones of the rates, which is the dissipation, or
those the trajectory carries, an upper bound of it.  Every interval's
ascent starts from the energy gradient of its two states: along a solution
of the gradient flow the dual maximizer is -DE(c) = -log(c / w) up to
O(dt), the identity the energy-dissipation balance measures.

The evaluators read a trajectory through its ``windows`` method, in
consecutive windows of one budget of values, and evaluate one window at a
time: its intervals' ascents form one stacked Newton solve.  A stored
trajectory and a solve, which hands its windows over as it steps without
ever being stored, are read alike.  No interval's terms depend on the other
problems stacked with it, and the terms are added to their running sums one
interval at a time, so the results do not depend on the windows either: a
stored trajectory and its solve give the same bits.
"""

from __future__ import annotations

import logging
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .coarsegrain import (
    SLOW_MANIFOLD_TOL,
    _check_coarse,
    coarse_grain_trajectory,
    coarse_params,
    hat_energy,
    optimal_coarse_flux,
    slow_manifold_defect,
)
from .core import FluxAssignment, State, SystemParams, Tilt, Trajectory, _flapack, _window_unit
from .functionals import (
    DissipationBreakdown,
    _face_mobility,
    _network_cost,
    _network_slope,
    _two_species_args,
    _two_species_edges,
    cosh_star,
    cosh_star_prime,
    cosh_star_second,
    energy,
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
    "effective_dissipation",
    "hat_dissipation",
    "hat_flux_dissipation",
    "hat_edb_residual",
    "damped_newton_max",
]

dpbtrf, dpbtrs, dpttrf, dpttrs = _flapack.dpbtrf, _flapack.dpbtrs, _flapack.dpttrf, _flapack.dpttrs

logger = logging.getLogger(__name__)

# the most Newton iterations a dual ascent may take
_MAX_NEWTON_ITER = 200


class DualAscentError(RuntimeError):
    """Newton ascent failed to converge; carries the last gradient norm."""

    def __init__(self, message: str, gradient_norm: float):
        super().__init__(f"{message} (gradient norm {gradient_norm:.3e})")
        self.gradient_norm = gradient_norm


@dataclass(frozen=True, eq=False)
class DualMaximizerState:
    """Converged dual ascent: maximizer, value, and convergence diagnostics.

    By weak duality the value is a lower bound of the primal flux cost.  The
    gradient norm is that of the full dual, in all I potentials, at ``xi``,
    without its constant mode; at convergence it is below sqrt(I) times the
    solver tolerance or the gradient's rounding level, whichever is larger.
    """

    xi: np.ndarray
    value: float
    gradient_norm: float
    iterations: int


def damped_newton_max(value_grad, hess_banded, x0, *, tol: float = 1e-10):
    """Maximize a stack of independent smooth strictly concave functions by Armijo-damped Newton.

    Row m of ``x0`` (shape (M, size)) starts problem m.  ``value_grad(x)``
    returns the values (M,) and gradients (M, size) of the problems at the
    rows of ``x``, and ``hess_banded(x)`` their negative Hessians in upper
    banded storage (bandwidth + 1, M * size), block-diagonal with zeros
    between blocks, the diagonal in the last row.  Each negative Hessian must
    be positive definite, as those of :func:`_dual` are; nothing is pinned or
    projected.  A tridiagonal stack (bandwidth 1, every two-species problem)
    is factored whole as L D L^T by LAPACK's ``dpttrf``, a wider one by the
    banded Cholesky ``dpbtrf``.
    Each problem has its own stopping test, line search and iteration count.
    It converges once its gradient norm is at most ``tol``, or at most the
    rounding level of the gradient, machine epsilon times the largest
    negative-Hessian diagonal times (1 + max |x|) at the last Newton point
    (an exchange weight of order h/epsilon amplifies the rounding of a
    potential difference by as much, which is what binds for epsilon near
    1e-8), times sqrt(size): that is the rounding level of one entry, and the
    norm adds up ``size`` of them.  It is then frozen, its gradient taken as 0
    and its block as the identity, so its step is exactly 0; with no coupling
    between the blocks, each problem gets the bits of its own ascent.
    A step is terminal, taken whole without a line search, once its predicted
    gain (the gradient against the Newton step) is at most the value's
    rounding level: the larger of 1e-12 (1 + |value|) and that gradient
    rounding level times sqrt(size) (1 + max |x|), which is what a gradient
    wrong by its rounding level can misstate over a step the size of x.
    Returns ``(x, values, gradient_norm, iterations, iterations_per_problem)``,
    the middle two the largest over the stack; failures, a problem unconverged
    after ``_MAX_NEWTON_ITER`` iterations among them, raise
    :class:`DualAscentError` with the failing problem's gradient norm.
    """
    x = np.array(x0, dtype=float)
    n_prob, size = x.shape
    val, grad = value_grad(x)
    gnorm = np.linalg.norm(grad, axis=1)
    iters = np.zeros(n_prob, dtype=int)
    floor = np.zeros(n_prob)
    rounding = np.finfo(float).eps * np.sqrt(size)  # per entry, summed in the 2-norm
    while True:
        active = ~(gnorm <= np.maximum(tol, floor))
        if not active.any():
            return x, val, float(gnorm.max()), int(iters.max()), iters
        if iters.max() == _MAX_NEWTON_ITER:  # every active problem has run every iteration
            raise DualAscentError("iteration limit reached", float(gnorm[np.argmax(active)]))
        ab = hess_banded(x)
        xmax = np.abs(x).max(axis=1)
        dmax = ab[-1].reshape(n_prob, size).max(axis=1)
        floor = np.where(active, rounding * dmax * (1.0 + xmax), floor)
        np.copyto(ab, np.arange(len(ab))[:, None] == len(ab) - 1, where=np.repeat(~active, size))
        # frozen blocks are the identity; either way, info > 0 is the order
        # of the first leading minor that is not positive definite
        if ab.shape[0] == 2:
            *factor, info = dpttrf(ab[1], ab[0, 1:], overwrite_d=1, overwrite_e=1)
            solve = dpttrs
        else:
            *factor, info = dpbtrf(ab, overwrite_ab=1)
            solve = dpbtrs
        if info > 0:
            raise DualAscentError("singular dual Hessian", float(gnorm[(info - 1) // size]))
        g = np.where(active[:, None], grad, 0.0)
        step = solve(*factor, g.ravel())[0].reshape(n_prob, size)
        ascent = np.sum(g * step, axis=1)
        bad = active & ~(np.isfinite(ascent) & (ascent > 0))
        if np.any(bad):
            raise DualAscentError("dual Hessian lost definiteness", float(gnorm[np.argmax(bad)]))
        # terminal steps: the predicted gain is below the objective's
        # floating-point resolution, so the value can no longer gate progress,
        # but the raw Newton step still contracts the gradient quadratically
        terminal = ascent <= np.maximum(1e-12 * (1.0 + np.abs(val)),
                                        floor * np.sqrt(size) * (1.0 + xmax))
        # every problem still searching has been halved equally often
        t, search = 1.0, active
        while search.any():
            cand = x + (t * search)[:, None] * step  # the other rows as they stand
            cval, cgrad = value_grad(cand)
            finite = np.isfinite(cval)
            if np.any(search & terminal & ~finite):
                raise DualAscentError("terminal Newton step left the finite range",
                                      float(gnorm[np.argmax(search & terminal & ~finite)]))
            ok = search & (terminal | (finite & (cval >= val + 1e-4 * t * ascent)))
            x, val = np.where(ok[:, None], cand, x), np.where(ok, cval, val)
            grad = np.where(ok[:, None], cgrad, grad)
            search = search & ~ok
            t *= 0.5
            if search.any() and t < 1e-14:
                raise DualAscentError("line search stalled", float(gnorm[np.argmax(search)]))
        gnorm = np.linalg.norm(grad, axis=1)
        iters += active


def _dual(c, delta, edges, v, h):
    """The dual of the flux costs of rates v on a reaction network, one problem per state and rate.

    ``c`` and ``v`` have shape (M, I, n), I >= 2.  Species i diffuses with
    mobility w_i = (delta_i c_i)bar / h on interior faces, ``delta`` given
    per species (I,) or per species and cell (I, n), and each edge
    (a, b, kappa), a < b, exchanges through a cosh term of strength
    rw = kappa h sqrt(c_a c_b); the full dual of the potentials xi is

        F(xi) = sum h v xi - 1/2 sum w (d xi)^2 - sum rw C*(xi_a - xi_b),

    sums over cells, interior faces and edges.  In one dimension with no-flux
    walls the continuity equation fixes the summed face flux
    sum_i J_i = -G, G_f = sum_{k <= f} h sum_i v_i,k, so the potential xi_0
    of species 0 is maximized out in closed form, face by face.  The unknowns
    are the differences eta_i = xi_0 - xi_i, i >= 1, cell-interleaved,
    x[m, (I - 1) k + i - 1] = eta_i[k]: I - 1 per cell, and no constant mode.
    Per face, with the jumps d_i of eta_i (d_0 = 0) and W = sum_i w_i, the
    jump of xi_0 is s = (sum_i w_i d_i - G) / W, the fluxes are
    J_i = w_i (s - d_i), and the face adds -G s - 1/2 sum_i w_i (s - d_i)^2;
    an edge (a, b) sees xi_a - xi_b = eta_b - eta_a.  The reduced objective
    is the full dual at the potentials reconstructed from eta.  Its negative
    Hessian, banded with bandwidth 2I - 3, has no constant null direction:
    each face couples its two cells through diag(w_1, ...) - w w^T / W.

    A face where every species is empty (W = 0) drops out if it carries no
    summed flux (G = 0); if it must carry one the dual is unbounded, and
    :class:`DualAscentError` reports the norm of G over such faces of the
    first problem that has one: the full dual's gradient along the potential
    jumps across them, whatever the potentials.

    Returns ``(value_grad, hess_banded, fluxes)``, functions of the whole
    stack's x (M, (I - 1) n), the first two for :func:`damped_newton_max`;
    ``fluxes(x)`` reads off the face fluxes J (M, I, n + 1) and the exchange
    fluxes (E, M, n) of the edges, entering species a with + and b with -.
    """
    n_prob, i_sp, n = c.shape
    size = i_sp - 1  # unknowns per cell
    band = 2 * size - 1
    # per-problem data are species-major, (M, I, n - 1) on faces and
    # (M, I - 1, n) on cells, so that elementwise work loops over cells, not
    # over the I - 1 unknowns of a cell
    w = _face_mobility(c, delta) / h
    G = np.cumsum(h * v.sum(axis=1), axis=1)[:, :-1]
    W = w.sum(axis=1)
    empty = W == 0
    blocked = empty & (G != 0)
    if np.any(blocked):
        m = np.flatnonzero(blocked.any(axis=1))[0]
        raise DualAscentError("the rate needs a flux across a face where both species are empty",
                              float(np.linalg.norm(G[m, blocked[m]])))
    W = np.where(empty, 1.0, W)  # those faces have w = G = 0
    wr = w[:, 1:]
    wW, GW = wr / W[:, None], G / W
    beta, level = G[:, None] * wW, 0.5 * np.sum(G * GW, axis=1)
    hv = h * v[:, 1:]

    # the face part of the negative Hessian, the same at every x: each face
    # block diag(w_1, ...) - w w^T / W, its diagonal w_i sum_{k != i} w_k / W
    # summed free of cancellation, adds to the diagonal blocks of its two
    # cells and couples them.  In LAPACK's upper band storage, per cell k and
    # unknown j of the column, the entry of unknown i of cell k - 1 lies at
    # band row band - size - j + i, and that of unknown i <= j of cell k at
    # band - j + i
    coupling = wr[:, :, None] * wW[:, None]  # minus the face blocks, (M, row, column, face)
    diag = np.arange(size)
    coupling[:, diag, diag] = wW * np.einsum("mkf,ik->mif", w, np.eye(i_sp)[1:] - 1.0)
    face = np.zeros((n_prob, n, size, band + 1))  # [problem, cell, column unknown, band row]
    for i in range(size):
        for j in range(size):
            block = coupling[:, i, j]
            face[:, 1:, j, band - size - j + i] = block
            if i <= j:
                cell = face[:, :, j, band - j + i]
                cell[:, 1:-1] = -(block[:, 1:] + block[:, :-1])
                cell[:, 0], cell[:, -1] = -block[:, 0], -block[:, -1]

    ea, eb, kappa = (np.array(col) for col in zip(*edges))
    rw = kappa[:, None] * h * np.sqrt(c[:, ea] * c[:, eb])  # (M, E, n)
    inner = np.flatnonzero(ea > 0)  # edges between two unknowns
    inc = np.zeros((size, ea.size))  # d(eta_b - eta_a) / d eta, per edge
    inc[eb - 1, np.arange(ea.size)] = 1.0
    inc[ea[inner] - 1, inner] = -1.0

    def exchange(eta):
        """eta_b - eta_a (..., E, n) per edge (a, b) of eta (..., I - 1, n)."""
        u = eta[:, eb - 1]
        if inner.size:
            u[:, inner] -= eta[:, ea[inner] - 1]
        return u

    def value_grad(x):
        eta = x.reshape(n_prob, n, size).transpose(0, 2, 1)
        d = eta[..., 1:] - eta[..., :-1]
        s = np.einsum("mif,mif->mf", wW, d) - GW
        J = wr * (s[:, None] - d)
        u = exchange(eta)
        with np.errstate(over="ignore"):
            # the faces' -G s - 1/2 sum_i w_i (s - d_i)^2 is 1/2 G^2 / W + 1/2 (J - beta) . d
            val = (level + 0.5 * np.sum(((J - beta) * d).reshape(n_prob, -1), 1)
                   - np.sum((hv * eta).reshape(n_prob, -1), 1)
                   - np.sum((rw * cosh_star(u)).reshape(n_prob, -1), 1))
            grad = -hv - np.einsum("je,men->mjn", inc, rw * cosh_star_prime(u))
        grad[..., 1:] += J
        grad[..., :-1] -= J
        return val, grad.transpose(0, 2, 1).reshape(n_prob, -1)

    def hess_banded(x):
        ab = face.copy()
        with np.errstate(over="ignore"):
            r2 = rw * cosh_star_second(exchange(x.reshape(n_prob, n, size).transpose(0, 2, 1)))
        b = ab.transpose(3, 0, 1, 2)  # [band row, problem, cell, unknown of the column]
        b[band] += np.einsum("je,men->mnj", np.abs(inc), r2)
        if inner.size:
            b[band - (eb[inner] - ea[inner]), ..., eb[inner] - 1] -= r2[:, inner].transpose(1, 0, 2)
        return ab.reshape(-1, band + 1).T

    def fluxes(x):
        eta = x.reshape(n_prob, n, size).transpose(0, 2, 1)
        d = eta[..., 1:] - eta[..., :-1]
        s = np.einsum("mif,mif->mf", wW, d) - GW
        J = np.zeros((n_prob, i_sp, n + 1))
        J[:, 0, 1:-1] = w[:, 0] * s
        J[:, 1:, 1:-1] = wr * (s[:, None] - d)
        b = rw / h * cosh_star_prime(exchange(eta))
        return J, b.transpose(1, 0, 2)

    return value_grad, hess_banded, fluxes


@dataclass(frozen=True, eq=False)
class PrimalRate:
    """Primal flux cost of a rate, with the optimal fluxes and dual diagnostics."""

    value: float
    fluxes: FluxAssignment
    dual: DualMaximizerState


def _mass_balance_check(v: np.ndarray, h: float):
    if not np.all(np.isfinite(v)):  # a NaN passes the bound below, and infs sum to NaN
        raise ValueError("rate must be finite")
    imbalance = np.abs(v.sum(axis=(-2, -1))) * h  # one per rate along the leading axes
    if np.any(imbalance > 1e-7 * np.maximum(1.0, np.abs(v).max(axis=(-2, -1)))):
        raise ValueError(f"rate must preserve total mass (imbalance {np.max(imbalance):.3e})")


def primal_R_eps(state: State, params: SystemParams, v, *, xi0=None) -> PrimalRate:
    """Flux cost of realizing the rate v from the given state.

    Maximizes <xi, v> - R*(c, xi) over two-species potential fields by damped
    Newton (the dual of the infimal splitting of v into diffusion and exchange
    fluxes under the generalized continuity equation).  The returned fluxes
    J_j = delta_j c_j grad(xi_j) on faces and b_1 = -b_2 =
    (sqrt(c_1 c_2)/eps) (C*)'(xi_1 - xi_2) on cells, eps = ``params.epsilon``,
    satisfy the discrete continuity equation with rate v up to the dual
    tolerance.

    The ascent runs on the potential difference xi_1 - xi_2 alone (n
    unknowns, a tridiagonal Hessian), the shared potential maximized out in
    closed form, as :func:`dissipation_functional` runs it; ``xi0`` starts it
    at xi0[0] - xi0[1].  The rate must preserve total mass; the potentials
    are returned shifted to a shared mean of zero.
    """
    edges = _two_species_edges(state.c, params)
    c = state.c
    h = 1.0 / state.n_cells
    v = np.asarray(v, dtype=float)
    if v.shape != c.shape:
        raise ValueError(f"rate shape {v.shape} does not match state {c.shape}")
    x0 = np.zeros_like(c) if xi0 is None else np.asarray(xi0, dtype=float)
    if x0.shape != c.shape:
        raise ValueError(f"xi0 shape {x0.shape} does not match state {c.shape}")
    _mass_balance_check(v, h)
    v = v - v.sum() / v.size

    (_, _, kappa), = edges
    delta = params.delta_array
    vg, hess, fluxes = _dual(c[None], delta, edges, v[None], h)
    x, val, _, iters, _ = damped_newton_max(vg, hess, (x0[0] - x0[1])[None])
    J, b_edges = fluxes(x)
    J, b = J[0], np.stack([b_edges[0, 0], -b_edges[0, 0]])
    value = float(val[0])
    # the potentials: xi_0 summed from its face jumps s = (w_1 d(eta) - G) / W (0 where
    # both species are empty), xi_1 = xi_0 - eta, shifted to a mean of zero
    w = _face_mobility(c, delta) / h
    W = np.where(w.sum(axis=0) == 0, 1.0, w.sum(axis=0))
    s = w[1] / W * np.diff(x[0]) - np.cumsum(h * v.sum(axis=0))[:-1] / W
    xi = np.concatenate([[0.0], np.cumsum(s)]) - np.stack([np.zeros_like(x[0]), x[0]])
    xi -= xi.mean()
    # the potentials certify themselves: the full dual's gradient at xi is h v
    # plus the divergence of the face fluxes w d(xi) less the exchange
    flux = np.zeros_like(J)
    flux[:, 1:-1] = w * np.diff(xi)
    with np.errstate(over="ignore"):
        ex = kappa * h * np.sqrt(c[0] * c[1]) * cosh_star_prime(xi[0] - xi[1])
    grad = h * v + np.diff(flux) - np.stack([ex, -ex])
    gnorm = float(np.linalg.norm(grad - grad.mean()))
    dual = DualMaximizerState(xi=xi, value=value, gradient_norm=gnorm, iterations=iters)
    return PrimalRate(value=value, fluxes=FluxAssignment(J, b), dual=dual)


def primal_objective(state: State, params: SystemParams, fluxes: FluxAssignment):
    """Primal flux cost of an explicit flux assignment: kinetic plus exchange terms.

    Returns ``(vel_diff, vel_react)``: the face-integrated quadratic cost of
    the diffusion fluxes through the mobilities delta_j * cbar_j, and the
    cell-integrated perspective cosh cost of the exchange flux through
    sqrt(c_1 c_2)/eps, eps = ``params.epsilon``.  By weak duality their sum
    dominates the dual value of any rate the fluxes realize.
    """
    vel_diff, (vel_react,) = _network_cost(
        state.c, params.delta_array, _two_species_edges(state.c, params),
        fluxes.J, [fluxes.b[1]], 1.0 / state.n_cells,
    )
    return float(vel_diff), float(vel_react)


def _rates(c, c_next, dts, h):
    """Mass-balanced difference-quotient rates of a stack of intervals."""
    v = (c_next - c) / dts[:, None, None]
    _mass_balance_check(v, h)
    v -= v.mean(axis=(1, 2), keepdims=True)
    return v


def _integrate(acc, terms, dts):
    """The running sums ``acc`` plus the left-endpoint integrals of the rows ``terms`` over
    ``dts``, added one interval at a time, so that no sum depends on the windows."""
    rows = np.array(terms) * dts
    rows[:, 0] += acc
    return rows.cumsum(axis=1)[:, -1]


def _energy_gradient_start(states, w):
    """The rows of ``x0`` of the intervals between ``states`` (k + 1, I, n), ``w`` (I, n).

    The dual maximizer is -DE(c) = -log(c / w) up to O(dt) along a solution,
    so eta_i = xi_0 - xi_i starts at l_i - l_0, l the mean of log(c / w) at
    the interval's two ends, and at 0 where that is not finite (empty cells).
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        level = np.log(states / w)
        level = 0.5 * (level[:-1] + level[1:])
        eta = level[:, 1:] - level[:, :1]
    eta[~np.isfinite(eta)] = 0.0
    return eta.transpose(0, 2, 1).reshape(eta.shape[0], -1)


def _network_terms(windows, w, delta, edges, groups, *, tol=1e-10, log=logger, newton=None):
    """Time integrals (left-endpoint rule) of the dissipation terms of a trajectory on a network.

    ``windows`` yields ``(states, dts, fluxes)`` for consecutive windows of
    the trajectory, of any lengths: the states (k + 1, I, n) at times spaced
    by ``dts`` (the first the previous window's last) and the fluxes (J (k,
    I, n + 1), per-edge exchange fluxes (E, k, n)) whose cost is the
    velocity part, or None for the optimal fluxes of the difference-quotient
    rates.  ``w`` (I, n) is the stationary measure on cells, ``delta`` (I,)
    or (I, n) the diffusion constants and ``edges`` lists (i, j, kappa).
    Returns the velocity terms and then the slope terms, each the diffusion
    term followed by the exchange terms summed over each boolean edge mask
    in ``groups``.  Without edges (the coarse system, one species) the
    optimal flux is :func:`~edpflow.coarsegrain.optimal_coarse_flux`'s.

    The dual ascents of a window's intervals run as one stacked Newton
    solve on the reduced dual of :func:`_dual`, (I - 1) n unknowns an
    interval for I species, each from the energy gradient of its own two
    states (:func:`_energy_gradient_start`) and with its own stopping test,
    so no interval's terms depend on its neighbours or on the windows.  Each
    term is integrated on its own by :func:`_integrate`, so its rounding
    depends neither on the windows nor on which other terms are evaluated
    with it.  The ascent is logged to ``log``, one record per trajectory;
    ``newton`` is :func:`damped_newton_max` as the caller's module binds it
    (this module's by default), so that instrumentation wrapping it per
    module attributes the solves to the calling evaluator.
    """
    newton = newton or damped_newton_max
    counts, worst, acc = Counter(), 0.0, 0.0  # Newton iterations per interval, largest final gradient
    for n_windows, (states, dts, fluxes) in enumerate(windows, 1):
        c = states[:-1]
        h = 1.0 / c.shape[2]
        if fluxes is None and not edges:  # one species: the rate fixes the flux
            fluxes = optimal_coarse_flux((states[1:] - c) / dts[:, None, None], h), []
        elif fluxes is None:
            vg, hess, optimal = _dual(c, delta, edges, _rates(c, states[1:], dts, h), h)
            x, _, gnorm, _, iters = newton(vg, hess, _energy_gradient_start(states, w), tol=tol)
            counts.update(iters.tolist())
            worst = max(worst, gnorm)
            fluxes = optimal(x)
        terms = []
        for diff, per_edge in (_network_cost(c, delta, edges, *fluxes, h),
                               _network_slope(c, w, delta, edges, h)):
            per_edge = np.array(per_edge)
            terms += [diff, *(per_edge[g].sum(axis=0) for g in groups)]
        acc = _integrate(acc, terms, dts)
    if counts and log.isEnabledFor(logging.DEBUG):
        log.debug("dual ascent over %d intervals in %d windows: Newton iterations per interval %s, "
                  "max final gradient norm %.3e", sum(counts.values()), n_windows,
                  dict(sorted(counts.items())), worst)
    return acc


def _windows(traj, fluxes=None):
    """A trajectory as the windows of :func:`_network_terms`.

    Windows of the one budget (:func:`~edpflow.core._window_unit`), with the
    evaluation's one velocity source: ``fluxes`` maps the fluxes each window
    carries to those to cost, and without it the optimal ones are.
    """
    for times, states, *carried in traj.windows(_window_unit(traj.states[0].size)):
        if fluxes is not None and not carried:
            raise ValueError("no flux data: the trajectory carries no fluxes")
        yield states, np.diff(times), None if fluxes is None else fluxes(*carried)


def dissipation_functional(traj: Trajectory, params: SystemParams, tilt: Tilt, *,
                           tol: float = 1e-10) -> DissipationBreakdown:
    """Time-integrated dissipation of a trajectory, split into its four terms.

    Per interval the velocity part is the primal flux cost of the difference
    quotient rate and the slope part the Fisher-information terms at the left
    endpoint; time integration is the left-endpoint rule.  The dual ascents
    of a window run as one stacked Newton solve, each interval's from the
    energy gradient of its two states (see the module docstring).  Fluxes
    the trajectory carries do not enter; their cost is
    :func:`flux_dissipation`.

    ``traj`` may also be a solve, read window by window (see
    :meth:`edpflow.solver._Solve.windows`); the terms are those of the
    stored trajectory, bit for bit, and the solve is never stored.
    """
    args = _two_species_args(traj.states, params, tilt)
    return DissipationBreakdown(*_network_terms(_windows(traj), *args, tol=tol))


def flux_dissipation(traj: Trajectory, params: SystemParams, tilt: Tilt) -> DissipationBreakdown:
    """Dissipation of a trajectory with the velocity part taken from its stored fluxes.

    No optimization is involved: the kinetic and exchange costs of the carried
    fluxes are integrated together with the slope terms (left-endpoint rule).
    Dominates the variational value, with equality when the stored fluxes are
    optimal.  ``traj`` may also be a solve, whose windows carry its fluxes,
    read as for :func:`dissipation_functional`.
    """
    args = _two_species_args(traj.states, params, tilt)
    windows = _windows(traj, lambda J, b: (J, b[None, :, 1]))  # the exchange flux into species 1
    return DissipationBreakdown(*_network_terms(windows, *args))


def _balance(traj, params: SystemParams, tilt: Tilt, *, evaluate=dissipation_functional):
    """``(breakdown, E(start) - E(end), EDB residual)`` of a trajectory or a solve.

    ``evaluate`` is the dissipation evaluator, called as
    :func:`dissipation_functional`.  A solve's initial state is read before
    the evaluation takes its windows, and its final state, in its last
    window, after; both energies are evaluated after it, so data of another
    species count or grid raise the evaluator's error.
    """
    initial = traj.states[0]
    breakdown = evaluate(traj, params, tilt)
    drop = energy(State(initial), params, tilt) - energy(State(traj.states[-1]), params, tilt)
    return breakdown, drop, breakdown.total - drop


def edb_residual(traj: Trajectory, params: SystemParams, tilt: Tilt) -> float:
    """Energy-dissipation-balance defect: dissipation - (E(start) - E(end)).

    Zero for exact solutions of the gradient flow; on discrete solver output
    it converges to zero at first order under joint space-time refinement.
    The sign is not constrained for arbitrary discrete data.  ``traj`` may
    also be a solve, read as for :func:`dissipation_functional`.  The
    ``edb_refinement`` experiment reports this value, from the same balance.
    """
    return _balance(traj, params, tilt)[2]


def _hat_args(hat_traj, params: SystemParams, tilt: Tilt):
    """``(w_hat, delta_hat, edges, groups)`` of the coarse system on ``tilt``, one species and
    no edges, as :func:`_network_terms` takes them after the windows; ``hat_traj`` of
    another species count raises."""
    _check_coarse(hat_traj, tilt)
    cp = coarse_params(params, tilt)
    return cp.w_hat[None], cp.delta_hat[None], [], []


def hat_dissipation(hat_traj: Trajectory, params: SystemParams,
                    tilt: Tilt) -> DissipationBreakdown:
    """Coarse dissipation: minimal kinetic cost of the coarse rate plus coarse slope.

    The velocity part is the kinetic cost of the one flux that realizes the
    coarse rate (:func:`~edpflow.coarsegrain.optimal_coarse_flux`); the slope
    part is the coarse Fisher information with the mixing-weighted mobility.
    Exchange terms vanish on the coarse level.  ``hat_traj`` is a trajectory
    of one species, or a coarse solve, read window by window as for
    :func:`dissipation_functional`.
    """
    vel, slope = _network_terms(_windows(hat_traj), *_hat_args(hat_traj, params, tilt))
    return DissipationBreakdown(vel, 0.0, slope, 0.0)


def hat_flux_dissipation(hat_traj: Trajectory, params: SystemParams,
                         tilt: Tilt) -> DissipationBreakdown:
    """Coarse dissipation with the kinetic term evaluated on the stored coarse fluxes.

    ``hat_traj`` may also be a coarse solve, read as for :func:`hat_dissipation`.
    """
    vel, slope = _network_terms(_windows(hat_traj, lambda J, b: (J, [])),  # no edges
                                *_hat_args(hat_traj, params, tilt))
    return DissipationBreakdown(vel, 0.0, slope, 0.0)


def _hat_balance(hat_traj, params: SystemParams, tilt: Tilt):
    """``(breakdown, E(start) - E(end), EDB residual)`` of a coarse trajectory or solve.

    Read as :func:`_balance` reads a trajectory.
    """
    initial = hat_traj.states[0, 0]
    breakdown = hat_dissipation(hat_traj, params, tilt)
    drop = hat_energy(initial, params, tilt) - hat_energy(hat_traj.states[-1, 0], params, tilt)
    return breakdown, drop, breakdown.total - drop


def hat_edb_residual(hat_traj: Trajectory, params: SystemParams,
                     tilt: Tilt) -> float:
    """Energy-dissipation-balance defect of the coarse problem, as :func:`edb_residual`.

    ``hat_traj`` may also be a coarse solve, read as for :func:`hat_dissipation`.
    """
    return _hat_balance(hat_traj, params, tilt)[2]


def effective_dissipation(traj: Trajectory, params: SystemParams, tilt: Tilt) -> float:
    """Limit dissipation of a slow-manifold trajectory, evaluated in coarse variables.

    Off-manifold input (relative defect above
    :data:`~edpflow.coarsegrain.SLOW_MANIFOLD_TOL`) carries the
    singular exchange constraint and returns +inf; a warning reports the
    measured defect.  On the manifold the value equals the coarse dissipation
    of the summed density by construction.
    """
    defect = slow_manifold_defect(traj, params, tilt)
    if defect > SLOW_MANIFOLD_TOL:
        warnings.warn(
            f"trajectory is off the slow manifold (max relative defect {defect:.3e})",
            stacklevel=2,
        )
        return np.inf
    return hat_dissipation(coarse_grain_trajectory(traj), params, tilt).total
