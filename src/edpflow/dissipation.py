"""Primal dissipation by convex duality and the energy-dissipation balance.

The primal flux cost of a density rate is evaluated as the supremum of
<xi, v> - R*(c, xi) over potential fields xi.  The dual objective is smooth
(quadratic mobility plus cosh exchange) and strictly concave once the constant
mode shared by all species is gauged away, so a damped Newton ascent with a
banded Hessian converges quadratically; optimal fluxes are read off the
maximizer.  Weak duality makes every returned value a certified lower bound of
the primal cost.

The module also evaluates the time-integrated dissipation of trajectories,
its four-term breakdown, the energy-dissipation-balance residual, and the
coarse (slow-variable) versions of all three.  Each evaluation costs one
set of fluxes: the optimal ones of the rates, which is the dissipation, or
those the trajectory carries, an upper bound of it.  Every block of
consecutive intervals, counted from the trajectory's start, first solves its
first and last interval from zero; the intervals between start from the
interpolation of those two maximizers.

The evaluators read a trajectory through its ``windows`` method, in
consecutive windows of whole blocks, and evaluate one window at a time: its
block anchors form one stacked Newton solve and its other intervals a
second.  A stored trajectory and a solve, which hands its windows over as it
steps without ever being stored, are read alike.  No interval's terms depend
on the other problems stacked with it, and the terms are added to their
running sums one interval at a time, so the results do not depend on the
windows either: a stored trajectory and its solve give the same bits.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpbtrf, dpbtrs

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
    _check_shapes,
    _face_fisher,
    _face_kinetic,
    _network_cost,
    _network_slope,
    cosh_star,
    cosh_star_prime,
    cosh_star_second,
    energy,
    stationary_measure,
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

logger = logging.getLogger(__name__)

# unknowns per window of an evaluation, about: bounds its working set
# whatever the trajectory's length.  Half this, rounded down to whole blocks,
# took twice as many stacked Newton solves on the 4-species network benchmark.
_WINDOW_UNKNOWNS = 16384

# intervals per warm-start block of _network_terms: of 8, 16, 32 and 64,
# 32 took the fewest Newton iterations and the least time on the refinement
# study.  A power of two, so that a trajectory cut at a multiple of it keeps
# its blocks.
_WARM_BLOCK = 32


class DualAscentError(RuntimeError):
    """Newton ascent failed to converge; carries the last gradient norm."""

    def __init__(self, message: str, gradient_norm: float):
        super().__init__(f"{message} (gradient norm {gradient_norm:.3e})")
        self.gradient_norm = gradient_norm


@dataclass(frozen=True, eq=False)
class DualMaximizerState:
    """Converged dual ascent: maximizer, value, and convergence diagnostics.

    By weak duality the value is a lower bound of the primal flux cost; at
    convergence the gradient norm is below the solver tolerance or the
    gradient's rounding level, whichever is larger.
    """

    xi: np.ndarray
    value: float
    gradient_norm: float
    iterations: int


def damped_newton_max(value_grad, hess_banded, x0, *, bandwidth: int,
                      tol: float = 1e-10, max_iter: int = 200):
    """Maximize a stack of independent smooth concave functions by Armijo-damped Newton.

    Row m of ``x0`` (shape (M, size)) starts problem m.  ``value_grad(x, act)``
    returns values and gradients of the problems ``act`` (an index array) at
    the rows of ``x``; ``hess_banded(x, act)`` their negative Hessians in upper
    banded storage (bandwidth + 1, len(act) * size), block-diagonal with zeros
    between blocks.  Each must be positive semidefinite with null space at most
    the constant vector, which is pinned inside the banded Cholesky solve, at
    the problem's largest diagonal entry, and projected out of the steps.
    Each problem has its own stopping test, line search and iteration count,
    and drops out once converged: its projected gradient norm is at most
    ``tol``, or at most the rounding level of the
    gradient, machine epsilon times the largest negative-Hessian diagonal
    times (1 + max |x|) at the last Newton point (an exchange weight of
    order h/epsilon amplifies the rounding of a potential difference by as
    much, which is what binds for epsilon near 1e-8), times sqrt(size): that
    is the rounding level of one entry, and the norm adds up ``size`` of them.
    A step is terminal, taken whole without a line search, once its predicted
    gain (the gradient against the Newton step) is at most the value's
    rounding level: the larger of 1e-12 (1 + |value|) and that gradient
    rounding level times sqrt(size) (1 + max |x|), which is what a gradient
    wrong by its rounding level can misstate over a step the size of x.
    Returns
    ``(x, values, gradient_norm, iterations, iterations_per_problem)``, the
    middle two the largest over the stack; failures raise
    :class:`DualAscentError` with the failing problem's gradient norm.
    """
    x = np.array(x0, dtype=float)
    n_prob, size = x.shape
    val, grad = value_grad(x, np.arange(n_prob))
    grad -= grad.mean(axis=1, keepdims=True)
    gnorm = np.linalg.norm(grad, axis=1)
    iters = np.zeros(n_prob, dtype=int)
    floor = np.zeros(n_prob)
    rounding = np.finfo(float).eps * np.sqrt(size)  # per entry, summed in the 2-norm
    while True:
        act = np.flatnonzero(~(gnorm <= np.maximum(tol, floor)))
        if act.size == 0:
            return x, val, float(gnorm.max()), int(iters.max()), iters
        if iters[act[0]] == max_iter:  # every active problem has run every iteration
            raise DualAscentError("iteration limit reached", float(gnorm[act[0]]))
        ab = hess_banded(x[act], act)
        diag = ab[bandwidth].reshape(act.size, size)
        dmax = diag.max(axis=1)
        xmax = np.abs(x[act]).max(axis=1)
        floor[act] = rounding * dmax * (1.0 + xmax)
        # pinned where the Hessian is largest: the entries of a species below
        # rounding are too small to lift the constant mode of the others
        diag[np.arange(act.size), diag.argmax(axis=1)] += np.maximum(dmax, 1.0)
        chol, info = dpbtrf(ab, overwrite_ab=1)
        if info > 0:
            raise DualAscentError("singular dual Hessian", float(gnorm[act[(info - 1) // size]]))
        g = grad[act]
        step = dpbtrs(chol, g.ravel())[0].reshape(act.size, size)
        step -= step.mean(axis=1, keepdims=True)
        ascent = np.sum(g * step, axis=1)
        bad = ~(np.isfinite(ascent) & (ascent > 0))
        if np.any(bad):
            raise DualAscentError("dual Hessian lost definiteness", float(gnorm[act[bad][0]]))
        # terminal steps: the predicted gain is below the objective's
        # floating-point resolution, so the value can no longer gate progress,
        # but the raw Newton step still contracts the gradient quadratically
        terminal = ascent <= np.maximum(1e-12 * (1.0 + np.abs(val[act])),
                                        floor[act] * np.sqrt(size) * (1.0 + xmax))
        # every problem still searching has been halved equally often
        t = 1.0
        todo = np.arange(act.size)
        while todo.size:
            k = act[todo]
            cand = x[k] + t * step[todo]
            cval, cgrad = value_grad(cand, k)
            finite = np.isfinite(cval)
            if not np.all(finite[terminal[todo]]):
                raise DualAscentError("terminal Newton step left the finite range",
                                      float(gnorm[k[terminal[todo] & ~finite][0]]))
            ok = terminal[todo] | (finite & (cval >= val[k] + 1e-4 * t * ascent[todo]))
            x[k[ok]], val[k[ok]], grad[k[ok]] = cand[ok], cval[ok], cgrad[ok]
            todo = todo[~ok]
            t *= 0.5
            if todo.size and t < 1e-14:
                raise DualAscentError("line search stalled", float(gnorm[act[todo[0]]]))
        grad[act] -= grad[act].mean(axis=1, keepdims=True)
        gnorm[act] = np.linalg.norm(grad[act], axis=1)
        iters[act] += 1


def _network_dual(c, delta, edges, v, h):
    """Dual objectives of the flux costs of rates v on a reaction network, one per problem.

    ``c`` and ``v`` have shape (M, I, n): a state and a rate per problem.
    Species i diffuses with mobility delta_i cbar_i on interior faces; each
    edge (i, j, kappa) with i < j exchanges through a cosh term of strength
    kappa sqrt(c_i c_j).  Unknowns are cell-interleaved, x[m, I*k + i] =
    xi[m, i, k], so each negative Hessian is banded with bandwidth I: species
    couple within a cell, cells couple within a species.

    Returns ``(value_grad, hess_banded, fluxes)`` for :func:`damped_newton_max`;
    ``fluxes(x)`` reads off the potentials xi (M, I, n), the face fluxes J
    (M, I, n + 1) and the list of per-edge exchange fluxes (M, n), entering
    species i with + and j with -.
    """
    n_prob, i_sp, n = c.shape
    cs = c.transpose(0, 2, 1)  # per-problem data in the layout of the unknowns
    wdiff = delta * 0.5 * (cs[:, 1:] + cs[:, :-1]) / h
    hv = (h * v).transpose(0, 2, 1).reshape(n_prob, n * i_sp)
    ew = [(i, j, kappa * h * np.sqrt(c[:, i] * c[:, j])) for i, j, kappa in edges]

    def value_grad(x, act):
        xi = x.reshape(act.size, n, i_sp)
        dxi = xi[:, 1:] - xi[:, :-1]
        t = wdiff[act] * dxi
        hva = hv[act]
        val = np.sum(hva * x, axis=1) - 0.5 * np.sum((t * dxi).reshape(act.size, -1), axis=1)
        grad_r = np.zeros_like(xi)
        grad_r[:, 1:] += t
        grad_r[:, :-1] -= t
        for i, j, rw in ew:
            u = xi[..., i] - xi[..., j]
            rwa = rw[act]
            with np.errstate(over="ignore"):
                val -= np.sum(rwa * cosh_star(u), axis=1)
                s = rwa * cosh_star_prime(u)
            grad_r[..., i] += s
            grad_r[..., j] -= s
        hva -= grad_r.reshape(act.size, -1)
        return val, hva

    def hess_banded(x, act):
        xi = x.reshape(act.size, n, i_sp)
        wd = wdiff[act]
        ab = np.zeros((i_sp + 1, x.size), order="F")  # the layout LAPACK factors in place
        bands = ab.reshape(i_sp + 1, act.size, n, i_sp)
        diag = bands[i_sp]
        diag[:, 1:] += wd
        diag[:, :-1] += wd
        bands[0, :, 1:] = -wd  # same species in the next cell; zero on each block's first cell
        for i, j, rw in ew:
            with np.errstate(over="ignore"):
                r2 = rw[act] * cosh_star_second(xi[..., i] - xi[..., j])
            diag[..., i] += r2
            diag[..., j] += r2
            bands[i_sp - (j - i), ..., j] -= r2
        return ab

    def fluxes(x):
        xi = x.reshape(n_prob, n, i_sp)
        J = np.zeros((n_prob, i_sp, n + 1))
        J[..., 1:-1] = (wdiff * (xi[:, 1:] - xi[:, :-1])).transpose(0, 2, 1)
        b = [rw / h * cosh_star_prime(xi[..., i] - xi[..., j]) for i, j, rw in ew]
        return xi.transpose(0, 2, 1), J, b

    return value_grad, hess_banded, fluxes


@dataclass(frozen=True, eq=False)
class PrimalRate:
    """Primal flux cost of a rate, with the optimal fluxes and dual diagnostics."""

    value: float
    fluxes: FluxAssignment
    dual: DualMaximizerState


def _mass_balance_check(v: np.ndarray, h: float):
    imbalance = np.abs(v.sum(axis=(-2, -1))) * h  # one per rate along the leading axes
    if np.any(imbalance > 1e-7 * np.maximum(1.0, np.abs(v).max(axis=(-2, -1)))):
        raise ValueError(f"rate must preserve total mass (imbalance {np.max(imbalance):.3e})")


def _two_species_edges(traj_or_state, epsilon: float):
    if traj_or_state.n_species != 2:
        raise ValueError("two-species evaluation; see multispecies for the general case")
    return [(0, 1, 1.0 / epsilon)]


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

    This is the network dual with the single fast edge (0, 1, 1/eps), solved
    as a stack of one problem.  The rate must preserve total mass; the dual
    objective is invariant under the shared constant mode, which is gauged to
    mean zero.
    """
    _ = tilt
    eps = params.epsilon if epsilon is None else epsilon
    edges = _two_species_edges(state, eps)
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

    vg, hess, fluxes = _network_dual(c[None], params.delta_array, edges, v[None], h)
    x, val, gnorm, iters, _ = damped_newton_max(
        vg, hess, x0.T.reshape(1, -1), bandwidth=2, tol=tol, max_iter=max_iter
    )
    xi, J, (b1,) = fluxes(x)
    b = np.stack([b1[0], -b1[0]])
    value = float(val[0])
    dual = DualMaximizerState(xi=xi[0], value=value, gradient_norm=gnorm, iterations=iters)
    return PrimalRate(value=value, fluxes=FluxAssignment(J[0], b), dual=dual)


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
    vel_diff, (vel_react,) = _network_cost(
        state.c, params.delta_array, _two_species_edges(state, eps),
        fluxes.J, [fluxes.b[1]], 1.0 / state.n_cells,
    )
    return float(vel_diff), float(vel_react)


def _rates(c, c_next, dts, h):
    """Mass-balanced difference-quotient rates of a stack of intervals."""
    v = (c_next - c) / dts[:, None, None]
    _mass_balance_check(v, h)
    v -= v.mean(axis=(1, 2), keepdims=True)
    return v


def _window_intervals(unknowns: int) -> int:
    """Intervals per window of a trajectory with ``unknowns`` values per state.

    Whole warm-start blocks, as :func:`_network_terms` requires: the fewest
    that hold ``_WINDOW_UNKNOWNS`` unknowns.
    """
    return _WARM_BLOCK * -(-_WINDOW_UNKNOWNS // (_WARM_BLOCK * unknowns))


def _integrate(acc, terms, dts):
    """The running sums ``acc`` plus the left-endpoint integrals of the rows ``terms`` over
    ``dts``, added one interval at a time, so that no sum depends on the windows."""
    rows = np.array(terms) * dts
    rows[:, 0] += acc
    return rows.cumsum(axis=1)[:, -1]


def _network_terms(windows, w, delta, edges, groups, *, tol=1e-10, max_iter=200,
                   log=logger, newton=None):
    """Time integrals (left-endpoint rule) of the dissipation terms of a trajectory on a network.

    ``windows`` yields ``(states, dts, fluxes)`` for consecutive windows of
    the trajectory: the states (k + 1, I, n) at times spaced by ``dts`` (the
    first the previous window's last) and the fluxes (J (k, I, n + 1),
    per-edge exchange fluxes (E, k, n)) whose cost is the velocity part, or
    None for the optimal fluxes of the difference-quotient rates.  Every
    window but the last holds whole warm-start blocks.  ``w`` (I, n) is the
    stationary measure on cells and ``edges`` lists (i, j, kappa).  Returns
    the velocity terms and then the slope terms, each the diffusion term
    followed by the exchange terms summed over each boolean edge mask in
    ``groups``.

    The dual ascents of a window run as two stacked Newton solves, the block
    anchors' and then the warm-started intervals' (see the module
    docstring); each interval keeps its own stopping test, so only its start
    depends on its neighbours.  Each term is integrated on its own by
    :func:`_integrate`, so its rounding depends neither on the windows nor
    on which other terms are evaluated with it.  The ascent is logged to
    ``log``, one record per trajectory; ``newton`` is
    :func:`damped_newton_max` as the caller's module binds it (this module's
    by default), so that instrumentation wrapping it per module attributes
    the solves to the calling evaluator.
    """
    newton = newton or damped_newton_max
    anchor_log, interior_log = [], []  # (gradient norm, histogram of iterations) per solve
    acc, ragged = 0.0, False

    def solve(vg, hess, rows, x0, record):
        """The ascents of the window's intervals ``rows``, from ``x0``."""
        x, _, gnorm, _, iters = newton(lambda y, k: vg(y, rows[k]), lambda y, k: hess(y, rows[k]),
                                       x0, bandwidth=band, tol=tol, max_iter=max_iter)
        record.append((gnorm, np.bincount(iters)))
        return x

    for n_windows, (states, dts, fluxes) in enumerate(windows, 1):
        if ragged:
            raise ValueError("a window of the trajectory ends inside a warm-start block")
        n_int = dts.size
        ragged = n_int % _WARM_BLOCK
        c = states[:-1]
        band, n = c.shape[1:]
        h = 1.0 / n
        if fluxes is None:
            vg, hess, optimal = _network_dual(c, delta, edges, _rates(c, states[1:], dts, h), h)
            # blocks and interpolation weights: the window starts a block
            index = np.arange(n_int)
            first = index // _WARM_BLOCK * _WARM_BLOCK
            last = np.minimum(first + _WARM_BLOCK, n_int) - 1
            weight = (index - first) / np.maximum(last - first, 1)
            anchors = np.union1d(first, last)
            x_anchor = solve(vg, hess, anchors, np.zeros((anchors.size, band * n)), anchor_log)
            # exact at the anchors themselves: 1 * x_a + 0 * x_b and 0 * x_a + 1 * x_b
            x = ((1.0 - weight)[:, None] * x_anchor[np.searchsorted(anchors, first)]
                 + weight[:, None] * x_anchor[np.searchsorted(anchors, last)])
            inner = np.flatnonzero((weight > 0) & (weight < 1))
            if inner.size:
                x[inner] = solve(vg, hess, inner, x[inner], interior_log)
            fluxes = optimal(x)[1:]
        terms = []
        for diff, per_edge in (_network_cost(c, delta, edges, *fluxes, h),
                               _network_slope(c, w, delta, edges, h)):
            per_edge = np.array(per_edge)
            terms += [diff, *(per_edge[g].sum(axis=0) for g in groups)]
        acc = _integrate(acc, terms, dts)
    if anchor_log and log.isEnabledFor(logging.DEBUG):
        def hist(solves):
            counts = np.zeros(max((c.size for _, c in solves), default=0), dtype=int)
            for _, c in solves:
                counts[:c.size] += c
            return {k: int(m) for k, m in enumerate(counts) if m}

        solves = anchor_log + interior_log
        log.debug("dual ascent over %d intervals in %d windows (block anchors %s, warm-started %s): "
                  "Newton iterations per interval %s, max final gradient norm %.3e",
                  sum(int(c.sum()) for _, c in solves), n_windows, hist(anchor_log),
                  hist(interior_log), hist(solves), max(g for g, _ in solves))
    return acc


def _two_species_args(state: State, params: SystemParams, tilt: Tilt, epsilon):
    """The arguments of :func:`_network_terms` after the windows, for two species."""
    eps = params.epsilon if epsilon is None else epsilon
    edges = _two_species_edges(state, eps)
    _check_shapes(state, tilt)
    w_v, _ = stationary_measure(params, tilt)
    return w_v, params.delta_array, edges, [np.array([True])]


def _windows(traj, fluxes=None):
    """A trajectory as the windows of :func:`_network_terms` and :func:`_hat_terms`.

    Windows of :func:`_window_intervals` for the values of one state, with
    the evaluation's one velocity source: ``fluxes`` maps the fluxes each
    window carries to those to cost, and without it the optimal ones are.
    """
    for times, states, *carried in traj.windows(_window_intervals(traj.states[0].size)):
        if fluxes is not None and not carried:
            raise ValueError("no flux data: the trajectory carries no fluxes")
        yield states, np.diff(times), None if fluxes is None else fluxes(*carried)


def dissipation_functional(traj: Trajectory, params: SystemParams, tilt: Tilt,
                           epsilon=None, *, tol: float = 1e-10,
                           max_iter: int = 200) -> DissipationBreakdown:
    """Time-integrated dissipation of a trajectory, split into its four terms.

    Per interval the velocity part is the primal flux cost of the difference
    quotient rate and the slope part the Fisher-information terms at the left
    endpoint; time integration is the left-endpoint rule.  The dual ascents
    run as stacked Newton solves, warm-started from block anchors (see the
    module docstring).  Fluxes the trajectory carries do not enter; their
    cost is :func:`flux_dissipation`.

    ``traj`` may also be a solve, read window by window (see
    :meth:`edpflow.solver._Solve.windows`); the terms are those of the
    stored trajectory, bit for bit, and the solve is never stored.
    """
    args = _two_species_args(traj.initial_state, params, tilt, epsilon)
    return DissipationBreakdown(*_network_terms(_windows(traj), *args, tol=tol, max_iter=max_iter))


def flux_dissipation(traj: Trajectory, params: SystemParams, tilt: Tilt,
                     epsilon=None) -> DissipationBreakdown:
    """Dissipation of a trajectory with the velocity part taken from its stored fluxes.

    No optimization is involved: the kinetic and exchange costs of the carried
    fluxes are integrated together with the slope terms (left-endpoint rule).
    Dominates the variational value, with equality when the stored fluxes are
    optimal.  ``traj`` may also be a solve, whose windows carry its fluxes,
    read as for :func:`dissipation_functional`.
    """
    args = _two_species_args(traj.initial_state, params, tilt, epsilon)
    windows = _windows(traj, lambda J, b: (J, b[None, :, 1]))  # the exchange flux into species 1
    return DissipationBreakdown(*_network_terms(windows, *args))


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


def _hat_terms(windows, n: int, params: SystemParams, tilt: Tilt):
    """Time integrals of the coarse velocity and slope terms.

    ``windows`` yields ``(states, dts, fluxes)`` for consecutive windows of a
    coarse trajectory on ``n`` cells, as :func:`_network_terms` takes them,
    of any length: the face fluxes (k, n + 1) to cost, or None for the
    optimal ones, whose elliptic problems are one batched solve per window.
    """
    if tilt.n_cells != n:
        raise ValueError("tilt does not match coarse trajectory")
    cp = coarse_params(params, tilt)
    h = 1.0 / n
    slope_weight = cp.delta_hat * cp.w_hat
    swf = 0.5 * (slope_weight[1:] + slope_weight[:-1])
    acc = 0.0
    for states, dts, fluxes in windows:
        hat_c = states[:-1]
        mob = cp.delta_hat * hat_c
        mob_f = 0.5 * (mob[:, 1:] + mob[:, :-1])
        if fluxes is None:
            fluxes = optimal_coarse_flux(mob_f, (states[1:] - hat_c) / dts[:, None], h)
        vel = 0.5 * np.sum(_face_kinetic(fluxes[:, 1:-1], mob_f), axis=1) * h
        slp = 0.5 * np.sum(swf * _face_fisher(hat_c / cp.w_hat), axis=1) / h
        acc = _integrate(acc, [vel, slp], dts)
    return acc


def hat_dissipation(hat_traj: CoarseTrajectory, params: SystemParams,
                    tilt: Tilt) -> DissipationBreakdown:
    """Coarse dissipation: minimal kinetic cost of the coarse rate plus coarse slope.

    The velocity part solves the single-species quadratic dual (one elliptic
    problem per interval, a window of them in one batched solve); the slope part
    is the coarse Fisher information with the mixing-weighted mobility.
    Exchange terms vanish on the coarse level.  ``hat_traj`` may also be a
    coarse solve, read window by window as for :func:`dissipation_functional`.
    """
    vel, slp = _hat_terms(_windows(hat_traj), hat_traj.n_cells, params, tilt)
    return DissipationBreakdown(vel, 0.0, slp, 0.0)


def hat_flux_dissipation(hat_traj: CoarseTrajectory, params: SystemParams,
                         tilt: Tilt) -> DissipationBreakdown:
    """Coarse dissipation with the kinetic term evaluated on the stored coarse fluxes.

    ``hat_traj`` may also be a coarse solve, read as for :func:`hat_dissipation`.
    """
    vel, slp = _hat_terms(_windows(hat_traj, lambda J: J), hat_traj.n_cells, params, tilt)
    return DissipationBreakdown(vel, 0.0, slp, 0.0)


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
    return hat_dissipation(coarse_grain_trajectory(traj), params, tilt).total
