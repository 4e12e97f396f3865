"""The full dual of a network's flux cost, the oracle of the reduced dual's tests.

The evaluators maximize the dual reduced to the potential differences to
species 0 (:func:`edpflow.dissipation._dual`); this is the same objective in
all the potentials, with the constant mode they share, as the tests compare
against it at the potentials the reduced ascent reconstructs.
"""

import numpy as np

from edpflow.functionals import cosh_star, cosh_star_prime, cosh_star_second


def full_dual(c, delta, edges, v, h):
    """Dual objectives of the flux costs of rates v on a reaction network, one per problem.

    ``c`` and ``v`` have shape (M, I, n): a state and a rate per problem.
    Species i diffuses with mobility delta_i cbar_i on interior faces; each
    edge (i, j, kappa) with i < j exchanges through a cosh term of strength
    kappa sqrt(c_i c_j).  Unknowns are cell-interleaved, x[m, I*k + i] =
    xi[m, i, k], so each negative Hessian is banded with bandwidth I: species
    couple within a cell, cells couple within a species.  The Hessian is
    singular along the constant mode.

    Returns ``(value_grad, hess_banded, fluxes)`` as the reduced dual does;
    ``fluxes(x)`` reads off the potentials xi (M, I, n), the face fluxes J
    (M, I, n + 1) and the list of per-edge exchange fluxes (M, n), entering
    species i with + and j with -.
    """
    n_prob, i_sp, n = c.shape
    cs = c.transpose(0, 2, 1)  # per-problem data in the layout of the unknowns
    wdiff = delta * 0.5 * (cs[:, 1:] + cs[:, :-1]) / h
    hv = (h * v).transpose(0, 2, 1).reshape(n_prob, n * i_sp)
    ew = [(i, j, kappa * h * np.sqrt(c[:, i] * c[:, j])) for i, j, kappa in edges]

    def value_grad(x):
        xi = x.reshape(n_prob, n, i_sp)
        dxi = xi[:, 1:] - xi[:, :-1]
        t = wdiff * dxi
        val = np.sum(hv * x, axis=1) - 0.5 * np.sum((t * dxi).reshape(n_prob, -1), axis=1)
        grad_r = np.zeros_like(xi)
        grad_r[:, 1:] += t
        grad_r[:, :-1] -= t
        for i, j, rw in ew:
            u = xi[..., i] - xi[..., j]
            with np.errstate(over="ignore"):
                val -= np.sum(rw * cosh_star(u), axis=1)
                s = rw * cosh_star_prime(u)
            grad_r[..., i] += s
            grad_r[..., j] -= s
        return val, hv - grad_r.reshape(n_prob, -1)

    def hess_banded(x):
        xi = x.reshape(n_prob, n, i_sp)
        ab = np.zeros((i_sp + 1, x.size), order="F")
        bands = ab.reshape(i_sp + 1, n_prob, n, i_sp)
        diag = bands[i_sp]
        diag[:, 1:] += wdiff
        diag[:, :-1] += wdiff
        bands[0, :, 1:] = -wdiff  # same species in the next cell; zero on each block's first cell
        for i, j, rw in ew:
            with np.errstate(over="ignore"):
                r2 = rw * cosh_star_second(xi[..., i] - xi[..., j])
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
