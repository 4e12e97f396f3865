"""Many-species linear reaction networks with detailed balance.

A generator splits into a slow part and a fast part scaled by 1/epsilon; both
preserve positivity and total mass (nonnegative off-diagonal entries, zero
column sums) and the assembled generator satisfies detailed balance with
respect to its stationary composition.  Edges with a fast entry are "fast",
edges carried only by the slow part are "slow"; the classification does not
depend on epsilon.

The dissipation is the general case of the network evaluator in
:mod:`edpflow.dissipation`, whose single fast edge is the two-species system:
per-species diffusion terms plus one cosh exchange term per reacting pair,
weighted by the symmetrized rate coefficients kappa_ij = A_ij sqrt(w_j / w_i).
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import null_space

from .core import State, Trajectory, _fields, _read_json, _readonly
from .dissipation import _network_terms, _windows, damped_newton_max
from .solver import SolverConfig, _Solve

__all__ = [
    "MarkovGenerator",
    "GeneratorReport",
    "load_generator",
    "validate_generator",
    "kappa_coefficients",
    "kappa_split",
    "build_detailed_balance_generator",
    "random_detailed_balance_generator",
    "solve_multispecies",
    "MultispeciesBreakdown",
    "multispecies_dissipation",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class MarkovGenerator:
    """Slow/fast generator pair with per-species diffusion constants.

    ``a_slow`` and ``a_fast`` are I x I rate matrices in the convention
    dc/dt = A c (entry (i, j) is the rate from species j into species i),
    with finite entries, and ``delta`` holds one positive finite constant per
    species; one ValueError lists every violation.  The assembled generator
    is a_slow + a_fast / epsilon.
    """

    species: tuple[str, ...]
    a_slow: np.ndarray
    a_fast: np.ndarray
    delta: np.ndarray

    def __post_init__(self):
        a_s = _readonly(self.a_slow)
        a_f = _readonly(self.a_fast)
        d = _readonly(self.delta)
        i = len(self.species)
        problems = [] if i >= 2 else ["need at least two species"]
        for key, m in (("A_slow", a_s), ("A_fast", a_f)):
            if m.shape != (i, i):
                problems.append(f"{key!r} must be a {i}x{i} row-major matrix, got shape {m.shape}")
            elif not np.all(np.isfinite(m)):
                problems.append(f"{key!r} entries must be finite")
        if d.shape != (i,):
            problems.append(f"'delta' must have one entry per species, got shape {d.shape}")
        elif not np.all((d > 0) & (d < np.inf)):
            problems.append("'delta' entries must be positive and finite")
        if problems:
            raise ValueError("; ".join(problems))
        object.__setattr__(self, "species", tuple(str(s) for s in self.species))
        object.__setattr__(self, "a_slow", a_s)
        object.__setattr__(self, "a_fast", a_f)
        object.__setattr__(self, "delta", d)

    @property
    def n_species(self) -> int:
        return len(self.species)

    def assemble(self, epsilon: float) -> np.ndarray:
        if not 0.0 < epsilon < np.inf:
            raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
        return self.a_slow + self.a_fast / epsilon

    def stationary(self, epsilon: float) -> np.ndarray:
        """Normalized nonnegative null vector of the assembled generator.

        Raises if the null space is not one-dimensional (degenerate network).
        """
        ns = null_space(self.assemble(epsilon))
        if ns.shape[1] != 1:
            raise ValueError(
                f"stationary space has dimension {ns.shape[1]}, expected 1"
            )
        w = ns[:, 0]
        w = w * np.sign(w.sum())
        total = w.sum()
        if total == 0:
            raise ValueError("degenerate stationary vector")
        return w / total

    def w_limit(self) -> np.ndarray:
        """Small-scale limit of the stationary composition, evaluated at epsilon = 1e-8."""
        return self.stationary(1e-8)

    def edge_kind(self, i: int, j: int) -> str | None:
        """"fast", "slow", or None for a non-reacting pair."""
        if self.a_fast[i, j] > 0 or self.a_fast[j, i] > 0:
            return "fast"
        if self.a_slow[i, j] > 0 or self.a_slow[j, i] > 0:
            return "slow"
        return None

    def edges(self):
        """Reacting pairs (i < j) with their fast/slow classification."""
        out = []
        for i in range(self.n_species):
            for j in range(i + 1, self.n_species):
                kind = self.edge_kind(i, j)
                if kind is not None:
                    out.append((i, j, kind))
        return out


_SPEC_KEYS = ("species", "A_slow", "A_fast", "delta")


def load_generator(source) -> MarkovGenerator:
    """Build a generator from a JSON document (path or already-parsed dict).

    The schema is strict: exactly the keys ``species`` (names), ``A_slow`` and
    ``A_fast`` (row-major square matrices of finite entries), and ``delta``
    (positive finite array), checked for missing and unknown keys as the
    config keys are, and the values by :class:`MarkovGenerator`.  Violations
    raise a ValueError, "generator spec invalid: ..." listing every offending
    key; so does a path that is missing, a directory, not UTF-8 or not JSON.
    """
    doc = _read_json(source, "generator file") if isinstance(source, (str, Path)) else source
    try:
        species = _fields(doc, _SPEC_KEYS)["species"]
        problems = []
        if not isinstance(species, list) or not all(isinstance(s, str) for s in species):
            problems.append("'species' must be a list of names")
        arrays = []
        for key in _SPEC_KEYS[1:]:
            try:
                arrays.append(np.array(doc[key], dtype=float))
            except (TypeError, ValueError, OverflowError):
                problems.append(f"{key!r} is not numeric")
        if problems:
            raise ValueError("; ".join(problems))
        return MarkovGenerator(tuple(species), *arrays)  # which checks the values
    except (TypeError, ValueError) as exc:
        raise ValueError(f"generator spec invalid: {exc}") from None


@dataclass(frozen=True)
class GeneratorReport:
    """Itemized validation outcome; ``failures`` is empty when the generator is accepted."""

    ok: bool
    failures: tuple[str, ...]
    w_limit: np.ndarray | None
    w_by_epsilon: tuple[tuple[float, np.ndarray], ...]


def validate_generator(gen: MarkovGenerator) -> GeneratorReport:
    """Check sign pattern, column sums, detailed balance, and the stationary limit.

    For each scale epsilon = 1, 1e-1, ..., 1e-6 the stationary composition is
    solved from the null space and detailed balance A_ij w_j = A_ji w_i is
    verified to 1e-12 relative to the entry scale, as the column sums are;
    the sweep must approach a positive limit composition.  Violations are
    reported itemized, never raised.
    """
    tol = 1e-12
    failures = []
    for name, mat in (("A_slow", gen.a_slow), ("A_fast", gen.a_fast)):
        off = mat - np.diag(np.diag(mat))
        if np.any(off < 0):
            failures.append(f"{name}: negative off-diagonal entry")
        colsum = np.abs(mat.sum(axis=0)).max()
        scale = max(1.0, float(np.abs(mat).max()))
        if colsum > tol * scale:
            failures.append(f"{name}: column sums not zero (max {colsum:.3e})")

    w_limit = None
    w_by_eps = []
    try:
        w_limit = gen.w_limit()
    except ValueError as exc:
        failures.append(f"stationary limit: {exc}")
    for eps in (1.0, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        try:
            w = gen.stationary(eps)
        except ValueError as exc:
            failures.append(f"epsilon={eps:g}: {exc}")
            continue
        w_by_eps.append((float(eps), w))
        if np.any(w <= 0):
            failures.append(f"epsilon={eps:g}: stationary vector not positive")
            continue
        a = gen.assemble(eps)
        db = np.abs(a * w[None, :] - a.T * w[:, None]).max()
        scale = max(1.0, float(np.abs(a).max()))
        if db > tol * scale:
            failures.append(
                f"epsilon={eps:g}: detailed balance violated (max defect {db:.3e}, "
                f"tolerance {tol * scale:.3e})"
            )
    if w_limit is not None:
        if np.any(w_limit <= 0):
            failures.append("limit stationary vector not positive componentwise")
        errs = [float(np.max(np.abs(w - w_limit))) for _, w in w_by_eps]
        if errs and errs[-1] > 1e-6:
            failures.append(
                f"stationary vector does not approach its limit (final gap {errs[-1]:.3e})"
            )
        # floor at 1e-9: for scale-independent stationary vectors the gaps are
        # pure null-space roundoff, which grows like machine eps over epsilon
        if len(errs) >= 2 and errs[-1] > errs[0] + 1e-9:
            failures.append("stationary-vector gap grows along the sweep")
    return GeneratorReport(
        ok=not failures,
        failures=tuple(failures),
        w_limit=w_limit,
        w_by_epsilon=tuple(w_by_eps),
    )


def _symmetrized(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """a_ij sqrt(w_j / w_i) off the diagonal, zero on it."""
    kappa = a * np.sqrt(w[None, :] / w[:, None])
    np.fill_diagonal(kappa, 0.0)
    return kappa


def kappa_coefficients(gen: MarkovGenerator, epsilon: float) -> np.ndarray:
    """Symmetrized rate coefficients kappa_ij = A_ij sqrt(w_j / w_i), zero diagonal.

    Symmetric whenever the generator satisfies detailed balance.
    """
    return _symmetrized(gen.assemble(epsilon), gen.stationary(epsilon))


def kappa_split(gen: MarkovGenerator, epsilon: float):
    """Slow and fast factors with kappa = kappa_slow + kappa_fast / epsilon.

    Both factors stay bounded uniformly in epsilon because the stationary
    composition converges to a positive limit.
    """
    w = gen.stationary(epsilon)
    return _symmetrized(gen.a_slow, w), _symmetrized(gen.a_fast, w)


def build_detailed_balance_generator(species, w, slow_edges, fast_edges, delta) -> MarkovGenerator:
    """Assemble a generator reversible with respect to the composition ``w``.

    ``slow_edges`` and ``fast_edges`` map pairs (i, j) to positive symmetric
    conductances s; the rates A_ij = s sqrt(w_i / w_j) then satisfy
    A_ij w_j = A_ji w_i by construction, and diagonals are set so column sums
    vanish.  Both parts share the stationary composition, so the assembled
    generator is reversible for every scale.
    """
    w = np.asarray(w, dtype=float)
    w = w / w.sum()
    n = len(species)

    def assemble(edges):
        a = np.zeros((n, n))
        for (i, j), s in edges.items():
            if not s > 0:
                raise ValueError(f"conductance for edge {(i, j)} must be positive")
            a[i, j] = s * np.sqrt(w[i] / w[j])
            a[j, i] = s * np.sqrt(w[j] / w[i])
        np.fill_diagonal(a, 0.0)
        a[np.diag_indices(n)] = -a.sum(axis=0)
        return a

    return MarkovGenerator(tuple(species), assemble(slow_edges), assemble(fast_edges), delta)


def random_detailed_balance_generator(rng, n_species: int = 4) -> MarkovGenerator:
    """Seeded reversible network: a chain closed into a cycle, first edge fast.

    The cycle matters for validation tests: on a tree every rate assignment is
    reversible with respect to its own stationary vector, so only a cyclic
    network can expose a detailed-balance violation.
    """
    if n_species < 3:
        raise ValueError("need at least three species to close a cycle")
    w = rng.uniform(0.5, 2.0, n_species)
    fast_edges = {(0, 1): float(rng.uniform(0.5, 2.0))}
    slow_edges = {
        (i, i + 1): float(rng.uniform(0.5, 2.0)) for i in range(1, n_species - 1)
    }
    slow_edges[(0, n_species - 1)] = float(rng.uniform(0.5, 2.0))
    delta = rng.uniform(0.5, 2.0, n_species)
    species = tuple(f"X{i + 1}" for i in range(n_species))
    return build_detailed_balance_generator(species, w, slow_edges, fast_edges, delta)


def _generator_exp(a: np.ndarray) -> np.ndarray:
    """exp(a) of a rate matrix a (nonnegative off-diagonal entries) from matrix products.

    Uniformization with scaling and squaring: with rho = max(-diag a) and the
    least s >= 0 with rho / 2**s <= 4, b = (a + rho I) / 2**s is entrywise
    nonnegative, so its Taylor series sums without cancellation until a term
    no longer changes the sum, and exp(a) = (exp(-rho / 2**s) exp(b))**(2**s).
    The result is entrywise nonnegative.  No LAPACK solve runs: scipy's
    ``expm`` solves its Pade system through OpenBLAS, which leaves a worker
    thread spinning for about 0.13 s of CPU after each call.
    """
    if not np.all(np.isfinite(a)):
        raise ValueError("generator entries must be finite")
    rho = max(float(-np.diag(a).min()), 0.0)
    s = math.ceil(math.log2(rho / 4.0)) if rho > 4.0 else 0
    scale = 2.0 ** -s
    b = (a + rho * np.eye(len(a))) * scale
    total = term = np.eye(len(a))
    for k in itertools.count(1):
        term = term @ b / k
        # equal_nan ends the sum also for a non-rate matrix whose terms overflow
        if np.array_equal(total + term, total, equal_nan=True):
            break
        total = total + term
    p = total * math.exp(-rho * scale)
    for _ in range(s):
        p = p @ p
    return p


def _multispecies_solve(initial: State, gen: MarkovGenerator, epsilon: float,
                        config: SolverConfig) -> _Solve:
    if initial.n_species != gen.n_species:
        raise ValueError(
            f"state has {initial.n_species} species, generator {gen.n_species}"
        )
    propagator = _generator_exp(gen.assemble(epsilon) * (0.5 * config.dt_effective))

    sums = np.empty(initial.n_cells)

    def half(c, d):
        np.subtract(np.matmul(propagator, c, d), c, d)
        # centred, so that the propagator's column sums (1 up to roundoff) move no mass
        np.subtract(d, np.divide(np.add.reduce(d, 0, None, sums), len(d), sums), d)

    return _Solve("solve_multispecies", initial.c, config, gen.delta[:, None], 0.0, half)


def solve_multispecies(initial: State, gen: MarkovGenerator, epsilon: float,
                       config: SolverConfig) -> Trajectory:
    """Strang-split integration of the I-species reaction-diffusion system.

    The reaction half step applies the exact exponential of the assembled
    generator (uniformization with scaling and squaring on the I x I matrix,
    from matrix products alone, shared by all cells; the propagator is
    entrywise nonnegative) and adds the amounts it moves, centred over the
    species, to the state; the diffusion step advances all species with one
    solve per step against a matrix factored once per run: implicit Euler
    for the scheme "strang_exact_reaction", Crank-Nicolson for "strang_cn".
    Total mass is conserved to roundoff per step, without a drift that grows
    with the propagator's column-sum error, and the implicit-Euler scheme
    preserves positivity; recorded fluxes satisfy the discrete continuity
    equation with reaction fluxes summing to zero over the species.

    The stepping loop is that of :func:`~edpflow.solve_eps_system`: the
    states come out as if each had passed the nonnegativity guard (roundoff
    negatives are clamped to zero, genuine ones raise
    :class:`~edpflow.IntegrationError`); a block of steps is checked once and
    stepped again under the guard from the first state in it that is not
    finite and positive.  Each solve writes one DEBUG record on the
    ``edpflow.solver`` logger: ``solve_multispecies: N steps in 1 windows``,
    followed by how many steps the guard clamped and, if it guarded any, how
    many steps it guarded and how many of those it stepped twice.
    """
    return _multispecies_solve(initial, gen, epsilon, config).result()


@dataclass(frozen=True)
class MultispeciesBreakdown:
    """Dissipation terms with the exchange contributions split by edge class."""

    vel_diff: float
    vel_react_slow: float
    vel_react_fast: float
    slope_diff: float
    slope_react_slow: float
    slope_react_fast: float

    @property
    def vel_react(self) -> float:
        return self.vel_react_slow + self.vel_react_fast

    @property
    def slope_react(self) -> float:
        return self.slope_react_slow + self.slope_react_fast

    @property
    def total(self) -> float:
        return self.vel_diff + self.vel_react + self.slope_diff + self.slope_react


def multispecies_dissipation(traj: Trajectory, gen: MarkovGenerator,
                             epsilon: float) -> MultispeciesBreakdown:
    """Time-integrated dissipation of an I-species trajectory.

    Diffusion slope per species, one cosh exchange term per reacting pair
    weighted by kappa_ij, and the velocity part by the I-species dual
    maximization, from the evaluator behind
    :func:`~edpflow.dissipation.dissipation_functional` (which is its case
    of one fast edge); exchange contributions are reported separately for
    slow and fast edges.  ``traj`` may also be a solve, read window by
    window (see :meth:`edpflow.solver._Solve.windows`), with the terms of
    the stored trajectory, bit for bit.
    """
    if traj.states.shape[1] != gen.n_species:
        raise ValueError(f"trajectory has {traj.states.shape[1]} species, generator {gen.n_species}")
    w = gen.stationary(epsilon)
    kappa = _symmetrized(gen.assemble(epsilon), w)
    edges = [(i, j, kappa[i, j]) for i, j, _ in gen.edges()]
    fast = np.array([kind == "fast" for *_, kind in gen.edges()])
    w_cells = np.repeat(w[:, None], traj.n_cells, axis=1)
    out = _network_terms(_windows(traj), w_cells, gen.delta, edges, [~fast, fast],
                         log=logger, newton=damped_newton_max)
    return MultispeciesBreakdown(*out)
