"""Finite-volume state space on the unit interval.

Densities are stored as cell averages on a uniform grid over [0, 1] (so the
domain has unit measure and ``h * n_cells == 1`` exactly).  Diffusion fluxes
live on cell faces and the two boundary faces carry identically zero flux,
which builds the no-flux condition and exact mass conservation into the data
layout.  Reaction fluxes live on cells and sum to zero across species.

Everything here is a frozen dataclass wrapping read-only numpy arrays; values
are immutable after construction and safe to share between threads.  The
public constructors copy the arrays they are given, so a caller's later
writes never reach the object.  Solvers instead hand over the output arrays
they allocated themselves: the result adopts them, frozen in place, so it
holds the only copy.  Either way the arrays are read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

__all__ = [
    "SpatialGrid",
    "SystemParams",
    "Tilt",
    "State",
    "FluxAssignment",
    "Trajectory",
    "total_mass",
    "gce_residual",
    "trajectory_to_csv",
    "trajectory_from_csv",
]


class _Owned:
    """A freshly allocated array whose ownership passes to the object built from it.

    The constructor adopts the wrapped array, frozen in place, instead of
    copying it; whoever allocated it must keep no writeable reference.
    """

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array


def _readonly(values, dtype=float):
    """Read-only array: a copy of ``values``, or an :class:`_Owned` array adopted in place."""
    if isinstance(values, _Owned):
        out = np.asarray(values.array, dtype=dtype)
    else:
        out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


def _finite_nonnegative(a: np.ndarray) -> bool:
    """Every entry finite and >= 0, from two reductions rather than full-size masks."""
    return a.size == 0 or bool(a.min() >= 0.0 and np.isfinite(a.max()))


def _abs_max(a: np.ndarray) -> float:
    """max |a|, 0 when empty and NaN if any entry is, without a full-size ``np.abs``."""
    return max(float(a.max()), -float(a.min())) if a.size else 0.0


def _any_abs_above(a: np.ndarray, bound: float) -> bool:
    """Whether some entry has |a| > bound; NaN entries never count, as in ``np.abs(a) > bound``."""
    return a.size > 0 and bool(
        np.fmax.reduce(a, axis=None) > bound or np.fmin.reduce(a, axis=None) < -bound
    )


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform cell grid on [0, 1] with ``n_cells`` cells and ``n_cells + 1`` faces."""

    n_cells: int

    def __post_init__(self):
        if not isinstance(self.n_cells, (int, np.integer)) or self.n_cells < 2:
            raise ValueError(f"n_cells must be an integer >= 2, got {self.n_cells!r}")

    @property
    def h(self) -> float:
        return 1.0 / self.n_cells

    @property
    def n_faces(self) -> int:
        return self.n_cells + 1

    @cached_property
    def cell_centers(self) -> np.ndarray:
        return _readonly((np.arange(self.n_cells) + 0.5) / self.n_cells)

    @cached_property
    def faces(self) -> np.ndarray:
        return _readonly(np.arange(self.n_cells + 1) / self.n_cells)


@dataclass(frozen=True)
class SystemParams:
    """Physical parameters: diffusion constants, exchange rates, and scale separation.

    ``w`` is the spatially constant equilibrium composition of the two-state
    exchange; it is the null vector of the untilted exchange generator.
    """

    delta: tuple[float, float]
    alpha: float
    beta: float
    epsilon: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "delta", tuple(float(d) for d in self.delta))
        if len(self.delta) != 2 or min(self.delta) <= 0:
            raise ValueError(f"delta must be two positive constants, got {self.delta!r}")
        for name in ("alpha", "beta", "epsilon"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")

    @property
    def w(self) -> np.ndarray:
        return _readonly([self.beta, self.alpha]) / (self.alpha + self.beta)

    @property
    def delta_array(self) -> np.ndarray:
        return _readonly(self.delta)


@dataclass(frozen=True, eq=False)
class Tilt:
    """External potential per species, sampled at cell centers and face midpoints.

    ``v_cells`` has shape (n_species, n_cells) and ``v_faces`` shape
    (n_species, n_cells + 1).  A zero tilt reproduces the untilted system.
    """

    v_cells: np.ndarray
    v_faces: np.ndarray

    def __post_init__(self):
        vc = _readonly(self.v_cells)
        vf = _readonly(self.v_faces)
        if vc.ndim != 2 or vf.shape != (vc.shape[0], vc.shape[1] + 1):
            raise ValueError(
                f"inconsistent tilt shapes: cells {vc.shape}, faces {vf.shape}"
            )
        if not (np.all(np.isfinite(vc)) and np.all(np.isfinite(vf))):
            raise ValueError("tilt values must be finite")
        object.__setattr__(self, "v_cells", vc)
        object.__setattr__(self, "v_faces", vf)

    @property
    def n_species(self) -> int:
        return self.v_cells.shape[0]

    @property
    def n_cells(self) -> int:
        return self.v_cells.shape[1]

    @classmethod
    def zero(cls, n_cells: int, n_species: int = 2) -> "Tilt":
        return cls(np.zeros((n_species, n_cells)), np.zeros((n_species, n_cells + 1)))

    @classmethod
    def from_callables(cls, grid: SpatialGrid, potentials) -> "Tilt":
        """Sample smooth potentials, one callable per species, on cells and faces."""
        xc, xf = grid.cell_centers, grid.faces
        vc = np.array([np.asarray(p(xc), dtype=float) + np.zeros_like(xc) for p in potentials])
        vf = np.array([np.asarray(p(xf), dtype=float) + np.zeros_like(xf) for p in potentials])
        return cls(vc, vf)


@dataclass(frozen=True, eq=False)
class State:
    """Per-species, per-cell nonnegative densities; shape (n_species, n_cells)."""

    c: np.ndarray

    def __post_init__(self):
        c = _readonly(self.c)
        if c.ndim != 2 or c.shape[0] < 2 or c.shape[1] < 2:
            raise ValueError(f"state must have shape (n_species>=2, n_cells>=2), got {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("state densities must be finite")
        if np.any(c < 0):
            raise ValueError(f"negative density (min {c.min():g})")
        object.__setattr__(self, "c", c)

    @property
    def n_species(self) -> int:
        return self.c.shape[0]

    @property
    def n_cells(self) -> int:
        return self.c.shape[1]


def total_mass(state: State) -> float:
    """Total measure carried by the state, sum over species and cells times h."""
    return float(state.c.sum() / state.c.shape[1])


@dataclass(frozen=True, eq=False)
class FluxAssignment:
    """Diffusion fluxes on faces plus reaction fluxes on cells.

    ``J`` has shape (..., n_species, n_cells + 1) with zero boundary columns,
    ``b`` has shape (..., n_species, n_cells) and sums to zero across species.
    A leading time-interval axis is allowed so one object can carry the fluxes
    of a whole trajectory.
    """

    J: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        J = _readonly(self.J)
        b = _readonly(self.b)
        if J.ndim < 2 or b.ndim < 2 or J.shape[:-1] != b.shape[:-1]:
            raise ValueError(f"inconsistent flux shapes J {J.shape}, b {b.shape}")
        if J.shape[-1] != b.shape[-1] + 1:
            raise ValueError(
                f"J must live on faces (n_cells+1), got J {J.shape} vs b {b.shape}"
            )
        if np.any(J[..., 0] != 0.0) or np.any(J[..., -1] != 0.0):
            raise ValueError("boundary faces must carry zero flux")
        bsum = b.sum(axis=-2)
        tol = 1e-12 * max(1.0, _abs_max(b))
        if _any_abs_above(bsum, tol):
            raise ValueError(
                f"reaction fluxes must sum to zero across species (max {np.max(np.abs(bsum)):.3e})"
            )
        object.__setattr__(self, "J", J)
        object.__setattr__(self, "b", b)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time series of states, optionally with per-interval fluxes.

    ``times`` is strictly increasing with ``times[0] == 0``; ``states`` has
    shape (n_times, n_species, n_cells); fluxes, when present, have one entry
    per interval (leading axis ``n_times - 1``).
    """

    times: np.ndarray
    states: np.ndarray
    fluxes: FluxAssignment | None = None

    def __post_init__(self):
        t = _readonly(self.times)
        s = _readonly(self.states)
        if t.ndim != 1 or t.size < 2 or t[0] != 0.0 or np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing and start at 0")
        if s.ndim != 3 or s.shape[0] != t.size:
            raise ValueError(f"states shape {s.shape} does not match {t.size} times")
        if not _finite_nonnegative(s):
            raise ValueError("trajectory states must be finite and nonnegative")
        if self.fluxes is not None:
            J = self.fluxes.J
            if J.ndim != 3 or J.shape[0] != t.size - 1 or J.shape[1:] != (
                s.shape[1],
                s.shape[2] + 1,
            ):
                raise ValueError(
                    f"flux shape {J.shape} does not match trajectory {s.shape}"
                )
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", s)

    @property
    def n_times(self) -> int:
        return self.times.size

    @property
    def n_species(self) -> int:
        return self.states.shape[1]

    @property
    def n_cells(self) -> int:
        return self.states.shape[2]

    def state(self, m: int) -> State:
        return State(self.states[m])

    @property
    def initial_state(self) -> State:
        return State(self.states[0])

    @property
    def final_state(self) -> State:
        return State(self.states[-1])


def gce_residual(traj: Trajectory) -> np.ndarray:
    """Residual of the discrete generalized continuity equation.

    Returns ``r[m, j, k] = (c[m+1] - c[m]) / dt + div J[m] - b[m]`` with the
    cellwise face divergence ``(J[k+1] - J[k]) / h``.  Exact zero means the
    trajectory's fluxes reproduce its density increments identically.
    """
    if traj.fluxes is None:
        raise ValueError("no flux data: trajectory carries no FluxAssignment")
    c = traj.states
    dt = np.diff(traj.times)[:, None, None]
    h = 1.0 / traj.n_cells
    dcdt = (c[1:] - c[:-1]) / dt
    div = (traj.fluxes.J[..., 1:] - traj.fluxes.J[..., :-1]) / h
    return dcdt + div - traj.fluxes.b


_CSV_BASE = ("t", "x", "c1", "c2")
_CSV_FLUX = ("J1", "J2", "b1", "b2")
_CSV_READ_BYTES = 1 << 20


def trajectory_to_csv(traj: Trajectory, path) -> Path:
    """Write a two-species trajectory as CSV, one row per (time, cell).

    Columns are ``t, x, c1, c2`` and, when fluxes are present,
    ``J1, J2, b1, b2``.  Flux columns on the rows of time ``t[m]`` hold the
    values of the interval ``[t[m], t[m+1])``; the J columns carry the flux on
    the left face of each cell (the right boundary face is identically zero).
    Rows of the final time carry zero flux columns.  Values are written with
    17 significant digits so a round trip is bit-exact, and rows end in
    ``\\r\\n`` (the ``csv`` module's default dialect).  The file is written one
    time level at a time, with one format string per level.
    """
    if traj.n_species != 2:
        raise ValueError("CSV layout is fixed to two species")
    path = Path(path)
    n = traj.n_cells
    x = (np.arange(n) + 0.5) / n
    with_flux = traj.fluxes is not None
    header = _CSV_BASE + (_CSV_FLUX if with_flux else ())
    values = ",%.17g" * (len(header) - 2) + "\r\n"
    # t is spliced in per level; neither it nor x can contain a '%'
    level = "".join("\0,%.17g" % xk + values for xk in x)
    no_flux = np.zeros((4, n))
    with path.open("w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for m, t in enumerate(traj.times):
            cols = [traj.states[m]]
            if with_flux:
                if m < traj.n_times - 1:
                    cols += [traj.fluxes.J[m, :, :n], traj.fluxes.b[m]]
                else:
                    cols.append(no_flux)
            block = np.concatenate(cols).T.ravel().tolist()
            fh.write(level.replace("\0", "%.17g" % t) % tuple(block))
    return path


def trajectory_from_csv(path) -> Trajectory:
    """Read a trajectory written by :func:`trajectory_to_csv`.

    The file is read in blocks of whole rows, and each block's values are
    converted in one call from the split bytes; the conversion is bit-exact
    for the 17-digit values the writer produces.
    """
    blocks = []
    with Path(path).open("rb") as fh:
        header = tuple(fh.readline().decode().rstrip("\r\n").split(","))
        if header not in (_CSV_BASE, _CSV_BASE + _CSV_FLUX):
            raise ValueError(f"unrecognized CSV header {header!r}")
        k = len(header)
        while chunk := fh.readlines(_CSV_READ_BYTES):
            lines = b"".join(chunk).split()
            if any(line.count(b",") != k - 1 for line in lines):
                raise ValueError(f"every row must have {k} fields")
            if lines:
                blocks.append(np.array(b",".join(lines).split(b","), dtype=float).reshape(-1, k))
    if not blocks:
        raise ValueError("empty trajectory file")
    rows = np.concatenate(blocks)
    times, first = np.unique(rows[:, 0], return_index=True)
    times = times[np.argsort(first)]
    n = rows.shape[0] // times.size
    if n * times.size != rows.shape[0]:
        raise ValueError("rows do not form (time, cell) blocks of equal size")
    c = rows[:, 2:4].reshape(times.size, n, 2).transpose(0, 2, 1)
    fluxes = None
    if k == len(_CSV_BASE) + len(_CSV_FLUX):
        cols = rows[:, 4:8].reshape(times.size, n, 4).transpose(0, 2, 1)
        J = np.zeros((times.size - 1, 2, n + 1))
        J[:, :, :n] = cols[:-1, 0:2, :]
        b = cols[:-1, 2:4, :]
        fluxes = FluxAssignment(J, b)
    return Trajectory(times, c, fluxes)
