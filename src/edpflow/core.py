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

import functools
import logging
import time
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

logger = logging.getLogger(__name__)

# values per chunk of the species sums that FluxAssignment checks
_SUM_CHUNK_VALUES = 1 << 14


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


def _species_sums(b: np.ndarray):
    """``b.sum(axis=-2)`` in chunks over the leading axes, without a full-size temporary."""
    flat = b.reshape((-1,) + b.shape[-2:])
    step = max(1, _SUM_CHUNK_VALUES // max(1, b.shape[-1]))
    for i in range(0, flat.shape[0], step):
        yield flat[i : i + step].sum(axis=-2)


def _interval_windows(unit: int, times, states, *per_interval):
    """Views ``(times, states, *per_interval)`` of consecutive windows of ``unit`` intervals,
    the last the rest; as in a solve's, a window's first level is the last one's last."""
    for s in range(0, times.size - 1, unit):
        yield times[s:s + unit + 1], states[s:s + unit + 1], *(a[s:s + unit] for a in per_interval)


def _check_fluxes(J: np.ndarray, b: np.ndarray):
    """The invariants of a :class:`FluxAssignment`: face and cell shapes, zero
    boundary faces, reaction fluxes summing to zero across species."""
    if J.ndim < 2 or b.ndim < 2 or J.shape[:-1] != b.shape[:-1]:
        raise ValueError(f"inconsistent flux shapes J {J.shape}, b {b.shape}")
    if J.shape[-1] != b.shape[-1] + 1:
        raise ValueError(
            f"J must live on faces (n_cells+1), got J {J.shape} vs b {b.shape}"
        )
    if np.any(J[..., 0] != 0.0) or np.any(J[..., -1] != 0.0):
        raise ValueError("boundary faces must carry zero flux")
    tol = 1e-12 * max(1.0, _abs_max(b))
    if any(_any_abs_above(bsum, tol) for bsum in _species_sums(b)):
        worst = np.max([np.max(np.abs(bsum)) for bsum in _species_sums(b)])
        raise ValueError(
            f"reaction fluxes must sum to zero across species (max {worst:.3e})"
        )


def _check_trajectory(t: np.ndarray, s: np.ndarray, J):
    """The invariants of a :class:`Trajectory` but its start at time 0.

    So a solver can check each window of a trajectory it hands out without
    storing the whole.  ``J`` is the face flux array, or None.
    """
    if t.ndim != 1 or t.size < 2 or np.any(np.diff(t) <= 0):
        raise ValueError("times must be strictly increasing and start at 0")
    if s.ndim != 3 or s.shape[0] != t.size:
        raise ValueError(f"states shape {s.shape} does not match {t.size} times")
    if not _finite_nonnegative(s):
        raise ValueError("trajectory states must be finite and nonnegative")
    if J is not None and (J.ndim != 3 or J.shape[0] != t.size - 1
                          or J.shape[1:] != (s.shape[1], s.shape[2] + 1)):
        raise ValueError(f"flux shape {J.shape} does not match trajectory {s.shape}")


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
        _check_fluxes(J, b)
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
        _check_trajectory(t, s, None if self.fluxes is None else self.fluxes.J)
        if t[0] != 0.0:
            raise ValueError("times must be strictly increasing and start at 0")
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

    def windows(self, unit: int):
        """Views ``(times, states[, J, b])`` of ``unit`` intervals, read as a solve is
        (see :meth:`edpflow.solver._Solve.windows`)."""
        f = self.fluxes
        return _interval_windows(unit, self.times, self.states, *(() if f is None else (f.J, f.b)))


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
# rows per block of trajectory_to_csv: bounds the writer's working set (about
# 2 kB per row) whatever the trajectory's length.  4096 rows were no faster
# and kept about 6 MB more resident after the first file.
_CSV_BLOCK_ROWS = 1024
# blocks per window that trajectory_to_csv reads from a solve: a window costs
# about as much as a step, and its buffers stay below half a megabyte
_CSV_WINDOW_BLOCKS = 8

# _format_g17 lays each value out in 32 zero-padded bytes, four little-endian
# words, and the zero bytes are dropped when the fields are joined:
#   0-1  separator written before the field
#   2    '-'
#   3-7  '0.' and up to three zeros, for values below 1e-1 in fixed notation
#   8-25 the 17 digits, trailing zeros cleared, with the decimal point inserted
#   26-30 'e', exponent sign, two or three exponent digits
_G17_WORDS = 4
_G17_WORD = np.dtype("<u8")
# |v| in this range scales to 17 digits without overflow or subnormals, by
# 10^p with p in the table's range
_G17_MIN, _G17_MAX = 1e-290, 1e290
_G17_POW_MIN, _G17_POW_MAX = -280, 308
# fractions of y within this of 1/2 or of an integer are not certified where
# 10^p is inexact; the double-double's error is below 2^-47 there (y < 2^57)
_G17_MARGIN = 2.0**-30
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant


def _power_of_ten(p: int) -> tuple[float, float]:
    """``10^p = hi + lo``, ``hi`` correctly rounded and ``lo`` the rounded remainder.

    Both come from exact integer arithmetic and Python's correctly rounded
    integer division.
    """
    if p >= 0:
        hi = float(10**p)
        return hi, float(10**p - int(hi))
    d = 10**-p
    hi = 1 / d
    num, den = hi.as_integer_ratio()
    return hi, (den - num * d) / (den * d)


def _words(text: np.ndarray) -> np.ndarray:
    """Little-endian words of byte rows; a row of 8m bytes gives m words."""
    return np.ascontiguousarray(text.astype(np.uint8)).view(_G17_WORD)


@functools.cache
def _g17_tables() -> dict:
    """Powers of ten as split double-doubles, and the word tables of the layout.

    Built on first use.  ``hi`` of each power of ten is also Veltkamp-split,
    on its mantissa so the split cannot overflow.
    """
    hi, lo = np.array([_power_of_ten(p) for p in range(_G17_POW_MIN, _G17_POW_MAX + 1)]).T
    m, e = np.frexp(hi)
    t = _SPLIT * m
    m_hi = t - (t - m)
    g = np.arange(10000)
    digits = ord("0") + np.stack([g // 10 ** (3 - j) % 10 for j in range(4)], axis=1)
    # bytes j of the digit string (field bytes 8-31) against a count c = 0..17
    j, c = np.arange(24), np.arange(18)[:, None]
    # '0.' and -k - 1 zeros at bytes 3-7 for k = -1..-4
    prefix = np.zeros((5, 8))
    for n in range(1, 5):
        prefix[n, 3:5] = ord("0"), ord(".")
        prefix[n, 5 : 4 + n] = ord("0")
    # 'e', sign and exponent digits at bytes 26-30 for k outside the fixed range
    exponent = np.zeros((_G17_POW_MAX - _G17_POW_MIN + 2, 8))
    for i, k in enumerate(range(16 - _G17_POW_MAX, 18 - _G17_POW_MIN)):
        if not -4 <= k < 17:
            text = b"e%+03d" % k
            exponent[i, 2 : 2 + len(text)] = list(text)
    tables = {
        "hi": hi, "lo": lo, "hi_hi": np.ldexp(m_hi, e), "hi_lo": np.ldexp(m - m_hi, e),
        # four ASCII digits of a group, the first in the lowest byte
        "group": _words(np.pad(digits, ((0, 0), (0, 4))))[:, 0],
        # trailing zeros of a group, 4 for 0000
        "zeros": sum((g % 10**n == 0).astype(np.int64) for n in range(1, 5)),
        # digit string: the first c bytes kept
        "keep": _words(255 * (j < c)).T,
        # decimal point after digit c (17: none): bytes 0..c stay, byte c + 1
        # takes the point, later bytes move up by one
        "low": _words(255 * (j <= c)).T,
        "high": _words(255 * ((j >= c + 2) & (j < 18))).T,
        "point": _words(ord(".") * ((j == c + 1) & (c < 17))).T,
        "prefix": _words(prefix)[:, 0],
        "minus": _words(np.outer([0, ord("-")], np.arange(8) == 2))[:, 0],
        "exponent": _words(exponent)[:, 0],
    }
    for name, a in tables.items():
        tables[name] = np.ascontiguousarray(a)
        tables[name].setflags(write=False)
    return tables


def _scaled(a, p, tab):
    """``a * 10^p`` as ``hi + lo``: Dekker's exact product with the split ``hi`` of ``10^p``."""
    i = p - _G17_POW_MIN
    ph, ph_hi, ph_lo = tab["hi"][i], tab["hi_hi"][i], tab["hi_lo"][i]
    t = _SPLIT * a
    a_hi = t - (t - a)
    a_lo = a - a_hi
    hi = a * ph
    err = ((a_hi * ph_hi - hi) + a_hi * ph_lo + a_lo * ph_hi) + a_lo * ph_lo
    return hi, err + a * tab["lo"][i]


def _decade_step(hi, lo):
    """+1 where ``hi + lo >= 1e17``, -1 where it is below 1e16, else 0."""
    above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0.0))
    below = (hi < 1e16) | ((hi == 1e16) & (lo < 0.0))
    return above.view(np.int8) - below.view(np.int8)


def _decimal_digits(v: np.ndarray, tab: dict):
    """17-digit integers ``d`` and exponents ``k`` with ``|v| ~ d * 10^(k - 16)``.

    Also returns which values are certified: zeros (``d = k = 0``) and
    values whose rounding the double-double product decides.
    """
    a = np.abs(v)
    zero = a == 0.0
    ok = (a >= _G17_MIN) & (a <= _G17_MAX)
    a = np.where(ok, a, 1.0)  # the others run through as 1.0, so nothing overflows
    k = np.floor(np.log10(a)).astype(np.int64)
    hi, lo = _scaled(a, 16 - k, tab)
    # log10 may miss the decade by one next to a power of ten
    step = _decade_step(hi, lo)
    fix = np.flatnonzero(step)
    if fix.size:
        k[fix] += step[fix]
        hi[fix], lo[fix] = _scaled(a[fix], 16 - k[fix], tab)
        miss = fix[_decade_step(hi[fix], lo[fix]) != 0]
        ok[miss] = False  # not seen; Python formats them
        hi[miss], lo[miss] = 1e16, 0.0
    whole = np.floor(lo)
    f = lo - whole
    half = np.abs(f - 0.5)
    exact = (k >= -6) & (k <= 16)  # 10^(16 - k) is a double for 0 <= 16 - k <= 22
    ok &= (half != 0.0) & (exact | ((half >= _G17_MARGIN) & (half <= 0.5 - _G17_MARGIN)))
    d = hi.astype(np.int64) + whole.astype(np.int64) + (f > 0.5)
    carry = d == 10**17
    d[carry] = 10**16
    k += carry
    d[zero] = 0
    k[zero] = 0
    return d, k, ok | zero


def _format_g17(values: np.ndarray, sep: bytes) -> tuple[np.ndarray, int]:
    """``sep + '%.17g' % v`` for every value, as zero-padded ASCII fields.

    Returns little-endian words of shape ``values.shape + (4,)`` (the layout
    above; ``sep`` has at most two bytes) and the number of values handed to
    Python's formatter.  A value with |v| in [1e-290, 1e290] is scaled to
    ``y = |v| * 10^(16 - k)`` in [1e16, 1e17) as a double-double and rounded
    to 17 digits; the scaling is exact for 0 <= 16 - k <= 22.  Exact ties,
    and elsewhere fractions of y within 2^-30 of 1/2 or of an integer, go to
    Python's formatter, as do inf, NaN and values outside that range.  Zeros
    are written directly.
    """
    tab = _g17_tables()
    v = np.asarray(values, dtype=float).ravel()
    d, k, ok = _decimal_digits(v, tab)

    # 17 digits: the leading one and four groups of four
    lead = d // 10**16
    r = d - lead * 10**16
    groups = []
    for scale in (10**12, 10**8, 10**4):
        g = r // scale
        groups.append(g)
        r -= g * scale
    groups.append(r)
    zeros = tab["zeros"]
    trailing = zeros[groups[0]]
    for g in groups[1:]:
        trailing = np.where(g == 0, trailing + 4, zeros[g])
    nd = 17 - trailing  # significant digits
    # the digit string as three words, digit j at byte j
    g1, g2, g3, g4 = (tab["group"][g] for g in groups)
    s = [(lead + ord("0")).astype(_G17_WORD) | g1 << 8 | g2 << 40,
         g2 >> 24 | g3 << 8 | g4 << 40,
         g4 >> 24]
    # %g: fixed notation for -4 <= k < 17 with all integer digits kept
    fixed = (k >= -4) & (k < 17)
    small = fixed & (k < 0)
    point = fixed & (k >= 0)
    keep = np.where(point, np.maximum(nd, k + 1), nd)
    # the digit the decimal point follows, 17 for none
    at = np.where(point, k, 0)
    at = np.where(~small & (nd > at + 1), at, 17)
    s = [word & tab["keep"][w][keep] for w, word in enumerate(s)]
    shifted = [s[0] << 8, s[1] << 8 | s[0] >> 56, s[2] << 8 | s[1] >> 56]
    out = np.empty((v.size, _G17_WORDS), _G17_WORD)
    for w in range(3):
        out[:, 1 + w] = (s[w] & tab["low"][w][at]) | (shifted[w] & tab["high"][w][at]) | \
            tab["point"][w][at]
    out[:, 0] = _words(np.frombuffer(sep.ljust(8, b"\0"), np.uint8))[0] | \
        tab["minus"][np.signbit(v).view(np.int8)] | tab["prefix"][np.where(small, -k, 0)]
    out[:, 3] |= tab["exponent"][k - (16 - _G17_POW_MAX)]

    rest = np.flatnonzero(~ok)
    text = out.view(np.uint8).reshape(v.size, 8 * _G17_WORDS)
    for i in rest.tolist():
        python = ("%.17g" % v[i]).encode()
        text[i, 2:] = 0
        text[i, 2 : 2 + len(python)] = np.frombuffer(python, np.uint8)
    return out.reshape(np.shape(values) + (_G17_WORDS,)), rest.size


def trajectory_to_csv(traj: Trajectory, path) -> Path:
    """Write a two-species trajectory as CSV, one row per (time, cell).

    ``traj`` is a stored :class:`Trajectory` or a two-species solve (see
    :meth:`edpflow.solver._Solve.windows`); a solve is written as its
    windows arrive and is never held whole, and its file is byte for byte
    that of the stored solve.

    Columns are ``t, x, c1, c2`` and, when fluxes are present (a solve's
    windows always carry them), ``J1, J2, b1, b2``.  Flux columns on the
    rows of time ``t[m]`` hold the values of the interval ``[t[m], t[m+1])``;
    the J columns carry the flux on the left face of each cell (the right
    boundary face is identically zero).  Rows of the final time carry zero
    flux columns.  Values are written as ``'%.17g' % value`` writes them, so
    a round trip is bit-exact, and rows end in ``\\r\\n`` (the ``csv``
    module's default dialect).

    The trajectory, stored or solved, is read in windows of eight blocks.
    Each window's rows are written in blocks of whole time
    levels, and each block's values are formatted with array operations:
    scaled to 17 digits as a double-double product with a power of ten,
    rounded, and laid out as ``%g`` does.  A value whose rounding this
    cannot certify (an exact tie, or a fraction within 2^-30 of 1/2 or of an
    integer when the power of ten is inexact), inf, NaN, and |values| outside
    [1e-290, 1e290] (subnormals included) are formatted by Python instead;
    zeros are written directly.  Times and cell centres are formatted once
    per file.  One DEBUG record per file gives the values written, how many
    went to Python, the size and the time taken.
    """
    path = Path(path)
    for _ in _csv_windows(traj, path):
        pass
    return path


def _csv_windows(traj, path: Path):
    """:func:`trajectory_to_csv`, yielding each window once written, so a caller can reduce it too."""
    if traj.states.shape[1:-1] != (2,):
        raise ValueError("CSV layout is fixed to two species")
    start = time.perf_counter()
    n = traj.n_cells
    # each row starts with the line break that ends the row before it
    t_fields, fallback = _format_g17(traj.times, b"\r\n")
    x_fields, count = _format_g17((np.arange(n) + 0.5) / n, b",")
    fallback += count
    levels = max(1, _CSV_BLOCK_ROWS // n)  # per block: whole levels, one at least
    header, done = None, 0  # levels written
    with path.open("wb") as fh:
        for window in traj.windows(_CSV_WINDOW_BLOCKS * levels):
            _, states, *fluxes = window
            if header is None:
                header = _CSV_BASE + (_CSV_FLUX if fluxes else ())
                size = fh.write(",".join(header).encode())
            # a window's last level is the next window's first, or the final time
            k = states.shape[0] - 1
            for m0 in range(0, k, levels):
                m = slice(m0, min(m0 + levels, k))
                rows, count = _csv_rows(t_fields[done + m.start:done + m.stop], states[m],
                                        [f[m] for f in fluxes], x_fields, len(header))
                size += fh.write(rows)
                fallback += count
            done += k
            yield window
        rows, count = _csv_rows(t_fields[done:], states[-1:], [], x_fields, len(header))
        size += fh.write(rows + b"\r\n")
        fallback += count
    logger.debug("trajectory_to_csv: %d values (%d formatted by Python), %.1f MB in %.3f s to %s",
                 len(t_fields) * n * len(header), fallback, size / 1e6,
                 time.perf_counter() - start, path)


def _csv_rows(t_fields, states, fluxes, x_fields, width: int) -> tuple[bytes, int]:
    """The CSV rows of a block of time levels and how many values Python formatted.

    ``t_fields`` and ``x_fields`` are the levels' times and the cell centres
    formatted by :func:`_format_g17`; ``fluxes`` holds the levels' J and b,
    or is empty for zero flux columns (or none, if ``width`` has no room for
    them).
    """
    k, n = states.shape[0], states.shape[2]
    values = np.zeros((k, n, width - 2))
    values[..., 0:2] = states.transpose(0, 2, 1)
    for col, f in zip((2, 4), fluxes):
        values[..., col:col + 2] = f[..., :n].transpose(0, 2, 1)  # J: left faces only
    buf = np.empty((k, n, width, _G17_WORDS), _G17_WORD)
    buf[:, :, 0] = t_fields[:, None]
    buf[:, :, 1] = x_fields
    buf[:, :, 2:], count = _format_g17(values, b",")
    return buf.tobytes().translate(None, b"\0"), count


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
