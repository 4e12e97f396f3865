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
import json
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

# values per window, about, of every reader that streams a trajectory, a
# solve or an array in windows: bounds its working set whatever the length.
# The evaluators run one stacked Newton solve per window, so a smaller
# budget means more, smaller solves.
_WINDOW_BUDGET = 1 << 14


class _Owned:
    """A freshly allocated array whose ownership passes to the object built from it.

    The constructor adopts the wrapped array, frozen in place, instead of
    copying it; whoever allocated it must keep no writeable reference.
    """

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array


def _readonly(values):
    """Read-only float array: a copy of ``values``, or an :class:`_Owned` array adopted in place."""
    if isinstance(values, _Owned):
        out = np.asarray(values.array, dtype=float)
    else:
        out = np.array(values, dtype=float)
    out.setflags(write=False)
    return out


def _finite_nonnegative(a: np.ndarray) -> bool:
    """Every entry finite and >= 0, from two reductions rather than full-size masks."""
    return a.size == 0 or bool(a.min() >= 0.0 and np.isfinite(a.max()))


def _abs_max(a: np.ndarray) -> float:
    """max |a|, 0 when empty and NaN if any entry is, without a full-size ``np.abs``."""
    return max(float(a.max()), -float(a.min())) if a.size else 0.0


def _species_sums(b: np.ndarray):
    """``b.sum(axis=-2)`` in chunks over the leading axes, without a full-size temporary;
    one species is its own sum, a view of ``b``."""
    flat = b.reshape((-1,) + b.shape[-2:])
    step = _window_unit(b.shape[-1])
    for i in range(0, flat.shape[0], step):
        chunk = flat[i : i + step]
        yield chunk[:, 0] if chunk.shape[1] == 1 else chunk.sum(axis=-2)


def _window_unit(values_per_level: int, block: int = 1) -> int:
    """Levels per window of ``values_per_level`` values each: the fewest whole
    ``block``s of levels that hold ``_WINDOW_BUDGET`` values."""
    return block * -(-_WINDOW_BUDGET // (block * max(1, values_per_level)))


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
    worst = 0.0  # the largest |sum|, in one pass; fmax and fmin skip NaN sums
    for bsum in _species_sums(b):
        worst = max(worst, np.fmax.reduce(bsum, None, initial=0.0),
                    -np.fmin.reduce(bsum, None, initial=0.0))
    if worst > tol:
        raise ValueError(f"reaction fluxes must sum to zero across species (max {worst:.3e})")


def _check_trajectory(t: np.ndarray, s: np.ndarray, J):
    """The invariants of a :class:`Trajectory` but its start at time 0.

    So a solver can check each window of a trajectory it hands out without
    storing the whole.  ``J`` is the face flux array, or None.
    """
    # diff > 0 is False at a NaN, and increasing times are finite if both ends are
    if t.ndim != 1 or t.size < 2 or not np.all(np.diff(t) > 0) or np.isinf(t[[0, -1]]).any():
        raise ValueError("times must be strictly increasing and finite")
    if s.ndim != 3 or s.shape[0] != t.size:
        raise ValueError(f"states shape {s.shape} does not match {t.size} times")
    if not _finite_nonnegative(s):
        raise ValueError("trajectory states must be finite and nonnegative")
    if J is not None:
        if J.shape != (t.size - 1, s.shape[1], s.shape[2] + 1):
            raise ValueError(f"flux shape {J.shape} does not match trajectory {s.shape}")
        if np.any(J[..., 0] != 0.0) or np.any(J[..., -1] != 0.0):
            raise ValueError("boundary faces must carry zero flux")


def _check_two_species(c, tilt: Tilt | None = None):
    """Raise unless the densities ``c`` (..., I, n) of a state, a trajectory or a solve are
    the fast-slow system's two species and, given ``tilt``, lie on its grid."""
    if c.shape[-2] != 2:
        raise ValueError(f"two-species evaluation, got {c.shape[-2]} species: coarse data go to "
                         "the hat_* functions, networks to multispecies")
    if tilt is not None and tilt.v_cells.shape != c.shape[-2:]:
        raise ValueError(f"tilt shape {tilt.v_cells.shape} does not match state {c.shape[-2:]}")


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
        if len(self.delta) != 2 or not all(0 < d < np.inf for d in self.delta):
            raise ValueError(f"delta must be two positive finite constants, got {self.delta!r}")
        # an infinite rate leaves w = [0, nan], and an infinite epsilon an
        # exchange of strength 0 that the dual ascent cannot evaluate
        for name in ("alpha", "beta", "epsilon"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)!r}")

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

# _format_g17 lays each value out in 32 zero-padded bytes, four little-endian
# words, and the zero bytes are dropped when the fields are joined:
#   word 0     bytes 0-1 the separator written before the field, 2 '-', 3-7
#              '0.' and up to three zeros for values below 1e-1 in fixed
#              notation
#   words 1-3  bytes 8-25 the 17 digits, trailing zeros cleared, with the
#              decimal point inserted; bytes 26-30 'e', exponent sign, two or
#              three exponent digits
# Each word costs one table lookup per value and table: word 0 is looked up
# by (k, sign), the exponent by k, and the masks that keep, shift and insert
# the point by (notation, trailing zeros), notation a function of k.
_G17_WORDS = 4
_G17_WORD = np.dtype("<u8")
# |v| in this range scales to 17 digits without overflow or subnormals, by
# 10^p with p in the table's range
_G17_MIN, _G17_MAX = 1e-290, 1e290
_G17_POW_MIN, _G17_POW_MAX = -280, 308
# the k tables' rows: k = 16 - _G17_POW_MAX .. 17 - _G17_POW_MIN, then a row
# for zeros
_G17_K_MIN, _G17_K_ZERO = 16 - _G17_POW_MAX, 18 - _G17_POW_MIN
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
    # trailing zeros of five digits, 5 for 00000: multiples of 10^j have j or more
    zeros = np.zeros(10**5, np.uint8)
    for j in range(1, 6):
        zeros[:: 10**j] += 1
    k = np.arange(_G17_K_MIN, _G17_K_ZERO + 1)
    # word 0 by (k, sign): '-' at byte 2, and '0.' and -k - 1 zeros at bytes
    # 3-7 for k = -1..-4
    lead = np.zeros((k.size, 2, 8))
    lead[:, 1, 2] = ord("-")
    for n in range(1, 5):
        lead[k == -n, :, 3:5] = ord("0"), ord(".")
        lead[k == -n, :, 5 : 4 + n] = ord("0")
    # the notation of each k: k for k = 0..16, fixed, which keeps at least
    # k + 1 digits and puts the point after digit k unless no digit follows;
    # 17 for '0.ddd', which has no point; 18 for exponent notation, the point
    # after the first digit; 19 for zeros, the first digit alone
    notation = np.select([(k >= 0) & (k < 17), (k >= -4) & (k < 0), k == _G17_K_ZERO],
                         [k, 17, 19], 18)
    # 'e', sign and exponent digits at bytes 26-30 in exponent notation
    exponent = np.zeros((k.size, 8))
    for i in np.flatnonzero(notation == 18):
        text = b"e%+03d" % k[i]
        exponent[i, 2 : 2 + len(text)] = list(text)
    # the digit string's masks by (notation, trailing zeros); bytes past the
    # digits kept are cleared, whatever the digit words hold there
    nd = 17 - np.arange(17)[:, None]  # significant digits
    j = np.arange(24)
    # per notation, the digits kept and the digit the point follows (17: none)
    notations = [(np.maximum(nd, row + 1), row) for row in range(17)]
    notations += [(nd, 17), (nd, 0), (np.ones_like(nd), 17)]
    masks = []
    for keep, after in notations:
        at = np.where(keep > after + 1, after, 17)  # no point before no digit
        masks.append((
            255 * ((j < keep) & (j <= at)),  # bytes up to the point stay
            255 * ((j - 1 < keep) & (j >= at + 2) & (j < 18)),  # later ones move up by one
            ord(".") * ((j == at + 1) & (at < 17)),
        ))
    low, high, point = (_words(np.concatenate(m)).T for m in zip(*masks))
    tables = {
        "hi": hi, "lo": lo, "hi_hi": np.ldexp(m_hi, e), "hi_lo": np.ldexp(m - m_hi, e),
        # four ASCII digits of a group, the first in the lowest byte
        "group": _words(np.pad(digits, ((0, 0), (0, 4))))[:, 0],
        "zeros": zeros,
        "lead": _words(lead.reshape(-1, 8))[:, 0],
        "exponent": _words(exponent)[:, 0],
        # the masks' first row of each k, where a trailing-zero count is added
        "notation": 17 * notation,
        "low": low, "high": high, "point": point,
    }
    for name, a in tables.items():
        tables[name] = np.ascontiguousarray(a)
        tables[name].setflags(write=False)
    return tables


def _scaled(a, k, tab):
    """``a * 10^(16 - k)`` as ``hi + lo``: Dekker's exact product with the split power."""
    i = (16 - _G17_POW_MIN) - k
    ph, ph_hi, ph_lo = tab["hi"].take(i), tab["hi_hi"].take(i), tab["hi_lo"].take(i)
    t = _SPLIT * a
    a_hi = t - (t - a)
    a_lo = a - a_hi
    hi = a * ph
    err = ((a_hi * ph_hi - hi) + a_hi * ph_lo + a_lo * ph_hi) + a_lo * ph_lo
    return hi, err + a * tab["lo"].take(i)


def _decade_step(hi, lo):
    """+1 where ``hi + lo >= 1e17``, -1 where it is below 1e16, else 0."""
    above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0.0))
    below = (hi < 1e16) | ((hi == 1e16) & (lo < 0.0))
    return above.view(np.int8) - below.view(np.int8)


def _decimal_digits(v: np.ndarray, tab: dict):
    """17-digit integers ``d`` and exponents ``k`` with ``|v| ~ d * 10^(k - 16)``.

    Also returns which values are certified: values whose rounding the
    double-double product decides, and zeros, which come out as ``d = 1``
    and ``k = _G17_K_ZERO``.  Each step that only a few values need (out of
    range, a missed decade, a fraction near 1/2 or an integer, a carry, a
    zero) runs on those values alone.
    """
    a = np.abs(v)
    ok = (a >= _G17_MIN) & (a <= _G17_MAX)
    zero = ()
    if not ok.all():
        zero = np.flatnonzero(a == 0.0)
        # the others run through as 3.3: nothing overflows, and its digits,
        # 32999999999999998.22..., take none of the rare steps below
        a[~ok] = 3.3
    k = np.floor(np.log10(a)).astype(np.int64)
    hi, lo = _scaled(a, k, tab)
    # log10 may miss the decade by one next to a power of ten
    edge = np.flatnonzero((hi >= 1e17) | (hi <= 1e16))
    if edge.size:
        step = _decade_step(hi[edge], lo[edge])
        fix = edge[step != 0]
        k[fix] += step[step != 0]
        hi[fix], lo[fix] = _scaled(a[fix], k[fix], tab)
        miss = fix[_decade_step(hi[fix], lo[fix]) != 0]
        ok[miss] = False  # not seen; Python formats them
        hi[miss], lo[miss] = 1e16, 0.0
    whole = np.floor(lo)
    f = lo - whole
    half = np.abs(f - 0.5)
    # certified: a fraction clear of 1/2 and of an integer by the margin, or,
    # where 10^(16 - k) is a double (0 <= 16 - k <= 22), anything but a tie
    near = np.flatnonzero((half < _G17_MARGIN) | (half > 0.5 - _G17_MARGIN))
    if near.size:
        ok[near] &= (half[near] != 0.0) & (k[near] >= -6) & (k[near] <= 16)
    d = hi.astype(np.int64)
    d += whole.astype(np.int64)
    d += f > 0.5
    if edge.size:  # y rounds up to 10^17 only from hi = 1e17, a decade edge
        carry = edge[d[edge] == 10**17]
        d[carry] = 10**16
        k[carry] += 1
    if len(zero):
        d[zero], k[zero], ok[zero] = 1, _G17_K_ZERO, True
    return d, k, ok


def _format_g17(values: np.ndarray, sep: bytes, out=None) -> tuple[np.ndarray, int]:
    """``sep + '%.17g' % v`` for every value, as zero-padded ASCII fields.

    Returns little-endian words of shape ``values.shape + (4,)`` (the layout
    above; ``sep`` has at most two bytes), written into ``out`` if given,
    and the number of values handed to Python's formatter.  A value with
    |v| in [1e-290, 1e290] is scaled to ``y = |v| * 10^(16 - k)`` in
    [1e16, 1e17) as a double-double and rounded to 17 digits; the scaling
    is exact for 0 <= 16 - k <= 22.  Exact ties, and elsewhere fractions of
    y within 2^-30 of 1/2 or of an integer, go to Python's formatter, as do
    inf, NaN and values outside that range.  Zeros are written directly.

    Every value takes the same array passes: the scaling and the rounding
    tests, three divisions into the digit groups, and one table lookup per
    word and table.  The trailing zeros of the last five digits come with
    their lookup; those of the values whose last five digits are 0, rare in
    solver output, are counted on through the groups before them.  The rare
    steps of :func:`_decimal_digits` run on the values that need them.
    """
    tab = _g17_tables()
    v = np.asarray(values, dtype=float)
    shape = v.shape
    v = v.ravel()
    if out is None:
        out = np.empty(shape + (_G17_WORDS,), _G17_WORD)
    d, k, ok = _decimal_digits(v, tab)

    # the 17 digits: groups g1..g4 of digits 0-3, 4-7, 8-11 and 12-15, and
    # digit 16; r holds the last five digits
    r = d.view(np.uint64)
    g1 = r // 10**13
    r = r - g1 * 10**13
    g2 = r // 10**9
    r -= g2 * 10**9
    g3 = r // 10**5
    r -= g3 * 10**5
    g4 = r // 10
    group, zeros = tab["group"], tab["zeros"]
    # the digit string as three words, digit j at byte j
    s = [group.take(g1) | group.take(g2) << 32, group.take(g3) | group.take(g4) << 32,
         r + ord("0") - g4 * 10]
    trailing = zeros.take(r)
    more = np.flatnonzero(r == 0)
    if more.size:  # the last five digits are 0: count on through g3, g2, g1
        t = zeros.take(g1[more])  # g1 >= 1000: the first digit is not 0
        for g in (g2[more], g3[more]):
            t = np.where(g == 0, t + 4, zeros.take(g))
        trailing[more] = t + 5

    ik = k - _G17_K_MIN  # the k tables' row
    row = tab["notation"].take(ik)
    row += trailing
    exponent = tab["exponent"].take(ik)
    ik += ik
    ik += np.signbit(v)  # word 0's row: (k, sign)
    lead = tab["lead"] | np.frombuffer(sep.ljust(8, b"\0"), _G17_WORD)[0]
    out[..., 0] = lead.take(ik).reshape(shape)
    # the digit string moved up one byte, digit j at byte j + 1
    shifted = [s[0] << 8, s[1] << 8 | s[0] >> 56, s[2] << 8 | s[1] >> 56]
    for w in range(3):
        word = s[w] & tab["low"][w].take(row)
        word |= shifted[w] & tab["high"][w].take(row)
        if w == 2:
            word |= exponent
        np.bitwise_or(word.reshape(shape), tab["point"][w].take(row).reshape(shape),
                      out=out[..., 1 + w])

    if ok.all():
        return out, 0
    rest = np.flatnonzero(~ok)
    text = out.view(np.uint8)
    for i in rest.tolist():
        field = text[np.unravel_index(i, shape)]
        python = ("%.17g" % v[i]).encode()
        field[2:] = 0
        field[2 : 2 + len(python)] = np.frombuffer(python, np.uint8)
    return out, rest.size


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

    The trajectory, stored or solved, is read in windows of whole blocks
    (see :func:`_window_unit`).  Each window's rows are written in blocks of
    whole time levels, and each block's values are formatted with array
    operations straight into the block's rows: scaled to 17 digits as a
    double-double product with a power of ten, rounded, and laid out as
    ``%g`` does, in the same few passes for every value, one table lookup
    per output word among them; only the values that need it take the rare
    steps (a missed decade, a fraction near a tie, five trailing zeros or
    more, Python's formatter; see :func:`_format_g17`).  A value whose
    rounding this cannot certify (an exact tie, or a fraction within 2^-30
    of 1/2 or of an integer when the power of ten is inexact), inf, NaN, and
    |values| outside [1e-290, 1e290] (subnormals included) are formatted by
    Python instead; zeros are written directly.  Times and cell centres are
    formatted once per file.  One DEBUG record per file gives the values
    written, how many went to Python, the size and the time taken.
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
        for window in traj.windows(_window_unit(traj.states[0].size, levels)):
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
    them).  The values are formatted straight into the rows.
    """
    k, n = states.shape[0], states.shape[2]
    values = np.zeros((k, width - 2, n))
    values[:, 0:2] = states
    for col, f in zip((2, 4), fluxes):
        values[:, col:col + 2] = f[..., :n]  # J: left faces only
    buf = np.empty((k, n, width, _G17_WORDS), _G17_WORD)
    buf[:, :, 0] = t_fields[:, None]
    buf[:, :, 1] = x_fields
    _, count = _format_g17(values, b",", buf[:, :, 2:].transpose(0, 2, 1, 3))
    return buf.tobytes().translate(None, b"\0"), count


def _fields(doc, required, optional=()):
    """``doc``, if it is an object with every key of ``required`` and no key outside ``optional``."""
    if not isinstance(doc, dict):
        raise TypeError(f"must be an object, got {doc!r}")
    missing = [k for k in required if k not in doc]
    unknown = [k for k in doc if k not in required and k not in optional]
    if missing or unknown:
        raise ValueError("; ".join(f"{what} {keys}" for what, keys in
                                   (("missing", missing), ("unknown", unknown)) if keys))
    return doc


def _read_json(path, what: str):
    """The JSON document in the file at ``path``; ValueError, naming ``what``, if none can be read."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ValueError(f"{what} {path} does not exist") from None
    except OSError as exc:
        raise ValueError(f"{what} {path} cannot be read: {exc.strerror}") from None
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ValueError(f"{what} {path} is not valid JSON: {exc}") from None


def trajectory_from_csv(path) -> Trajectory:
    """Read a trajectory written by :func:`trajectory_to_csv`.

    The file is read in blocks of whole rows, and each block's values are
    converted in one call from the split bytes; the conversion is bit-exact
    for the 17-digit values the writer produces.  The rows must come in
    blocks of one time each, as many as the first time's, with the x values
    (k + 0.5) / n in the writer's order; other files raise ValueError.
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
    t = rows[:, 0]
    n = int(np.argmax(t != t[0])) or t.size  # the rows of the first time
    if t.size % n or np.any(t.reshape(-1, n) != t[::n, None]):
        raise ValueError("rows do not form (time, cell) blocks of equal size")
    times = t[::n]
    c = rows[:, 2:4].reshape(times.size, n, 2).transpose(0, 2, 1)
    fluxes = None
    if k == len(_CSV_BASE) + len(_CSV_FLUX):
        cols = rows[:, 4:8].reshape(times.size, n, 4).transpose(0, 2, 1)
        J = np.zeros((times.size - 1, 2, n + 1))
        J[:, :, :n] = cols[:-1, 0:2, :]
        b = cols[:-1, 2:4, :]
        fluxes = FluxAssignment(J, b)
    traj = Trajectory(times, c, fluxes)  # the time checks come first
    if np.any(rows[:, 1].reshape(-1, n) != (np.arange(n) + 0.5) / n):
        raise ValueError("x values are not the cell centres (k + 0.5) / n in order at every time")
    return traj
