import numpy as np
import pytest

from edpflow import SpatialGrid, State, SystemParams, Tilt


@pytest.fixture
def params():
    return SystemParams((1.0, 2.0), 1.0, 3.0, epsilon=0.1)


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


def cosine_tilt(n_cells, coeffs):
    """Tilt with V_i(x) = sum_m coeffs[i][m] cos((m+1) pi x)."""
    grid = SpatialGrid(n_cells)

    def pot(row):
        return lambda x: sum(a * np.cos((m + 1) * np.pi * x) for m, a in enumerate(row))

    return Tilt.from_callables(grid, [pot(r) for r in coeffs])


def positive_state(rng, n_cells, lo=0.3, hi=1.5):
    c = rng.uniform(lo, hi, (2, n_cells))
    return State(c / (c.sum() / n_cells))


class Windowed:
    """``traj``, a solve or a stored trajectory, read in windows of ``steps`` steps.

    Whatever window length its reader asks for, so a test can hand a reader
    windows of its own choosing.
    """

    def __init__(self, traj, steps):
        self._traj, self._steps = traj, steps

    def __getattr__(self, name):
        return getattr(self._traj, name)

    def windows(self, unit):
        return self._traj.windows(self._steps)
