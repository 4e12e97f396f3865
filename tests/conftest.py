import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import edpflow
from edpflow import SolverConfig, SpatialGrid, State, SystemParams, Tilt


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


def blow_up_case():
    """A solve whose density goes negative at step 1, after a regular step 0.

    Crank-Nicolson does not preserve positivity: at dt = 0.0178 the jump from
    the two filled cells to the empty rest overshoots below zero.
    """
    n = 20
    c0 = np.zeros((2, n))
    c0[:, :2] = np.array([[0.75], [0.25]]) * (n / 2)
    config = SolverConfig(0.0178, 2 * 0.0178, "strang_cn")
    return State(c0), SystemParams((1.0, 2.0), 1.0, 3.0, epsilon=1e-3), Tilt.zero(n), config


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


def fresh_python(code, *args, env=None):
    """Standard output of ``code`` run with ``args`` in a fresh interpreter that
    imports this edpflow; ``env`` replaces the environment, PYTHONPATH aside."""
    env = dict(os.environ if env is None else env)
    src = str(Path(edpflow.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout
