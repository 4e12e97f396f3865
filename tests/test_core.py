import csv
import logging
import math
import re
from dataclasses import astuple
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import edpflow.core

from edpflow import (
    FluxAssignment,
    SolverConfig,
    SpatialGrid,
    State,
    SystemParams,
    Tilt,
    Trajectory,
    default_configs,
    dissipation_functional,
    fit_decay_rate,
    flux_dissipation,
    gce_residual,
    hat_dissipation,
    load_config,
    manifold_split,
    run_experiment,
    solve_eps_system,
    total_mass,
    trajectory_from_csv,
    trajectory_to_csv,
)
from edpflow.core import _CSV_BLOCK_ROWS, _window_unit
from edpflow.solver import _effective_solve, _eps_solve

from conftest import Windowed, cosine_tilt


def test_grid_unit_measure():
    for n in (2, 3, 40, 200):
        grid = SpatialGrid(n)
        assert grid.h * grid.n_cells == pytest.approx(1.0, abs=1e-15)
        assert grid.n_faces == n + 1
        assert grid.cell_centers[0] == pytest.approx(grid.h / 2)
        assert np.allclose(np.diff(grid.cell_centers), grid.h)
        assert grid.faces[0] == 0.0 and grid.faces[-1] == pytest.approx(1.0)


def test_grid_rejects_degenerate():
    with pytest.raises(ValueError):
        SpatialGrid(1)
    with pytest.raises(ValueError):
        SpatialGrid(0)


def test_params_weights():
    p = SystemParams((1.0, 2.0), 1.0, 3.0)
    assert np.allclose(p.w, [0.75, 0.25])
    assert p.w.sum() == pytest.approx(1.0)
    for delta in ((1.0, -2.0), (0.0, 1.0), (np.nan, 2.0), (2.0, np.nan), (np.inf, 1.0)):
        with pytest.raises(ValueError, match="delta must be two positive finite constants"):
            SystemParams(delta, 1.0, 3.0)
    with pytest.raises(ValueError):
        SystemParams((1.0, 2.0), 0.0, 3.0)


@pytest.mark.parametrize("rates", [(np.inf, 3.0), (1.0, np.inf), (np.nan, 3.0), (1.0, -np.inf)])
def test_params_reject_nonfinite_rates(rates):
    # an infinite rate left w = [0, nan], and a zero tilt then read as too large
    with pytest.raises(ValueError, match="must be positive and finite"):
        SystemParams((1.0, 2.0), *rates)


def test_state_validation():
    with pytest.raises(ValueError):
        State(np.array([[0.5, -0.1], [0.5, 0.5]]))
    with pytest.raises(ValueError):
        State(np.array([0.5, 0.5]))
    st = State(np.full((2, 4), 0.5))
    assert not st.c.flags.writeable


def test_total_mass_examples():
    assert total_mass(State(np.full((2, 7), 0.5))) == pytest.approx(1.0)
    assert total_mass(State(np.zeros((2, 5)))) == 0.0


def test_tilt_shapes_and_zero():
    tilt = Tilt.zero(6)
    assert tilt.v_cells.shape == (2, 6) and tilt.v_faces.shape == (2, 7)
    grid = SpatialGrid(5)
    t2 = Tilt.from_callables(grid, [np.cos, np.sin])
    assert np.allclose(t2.v_cells[0], np.cos(grid.cell_centers))
    assert np.allclose(t2.v_faces[1], np.sin(grid.faces))
    with pytest.raises(ValueError):
        Tilt(np.zeros((2, 5)), np.zeros((2, 5)))
    with pytest.raises(ValueError):
        Tilt(np.array([[np.inf, 0.0]]), np.zeros((1, 3)))


def test_flux_assignment_invariants():
    J = np.zeros((2, 5))
    b = np.zeros((2, 4))
    FluxAssignment(J, b)
    bad = J.copy()
    bad[0, 0] = 1.0
    with pytest.raises(ValueError, match="boundary"):
        FluxAssignment(bad, b)
    b_bad = b.copy()
    b_bad[0, 1] = 1e-3
    with pytest.raises(ValueError, match="sum to zero"):
        FluxAssignment(J, b_bad)


def test_divergence_telescoping(rng):
    # zero-boundary face fluxes: cellwise divergence sums to zero over the grid
    n = 17
    J = np.zeros(n + 1)
    J[1:-1] = rng.normal(size=n - 1)
    div = (J[1:] - J[:-1]) * n
    assert abs(div.sum()) < 1e-12 * np.abs(div).max()


def _static_trajectory(n=6, steps=3):
    c = np.full((steps + 1, 2, n), 0.5)
    times = 0.1 * np.arange(steps + 1)
    J = np.zeros((steps, 2, n + 1))
    b = np.zeros((steps, 2, n))
    return Trajectory(times, c, FluxAssignment(J, b))


def test_gce_static_solution_zero():
    traj = _static_trajectory()
    assert np.all(gce_residual(traj) == 0.0)


def test_gce_forced_bump():
    # shift species 1 by +dm in one cell over one step with matching reaction flux
    n, dt, dm = 5, 0.2, 0.01
    c = np.full((2, 2, n), 0.5)
    c[1, 0, 2] += dm
    c[1, 1, 2] -= dm
    J = np.zeros((1, 2, n + 1))
    b = np.zeros((1, 2, n))
    b[0, 0, 2] = dm / dt
    b[0, 1, 2] = -dm / dt
    traj = Trajectory(np.array([0.0, dt]), c, FluxAssignment(J, b))
    assert np.max(np.abs(gce_residual(traj))) < 1e-14


def test_gce_requires_fluxes():
    traj = Trajectory(np.array([0.0, 0.1]), np.full((2, 2, 4), 0.5))
    with pytest.raises(ValueError, match="no flux data"):
        gce_residual(traj)


def test_trajectory_shape_errors():
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.1]), np.full((3, 2, 4), 0.5))
    with pytest.raises(ValueError, match="start at 0"):
        Trajectory(np.array([0.1, 0.2]), np.full((2, 2, 4), 0.5))
    with pytest.raises(ValueError):
        Trajectory(
            np.array([0.0, 0.1]),
            np.full((2, 2, 4), 0.5),
            FluxAssignment(np.zeros((1, 2, 6)), np.zeros((1, 2, 5))),
        )


def test_csv_round_trip(tmp_path, rng):
    n, steps = 6, 4
    c = rng.uniform(0.1, 1.0, (steps + 1, 2, n))
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 0.2, steps))])
    J = np.zeros((steps, 2, n + 1))
    J[:, :, 1:-1] = rng.normal(size=(steps, 2, n - 1))
    b1 = rng.normal(size=(steps, n))
    b = np.stack([b1, -b1], axis=1)
    traj = Trajectory(times, c, FluxAssignment(J, b))
    path = trajectory_to_csv(traj, tmp_path / "traj.csv")
    back = trajectory_from_csv(path)
    assert np.array_equal(back.times, traj.times)
    assert np.array_equal(back.states, traj.states)
    assert np.array_equal(back.fluxes.J, traj.fluxes.J)
    assert np.array_equal(back.fluxes.b, traj.fluxes.b)


def test_csv_round_trip_without_fluxes(tmp_path):
    traj = Trajectory(np.array([0.0, 0.5]), np.full((2, 2, 3), 0.5))
    back = trajectory_from_csv(trajectory_to_csv(traj, tmp_path / "t.csv"))
    assert back.fluxes is None
    assert np.array_equal(back.states, traj.states)


def test_csv_header_fixed(tmp_path):
    traj = _static_trajectory()
    path = trajectory_to_csv(traj, tmp_path / "t.csv")
    header = path.read_text().splitlines()[0]
    assert header == "t,x,c1,c2,J1,J2,b1,b2"


def _reference_csv(traj, path):
    """Row-at-a-time ``csv.writer`` layout that the block writer must reproduce."""
    n = traj.n_cells
    x = (np.arange(n) + 0.5) / n
    with_flux = traj.fluxes is not None
    header = ("t", "x", "c1", "c2") + (("J1", "J2", "b1", "b2") if with_flux else ())
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for m, t in enumerate(traj.times):
            for k in range(n):
                row = [t, x[k], traj.states[m, 0, k], traj.states[m, 1, k]]
                if with_flux:
                    if m < traj.n_times - 1:
                        row += [traj.fluxes.J[m, 0, k], traj.fluxes.J[m, 1, k],
                                traj.fluxes.b[m, 0, k], traj.fluxes.b[m, 1, k]]
                    else:
                        row += [0.0, 0.0, 0.0, 0.0]
                writer.writerow(f"{v:.17g}" for v in row)


def _edge_value_trajectory(rng, with_flux):
    """Trajectory holding the writer's edge values: signed zeros, subnormals, +-1e308, 17 digits."""
    n, steps = 7, 3
    special = [-0.0, 5e-324, 1e308, 0.1 + 0.2, 1.0 / 3.0, 2.0 / 3.0, 0.0]
    c = rng.uniform(0.0, 1.0, (steps + 1, 2, n))
    c[0, 0] = special
    c[1, 1] = special[::-1]
    times = np.array([0.0, 0.1 + 0.2, 1.0 / 3.0 + 1.0, 1e3 + 1e-9])
    fluxes = None
    if with_flux:
        J = np.zeros((steps, 2, n + 1))
        J[:, :, 1:-1] = rng.normal(size=(steps, 2, n - 1))
        J[0, 0, 1:-1] = [-0.0, -5e-324, 5e-324, -1e308, 1e308, 0.1 + 0.2]
        b1 = rng.normal(size=(steps, n))
        b1[1] = [-0.0, 5e-324, -1e308, 1e308, 0.1 + 0.2, -1.0 / 3.0, 0.0]
        fluxes = FluxAssignment(J, np.stack([b1, -b1], axis=1))
    return Trajectory(times, c, fluxes)


@pytest.mark.parametrize("with_flux", [True, False])
def test_csv_bytes_match_row_writer(tmp_path, rng, with_flux):
    n, steps = 7, 3
    traj = _edge_value_trajectory(rng, with_flux)
    got = trajectory_to_csv(traj, tmp_path / "block.csv").read_bytes()
    _reference_csv(traj, tmp_path / "rows.csv")
    assert got == (tmp_path / "rows.csv").read_bytes()
    lines = got.split(b"\n")
    assert lines[-1] == b""
    assert len(lines) == 1 + (steps + 1) * n + 1
    assert all(line.endswith(b"\r") for line in lines[:-1])
    assert b",-0," in got and b"4.9406564584124654e-324" in got and b"e+308" in got
    assert b"0.30000000000000004" in got


@pytest.mark.parametrize("with_flux", [True, False])
def test_csv_round_trip_bit_exact(tmp_path, rng, with_flux):
    traj = _edge_value_trajectory(rng, with_flux)
    back = trajectory_from_csv(trajectory_to_csv(traj, tmp_path / "t.csv"))
    # tobytes tells -0.0 from 0.0, which array_equal does not
    assert back.times.tobytes() == traj.times.tobytes()
    assert back.states.tobytes() == traj.states.tobytes()
    if with_flux:
        assert back.fluxes.J.tobytes() == traj.fluxes.J.tobytes()
        assert back.fluxes.b.tobytes() == traj.fluxes.b.tobytes()
    else:
        assert back.fluxes is None


def test_csv_read_spans_several_blocks(tmp_path, rng, monkeypatch):
    monkeypatch.setattr(edpflow.core, "_CSV_READ_BYTES", 200)
    traj = _edge_value_trajectory(rng, True)
    back = trajectory_from_csv(trajectory_to_csv(traj, tmp_path / "t.csv"))
    assert back.states.tobytes() == traj.states.tobytes()
    assert back.fluxes.b.tobytes() == traj.fluxes.b.tobytes()


def _written_lines(tmp_path, rng):
    path = trajectory_to_csv(_edge_value_trajectory(rng, True), tmp_path / "t.csv")
    return path.read_bytes().split(b"\r\n")[:-1]


def _write_lines(tmp_path, lines):
    path = tmp_path / "edited.csv"
    path.write_bytes(b"".join(line + b"\r\n" for line in lines))
    return path


def test_csv_read_rejects_unknown_header(tmp_path, rng):
    lines = _written_lines(tmp_path, rng)
    lines[0] = b"t,x,c1,c3"
    with pytest.raises(ValueError, match="unrecognized CSV header"):
        trajectory_from_csv(_write_lines(tmp_path, lines))
    with pytest.raises(ValueError, match="unrecognized CSV header"):
        trajectory_from_csv(_write_lines(tmp_path, []))


def test_csv_read_rejects_empty_body(tmp_path, rng):
    lines = _written_lines(tmp_path, rng)
    with pytest.raises(ValueError, match="empty trajectory file"):
        trajectory_from_csv(_write_lines(tmp_path, lines[:1]))


def test_csv_read_rejects_unequal_blocks(tmp_path, rng):
    lines = _written_lines(tmp_path, rng)
    with pytest.raises(ValueError, match="equal size"):
        trajectory_from_csv(_write_lines(tmp_path, lines[:-1]))


def test_csv_read_rejects_ragged_rows(tmp_path, rng):
    lines = _written_lines(tmp_path, rng)
    # one field moved from one row to the next: the total count still fits
    fields = lines[1].split(b",")
    lines[1] = b",".join(fields[:-1])
    lines[2] = lines[2] + b"," + fields[-1]
    with pytest.raises(ValueError, match="8 fields"):
        trajectory_from_csv(_write_lines(tmp_path, lines))


def test_csv_read_rejects_non_numeric_value(tmp_path, rng):
    lines = _written_lines(tmp_path, rng)
    lines[3] = lines[3].replace(b",", b",x", 1)
    with pytest.raises(ValueError, match="could not convert"):
        trajectory_from_csv(_write_lines(tmp_path, lines))


def _block_trajectory(rng, n_times, n, with_flux):
    """Random trajectory whose values span many decades and both notations of %g."""
    c = rng.uniform(0.0, 1.0, (n_times, 2, n)) * 10.0 ** rng.integers(-8, 20, (n_times, 2, n))
    times = np.cumsum(rng.uniform(0.5, 1.5, n_times)) * 1e-3
    times[0] = 0.0
    fluxes = None
    if with_flux:
        J = np.zeros((n_times - 1, 2, n + 1))
        J[:, :, 1:-1] = rng.normal(size=(n_times - 1, 2, n - 1)) * 10.0 ** rng.integers(
            -6, 18, (n_times - 1, 2, n - 1))
        b1 = rng.normal(size=(n_times - 1, n))
        fluxes = FluxAssignment(J, np.stack([b1, -b1], axis=1))
    return Trajectory(times, c, fluxes)


class TestWriterBlocks:
    """The block writer's bytes equal the row writer's at and around the block boundaries."""

    N_CELLS = 7
    LEVELS = edpflow.core._CSV_BLOCK_ROWS // N_CELLS

    def _check(self, tmp_path, rng, n_times, with_flux):
        traj = _block_trajectory(rng, n_times, self.N_CELLS, with_flux)
        got = trajectory_to_csv(traj, tmp_path / "block.csv").read_bytes()
        _reference_csv(traj, tmp_path / "rows.csv")
        assert got == (tmp_path / "rows.csv").read_bytes()

    @pytest.mark.parametrize("with_flux", [True, False])
    @pytest.mark.parametrize("n_times", [2, 3, LEVELS - 1, LEVELS, LEVELS + 1, 2 * LEVELS + 1])
    def test_level_counts_around_the_block_size(self, tmp_path, rng, n_times, with_flux):
        assert self.LEVELS > 3
        self._check(tmp_path, rng, n_times, with_flux)

    @pytest.mark.parametrize("with_flux", [True, False])
    @pytest.mark.parametrize("rows", [1, N_CELLS, 2 * N_CELLS])
    def test_blocks_of_one_and_two_levels(self, tmp_path, rng, monkeypatch, rows, with_flux):
        # a block never splits a level: fewer rows than cells still write one level
        monkeypatch.setattr(edpflow.core, "_CSV_BLOCK_ROWS", rows)
        self._check(tmp_path, rng, 5, with_flux)


class TestStreamedWriter:
    """A solve read window by window is written as its stored trajectory is."""

    N_CELLS = 40
    CONFIG = SolverConfig(5e-4, 0.1, "strang_cn")  # 200 steps

    def _solve(self):
        params = SystemParams((1.0, 2.0), 1.0, 3.0, epsilon=1e-2)
        tilt = cosine_tilt(self.N_CELLS, [[0.3], [-0.2]])
        hat = 1 + 0.5 * np.cos(np.pi * SpatialGrid(self.N_CELLS).cell_centers)
        return State(manifold_split(hat, params, tilt)), params, tilt

    @pytest.mark.parametrize("window", ["one step", "three steps", "one block", "all steps"])
    def test_bytes_equal_the_stored_trajectory(self, tmp_path, window):
        steps, levels = self.CONFIG.n_steps, _CSV_BLOCK_ROWS // self.N_CELLS
        assert steps % 3 and steps % levels == 0 and 1 < levels < steps
        size = {"one step": 1, "three steps": 3, "one block": levels, "all steps": steps}[window]
        c0, params, tilt = self._solve()
        stored = trajectory_to_csv(solve_eps_system(c0, params, tilt, self.CONFIG),
                                   tmp_path / "stored.csv")
        stream = Windowed(_eps_solve(c0, params, tilt, self.CONFIG), size)
        streamed = trajectory_to_csv(stream, tmp_path / "streamed.csv")
        assert streamed.read_bytes() == stored.read_bytes()
        back = trajectory_from_csv(streamed)
        assert back.n_times == steps + 1 and np.array_equal(back.states[-1], stream.states[-1])

    def test_coarse_stream_rejected(self, tmp_path):
        c0, params, tilt = self._solve()
        stream = _effective_solve(c0.c.sum(axis=0), params, tilt, self.CONFIG)
        with pytest.raises(ValueError, match="two species"):
            trajectory_to_csv(stream, tmp_path / "coarse.csv")


def _windowed_outputs(out):
    """Every output that a reader streaming a solve in windows produces, as bytes or hex."""
    out.mkdir()
    n = 12
    params = SystemParams((1.0, 2.0), 1.0, 3.0, epsilon=0.1)
    tilt = cosine_tilt(n, [[0.3], [-0.2]])
    hat0 = 1 + 0.5 * np.cos(np.pi * SpatialGrid(n).cell_centers)
    c0 = State(manifold_split(hat0, params, tilt))
    config = SolverConfig(1e-3, 0.25)  # 250 steps: a ragged last block and window
    got = {}
    for evaluate, solve in ((dissipation_functional, _eps_solve(c0, params, tilt, config)),
                            (flux_dissipation, _eps_solve(c0, params, tilt, config)),
                            (hat_dissipation, _effective_solve(hat0, params, tilt, config))):
        got[evaluate.__name__] = [float(t).hex() for t in astuple(evaluate(solve, params, tilt))]
    got["fit_decay_rate"] = [fit_decay_rate(solve).hex() for solve in (
        _eps_solve(c0, params, tilt, config), _effective_solve(hat0, params, tilt, config))]
    got["csv"] = trajectory_to_csv(_eps_solve(c0, params, tilt, config), out / "t.csv").read_bytes()
    doc = dict(default_configs()["eps_sweep"], output_dir=str(out / "eps_sweep"),
               grid={"n_cells": n}, solver={"dt": 1e-3, "t_final": 0.05}, epsilons=[0.1, 0.05])
    run_experiment(load_config(doc))
    got["eps_sweep"] = [(out / "eps_sweep" / name).read_bytes()
                        for name in ("eps_sweep.csv", "summary.json")]
    return got


def test_no_output_depends_on_the_window_budget(tmp_path, monkeypatch):
    want = _windowed_outputs(tmp_path / "default")
    # the least budget: every reader's window is one of its blocks
    monkeypatch.setattr(edpflow.core, "_WINDOW_BUDGET", 1)
    block = _CSV_BLOCK_ROWS // 12  # the CSV writer's
    assert _window_unit(24, block) == block < 125 and 250 % block  # the last one ragged
    assert _window_unit(24) == 1  # the evaluators, the decay fit and the defect: one level
    assert _windowed_outputs(tmp_path / "small") == want


def test_csv_writer_logs_one_debug_record(tmp_path, rng, caplog):
    traj = _edge_value_trajectory(rng, True)
    path = trajectory_to_csv(traj, tmp_path / "quiet.csv")
    assert not caplog.records
    with caplog.at_level(logging.DEBUG, logger="edpflow.core"):
        logged = trajectory_to_csv(traj, tmp_path / "logged.csv")
    assert logged.read_bytes() == path.read_bytes()
    (record,) = caplog.records
    assert record.levelno == logging.DEBUG and record.name == "edpflow.core"
    values, fallback, mb, seconds = re.search(
        r"(\d+) values \((\d+) formatted by Python\), (\S+) MB in (\S+) s", record.getMessage()
    ).groups()
    assert int(values) == traj.n_times * traj.n_cells * 8
    # 5e-324 and +-1e308 lie outside the certified range
    c, J, b = traj.states, traj.fluxes.J[:, :, :-1], traj.fluxes.b
    outside = sum(int(np.sum((np.abs(a) > 1e290) | ((a != 0) & (np.abs(a) < 1e-290))))
                  for a in (c, J, b))
    assert int(fallback) == outside > 0
    assert float(mb) == pytest.approx(path.stat().st_size / 1e6, abs=0.05)
    assert float(seconds) >= 0.0


def _python_bytes(values):
    return [("%.17g" % v).encode() for v in values.tolist()]


def _formatted_bytes(values):
    """The fields of ``_format_g17`` as bytes, and its count of values formatted by Python."""
    fields, fallback = edpflow.core._format_g17(values, b",")
    assert fields.shape == values.shape + (4,)
    text = fields.view(np.uint8).ravel()
    return text[text != 0].tobytes().split(b",")[1:], fallback


def _ties(rng, float32):
    """Doubles m * 2^-p whose exact decimal expansion has 18 digits ending in 5."""
    out = []
    for p in range(2, 26):
        # odd m in [lo, hi): m * 5^p has 18 digits and m fits the mantissa
        lo, hi = 10**17 // 5**p + 1, min(10**18 // 5**p, 2**24 if float32 else 2**53)
        if lo // 2 < (hi - 1) // 2:
            m = 2 * rng.integers(lo // 2, (hi - 1) // 2, 40) + 1
            out.append(m * 2.0**-p)
    ties = np.concatenate(out)
    if float32:
        assert np.array_equal(ties.astype(np.float32).astype(float), ties)
    for x in ties.tolist():
        digits = Decimal(x).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5
    return ties


@pytest.mark.filterwarnings("error")
class TestFormatG17:
    """Every value is written as Python's ``'%.17g' %`` writes it, with warnings as errors."""

    def _check(self, values):
        values = np.asarray(values, dtype=float)
        got, fallback = _formatted_bytes(values)
        assert got == _python_bytes(values)
        return fallback

    def test_power_table_is_exact(self):
        tab = edpflow.core._g17_tables()
        powers = range(edpflow.core._G17_POW_MIN, edpflow.core._G17_POW_MAX + 1)
        for i, p in enumerate(powers):
            exact = Fraction(10) ** p
            hi, lo = tab["hi"][i], tab["lo"][i]
            assert hi == float(exact) and lo == float(exact - Fraction(hi))
            # the split halves of hi are exact and short enough for Dekker's product
            assert tab["hi_hi"][i] + tab["hi_lo"][i] == hi
            for half in (tab["hi_hi"][i], tab["hi_lo"][i]):
                assert (math.frexp(half)[0] * 2**26).is_integer()

    def test_seeded_sample_spanning_all_exponents(self):
        rng = np.random.default_rng(1990)
        bits = rng.integers(0, 2**64 - 1, 100_000, dtype=np.uint64, endpoint=True).view(float)
        decimal = rng.uniform(1.0, 10.0, 100_000) * 10.0 ** rng.integers(-300, 300, 100_000)
        values = np.concatenate([bits, decimal * rng.choice([-1.0, 1.0], 100_000)])
        fallback = self._check(values)
        # bit patterns cover NaN, subnormals and |v| > 1e290: both paths run
        assert 0 < fallback < values.size // 10

    def test_powers_of_ten_and_their_neighbours(self):
        powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
        nonzero = powers[powers > 0]
        values = np.concatenate([powers, np.nextafter(nonzero, 0), np.nextafter(powers, np.inf)])
        self._check(np.concatenate([values, -values]))

    def test_notation_switch_points(self):
        values = []
        for x in (1e-5, 1e-4, 1e16, 1e17):
            up = down = x
            for _ in range(5):
                values += [up, down]
                up, down = np.nextafter(up, np.inf), np.nextafter(down, 0)
        values = np.unique(values)
        # 1e17 scales by the inexact 10^-1 to an integer: not certified
        assert self._check(np.concatenate([values, -values])) == 2
        got, _ = _formatted_bytes(np.array([1e-5, 1e-4, 1e16, 1e17]))
        assert got == [b"1.0000000000000001e-05", b"0.0001", b"10000000000000000", b"1e+17"]

    @pytest.mark.parametrize("float32", [True, False])
    def test_exact_ties_go_to_python(self, float32):
        ties = _ties(np.random.default_rng(7), float32)
        assert self._check(np.concatenate([ties, -ties])) == 2 * ties.size

    def test_dyadic_values(self):
        rng = np.random.default_rng(11)
        m = rng.integers(1, 2**53, 20_000)
        values = m * 2.0 ** rng.integers(-80, 40, m.size)
        short = np.arange(1, 4097) / 1024.0  # few digits: trailing zeros are cleared
        # many are ties, or integers that an inexact 10^p scales to integers
        assert 0 < self._check(np.concatenate([values, short, -short])) < values.size // 10

    def test_zeros_subnormals_extremes_and_non_finite(self):
        tiny = 2.2250738585072014e-308
        values = np.array([0.0, -0.0, 5e-324, -5e-324, tiny, np.nextafter(tiny, 0), tiny / 3,
                           1e308, -1e308, np.finfo(float).max, -np.finfo(float).max,
                           1e-290, 1e290, np.nextafter(1e-290, 0), np.nextafter(1e290, np.inf),
                           np.inf, -np.inf, np.nan, -np.nan])
        fallback = self._check(values)
        assert fallback == values.size - 4  # zeros are written directly; 1e-290 and 1e290 certified

    def test_trailing_zeros_in_every_layout(self):
        # few significant digits, so zeros fill the last group or every
        # group: the doubles nearest to short decimals, where '%.17g' gives
        # the decimal back
        counts = (1, 4, 5, 8, 9, 12, 13, 16)
        short = [float(f"{'1234567890123456'[:count]}e{e}") for count in counts
                 for e in range(-40, 40)]

        def digits(x):
            mantissa = ("%.17g" % abs(x)).split("e")[0].replace(".", "").lstrip("0")
            return len(mantissa)

        def layout(x):
            text = "%.17g" % x
            return "exponent" if "e" in text else "0.ddd" if text.startswith("0.") else "fixed"

        # an exact multiple of a power of ten from 1e17 on scales by an
        # inexact power to an integer, which Python formats: leave it out
        short = np.array([x for x in short if digits(x) in counts
                          and not (x >= 1e17 and Decimal(x) == Decimal("%.17g" % x))])
        # 1 digit: every group is 0000; 13: the last group alone
        layouts = ("fixed", "0.ddd", "exponent")
        assert {(digits(x), layout(x)) for x in short} == {(c, w) for c in counts for w in layouts}
        rng = np.random.default_rng(5)
        # magnitudes whose doubles have long decimal expansions, so no ties
        full = rng.uniform(-2.0, 2.0, 2 * short.size) * 10.0 ** rng.integers(-8, 11, 2 * short.size)
        assert sum(digits(x) == 17 for x in full) > full.size // 2
        mixed = np.stack([short, -short, full[::2], full[1::2]], axis=1).ravel()
        # Python's values at known slots: inf, NaN, a subnormal and an exact tie
        python = {7: np.inf, 30: -np.nan, 61: -1e-310, 100: _ties(rng, False)[0]}
        for i, x in python.items():
            mixed[i] = x
        mixed = np.concatenate([mixed, full[: 240 - mixed.size % 240]])
        assert mixed.size % 240 == 0
        assert self._check(mixed) == len(python)
        # written into the value slots of a row buffer, the fields are the
        # same and the time and cell fields stay as they were
        fields, _ = edpflow.core._format_g17(mixed, b",")
        values = mixed.reshape(-1, 6, 40)
        buf = np.full((values.shape[0], 40, 8, 4), 0x0101010101010101, np.uint64)
        _, fallback = edpflow.core._format_g17(values, b",", buf[:, :, 2:].transpose(0, 2, 1, 3))
        assert fallback == len(python)
        assert np.all(buf[:, :, :2] == 0x0101010101010101)
        assert np.array_equal(buf[:, :, 2:].transpose(0, 2, 1, 3).reshape(-1, 4), fields)

    def test_shape_and_separator(self):
        values = np.array([[0.5, -2.0], [6.02214076e23, 3.0]])
        fields, fallback = edpflow.core._format_g17(values, b"\r\n")
        assert fields.shape == (2, 2, 4) and fallback == 0
        text = fields.view(np.uint8).ravel()
        assert text[text != 0].tobytes() == b"\r\n0.5\r\n-2\r\n6.0221407599999999e+23\r\n3"
