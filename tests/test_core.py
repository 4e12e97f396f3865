import csv

import numpy as np
import pytest

from edpflow import (
    FluxAssignment,
    SpatialGrid,
    State,
    SystemParams,
    Tilt,
    Trajectory,
    gce_residual,
    total_mass,
    trajectory_from_csv,
    trajectory_to_csv,
)


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
    with pytest.raises(ValueError):
        SystemParams((1.0, -2.0), 1.0, 3.0)
    with pytest.raises(ValueError):
        SystemParams((1.0, 2.0), 0.0, 3.0)


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
    import edpflow.core

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
