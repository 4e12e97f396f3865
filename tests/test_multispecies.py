import json
import logging
import os
import threading
import time

import numpy as np
import pytest
from scipy.linalg import expm

from edpflow import (
    MarkovGenerator,
    SolverConfig,
    State,
    SystemParams,
    Tilt,
    Trajectory,
    build_detailed_balance_generator,
    dissipation_functional,
    gce_residual,
    hat_dissipation,
    kappa_coefficients,
    kappa_split,
    load_generator,
    manifold_split,
    multispecies_dissipation,
    random_detailed_balance_generator,
    solve_eps_system,
    solve_multispecies,
    validate_generator,
)
from edpflow.cli import equation_generator
from edpflow.coarsegrain import coarse_grain_trajectory
from edpflow.multispecies import _generator_exp
from edpflow.solver import _eps_solve


@pytest.fixture
def pair_gen(params):
    return equation_generator(params)


class TestValidation:
    def test_pair_generator_accepted(self, params, pair_gen):
        report = validate_generator(pair_gen)
        assert report.ok, report.failures
        assert np.allclose(pair_gen.stationary(1.0), [0.75, 0.25], atol=1e-14)
        assert np.allclose(report.w_limit, [0.75, 0.25], atol=1e-10)

    def test_no_fast_part_scale_independent(self):
        a_slow = np.array([[-1.0, 2.0], [1.0, -2.0]])
        gen = MarkovGenerator(("a", "b"), a_slow, np.zeros((2, 2)), np.array([1.0, 1.0]))
        ws = [gen.stationary(eps) for eps in (1.0, 1e-2, 1e-4)]
        for w in ws[1:]:
            assert np.allclose(w, ws[0], atol=1e-13)
        assert validate_generator(gen).ok

    def test_three_species_chain_tree_balanced(self, rng):
        # balancing along the spanning tree reproduces the prescribed weights;
        # oracle: direct null-space solve
        w = rng.uniform(0.5, 2.0, 3)
        gen = build_detailed_balance_generator(
            ("A", "B", "C"), w,
            slow_edges={(1, 2): float(rng.uniform(0.5, 2.0))},
            fast_edges={(0, 1): float(rng.uniform(0.5, 2.0))},
            delta=np.array([1.0, 0.7, 1.4]),
        )
        report = validate_generator(gen)
        assert report.ok, report.failures
        assert np.allclose(gen.stationary(1e-2), w / w.sum(), atol=1e-12)

    def test_detailed_balance_violation_rejected(self, rng):
        net = random_detailed_balance_generator(rng, 4)
        assert validate_generator(net).ok
        a_fast = net.a_fast.copy()
        i, j = np.argwhere(a_fast > 0)[0]
        a_fast[i, j] *= 1.5
        a_fast[j, j] = 0.0
        a_fast[j, j] = -a_fast[:, j].sum()
        broken = MarkovGenerator(net.species, net.a_slow, a_fast, net.delta)
        report = validate_generator(broken)
        assert not report.ok
        assert any("detailed balance" in f for f in report.failures)

    def test_nonfinite_rates_rejected(self):
        with pytest.raises(ValueError, match="entries must be finite"):
            MarkovGenerator(("a", "b"), np.zeros((2, 2)), np.array([[np.nan, 1.0], [np.nan, -1.0]]),
                            np.ones(2))

    @pytest.mark.parametrize("delta", [-1.0, 0.0, np.nan, np.inf])
    def test_bad_diffusion_constant_rejected(self, delta):
        # rejected here, not later in a solve as a negative density or as a
        # "tilt too large" that networks do not have
        with pytest.raises(ValueError, match="'delta' entries must be positive and finite"):
            MarkovGenerator(("a", "b"), np.zeros((2, 2)), np.zeros((2, 2)),
                            np.array([1.0, delta]))

    def test_every_value_problem_listed(self):
        with pytest.raises(ValueError) as err:
            MarkovGenerator(("a", "b"), np.zeros((2, 2)), np.full((2, 2), np.inf), np.ones(1))
        assert str(err.value) == ("'A_fast' entries must be finite; "
                                  "'delta' must have one entry per species, got shape (1,)")

    def test_sign_and_column_sum_violations_itemized(self):
        a = np.array([[-1.0, 2.0], [1.0, -2.0]])
        bad_sign = a.copy()
        bad_sign[0, 1] = -2.0
        gen = MarkovGenerator(("a", "b"), bad_sign, np.zeros((2, 2)), np.ones(2))
        rep = validate_generator(gen)
        assert any("negative off-diagonal" in f for f in rep.failures)
        bad_sum = a.copy()
        bad_sum[0, 0] = -0.5
        gen2 = MarkovGenerator(("a", "b"), bad_sum, np.zeros((2, 2)), np.ones(2))
        rep2 = validate_generator(gen2)
        assert any("column sums" in f for f in rep2.failures)


class TestEpsilonRange:
    """Every network entry point takes its epsilon through ``assemble``, which rejects one
    that is not positive and finite."""

    @staticmethod
    def _entry_points(gen):
        n = 6
        c0 = State(np.repeat(gen.stationary(0.1)[:, None], n, axis=1))
        traj = solve_multispecies(c0, gen, 0.1, SolverConfig(1e-3, 0.005))
        return {
            "kappa_coefficients": lambda eps: kappa_coefficients(gen, eps),
            "stationary": gen.stationary,
            "solve_multispecies": lambda eps: solve_multispecies(
                c0, gen, eps, SolverConfig(1e-3, 0.005)).states,
            "multispecies_dissipation": lambda eps: multispecies_dissipation(traj, gen, eps).total,
        }

    @pytest.mark.parametrize("epsilon", [0.0, -1.0, float("inf"), float("nan")])
    @pytest.mark.parametrize("entry", ["kappa_coefficients", "stationary", "solve_multispecies",
                                       "multispecies_dissipation"])
    def test_epsilon_out_of_range_raises(self, entry, epsilon):
        gen = random_detailed_balance_generator(np.random.default_rng(0), 4)
        call = self._entry_points(gen)[entry]
        assert np.all(np.isfinite(call(0.1)))
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            call(epsilon)


class TestKappa:
    def test_pair_value_is_inverse_scale(self, pair_gen):
        for eps in (1.0, 1e-2, 1e-5):
            kappa = kappa_coefficients(pair_gen, eps)
            assert kappa[0, 1] * eps == pytest.approx(1.0, abs=1e-13)
            assert kappa[0, 0] == 0.0

    def test_symmetric_generator_reduces_to_rates(self):
        a = np.array([[-1.0, 1.0], [1.0, -1.0]])
        gen = MarkovGenerator(("a", "b"), a, np.zeros((2, 2)), np.ones(2))
        kappa = kappa_coefficients(gen, 1.0)
        assert kappa[0, 1] == pytest.approx(1.0, abs=1e-14)
        assert kappa[1, 0] == pytest.approx(1.0, abs=1e-14)

    def test_symmetry_on_random_networks(self):
        for seed in range(6):
            net = random_detailed_balance_generator(np.random.default_rng(seed), 4)
            for eps in (1.0, 1e-2):
                kappa = kappa_coefficients(net, eps)
                scale = max(1.0, np.abs(kappa).max())
                assert np.abs(kappa - kappa.T).max() / scale < 1e-13

    def test_split_recombines(self, rng):
        net = random_detailed_balance_generator(rng, 4)
        eps = 1e-3
        k_slow, k_fast = kappa_split(net, eps)
        assert np.allclose(k_slow + k_fast / eps, kappa_coefficients(net, eps))
        assert np.abs(k_slow).max() < 10 and np.abs(k_fast).max() < 10

    def test_edge_classification_scale_invariant(self, rng):
        net = random_detailed_balance_generator(rng, 4)
        kinds = {(i, j): kind for i, j, kind in net.edges()}
        assert kinds[(0, 1)] == "fast"
        assert all(kind == "slow" for edge, kind in kinds.items() if edge != (0, 1))
        # classification is structural: it does not reference the scale at all
        assert net.edge_kind(0, 1) == "fast"
        assert net.edge_kind(0, 2) in (None, "slow")


class TestJsonSchema:
    def test_round_trip(self, tmp_path, rng):
        net = random_detailed_balance_generator(rng, 3)
        doc = {
            "species": list(net.species),
            "A_slow": net.a_slow.tolist(),
            "A_fast": net.a_fast.tolist(),
            "delta": net.delta.tolist(),
        }
        path = tmp_path / "gen.json"
        path.write_text(json.dumps(doc))
        back = load_generator(path)
        assert back.species == net.species
        assert np.array_equal(back.a_slow, net.a_slow)

    def test_unreadable_file_rejected(self, tmp_path):
        latin = tmp_path / "latin.json"
        latin.write_bytes('{"species": ["caf\u00e9"]}'.encode("latin-1"))
        for path, why in ((tmp_path / "nope.json", "does not exist"),
                          (tmp_path, "cannot be read"), (latin, "is not valid JSON")):
            with pytest.raises(ValueError, match=f"generator file .* {why}"):
                load_generator(path)

    def test_missing_and_unknown_keys_listed(self):
        with pytest.raises(ValueError) as err:
            load_generator({"species": ["a", "b"], "A_slow": [[0, 0], [0, 0]], "extra": 1})
        msg = str(err.value)
        assert "A_fast" in msg and "delta" in msg and "extra" in msg

    def test_shape_errors_listed(self):
        doc = {
            "species": ["a", "b"],
            "A_slow": [[0.0, 0.0]],
            "A_fast": [[0.0, 0.0], [0.0, 0.0]],
            "delta": [1.0],
        }
        with pytest.raises(ValueError) as err:
            load_generator(doc)
        msg = str(err.value)
        assert "A_slow" in msg and "delta" in msg

    def test_one_species_rejected_as_a_spec(self):
        doc = {"species": ["a"], "A_slow": [[0.0]], "A_fast": [[0.0]], "delta": [1.0]}
        with pytest.raises(ValueError, match="^generator spec invalid: need at least two species$"):
            load_generator(doc)

    def test_nonpositive_delta_rejected(self):
        doc = {
            "species": ["a", "b"],
            "A_slow": [[0.0, 0.0], [0.0, 0.0]],
            "A_fast": [[-1.0, 3.0], [1.0, -3.0]],
            "delta": [1.0, 0.0],
        }
        with pytest.raises(ValueError, match="positive"):
            load_generator(doc)

    @pytest.mark.parametrize("delta", ["NaN", "Infinity", "-Infinity"])
    def test_nonfinite_delta_rejected(self, delta):
        # JSON as Python's json module reads it: NaN and Infinity are numbers;
        # the message keeps listing every offending key
        doc = json.loads('{"species": ["a", "b"], "A_slow": [[0.0, 0.0]],'
                         ' "A_fast": [[-1.0, 3.0], [1.0, -3.0]], "delta": [1.0, %s]}' % delta)
        with pytest.raises(ValueError, match="generator spec invalid") as err:
            load_generator(doc)
        msg = str(err.value)
        assert "'A_slow' must be a 2x2" in msg
        assert "'delta' entries must be positive and finite" in msg


class TestSolver:
    def test_matches_two_species_solver(self, params, pair_gen):
        n = 16
        x = (np.arange(n) + 0.5) / n
        c0 = manifold_split(1 + 0.4 * np.cos(np.pi * x), params, Tilt.zero(n))
        c0 = State(c0 / (c0.sum() / n))
        cfg = SolverConfig(1e-3, 0.02)
        ref = solve_eps_system(c0, params, Tilt.zero(n), cfg)
        got = solve_multispecies(c0, pair_gen, params.epsilon, cfg)
        assert np.max(np.abs(got.states - ref.states)) < 1e-12

    def test_mass_positivity_gce(self, rng):
        net = random_detailed_balance_generator(rng, 4)
        n = 12
        c0 = rng.uniform(0.2, 1.0, (4, n))
        c0 = State(c0 / (c0.sum() / n))
        traj = solve_multispecies(c0, net, 1e-3, SolverConfig(1e-3, 0.02))
        masses = traj.states.sum(axis=(1, 2)) / n
        assert np.max(np.abs(masses - 1.0)) < 1e-12
        assert traj.states.min() >= 0.0
        assert np.max(np.abs(gce_residual(traj))) < 1e-9


    def test_imex_scheme_rejected(self):
        # every solve takes the exact exchange half step; there is no explicit variant
        with pytest.raises(ValueError, match="unknown scheme 'imex_euler'"):
            SolverConfig(1e-3, 0.01, "imex_euler")

    @pytest.mark.parametrize("eps, dt", [(1e-3, 1e-3), (1e-6, 1e-3), (1e-8, 1e-4)])
    def test_mass_does_not_drift(self, eps, dt, caplog):
        # the propagator's column sums miss 1 by about u * |tau A|, which the
        # half step must not carry into the mass, or it drifts linearly in
        # the step count (to about 5e-9 over these 5000 steps at eps = 1e-8)
        gen = random_detailed_balance_generator(np.random.default_rng(0), 4)
        n = 20
        x = (np.arange(n) + 0.5) / n
        c0 = gen.stationary(eps)[:, None] * (1 + 0.5 * np.cos(np.pi * x))[None]
        c0 /= c0.sum() / n
        with caplog.at_level(logging.DEBUG, logger="edpflow.solver"):
            traj = solve_multispecies(State(c0), gen, eps, SolverConfig(dt, 5000 * dt))
        masses = traj.states.sum(axis=(1, 2))
        assert np.abs(masses - masses[0]).max() / masses[0] <= 1e-12
        assert [r.getMessage() for r in caplog.records] == [
            "solve_multispecies: 5000 steps in 1 windows, none clamped"]


class TestDissipation:
    def test_species_count_mismatch_rejected(self):
        gen3 = random_detailed_balance_generator(np.random.default_rng(11), 3)
        gen4 = random_detailed_balance_generator(np.random.default_rng(11), 4)
        traj = solve_multispecies(State(np.ones((3, 9))), gen3, 1e-2, SolverConfig(1e-3, 0.002))
        with pytest.raises(ValueError, match="trajectory has 3 species, generator 4"):
            multispecies_dissipation(traj, gen4, 1e-2)

    def test_two_species_consistency(self, params, pair_gen):
        n = 14
        x = (np.arange(n) + 0.5) / n
        c0 = manifold_split(1 + 0.4 * np.cos(np.pi * x), params, Tilt.zero(n))
        c0 = State(c0 / (c0.sum() / n))
        traj = solve_eps_system(c0, params, Tilt.zero(n), SolverConfig(2e-3, 0.01))
        ref = dissipation_functional(traj, params, Tilt.zero(n))
        got = multispecies_dissipation(traj, pair_gen, params.epsilon)
        assert got.vel_diff == pytest.approx(ref.vel_diff, abs=1e-10)
        assert got.vel_react == pytest.approx(ref.vel_react, abs=1e-10)
        assert got.slope_diff == pytest.approx(ref.slope_diff, abs=1e-10)
        assert got.slope_react == pytest.approx(ref.slope_react, abs=1e-10)
        assert got.vel_react_slow == 0.0 and got.slope_react_slow == 0.0

    def test_equal_relative_densities_zero_reaction_slope(self, rng):
        net = random_detailed_balance_generator(rng, 4)
        w = net.stationary(1e-2)
        n = 10
        x = (np.arange(n) + 0.5) / n
        prof = 1 + 0.3 * np.cos(np.pi * x)
        c = w[:, None] * prof[None, :]
        c /= c.sum() / n
        traj = Trajectory(np.array([0.0, 1.0]), np.stack([c, c]))
        bd = multispecies_dissipation(traj, net, 1e-2)
        assert bd.slope_react == pytest.approx(0.0, abs=1e-14)

    def test_fast_edge_equilibrated_state(self, rng):
        # chain A-B-C with fast edge (A,B): equal relative densities on the
        # fast edge only kill the fast slope term, the slow one stays positive
        w = rng.uniform(0.5, 2.0, 3)
        gen = build_detailed_balance_generator(
            ("A", "B", "C"), w, slow_edges={(1, 2): 0.8}, fast_edges={(0, 1): 1.3},
            delta=np.array([1.0, 0.7, 1.4]),
        )
        wn = w / w.sum()
        n = 10
        x = (np.arange(n) + 0.5) / n
        prof = 1 + 0.3 * np.cos(np.pi * x)
        c = np.stack([wn[0] * prof, wn[1] * prof, 1.5 * wn[2] * prof])
        c /= c.sum() / n
        traj = Trajectory(np.array([0.0, 1.0]), np.stack([c, c]))
        bd = multispecies_dissipation(traj, gen, 1e-2)
        assert bd.slope_react_fast == pytest.approx(0.0, abs=1e-12)
        assert bd.slope_react_slow > 1e-4

    def test_slow_edge_cost_converges_along_scales(self, rng):
        # strong convergence mechanism: slow-edge contributions on solver
        # trajectories settle as the scale separation grows
        net = random_detailed_balance_generator(np.random.default_rng(11), 3)
        n = 10
        c0 = np.random.default_rng(12).uniform(0.3, 1.0, (3, n))
        c0 = State(c0 / (c0.sum() / n))
        cfg = SolverConfig(2e-3, 0.02)
        vals = []
        for eps in (1e-2, 1e-3, 1e-4, 1e-5):
            traj = solve_multispecies(c0, net, eps, cfg)
            bd = multispecies_dissipation(traj, net, eps)
            vals.append(bd.vel_react_slow + bd.slope_react_slow)
        diffs = np.abs(np.diff(vals))
        assert diffs[-1] < 0.01 * diffs[0]


def _cyclic_generator():
    """Five species on a cycle with unequal forward and backward rates: no detailed balance."""
    def cycle(rates, step):
        a = np.zeros((5, 5))
        for i, r in enumerate(rates):
            a[(i + step) % 5, i] = r
        a[np.diag_indices(5)] = -a.sum(axis=0)
        return a

    return MarkovGenerator(tuple("ABCDE"), cycle([0.3, 0.1, 0.7, 0.2, 0.5], -1),
                           cycle([1.9, 0.6, 1.2, 2.5, 0.8], 1), np.ones(5))


class TestPropagator:
    """The reaction half step's exp(tau A), from matrix products alone."""

    @pytest.mark.parametrize("eps", [1e-1, 1e-3, 1e-6, 1e-8, 1e-10])
    @pytest.mark.parametrize("dt", [1e-4, 1e-3, 1e-2])
    def test_matches_scipy_expm(self, eps, dt):
        u = np.finfo(float).eps
        gens = [random_detailed_balance_generator(np.random.default_rng(seed), n)
                for seed, n in ((1, 4), (2, 5), (3, 6))] + [_cyclic_generator()]
        for gen in gens:
            a = gen.assemble(eps) * dt
            p = _generator_exp(a)
            # the generator's own rounding makes 1^T P - 1^T about u ||tau A||
            # for either method, so the bound scales with the norm
            bound = 100 * u * max(1.0, np.abs(a).sum(axis=0).max())
            assert np.abs(p - expm(a)).max() <= bound
            assert np.abs(p.sum(axis=0) - 1.0).max() <= bound
            assert p.min() >= 0.0

    def test_zero_generator_gives_identity(self):
        assert np.array_equal(_generator_exp(np.zeros((3, 3))), np.eye(3))

    def test_overflowing_non_rate_matrix_ends(self):
        # negative off-diagonal entries: the terms overflow to inf - inf
        with np.errstate(over="ignore", invalid="ignore"):
            p = _generator_exp(np.array([[-1.0, -1e300], [1e300, -1.0]]))
        assert np.isnan(p).all()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_generator_rejected(self, bad):
        # a MarkovGenerator has finite rates, but a_fast / epsilon can overflow
        with pytest.raises(ValueError, match="finite"):
            _generator_exp(np.array([[-bad, 1.0], [bad, -1.0]]))

    def test_overflowing_assembly_rejected(self):
        gen = MarkovGenerator(("A", "B"), np.zeros((2, 2)), np.array([[-1e300, 1.0], [1e300, -1.0]]),
                              np.ones(2))
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
            solve_multispecies(State(np.ones((2, 6))), gen, 1e-10, SolverConfig(1e-3, 0.002))


def _other_thread_ticks():
    """CPU clock ticks (utime + stime) of every thread in this process but the caller."""
    me = threading.get_native_id()
    ticks = 0
    for tid in os.listdir("/proc/self/task"):
        if int(tid) == me:
            continue
        try:
            with open(f"/proc/self/task/{tid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except FileNotFoundError:  # the thread ended
            continue
        ticks += int(fields[11]) + int(fields[12])
    return ticks


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs per-thread /proc stat")
class TestWorkerThreads:
    """A run is single-threaded: no BLAS worker is left spinning after it."""

    @staticmethod
    def _worker_ticks(run):
        time.sleep(0.4)  # a worker woken before the test goes back to sleep
        before = _other_thread_ticks()
        run()
        time.sleep(0.1)
        return _other_thread_ticks() - before

    def test_network_solve_and_dissipation(self):
        gen = random_detailed_balance_generator(np.random.default_rng(0), 4)
        c0 = np.random.default_rng(1).uniform(0.5, 1.5, (4, 20))
        c0 = State(c0 / (c0.sum() / 20))

        def run():
            traj = solve_multispecies(c0, gen, 1e-3, SolverConfig(1e-3, 0.02))
            multispecies_dissipation(traj, gen, 1e-3)

        assert self._worker_ticks(run) <= 2

    def test_two_species_solve_and_dissipation(self, params):
        n = 20
        tilt = Tilt.zero(n)
        c0 = State(manifold_split(1 + 0.3 * np.cos(np.pi * (np.arange(n) + 0.5) / n),
                                  params, tilt))

        def run():
            solve = _eps_solve(c0, params, tilt, SolverConfig(1e-3, 0.02))
            dissipation_functional(solve, params, tilt)
            hat_dissipation(coarse_grain_trajectory(solve.result()), params, tilt)

        assert self._worker_ticks(run) <= 2
