import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize_scalar
from scipy.special import xlogy

import edpflow

from edpflow import (
    SpatialGrid,
    State,
    SystemParams,
    Tilt,
    boltzmann,
    coarse_params,
    cosh_primal,
    cosh_primal_prime,
    cosh_star,
    cosh_star_prime,
    dual_dissipation,
    energy,
    energy_gradient,
    hat_energy,
    perspective_eval,
    r_eff_dual,
    slope,
    stationary_measure,
)
from edpflow.functionals import _face_kinetic, _face_mobility, _xlogx, stationary_measure_faces

from conftest import cosine_tilt, positive_state


def legendre_of_cosh_star(s):
    """Independent oracle: numerical sup of s*x - C*(x), grid search plus local refine."""
    xs = np.linspace(-60.0, 60.0, 20001)
    k = int(np.argmax(s * xs - cosh_star(xs)))
    lo, hi = xs[max(k - 1, 0)], xs[min(k + 1, xs.size - 1)]
    res = minimize_scalar(lambda x: cosh_star(x) - s * x, bounds=(lo, hi),
                          method="bounded", options={"xatol": 1e-13})
    return -res.fun


def test_cosh_pair_values():
    assert cosh_star(0.0) == 0.0
    assert cosh_primal(0.0) == 0.0
    assert cosh_star(2 * np.log(2)) == pytest.approx(1.0, abs=1e-14)
    # derivative identity at p=4, q=1: (C*)'(log p - log q) = (p-q)/sqrt(pq)
    assert cosh_star_prime(np.log(4)) == pytest.approx(1.5, abs=1e-14)
    assert cosh_primal(2.0) == pytest.approx(1.868640, abs=1e-5)
    assert 0.5 * 2 * np.log(3) <= cosh_primal(2.0) <= 2 * 2 * np.log(3)


def test_cosh_primal_matches_numerical_legendre():
    for s in (-7.0, -2.0, -0.3, 0.1, 1.0, 2.0, 5.0, 40.0):
        assert cosh_primal(s) == pytest.approx(legendre_of_cosh_star(s), abs=1e-9)


def test_fenchel_young_equality_and_inequality(rng):
    s = np.concatenate([rng.uniform(-50, 50, 500), rng.normal(0, 1e-3, 100)])
    x_star = 2.0 * np.arcsinh(s / 2.0)
    gap = cosh_primal(s) + cosh_star(x_star) - s * x_star
    assert np.max(np.abs(gap)) < 1e-10
    x = rng.uniform(-10, 10, s.size)
    assert np.all(cosh_primal(s) + cosh_star(x) - s * x > -1e-12)


def test_cosh_primal_sandwich(rng):
    r = np.concatenate([np.logspace(-6, 6, 2000), -np.logspace(-6, 6, 2000)])
    val = cosh_primal(r)
    lo = 0.5 * np.abs(r) * np.log(np.abs(r) + 1.0)
    hi = 2.0 * np.abs(r) * np.log(np.abs(r) + 1.0)
    assert np.all(val >= lo - 1e-12)
    assert np.all(val <= hi + 1e-12)


def test_boltzmann_extension():
    assert boltzmann(1.0) == 0.0
    assert boltzmann(0.0) == 1.0
    assert boltzmann(2.0) == pytest.approx(2 * np.log(2) - 1)


@pytest.mark.parametrize("r, expected", [
    (np.inf, np.inf),  # the limit of r log r - r + 1, not inf - inf
    (np.nan, np.nan),
    (-1.0, np.nan),
    (-np.inf, np.nan),
    (0.0, 1.0),
])
def test_boltzmann_at_the_edge_of_its_domain(r, expected):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = boltzmann(r)
    np.testing.assert_equal(value, expected)


def test_import_loads_no_scipy_special():
    # r log r is the one function the package would take from scipy.special
    src = str(Path(edpflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, edpflow; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.special')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_xlogx_has_the_bits_of_xlogy():
    rng = np.random.default_rng(35)
    big = np.finfo(float).max
    edge = np.array([0.0, -0.0, 1.0, big, 5e-324, 2.5e-320, np.finfo(float).tiny / 3,
                     np.finfo(float).tiny])
    for r in (rng.uniform(0.0, 3.0, 10**6), rng.lognormal(0.0, 5.0, 10**6), edge):
        np.testing.assert_array_equal(_xlogx(r).view(np.int64), xlogy(r, r).view(np.int64))


@pytest.mark.parametrize("delta", [(1.0, 2.0), (1.3, 0.7)])
def test_energies_have_the_bits_of_the_xlogy_formulas(rng, delta):
    params = SystemParams(delta, 1.0, 3.0, epsilon=0.1)
    tilt = cosine_tilt(40, [[0.3], [-0.2]])
    c = positive_state(rng, 40).c.copy()
    c[1, :3] = 0.0  # empty cells take the extension at r = 0
    h = 1.0 / 40
    w = params.w[:, None]
    r = c / w
    expected = (float(np.sum((xlogy(r, r) - r + 1.0) * w)) * h
                + float(np.sum(tilt.v_cells * c)) * h)
    assert energy(State(c), params, tilt).hex() == expected.hex()
    hat_c = c.sum(axis=0)
    v_hat = coarse_params(params, tilt).v_hat
    expected = float(np.sum(xlogy(hat_c, hat_c) + hat_c * v_hat)) * (1.0 / 40)
    assert hat_energy(hat_c, params, tilt).hex() == expected.hex()


def test_exchange_derivative_identity(rng):
    # (C*)'(log p - log q) = (p - q) / sqrt(p q)
    p = rng.uniform(0.05, 20.0, 500)
    q = rng.uniform(0.05, 20.0, 500)
    lhs = cosh_star_prime(np.log(p) - np.log(q))
    rhs = (p - q) / np.sqrt(p * q)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_exchange_value_identity(rng):
    # C*(log p - log q) = 2 (sqrt p - sqrt q)^2 / sqrt(p q)
    p = rng.uniform(0.05, 20.0, 500)
    q = rng.uniform(0.05, 20.0, 500)
    lhs = cosh_star(np.log(p) - np.log(q))
    rhs = 2.0 * (np.sqrt(p) - np.sqrt(q)) ** 2 / np.sqrt(p * q)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_dual_potential_at_energy_gradient_matches_slope(params, rng):
    # evaluating the dual potential at minus the energy gradient must agree
    # with the relative-density slope form: the exchange parts coincide
    # cellwise by the identity above, the diffusion parts are two consistent
    # discretizations and converge to each other under refinement
    from edpflow import energy_gradient

    gaps = []
    for n in (20, 40, 80):
        grid = SpatialGrid(n)
        tilt = Tilt.from_callables(
            grid, [lambda x: 0.4 * np.cos(np.pi * x), lambda x: -0.2 * np.cos(2 * np.pi * x)]
        )
        w_v, _ = stationary_measure(params, tilt)
        c = w_v * (1 + 0.4 * np.cos(np.pi * grid.cell_centers) + 0.1 * np.cos(2 * np.pi * grid.cell_centers))
        st = State(c / (c.sum() / n))
        xi = -energy_gradient(st, params, tilt)
        dual = dual_dissipation(st, params, tilt, xi)
        sd, sr = slope(st, params, tilt)
        gaps.append(abs(dual - (sd + sr)))
    assert gaps[2] < gaps[0] / 8  # second-order mutual consistency


class TestEnergy:
    def test_stationary_is_zero(self, params):
        st = State(np.tile(params.w[:, None], (1, 8)))
        assert energy(st, params, Tilt.zero(8)) == pytest.approx(0.0, abs=1e-15)

    def test_uniform_half_half(self, params):
        # direct evaluation of the Boltzmann integrand at r = 2/3 and r = 2
        st = State(np.full((2, 10), 0.5))
        assert energy(st, params, Tilt.zero(10)) == pytest.approx(0.143841, abs=1e-5)

    def test_constant_shift(self, params, rng):
        st = positive_state(rng, 12)
        kappa = 0.37
        grid = SpatialGrid(12)
        t0 = Tilt.zero(12)
        t1 = Tilt.from_callables(grid, [lambda x: kappa + 0 * x] * 2)
        assert energy(st, params, t1) - energy(st, params, t0) == pytest.approx(kappa, abs=1e-12)

    def test_negative_density_rejected(self, params):
        c = np.full((2, 4), 0.5)
        st = State(c)
        object.__setattr__(st, "c", c * np.array([[1.0], [1.0]]))  # keep shape
        bad = np.full((2, 4), 0.5)
        bad[0, 0] = -0.1
        with pytest.raises(ValueError):
            State(bad)

    def test_empty_cells_finite(self, params):
        c = np.full((2, 4), 0.5)
        c[0, 1] = 0.0
        st = State(c)
        val = energy(st, params, Tilt.zero(4))
        assert np.isfinite(val)


class TestStationaryMeasure:
    def test_zero_tilt(self, params):
        w_v, z = stationary_measure(params, Tilt.zero(5))
        assert z == pytest.approx(1.0, abs=1e-14)
        assert np.allclose(w_v, params.w[:, None])
        assert np.allclose(w_v, [[0.75], [0.25]] * np.ones((1, 5)))

    def test_constant_tilt_cancels(self, params):
        kappa = 0.8
        grid = SpatialGrid(6)
        tilt = Tilt.from_callables(grid, [lambda x: kappa + 0 * x] * 2)
        w_v, z = stationary_measure(params, tilt)
        assert z == pytest.approx(np.exp(-kappa), rel=1e-14)
        assert np.allclose(w_v, params.w[:, None])

    def test_unit_total_measure(self, params, rng):
        tilt = cosine_tilt(9, [[0.4, -0.2], [0.1]])
        w_v, _ = stationary_measure(params, tilt)
        assert w_v.sum() / 9 == pytest.approx(1.0, abs=1e-14)
        w_f = stationary_measure_faces(params, tilt)
        assert w_f.shape == (2, 10)
        assert np.all(w_f > 0)


class TestDualDissipation:
    def test_constant_equal_potentials_vanish(self, params, rng):
        st = positive_state(rng, 7)
        xi = np.full((2, 7), 1.3)
        assert dual_dissipation(st, params, Tilt.zero(7), xi) == 0.0

    def test_unnormalized_reference_value(self, params):
        # c1 = c2 = 1 everywhere, xi difference 2 log 2, spatially constant
        st = State(np.ones((2, 8)))
        xi = np.zeros((2, 8))
        xi[0] = 2 * np.log(2)
        assert dual_dissipation(st, replace(params, epsilon=1.0), Tilt.zero(8), xi) == pytest.approx(
            1.0, abs=1e-12)

    def test_convex_in_xi(self, params, rng):
        st = positive_state(rng, 6)
        tilt = Tilt.zero(6)
        for _ in range(25):
            a = rng.normal(size=(2, 6))
            b = rng.normal(size=(2, 6))
            mid = dual_dissipation(st, params, tilt, 0.5 * (a + b))
            ends = 0.5 * (dual_dissipation(st, params, tilt, a) + dual_dissipation(st, params, tilt, b))
            assert mid <= ends + 1e-12

    def test_critical_at_stationary_state(self, params):
        tilt = cosine_tilt(10, [[0.5], [-0.3]])
        w_v, _ = stationary_measure(params, tilt)
        st = State(w_v)
        xi = -energy_gradient(st, params, tilt)
        assert dual_dissipation(st, params, tilt, xi) == pytest.approx(0.0, abs=1e-13)


class TestSlope:
    def test_uniform_manifold_state(self, params):
        st = State(np.tile(params.w[:, None], (1, 6)) * 1.0)
        sd, sr = slope(st, params, Tilt.zero(6))
        assert sd == 0.0 and sr == 0.0

    def test_varying_manifold_state(self, params):
        n = 16
        x = (np.arange(n) + 0.5) / n
        hat = 1 + 0.4 * np.cos(np.pi * x)
        st = State(params.w[:, None] * hat[None, :])
        sd, sr = slope(st, params, Tilt.zero(n))
        assert sr == 0.0
        assert sd > 0.0

    def test_tilted_stationary_state(self, params):
        tilt = cosine_tilt(12, [[0.6], [0.2, -0.1]])
        w_v, _ = stationary_measure(params, tilt)
        sd, sr = slope(State(w_v), params, tilt)
        assert sd == pytest.approx(0.0, abs=1e-14)
        assert sr == pytest.approx(0.0, abs=1e-14)

    def test_off_manifold_scales_inversely(self, params, rng):
        st = positive_state(rng, 8)
        _, sr1 = slope(st, replace(params, epsilon=0.1), Tilt.zero(8))
        _, sr2 = slope(st, replace(params, epsilon=0.01), Tilt.zero(8))
        assert sr2 == pytest.approx(10 * sr1, rel=1e-12)

    def test_three_species_rejected(self, params):
        # the two-species slope has one exchange edge; a third species is the network's case
        with pytest.raises(ValueError, match="two-species evaluation"):
            slope(State(np.ones((3, 6))), params, Tilt.zero(6, n_species=3))


class TestEffectiveDualPotential:
    def test_equal_potentials_finite(self, params, rng):
        st = positive_state(rng, 6)
        phi = rng.normal(size=6)
        xi = np.stack([phi, phi])
        val = r_eff_dual(st, params, Tilt.zero(6), xi)
        assert np.isfinite(val)
        # with equal components the exchange term vanishes, so the gated
        # potential coincides with the full dual potential
        assert val == pytest.approx(dual_dissipation(st, params, Tilt.zero(6), xi), abs=1e-15)

    def test_unequal_potentials_infinite(self, params, rng):
        st = positive_state(rng, 6)
        xi = np.zeros((2, 6))
        xi[0] += 1.0
        assert r_eff_dual(st, params, Tilt.zero(6), xi) == np.inf

    def test_zero_potential(self, params, rng):
        st = positive_state(rng, 6)
        assert r_eff_dual(st, params, Tilt.zero(6), np.zeros((2, 6))) == 0.0


class TestPerspective:
    def test_quadratic_value(self):
        assert perspective_eval("quadratic", 2.0, 3.0) == pytest.approx(2.25, abs=1e-15)

    def test_zero_zero(self):
        assert perspective_eval("quadratic", 0.0, 0.0) == 0.0
        assert perspective_eval("cosh", 0.0, 0.0) == 0.0

    def test_zero_scale_nonzero_flux(self):
        assert perspective_eval("quadratic", 0.0, 1.0) == np.inf
        assert perspective_eval("cosh", 0.0, -2.0) == np.inf

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            perspective_eval("cosh", -1.0, 0.0)
        with pytest.raises(ValueError):
            perspective_eval("nope", 1.0, 0.0)

    def test_monotone_in_scale(self, rng):
        a2 = rng.uniform(0.01, 5.0, 300)
        a1 = a2 + rng.uniform(0.0, 5.0, 300)
        x = rng.normal(0, 3, 300)
        v1 = perspective_eval("cosh", a1, x)
        v2 = perspective_eval("cosh", a2, x)
        assert np.all(v1 <= v2 + 1e-12)

    def test_joint_convexity(self, rng):
        for base in ("quadratic", "cosh"):
            a = rng.uniform(0.05, 4.0, (2, 400))
            x = rng.normal(0, 2, (2, 400))
            mid = perspective_eval(base, 0.5 * (a[0] + a[1]), 0.5 * (x[0] + x[1]))
            ends = 0.5 * (perspective_eval(base, a[0], x[0]) + perspective_eval(base, a[1], x[1]))
            assert np.all(mid <= ends + 1e-10)


@pytest.mark.parametrize("c, delta, want", [
    ([[1.0, 3.0, 2.0], [4.0, 0.0, 2.0]], [1.0, 0.25], [[2.0, 2.5], [0.5, 0.25]]),
    ([[1.0, 3.0, 2.0], [4.0, 0.0, 2.0]], [[1.0, 2.0, 0.5], [0.25, 3.0, 1.0]], [[3.5, 3.5], [0.5, 1.0]]),
    ([[0.1, 0.3, 0.7]], [[1.3, 0.7, 0.37]], [[0.5 * (1.3 * 0.1 + 0.7 * 0.3), 0.5 * (0.7 * 0.3 + 0.37 * 0.7)]]),
], ids=["per_species", "per_cell", "per_cell_rounded"])
def test_face_mobility_is_the_face_mean_of_delta_c(c, delta, want):
    # 1/2 (delta_k c_k + delta_{k+1} c_{k+1}) on each interior face, bit for bit, for each
    # state of a stack
    c, delta, want = np.array(c), np.array(delta), np.array(want)
    assert np.array_equal(_face_mobility(c, delta), want)
    assert np.array_equal(_face_mobility(np.stack([c, 2.0 * c]), delta), [want, 2.0 * want])


def face_kinetic_oracle(j, mob):
    """The masked face cost that :func:`edpflow.functionals._face_kinetic` replaced, as its oracle."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(mob > 0, j * j / np.where(mob > 0, mob, 1.0), np.where(j == 0, 0.0, np.inf))


def perspective_oracle(base, a, x):
    """The gathering perspective evaluation that :func:`perspective_eval` replaced, as its oracle."""
    f = {"quadratic": lambda s: 0.5 * s * s, "cosh": cosh_primal}[base]
    a_b, x_b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(x, dtype=float))
    out = np.empty(a_b.shape, dtype=float)
    pos = a_b > 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out[pos] = a_b[pos] * f(x_b[pos] / a_b[pos])
    out[~pos] = np.where(x_b[~pos] == 0.0, 0.0, np.inf)
    return float(out) if out.ndim == 0 else out


FLUXES = [0.0, -0.0, 5e-324, 1e-300, -1e-300, 1.0, -2.5, 1e150, 1e200, -1e200,
          np.inf, -np.inf, np.nan]
POSITIVE = [1.0, 0.25, 1e-300, 5e-324, 1e300]
NOT_POSITIVE = [0.0, -0.0, np.nan]


class TestMasklessParity:
    """The face costs without masks, against the masked expressions: same bytes, same warnings."""

    @staticmethod
    def _assert_same(fn, oracle, *args):
        results = []
        for f in (fn, oracle):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                value = f(*args)
            results.append((type(value), np.asarray(value).shape, np.asarray(value).tobytes(),
                            [(w.category, str(w.message)) for w in caught]))
        assert results[0] == results[1]
        return results[0]

    @pytest.mark.parametrize("mobilities", [POSITIVE, POSITIVE + NOT_POSITIVE], ids=["positive", "mixed"])
    def test_face_kinetic(self, mobilities):
        j, mob = np.meshgrid(FLUXES, mobilities)
        *_, caught = self._assert_same(_face_kinetic, face_kinetic_oracle, j, mob)
        # 1e200 squared, and 1 over 5e-324
        assert {m for _, m in caught} == {"overflow encountered in multiply",
                                          "overflow encountered in divide"}
        *_, caught = self._assert_same(_face_kinetic, face_kinetic_oracle, j[:, :5], mob[:, :5])
        assert caught == []  # zero and tiny fluxes

    @pytest.mark.parametrize("base", ["quadratic", "cosh"])
    @pytest.mark.parametrize("scales", [POSITIVE, POSITIVE + NOT_POSITIVE], ids=["positive", "mixed"])
    def test_perspective(self, base, scales):
        x, a = np.meshgrid(FLUXES, scales)
        self._assert_same(perspective_eval, perspective_oracle, base, a, x)

    @pytest.mark.parametrize("base", ["quadratic", "cosh"])
    def test_perspective_broadcast_and_scalar(self, base):
        for scale in (0.3, 0.0):  # a scalar scale broadcast over the fluxes
            self._assert_same(perspective_eval, perspective_oracle, base, scale, np.array(FLUXES))
        self._assert_same(perspective_eval, perspective_oracle, base, np.array(POSITIVE), 1.5)
        for scale, flux in ((2.0, 3.0), (0.0, 0.0), (0.0, -1.0), (np.array(0.5), np.array(-2.0))):
            kind, *_ = self._assert_same(perspective_eval, perspective_oracle, base, scale, flux)
            assert kind is float
