"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Tolerances are pinned here, not calibrated elsewhere.  Criteria about limit
statements are trend measurements (fitted slopes, monotone sweeps) at desk
scale; the remaining criteria are quantitative reproductions of closed-form
constants and identities.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

from edpflow import (
    MarkovGenerator,
    SolverConfig,
    SpatialGrid,
    State,
    SystemParams,
    Tilt,
    Trajectory,
    build_recovery_sequence,
    coarse_grain_trajectory,
    coarse_params,
    cosh_primal,
    cosh_star,
    dissipation_functional,
    energy,
    fit_decay_rate,
    flux_dissipation,
    flux_equilibration_check,
    gce_residual,
    hat_dissipation,
    hat_edb_residual,
    hat_energy,
    hat_flux_dissipation,
    kappa_coefficients,
    lagrange_multipliers,
    manifold_split,
    perspective_eval,
    primal_R_eps,
    primal_objective,
    random_detailed_balance_generator,
    reconstruct_from_coarse,
    solve_effective,
    solve_eps_system,
    stationary_measure,
    validate_generator,
)
from edpflow.cli import equation_generator
from edpflow.core import FluxAssignment
from edpflow.functionals import cosh_primal_prime

from test_dissipation import brute_force_three_cell

PARAMS = SystemParams((1.0, 2.0), 1.0, 3.0)
TARGET_MIXED = 1.25  # (beta*delta1 + alpha*delta2) / (alpha + beta)


def report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def smooth_tilt(n):
    grid = SpatialGrid(n)
    return Tilt.from_callables(
        grid, [lambda x: 0.3 * np.cos(np.pi * x), lambda x: -0.2 * np.cos(np.pi * x)]
    )


def test_criterion_1_mixed_diffusion_coefficient():
    n, dt, t_final = 200, 1e-4, 0.1
    grid = SpatialGrid(n)
    tilt = Tilt.zero(n)
    hat0 = 1 + 0.5 * np.cos(np.pi * grid.cell_centers)
    start = time.perf_counter()
    errors = []
    for eps in (1e-1, 1e-2, 1e-3, 1e-4):
        p = SystemParams((1.0, 2.0), 1.0, 3.0, epsilon=eps)
        c0 = State(manifold_split(hat0, p, tilt))
        traj = solve_eps_system(c0, p, tilt, SolverConfig(dt, t_final))
        fitted = fit_decay_rate(coarse_grain_trajectory(traj))
        errors.append(abs(fitted - TARGET_MIXED) / TARGET_MIXED)
    elapsed = time.perf_counter() - start
    monotone = all(b < a for a, b in zip(errors, errors[1:]))
    ok = errors[-1] <= 0.02 and monotone and elapsed < 30.0
    report(1, ok,
           f"fitted mixed coefficient, rel errors {[f'{e:.2e}' for e in errors]}, "
           f"final {errors[-1]:.2e} <= 2e-2, monotone={monotone}, runtime {elapsed:.1f}s < 30s")


def test_criterion_2_slow_manifold_defect_scaling():
    n, t_final = 200, 0.1
    grid = SpatialGrid(n)
    tilt = Tilt.zero(n)
    hat0 = 1 + 0.5 * np.cos(np.pi * grid.cell_centers)
    c0 = State(np.stack([0.55 * hat0, 0.45 * hat0]))
    h = grid.h
    epss = (1e-1, 1e-2, 1e-3, 1e-4)
    defects = []
    for eps in epss:
        dt = min(1e-4, eps / 5)  # resolve the equilibration layer
        p = SystemParams((1.0, 2.0), 1.0, 3.0, epsilon=eps)
        traj = solve_eps_system(c0, p, tilt, SolverConfig(dt, t_final))
        w_v, _ = stationary_measure(p, tilt)
        rho = traj.states / w_v[None]
        dsq = (np.sqrt(rho[:, 0]) - np.sqrt(rho[:, 1])) ** 2
        dts = np.diff(traj.times)
        defects.append(float(np.sum(dsq[:-1].sum(axis=1) * h * dts)))
    slope_fit = float(np.polyfit(np.log(epss), np.log(defects), 1)[0])
    ok = slope_fit >= 0.9
    report(2, ok, f"defect integral log-log slope {slope_fit:.3f} >= 0.9")


def test_criterion_3_energy_dissipation_balance_refinement():
    eps = 0.1
    p = SystemParams((1.0, 2.0), 1.0, 3.0, epsilon=eps)
    res_eps, res_eff, drops = [], [], []
    for level in range(4):
        n = 20 * 2**level
        dt = 4e-4 / 2**level
        tilt = smooth_tilt(n)
        w_v, _ = stationary_measure(p, tilt)
        x = SpatialGrid(n).cell_centers
        c0 = w_v * (1 + 0.4 * np.cos(np.pi * x))
        c0 /= c0.sum() / n
        traj = solve_eps_system(State(c0), p, tilt, SolverConfig(dt, 0.25))
        bd = dissipation_functional(traj, p, tilt)
        e0 = energy(traj.initial_state, p, tilt)
        e1 = energy(traj.final_state, p, tilt)
        res_eps.append(abs(e1 + bd.total - e0))
        htraj = solve_effective(c0.sum(axis=0), p, tilt, SolverConfig(dt, 0.25))
        res_eff.append(abs(hat_edb_residual(htraj, p, tilt)))
        hdrop = hat_energy(htraj.states[0, 0], p, tilt) - hat_energy(htraj.states[-1, 0], p, tilt)
        drops.append((e0 - e1, hdrop))
    lv = np.arange(4.0)
    order_eps = float(-np.polyfit(lv, np.log2(res_eps), 1)[0])
    order_eff = float(-np.polyfit(lv, np.log2(res_eff), 1)[0])
    ok = (
        order_eps >= 0.8 and order_eff >= 0.8
        and res_eps[-1] <= 1e-3 * drops[-1][0]
        and res_eff[-1] <= 1e-3 * drops[-1][1]
    )
    report(3, ok,
           f"EDB orders fast-slow {order_eps:.2f}, effective {order_eff:.2f} (>= 0.8); "
           f"finest residuals {res_eps[-1]:.2e}, {res_eff[-1]:.2e} vs 1e-3*drop "
           f"{1e-3 * drops[-1][0]:.2e}, {1e-3 * drops[-1][1]:.2e}")


def test_criterion_4_primal_dual_oracle():
    eps = 0.5
    max_gap_oracle = 0.0
    max_gap_duality = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        c = rng.uniform(0.3, 1.5, (2, 3))
        v = rng.normal(size=(2, 3))
        v -= v.mean()
        res = primal_R_eps(State(c), replace(PARAMS, epsilon=eps), v)
        oracle = brute_force_three_cell(c, v, PARAMS, eps)
        max_gap_oracle = max(max_gap_oracle, abs(res.value - oracle))
        vd, vr = primal_objective(State(c), replace(PARAMS, epsilon=eps), res.fluxes)
        max_gap_duality = max(max_gap_duality, vd + vr - res.value)
    ok = max_gap_oracle <= 1e-6 and 0 <= max_gap_duality <= 1e-8
    report(4, ok,
           f"10 seeded instances: |dual - brute force| <= {max_gap_oracle:.2e} (tol 1e-6), "
           f"duality gap <= {max_gap_duality:.2e} (tol 1e-8)")


def test_criterion_5_reconstruction_identities():
    n = 40
    tilt = Tilt.zero(n)
    x = SpatialGrid(n).cell_centers
    hat0 = 1 + 0.5 * np.cos(np.pi * x)
    hat0 /= hat0.sum() / n
    htraj = solve_effective(hat0, PARAMS, tilt, SolverConfig(1e-3, 0.05))
    rec = reconstruct_from_coarse(htraj, PARAMS, tilt)
    traj = rec.trajectory
    gce = float(np.max(np.abs(gce_residual(traj))))
    gap = max(
        abs(flux_equilibration_check(traj.state(m), traj.fluxes.J[m, 0],
                                     traj.fluxes.J[m, 1], PARAMS))
        for m in range(0, traj.n_times - 1, 10)
    )
    j1_err = float(np.max(np.abs(traj.fluxes.J[:, 0] - 0.6 * htraj.fluxes.J[:, 0])))
    j2_err = float(np.max(np.abs(traj.fluxes.J[:, 1] - 0.4 * htraj.fluxes.J[:, 0])))
    div = (htraj.fluxes.J[:, 0, 1:] - htraj.fluxes.J[:, 0, :-1]) * n
    b_err = float(np.max(np.abs(traj.fluxes.b[:, 0] + 0.15 * div)))
    ok = gce <= 1e-12 and gap <= 1e-12 and max(j1_err, j2_err, b_err) <= 1e-12
    report(5, ok,
           f"gce residual {gce:.2e}, equilibration gap {gap:.2e}, "
           f"constants J1=0.6J {j1_err:.2e}, J2=0.4J {j2_err:.2e}, b1=-0.15divJ {b_err:.2e} "
           f"(all <= 1e-12)")


def test_criterion_6_lagrange_multiplier_cancellation():
    errs = []
    for n in (40, 80, 160):
        grid = SpatialGrid(n)
        tilt = Tilt.from_callables(
            grid, [lambda x: 0.5 * np.cos(np.pi * x), lambda x: 0.3 * np.cos(2 * np.pi * x)]
        )
        cp = coarse_params(PARAMS, tilt)
        hat0 = cp.w_hat * (1 + 0.4 * np.cos(np.pi * grid.cell_centers))
        hat0 /= hat0.sum() / n
        htraj = solve_effective(hat0, PARAMS, tilt, SolverConfig(2e-3 * 40 / n, 0.05))
        lam1, lam2 = lagrange_multipliers(htraj.states[-1, 0], PARAMS, tilt)
        errs.append(float(np.max(np.abs(lam1 + lam2))))
    ratios = [errs[k] / errs[k + 1] for k in range(2)]
    ok = all(r >= 1.8 for r in ratios)
    report(6, ok,
           f"max|l1+l2| = {[f'{e:.2e}' for e in errs]}, per-halving factors "
           f"{[f'{r:.2f}' for r in ratios]} (>= 1.8)")


def test_criterion_7_recovery_sequence_trend():
    n = 60
    tilt = Tilt.zero(n)
    x = SpatialGrid(n).cell_centers
    hat0 = 1 + 0.3 * np.cos(np.pi * x)
    hat0 /= hat0.sum() / n
    htraj = solve_effective(hat0, PARAMS, tilt, SolverConfig(1e-3, 0.1))
    limit = reconstruct_from_coarse(htraj, PARAMS, tilt).trajectory
    d0 = hat_flux_dissipation(htraj, PARAMS, tilt).total
    costs, gaps = [], []
    for eps in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5):
        rec = build_recovery_sequence(limit, replace(PARAMS, epsilon=eps), tilt)
        bd = flux_dissipation(rec.trajectory, replace(PARAMS, epsilon=eps), tilt)
        costs.append(bd.vel_react)
        gaps.append(abs(bd.total - d0))
    cost_monotone = all(b < a for a, b in zip(costs, costs[1:]))
    gap_monotone = all(b < a for a, b in zip(gaps, gaps[1:]))
    ok = cost_monotone and costs[-1] < 1e-4 and gap_monotone
    report(7, ok,
           f"exchange cost {[f'{c:.2e}' for c in costs]} monotone={cost_monotone}, "
           f"final {costs[-1]:.2e} < 1e-4; |D_eps - D_0| {[f'{g:.2e}' for g in gaps]} "
           f"monotone={gap_monotone}")


def test_criterion_8_function_pair_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(2026)
    failures = []

    # Fenchel-Young equality at the closed-form maximizer, 1000 points
    s = np.concatenate([rng.uniform(-80, 80, 900), rng.normal(0, 1e-2, 100)])
    x_star = cosh_primal_prime(s)
    fy = np.abs(cosh_primal(s) + cosh_star(x_star) - s * x_star)
    if fy.max() >= 1e-10:
        failures.append(f"Fenchel-Young equality defect {fy.max():.2e}")

    # sandwich bound over twelve decades, both signs
    r = np.concatenate([np.logspace(-6, 6, 10000), -np.logspace(-6, 6, 10000)])
    val = cosh_primal(r)
    lo = 0.5 * np.abs(r) * np.log(np.abs(r) + 1.0)
    hi = 2.0 * np.abs(r) * np.log(np.abs(r) + 1.0)
    if not (np.all(val >= lo - 1e-12) and np.all(val <= hi + 1e-12)):
        failures.append("log sandwich violated")

    # superlinear-growth bound with the threshold where C(r) crosses |r|
    k_c = brentq(lambda t: cosh_primal(t) - t, 2.0, 3.0, xtol=1e-12)
    rho = np.abs(rng.normal(0, 1.5, 10000))
    rho[rng.random(10000) < 0.05] = 0.0
    w_field = rng.normal(0, 4.0, 10000)
    w_field[rho == 0.0] = 0.0
    lhs = np.abs(w_field).mean()
    rhs = perspective_eval("cosh", rho, w_field).mean() + k_c * rho.mean()
    if lhs > rhs + 1e-12:
        failures.append(f"superlinear-growth bound violated (k_C={k_c:.4f})")

    # kinetic interpolation bound, sampled exponents p > 1
    j = rng.normal(0, 3, 10000)
    cc = rng.uniform(1e-3, 5.0, 10000)
    pp = rng.uniform(1.01, 6.0, 10000)
    lhs_k = j**2 / cc + cc**pp / pp
    rhs_k = (1 + 1 / pp) * np.abs(j) ** (2 * pp / (pp + 1))
    if not np.all(lhs_k >= rhs_k - 1e-10):
        failures.append("kinetic interpolation bound violated")

    # perspective lower bound against a power of the scale
    for p in (1.2, 2.0, 4.0):
        a = rng.uniform(0, 8.0, 10000)
        big_b = rng.uniform(-60, 60, 10000)
        lhs_p = perspective_eval("cosh", a, big_b)
        rhs_p = (1 - 1 / p) * cosh_primal(big_b) - (2 / p) * a**p
        if not np.all(lhs_p >= rhs_p - 1e-10):
            failures.append(f"perspective power bound violated at p={p}")

    # monotonicity in the scale and joint convexity
    a2 = rng.uniform(0.01, 5.0, 10000)
    a1 = a2 + rng.uniform(0, 5.0, 10000)
    xs = rng.normal(0, 3, 10000)
    if not np.all(perspective_eval("cosh", a1, xs) <= perspective_eval("cosh", a2, xs) + 1e-12):
        failures.append("monotonicity in the scale violated")
    aa = rng.uniform(0.05, 4.0, (2, 10000))
    xx = rng.normal(0, 2, (2, 10000))
    mid = perspective_eval("cosh", 0.5 * (aa[0] + aa[1]), 0.5 * (xx[0] + xx[1]))
    ends = 0.5 * (perspective_eval("cosh", aa[0], xx[0]) + perspective_eval("cosh", aa[1], xx[1]))
    if not np.all(mid <= ends + 1e-10):
        failures.append("joint convexity violated")

    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.1f}s >= 5s")
    report(8, not failures, f"function-pair suite in {elapsed:.2f}s; failures: {failures or 'none'}")


def test_criterion_9_multispecies_generators():
    p = SystemParams((1.0, 2.0), 1.0, 3.0)
    pair = equation_generator(p)
    pair_ok = validate_generator(pair).ok

    kappa_ok = True
    for eps in (1.0, 1e-2, 1e-4):
        kap = kappa_coefficients(pair, eps)
        kappa_ok = kappa_ok and abs(kap[0, 1] * eps - 1.0) <= 1e-13

    rng = np.random.default_rng(41)
    net = random_detailed_balance_generator(rng, 4)
    net_ok = validate_generator(net).ok
    sym_ok = True
    for eps in (1.0, 1e-2, 1e-4):
        kap = kappa_coefficients(net, eps)
        scale = max(1.0, float(np.abs(kap).max()))
        sym_ok = sym_ok and float(np.abs(kap - kap.T).max()) / scale <= 1e-13

    a_fast = net.a_fast.copy()
    i, j = np.argwhere(a_fast > 0)[0]
    a_fast[i, j] *= 1.5
    a_fast[j, j] = 0.0
    a_fast[j, j] = -a_fast[:, j].sum()
    broken = MarkovGenerator(net.species, net.a_slow, a_fast, net.delta)
    rep = validate_generator(broken)
    reject_ok = not rep.ok and any("detailed balance" in f for f in rep.failures)

    ok = pair_ok and kappa_ok and net_ok and sym_ok and reject_ok
    report(9, ok,
           f"pair generator valid={pair_ok}, kappa12*eps=1 exact={kappa_ok}, "
           f"4-species network valid={net_ok}, kappa symmetry 1e-13={sym_ok}, "
           f"non-detailed-balance rejected={reject_ok}")
