"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see every verdict; each test
also asserts, so the suite gates CI. Tolerances are pinned here, not
configurable.
"""

import dataclasses
import math
import time

import numpy as np
import pytest
from scipy import stats as sps

from relaystop import (
    EstimatorConfig,
    FixedGain,
    PolicyKind,
    PolicySpec,
    SimConfig,
    full_csi_rate_sampler,
    oracle_threshold_search,
    run_scenario1,
    run_scenario2,
    solve_full_csi_lambda,
    solve_main_gamma_intuitive,
    solve_main_gamma_optimal,
    solve_sub_layer_batch,
    solve_sub_w_batch,
    success_prob,
)
from relaystop.channel import SystemParams, af_rate, rate_saturation
from relaystop.simulator import OBSERVATION_CAP
from .conftest import discrete_rate_sampler, full_csi_residual, reference_w

# Three standard exponential-channel configurations.
CONFIG_A = SystemParams(num_sources=4, num_relays=2, source_power=10.0, relay_power=10.0,
                        first_hop_mean_gain=1.0, second_hop_mean_gain=1.0,
                        slot_time=0.1, data_time=1.0, source_prob=0.25, relay_prob=0.5)
CONFIG_B = SystemParams(num_sources=2, num_relays=1, source_power=5.0, relay_power=5.0,
                        first_hop_mean_gain=1.0, second_hop_mean_gain=1.0,
                        slot_time=0.2, data_time=2.0, source_prob=0.5, relay_prob=1.0)
CONFIG_C = SystemParams(num_sources=8, num_relays=4, source_power=1.0, relay_power=1.0,
                        first_hop_mean_gain=2.0, second_hop_mean_gain=0.5,
                        slot_time=0.05, data_time=1.0, source_prob=0.125, relay_prob=0.25)
STANDARD = {"A": CONFIG_A, "B": CONFIG_B, "C": CONFIG_C}

# Two-part access configuration used for criteria 7 and 8.
CONFIG_TWO_PART = SystemParams(num_sources=2, num_relays=2, source_power=10.0,
                               relay_power=10.0, first_hop_mean_gain=1.0,
                               second_hop_mean_gain=1.0, slot_time=0.1, data_time=1.0,
                               source_prob=0.5, relay_prob=0.5)

# Deterministic hook: unit contention, constant rate 1 via F=3, g=2.
CONFIG_DET = SystemParams(num_sources=1, num_relays=1, source_power=1.0, relay_power=1.0,
                          first_hop_mean_gain=1.0, second_hop_mean_gain=1.0,
                          slot_time=0.2, data_time=2.0, source_prob=1.0, relay_prob=1.0)
DET_HOPS = dict(first_hop=FixedGain(3.0), second_hop=FixedGain(2.0))

EST_FULL = EstimatorConfig(mc_samples=100_000, quad_points=64, seed=101, tol=1e-6)
EST_TWO_PART = EstimatorConfig(mc_samples=50_000, quad_points=64, seed=2, tol=1e-6)


def _report(num, name, checks):
    ok = all(checks.values())
    detail = ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in checks.items())
    print(f"\n[acceptance] criterion {num} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def full_csi_solutions():
    out = {}
    for name, params in STANDARD.items():
        t0 = time.perf_counter()
        sol = solve_full_csi_lambda(params, EST_FULL)
        out[name] = (sol, time.perf_counter() - t0)
    return out


@pytest.fixture(scope="module")
def scenario1_run(full_csi_solutions):
    sol, _ = full_csi_solutions["A"]
    spec = PolicySpec(PolicyKind.FULL_CSI, sol.value)
    t0 = time.perf_counter()
    stats = run_scenario1(CONFIG_A, spec, SimConfig(packets=100_000, seed=202))
    return sol, stats, time.perf_counter() - t0


@pytest.fixture(scope="module")
def two_part_solutions():
    return (solve_main_gamma_intuitive(CONFIG_TWO_PART, EST_TWO_PART),
            solve_main_gamma_optimal(CONFIG_TWO_PART, EST_TWO_PART))


def test_criterion_1_fixed_point_correctness(full_csi_solutions):
    checks = {}
    for name, params in STANDARD.items():
        sol, runtime = full_csi_solutions[name]
        checks[f"{name}_residual"] = abs(sol.residual) <= 1e-6
        checks[f"{name}_runtime"] = runtime < 30.0
        grid = np.linspace(0.0, 2.0 * sol.bracket[1], 200)
        signs = np.sign(full_csi_residual(params, grid))  # the exact residual solved
        nonzero = signs[signs != 0]
        checks[f"{name}_unique"] = int(np.sum(np.diff(nonzero) != 0)) == 1
    _report(1, "fixed-point correctness", checks)


def test_criterion_2_oracle_agreement(full_csi_solutions):
    checks = {}
    for name, params in STANDARD.items():
        sol, _ = full_csi_solutions[name]
        grid = np.linspace(0.0, 4.0 * sol.value, 500)
        best_th, best_tp = oracle_threshold_search(params, grid, EST_FULL)
        checks[f"{name}_throughput"] = abs(best_tp - sol.value) <= 0.005 * sol.value
        checks[f"{name}_threshold"] = abs(best_th - 2.0 * sol.value) <= grid[1] - grid[0]
    # exact agreement on the finite-support hook: lam* = 5/6 at T=2, tau/p_s=0.2
    hook = dataclasses.replace(CONFIG_DET, source_prob=1.0)
    est = EstimatorConfig(mc_samples=2000, quad_points=64, seed=1, tol=1e-9)
    sampler = discrete_rate_sampler([0.0, 2.0])
    sol_hook = solve_full_csi_lambda(hook, est, sampler)
    th, tp = oracle_threshold_search(hook, [0.0, 1.0], est, sampler)
    checks["hook_solver"] = abs(sol_hook.value - 5.0 / 6.0) <= 1e-8
    checks["hook_oracle_exact"] = tp == pytest.approx(5.0 / 6.0, abs=1e-12) and th == 1.0
    _report(2, "oracle agreement", checks)


def test_criterion_3_simulation_solver_consistency(scenario1_run):
    sol, stats, runtime = scenario1_run
    rel_se = stats.throughput_stderr / stats.throughput
    checks = {
        "within_3_stderr": abs(stats.throughput - sol.value) <= 3.0 * stats.throughput_stderr,
        "relative_stderr": rel_se < 0.005,
        "runtime": runtime < 120.0,
        "packets": stats.bits.size == 100_000,
    }
    _report(3, "scenario-1 simulation consistency", checks)


def test_criterion_4_stopping_time_distributions(scenario1_run):
    sol, stats, _ = scenario1_run
    threshold = 2.0 * sol.value
    reference = full_csi_rate_sampler(CONFIG_A)(np.random.default_rng(404), 10**6)
    q = float((reference >= threshold).mean())

    ns = stats.main_observations
    kmax = int(ns.max())
    probs = q * (1.0 - q) ** (np.arange(1, kmax + 1) - 1)
    cut = int(np.searchsorted(np.cumsum(probs), 1.0 - 80.0 / ns.size))
    observed = np.append(np.bincount(ns, minlength=kmax + 1)[1:][:cut], (ns > cut).sum())
    expected = np.append(probs[:cut], 1.0 - probs[:cut].sum()) * ns.size
    _, p_chi = sps.chisquare(observed, expected)

    p_s = success_prob(CONFIG_A.num_sources, CONFIG_A.source_prob)
    contention = stats.elapsed - CONFIG_A.data_time
    wald = (CONFIG_A.slot_time / p_s) * ns.mean()
    _, p_ks = sps.ks_2samp(stats.rate_at_stop, reference[reference >= threshold])

    checks = {
        "chi_square": p_chi > 0.01,
        "mean_N": abs(ns.mean() - 1.0 / q) <= 0.02 / q,
        "wald_contention": abs(contention.mean() - wald) <= 0.02 * wald,
        "stop_rates_above_threshold": float(stats.rate_at_stop.min()) >= threshold,
        "truncated_cdf_ks": p_ks > 0.01,
    }
    _report(4, "stopping-time distributions", checks)


def test_criterion_5_local_threshold_optimality(full_csi_solutions):
    sol, _ = full_csi_solutions["A"]
    arms = {}
    for label, factor in (("opt", 1.0), ("low", 0.8), ("high", 1.2)):
        spec = PolicySpec(PolicyKind.FULL_CSI, factor * sol.value)
        arms[label] = run_scenario1(CONFIG_A, spec, SimConfig(packets=100_000, seed=303))
    checks = {}
    for label in ("low", "high"):
        diff = arms["opt"].throughput - arms[label].throughput
        pooled = math.hypot(arms["opt"].throughput_stderr, arms[label].throughput_stderr)
        checks[f"beats_{label}_arm"] = diff > 3.0 * pooled
    _report(5, "local threshold optimality", checks)


def test_criterion_6_bilevel_closed_forms():
    est = EstimatorConfig(mc_samples=1024, quad_points=64, seed=1, tol=1e-10)
    # (T r / 2) / (T + tau/(2 p_r) + tau/(2 p_s)) with r=1, p_s=p_r=1
    gamma = (CONFIG_DET.data_time * 0.5) / (CONFIG_DET.data_time + CONFIG_DET.slot_time)
    sol_int = solve_main_gamma_intuitive(CONFIG_DET, est, **DET_HOPS)
    sol_opt = solve_main_gamma_optimal(CONFIG_DET, est, **DET_HOPS)
    checks = {
        "intuitive_closed_form": abs(sol_int.value - gamma) <= 1e-8,
        "optimal_closed_form": abs(sol_opt.value - gamma) <= 1e-8,
    }
    for label, kind in (("intuitive", PolicyKind.INTUITIVE_BILEVEL),
                        ("optimal", PolicyKind.OPTIMAL_BILEVEL)):
        spec = PolicySpec(kind, gamma)
        stats = run_scenario2(CONFIG_DET, spec, SimConfig(packets=1024, seed=6),
                              est=est, **DET_HOPS)
        checks[f"{label}_sim_value"] = abs(stats.throughput - gamma) <= 1e-12
        checks[f"{label}_sim_stderr_zero"] = stats.throughput_stderr == 0.0
    _report(6, "bi-level closed forms", checks)


def test_criterion_7_optimal_rule_consistency(two_part_solutions):
    _, sol_opt = two_part_solutions
    spec = PolicySpec(PolicyKind.OPTIMAL_BILEVEL, sol_opt.value)
    stats = run_scenario2(CONFIG_TWO_PART, spec,
                          SimConfig(packets=100_000, seed=777), est=EST_TWO_PART)
    checks = {
        "within_3_stderr": abs(stats.throughput - sol_opt.value)
        <= 3.0 * stats.throughput_stderr,
        "zero_capped_packets": stats.bits.size == 100_000
        and int(stats.sub_observations.max()) < OBSERVATION_CAP,
    }
    _report(7, "optimal bi-level consistency", checks)


def test_criterion_8_intuitive_consistency_and_dominance(two_part_solutions):
    sol_int, sol_opt = two_part_solutions
    spec = PolicySpec(PolicyKind.INTUITIVE_BILEVEL, sol_int.value)
    stats = run_scenario2(CONFIG_TWO_PART, spec,
                          SimConfig(packets=100_000, seed=777), est=EST_TWO_PART)
    checks = {
        "within_3_stderr": abs(stats.throughput - sol_int.value)
        <= 3.0 * stats.throughput_stderr,
    }
    est = EstimatorConfig(mc_samples=20_000, quad_points=64, seed=11, tol=1e-6)
    sweep = [
        dict(),
        dict(num_relays=4, relay_prob=0.25),
        dict(num_relays=4, relay_prob=0.25, second_hop_mean_gain=0.25,
             first_hop_mean_gain=4.0),
        dict(num_sources=4, source_prob=0.25, slot_time=0.4),
        dict(source_power=1.0, relay_power=1.0),
        dict(num_relays=1, relay_prob=1.0, second_hop_mean_gain=0.5),
    ]
    gaps = []
    for i, overrides in enumerate(sweep):
        params = dataclasses.replace(CONFIG_TWO_PART, **overrides)
        g_int = solve_main_gamma_intuitive(params, est).value
        g_opt = solve_main_gamma_optimal(params, est).value
        gaps.append(g_opt - g_int)
        checks[f"sweep{i}_dominates"] = g_opt >= g_int - 10.0 * est.tol
    # pinned regression: the base configuration shows a strict gap far above
    # solver tolerance (measured ~2.4e-2 at build time)
    checks["strict_gap_at_base"] = gaps[0] > 1e-2
    checks["some_strict_gap"] = max(gaps) > 100.0 * est.tol
    _report(8, "intuitive consistency and dominance", checks)


def test_criterion_9_analytic_bounds():
    rng = np.random.default_rng(909)
    x = rng.exponential(1.0, 10**4)
    y = rng.exponential(1.0, 10**4)
    ln2 = math.log(2.0)
    checks = {
        "product_bound": bool(np.all(af_rate(1.0, 1.0, x, y) <= x * y / ln2 + 1e-12)),
    }
    params = CONFIG_A
    n = 10**6
    f = rng.exponential(params.first_hop_mean_gain, (n, params.num_relays))
    g = rng.exponential(params.second_hop_mean_gain, (n, params.num_relays))
    rates = af_rate(params.source_power, params.relay_power, f, g).max(axis=1)
    bound = (params.num_relays * params.source_power * params.relay_power
             * params.first_hop_mean_gain * params.second_hop_mean_gain / ln2)
    checks["mean_rate_bound"] = float(rates.mean()) <= bound

    rows = rng.exponential(1.0, (1000, CONFIG_TWO_PART.num_relays))
    est = EstimatorConfig(mc_samples=1000, quad_points=64, seed=5, tol=1e-9)
    lam = solve_sub_layer_batch(CONFIG_TWO_PART, rows, est)[0].threshold
    sat = rate_saturation(CONFIG_TWO_PART.source_power, rows).max(axis=1)
    checks["sub_threshold_finite"] = bool(np.all(lam < sat + 1e-12)) \
        and bool(np.all(np.isfinite(lam)))
    _report(9, "analytic bounds", checks)


def test_criterion_10_structural_properties(two_part_solutions):
    est = EstimatorConfig(mc_samples=5000, quad_points=64, seed=2, tol=1e-6)
    rng = np.random.default_rng(31)
    rows = rng.exponential(1.0, (3, CONFIG_TWO_PART.num_relays))
    grid = np.linspace(0.02, 2.0, 12)
    checks = {}
    monotone = True
    for row in rows:
        values = [reference_w(CONFIG_TWO_PART, row, g, est) for g in grid]
        monotone &= bool(np.all(np.diff(values) <= 1e-8))
    checks["w_nonincreasing_in_gamma"] = monotone

    # realized value function: decreasing in gamma with its root at gamma*
    sol = solve_main_gamma_optimal(CONFIG_TWO_PART, est)
    sample = np.random.default_rng(est.seed).exponential(
        CONFIG_TWO_PART.first_hop_mean_gain, (est.mc_samples, CONFIG_TWO_PART.num_relays))
    p_s = success_prob(CONFIG_TWO_PART.num_sources, CONFIG_TWO_PART.source_prob)
    half_t = 0.5 * CONFIG_TWO_PART.data_time

    def value_fn(gamma):
        w = solve_sub_w_batch(CONFIG_TWO_PART, sample, gamma, est)[0]
        return float(np.maximum(w - half_t * gamma, 0.0).mean()
                     - gamma * CONFIG_TWO_PART.slot_time / (2.0 * p_s))

    vgrid = np.linspace(0.2 * sol.value, 1.8 * sol.value, 9)
    values = [value_fn(g) for g in vgrid]
    signs = np.sign(values)
    flip = int(np.argmax(np.diff(signs) != 0))
    checks["value_fn_decreasing"] = bool(np.all(np.diff(values) < 0.0))
    checks["value_fn_root_at_gamma"] = vgrid[flip] <= sol.value <= vgrid[flip + 1]

    # bit-exact reproducibility of solve and simulate for a fixed seed
    sol2 = solve_main_gamma_optimal(CONFIG_TWO_PART, est)
    checks["solver_reproducible"] = sol == sol2
    spec = PolicySpec(PolicyKind.FULL_CSI, 0.9)
    a = run_scenario1(CONFIG_A, spec, SimConfig(packets=2000, seed=55))
    b = run_scenario1(CONFIG_A, spec, SimConfig(packets=2000, seed=55))
    columns = ("main_observations", "sub_observations", "rate_at_stop", "relay",
               "elapsed", "bits")
    checks["simulation_reproducible"] = all(
        np.array_equal(getattr(a, name), getattr(b, name)) for name in columns) \
        and (a.throughput, a.throughput_stderr) == (b.throughput, b.throughput_stderr)
    _report(10, "structural properties", checks)
