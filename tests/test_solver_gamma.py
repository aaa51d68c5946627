"""Source-level fixed points of the two-part access scheme."""

import dataclasses

import numpy as np
import pytest

from relaystop import (
    EstimatorConfig,
    FixedGain,
    solve_full_csi_lambda,
    solve_main_gamma_intuitive,
    solve_main_gamma_optimal,
    solve_sub_layer_batch,
    solve_sub_w_batch,
    success_prob,
)
from relaystop import solver
from .conftest import hook_params, make_params, stress_params

EST = EstimatorConfig(mc_samples=1000, quad_points=64, seed=1, tol=1e-9)
# K = L = 1 with p0 = p1 = 0.5 and constant rate 1 (F = 3, g = 2)
HOOK = hook_params()
HOOK_HOPS = dict(first_hop=FixedGain(3.0), second_hop=FixedGain(2.0))
# gamma* = (T r / 2) / (T + tau/(2 p_r) + tau/(2 p_s)) = 1 / 2.4
HOOK_GAMMA = 1.0 / 2.4
STRESS = stress_params()


def test_intuitive_deterministic_closed_form():
    sol = solve_main_gamma_intuitive(HOOK, EST, **HOOK_HOPS)
    assert sol.value == pytest.approx(HOOK_GAMMA, abs=1e-8)
    assert abs(sol.residual) <= EST.tol


def test_optimal_deterministic_closed_form():
    sol = solve_main_gamma_optimal(HOOK, EST, **HOOK_HOPS)
    assert sol.value == pytest.approx(HOOK_GAMMA, abs=1e-8)
    assert abs(sol.residual) <= EST.tol


def _intuitive_residual(params, est, gamma):
    rows = np.random.default_rng(est.seed).exponential(
        params.first_hop_mean_gain, (est.mc_samples, params.num_relays))
    stats = solve_sub_layer_batch(params, rows, est)
    p_s = success_prob(params.num_sources, params.source_prob)
    half_t = 0.5 * params.data_time
    gain = np.maximum(stats.expected_bits - gamma * stats.expected_time - gamma * half_t,
                      0.0).mean()
    return gain - gamma * params.slot_time / (2.0 * p_s)


def _optimal_residual(params, est, gamma):
    rows = np.random.default_rng(est.seed).exponential(
        params.first_hop_mean_gain, (est.mc_samples, params.num_relays))
    w = solve_sub_w_batch(params, rows, gamma, est)
    p_s = success_prob(params.num_sources, params.source_prob)
    half_t = 0.5 * params.data_time
    return np.maximum(w - half_t * gamma, 0.0).mean() \
        - gamma * params.slot_time / (2.0 * p_s)


def test_intuitive_residual_positive_at_zero():
    assert _intuitive_residual(make_params(), EST, 0.0) > 0.0


def test_intuitive_exponential_contract():
    params = make_params()
    est = EstimatorConfig(mc_samples=4000, quad_points=64, seed=3, tol=1e-6)
    sol = solve_main_gamma_intuitive(params, est)
    assert abs(sol.residual) <= est.tol
    assert _intuitive_residual(params, est, sol.value) == pytest.approx(sol.residual, abs=1e-12)


def test_optimal_exponential_contract():
    params = make_params()
    est = EstimatorConfig(mc_samples=4000, quad_points=64, seed=3, tol=1e-6)
    sol = solve_main_gamma_optimal(params, est)
    assert abs(sol.residual) <= est.tol
    assert _optimal_residual(params, est, sol.value) == pytest.approx(sol.residual, abs=2e-7)


def test_reward_rule_dominates_intuitive_rule():
    # both rules are priced on the same realization set, where the coupled
    # rule is optimal over a class that contains the intuitive rule
    est = EstimatorConfig(mc_samples=4000, quad_points=64, seed=3, tol=1e-6)
    for params in (make_params(),
                   make_params(num_relays=4, relay_prob=0.25, second_hop_mean_gain=0.25),
                   make_params(num_sources=4, source_prob=0.25, slot_time=0.4)):
        g_int = solve_main_gamma_intuitive(params, est)
        g_opt = solve_main_gamma_optimal(params, est)
        assert g_opt.value >= g_int.value - 10.0 * est.tol
        # independent of the coupled solver's start: priced by the batch W solves
        assert _optimal_residual(params, est, g_int.value) >= -est.tol


def test_optimal_residual_decreasing_with_root_at_gamma_star():
    params = make_params()
    est = EstimatorConfig(mc_samples=2000, quad_points=64, seed=3, tol=1e-6)
    sol = solve_main_gamma_optimal(params, est)
    grid = np.linspace(0.2 * sol.value, 1.8 * sol.value, 9)
    values = [_optimal_residual(params, est, g) for g in grid]
    assert np.all(np.diff(values) < 0.0)
    assert values[0] > 0.0 > values[-1]
    # sign change brackets the solved root
    signs = np.sign(values)
    flip = int(np.argmax(np.diff(signs) != 0))
    assert grid[flip] <= sol.value <= grid[flip + 1]


def test_gamma_uniqueness_scan():
    params = make_params()
    est = EstimatorConfig(mc_samples=2000, quad_points=64, seed=3, tol=1e-6)
    for residual in (_intuitive_residual, _optimal_residual):
        grid = np.linspace(0.0, 3.0, 100)
        signs = np.sign([residual(params, est, g) for g in grid])
        nonzero = signs[signs != 0]
        assert int(np.sum(np.diff(nonzero) != 0)) == 1


def test_gamma_monotone_in_second_hop_gain():
    # a stochastically better second hop can only raise the optimum
    est = EstimatorConfig(mc_samples=2000, quad_points=64, seed=6, tol=1e-6)
    by_gain = [
        solve_main_gamma_optimal(make_params(second_hop_mean_gain=s), est).value
        for s in (0.5, 1.0, 2.0)
    ]
    assert by_gain[0] <= by_gain[1] <= by_gain[2]


def test_gamma_not_monotone_in_relay_count():
    # Adding relays dilutes the uniform-winner relay contention: the winner
    # cannot be steered to the best relay, so relay count can lower the
    # two-part optimum even with per-relay contention spread and cheap slots.
    # Pinned counterexample; relay diversity does monotonically help the
    # full-CSI threshold (covered in the full-CSI tests and the CLI sweep).
    est = EstimatorConfig(mc_samples=4000, quad_points=64, seed=6, tol=1e-6)
    one = solve_main_gamma_optimal(
        make_params(num_relays=1, relay_prob=1.0, slot_time=0.02), est).value
    two = solve_main_gamma_optimal(
        make_params(num_relays=2, relay_prob=0.5, slot_time=0.02), est).value
    assert two < one - 0.05


def test_time_unit_invariance_bilevel():
    base_int = solve_main_gamma_intuitive(HOOK, EST, **HOOK_HOPS)
    base_opt = solve_main_gamma_optimal(HOOK, EST, **HOOK_HOPS)
    scaled = hook_params(slot_time=0.2 * 2.5, data_time=2.0 * 2.5)
    assert solve_main_gamma_intuitive(scaled, EST, **HOOK_HOPS).value == pytest.approx(
        base_int.value, abs=5e-9)
    assert solve_main_gamma_optimal(scaled, EST, **HOOK_HOPS).value == pytest.approx(
        base_opt.value, abs=5e-9)


def _outer_residuals(monkeypatch, solve, params, est):
    """Solve, and keep each (evaluate, cost) the solve passed to the outer engine."""
    engine = solver._solve_convex
    seen = []

    def spy(evaluate, cost, *args, **kwargs):
        seen.append((evaluate, cost))
        return engine(evaluate, cost, *args, **kwargs)

    monkeypatch.setattr(solver, "_solve_convex", spy)
    sol = solve(params, est)
    monkeypatch.undo()
    return sol, seen


@pytest.mark.parametrize("params", [make_params(), STRESS], ids=["base", "stress"])
def test_outer_slopes_match_finite_differences(monkeypatch, params):
    est = EstimatorConfig(mc_samples=2000, quad_points=64, seed=3, tol=1e-12)
    for solve in (solve_full_csi_lambda, solve_main_gamma_intuitive, solve_main_gamma_optimal):
        sol, seen = _outer_residuals(monkeypatch, solve, params, est)
        evaluate, _ = seen[-1]
        # lambda* and the intuitive residual are piecewise linear, so h only
        # has to beat rounding; the coupled one is smooth between kinks, and h
        # keeps the inner solves' error (tol / h) small
        h = 1e-5 if solve is solve_main_gamma_optimal else 1e-7
        for x in (0.5 * sol.value, sol.value, 1.2 * sol.value):
            residual, slope, _ = evaluate(x)
            backward = (residual - evaluate(x - h)[0]) / h
            forward = (evaluate(x + h)[0] - residual) / h
            # a convex residual's right derivative lies between the one-sided
            # differences, also when a kink of the sample average is in between
            slack = 1e-6 * abs(slope)
            assert backward - slack <= slope <= forward + slack, (solve.__name__, x)
            assert forward - backward <= 1e-3 * abs(slope), (solve.__name__, x)


def test_outer_newton_from_right_of_the_root(monkeypatch):
    est = EstimatorConfig(mc_samples=2000, quad_points=64, seed=3, tol=1e-6)
    for solve in (solve_full_csi_lambda, solve_main_gamma_intuitive, solve_main_gamma_optimal):
        sol, seen = _outer_residuals(monkeypatch, solve, STRESS, est)
        evaluate, cost = seen[-1]
        assert evaluate(1.5 * sol.value)[0] < 0.0
        again = solver._solve_convex(evaluate, cost, est, "restart", start=1.5 * sol.value)
        assert again.value == pytest.approx(sol.value, abs=2.0 * est.tol)
        assert again.bracket[0] <= again.value <= again.bracket[1]
        assert abs(again.residual) <= est.tol


def _coupled_started_at(monkeypatch, est, move):
    """The coupled stress solve with its intuitive start moved to ``move(start)``."""
    intuitive = solver._intuitive_gamma

    def moved(*args):
        start = intuitive(*args)
        return dataclasses.replace(start, value=move(start.value))

    monkeypatch.setattr(solver, "_intuitive_gamma", moved)
    again = solve_main_gamma_optimal(STRESS, est)
    monkeypatch.undo()
    return again


def test_coupled_fallback_when_start_is_right_of_the_root(monkeypatch):
    est = EstimatorConfig(mc_samples=2000, quad_points=64, seed=3, tol=1e-6)
    sol = solve_main_gamma_optimal(STRESS, est)
    # every row is inactive at 1.5x the start: the slope is -cost and the
    # tangent root is 0, so the solve climbs back from there
    again = _coupled_started_at(monkeypatch, est, lambda start: 1.5 * start)
    assert again.iterations > sol.iterations
    assert again.value == pytest.approx(sol.value, abs=2.0 * est.tol)
    assert again.bracket[0] <= again.value <= again.bracket[1]
    assert abs(again.residual) <= est.tol


def test_coupled_start_just_right_of_the_root_steps_back(monkeypatch):
    est = EstimatorConfig(mc_samples=2000, quad_points=64, seed=3, tol=1e-6)
    sol = solve_main_gamma_optimal(STRESS, est)
    # a start a hair right of the root, as when gamma_int is within noise of
    # gamma_opt: the tangent step lands just left of the root
    again = _coupled_started_at(monkeypatch, est, lambda start: sol.value + 4e-4)
    assert again.iterations <= 4
    assert again.value == pytest.approx(sol.value, abs=2.0 * est.tol)
    assert again.bracket[0] <= again.value <= again.bracket[1]
    assert abs(again.residual) <= est.tol


def test_coupled_root_inside_residual_sign_change_on_stress_config():
    est = EstimatorConfig(mc_samples=2000, quad_points=64, seed=3, tol=1e-6)
    sol = solve_main_gamma_optimal(STRESS, est)
    assert sol.bracket[0] <= sol.value <= sol.bracket[1]
    assert _optimal_residual(STRESS, est, sol.value - 10.0 * est.tol) > 0.0
    assert _optimal_residual(STRESS, est, sol.value + 10.0 * est.tol) < 0.0


def test_inner_iterations_are_counted():
    est = EstimatorConfig(mc_samples=2000, quad_points=64, seed=3, tol=1e-6)
    assert solve_full_csi_lambda(STRESS, est).inner_iterations == 0
    intuitive = solve_main_gamma_intuitive(STRESS, est)
    coupled = solve_main_gamma_optimal(STRESS, est)
    assert intuitive.inner_iterations > 0
    # the coupled count includes the intuitive start and one W solve per evaluation
    assert coupled.inner_iterations > intuitive.inner_iterations + coupled.iterations


@pytest.mark.parametrize("params, hops", [(make_params(), {}), (STRESS, {}),
                                          (make_params(), dict(second_hop=FixedGain(0.8)))],
                         ids=["base", "stress", "fixed"])
def test_coupled_evaluations_are_warm_started(monkeypatch, params, hops):
    est = EstimatorConfig(mc_samples=2000, quad_points=64, seed=3, tol=1e-6)
    engine = solver._newton_rows
    calls = []

    def spy(kernel, cost_slope, targets, est_, theta_scale, start=None):
        out = engine(kernel, cost_slope, targets, est_, theta_scale, start)
        calls.append((kernel, cost_slope, targets, theta_scale, start, out))
        return out

    monkeypatch.setattr(solver, "_newton_rows", spy)
    sol = solve_main_gamma_optimal(params, est, **hops)
    monkeypatch.undo()
    coupled = [c for c in calls if c[1] == 0.0]
    assert len(coupled) == sol.iterations
    assert coupled[0][4] is None
    assert all(start is not None for *_, start, _ in coupled[1:])
    for kernel, cost_slope, targets, theta_scale, start, out in coupled[1:]:
        assert out[3] <= 3
        cold = engine(kernel, cost_slope, targets, est, theta_scale)
        tol = est.tol * max(1.0, theta_scale * float(np.abs(cold[0]).max()))
        np.testing.assert_allclose(theta_scale * out[0], theta_scale * cold[0],
                                   rtol=0.0, atol=2.0 * tol)
    assert sol.inner_iterations == sum(c[5][3] for c in calls)
    assert sol.kernel_rows == sum(c[5][4] for c in calls)
