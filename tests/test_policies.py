"""Stopping predicates: thresholds are inclusive, compare the solved numbers, and
are vectorized."""

import numpy as np
import pytest

from relaystop import (
    EstimatorConfig,
    InvalidParameterError,
    PolicyKind,
    PolicySpec,
    SubLayerStats,
    solve_main_gamma_intuitive,
    solve_main_gamma_optimal,
    solve_sub_layer_batch,
    solve_sub_w_batch,
)
from relaystop.policies import (
    full_csi_decide,
    intuitive_main_decide,
    intuitive_sub_decide,
    optimal_main_decide,
    optimal_sub_decide,
)
from .conftest import hook_params

LAMBDA, GAMMA = 0.5, 0.4


def test_policy_spec_is_a_kind_and_one_finite_nonnegative_value():
    assert PolicySpec(PolicyKind.OPTIMAL_BILEVEL, 0.0).value == 0.0
    for kind in PolicyKind:
        with pytest.raises(InvalidParameterError, match=f"a {kind.value} policy's value"):
            PolicySpec(kind, float("nan"))
        # a negative threshold is no policy: every first observation would stop
        with pytest.raises(InvalidParameterError):
            PolicySpec(kind, -0.5)
        with pytest.raises(InvalidParameterError):
            PolicySpec(kind, float("inf"))


def test_full_csi_decide_threshold_inclusive():
    assert full_csi_decide(LAMBDA, 1.0) is True  # boundary stop
    assert full_csi_decide(LAMBDA, 0.999) is False
    assert full_csi_decide(0.0, 0.0)


def test_full_csi_decide_monotone_in_rate(rng):
    rates = np.sort(rng.exponential(1.0, 100))
    stops = [full_csi_decide(LAMBDA, float(r)) for r in rates]
    assert stops == sorted(stops)  # once stopping, always stopping


def test_intuitive_main_decide():
    stats = SubLayerStats(threshold=1.0 / 1.2, expected_time=1.2)
    # bits 1, and 1 - 0.4 * 1.2 = 0.52 >= 0.4 * 2 / 2
    assert intuitive_main_decide(GAMMA, stats, 2.0)
    zero = SubLayerStats(0.0, 1.2)
    assert not intuitive_main_decide(GAMMA, zero, 2.0)
    # exact equality stops (binary-exact constants: 0.375*2 - 0.25*2 == 0.25*1)
    edge = SubLayerStats(0.375, 2.0)
    assert intuitive_main_decide(0.25, edge, 2.0)


def test_intuitive_main_equivalent_threshold_form():
    # with bits = threshold * time, the rule reads (lam - g) time >= g T / 2
    g = 0.37
    rng = np.random.default_rng(3)
    for _ in range(200):
        lam = float(rng.uniform(0, 1.5))
        time_ = float(rng.uniform(0.5, 3.0))
        stats = SubLayerStats(lam, time_)
        direct = intuitive_main_decide(g, stats, 2.0)
        assert direct == ((lam - g) * time_ >= g * 1.0)


def test_intuitive_sub_decide():
    assert intuitive_sub_decide(0.8, 0.9)
    assert intuitive_sub_decide(0.8, 0.8)
    assert not intuitive_sub_decide(0.8, 0.1)
    with pytest.raises(InvalidParameterError):
        intuitive_sub_decide(float("inf"), 1.0)
    with pytest.raises(InvalidParameterError):
        intuitive_sub_decide(np.array([0.8, np.nan]), np.array([1.0, 1.0]))


def test_optimal_main_decide():
    assert optimal_main_decide(GAMMA, 0.52, 2.0)  # 0.52 >= 0.4
    assert not optimal_main_decide(GAMMA, -0.1, 2.0)
    assert optimal_main_decide(0.0, 0.0, 2.0)


def test_optimal_sub_decide():
    # continues the worked example: (T/2) rate >= W + (T/2) gamma
    assert optimal_sub_decide(GAMMA, 0.52, 1.0, 2.0)  # 1.0 >= 0.92
    assert not optimal_sub_decide(GAMMA, 0.52, 0.0, 2.0)
    assert optimal_sub_decide(GAMMA, 0.52, 0.92, 2.0)  # equality stops


def test_predicates_on_arrays_match_scalar_calls():
    rates = np.array([0.0, 0.5, 0.999, 1.0, 1.25, 3.0])
    bits = np.array([0.0, 0.5, 0.75, 0.75, 1.0, 2.0])
    times = np.array([1.0, 2.0, 2.0, 2.5, 1.0, 0.5])
    w = np.array([-1.0, 0.0, 0.125, 0.25, 1.0, 3.0])
    # (rule, row whose binary-exact values sit on the rule's >= boundary)
    rules = [
        (lambda r, b, t, x: full_csi_decide(LAMBDA, r), 3),
        (lambda r, b, t, x: intuitive_main_decide(  # threshold bits / time
            0.25, SubLayerStats(b / t, t), 2.0), 2),
        (lambda r, b, t, x: intuitive_sub_decide(0.5, r), 1),
        (lambda r, b, t, x: optimal_main_decide(0.25, x, 2.0), 3),
        (lambda r, b, t, x: optimal_sub_decide(0.25, x, r, 2.0), 4),
    ]
    for rule, boundary_row in rules:
        vector = rule(rates, bits, times, w)
        scalar = [rule(*map(float, row)) for row in zip(rates, bits, times, w)]
        assert vector.dtype == bool and all(type(v) is bool for v in scalar)
        assert vector.tolist() == scalar
        assert vector[boundary_row] and not vector.all()


def test_decisions_invariant_under_time_rescaling():
    # re-solving after scaling T and tau by the same factor must not change
    # a single stop/continue decision
    params = hook_params()
    scaled = hook_params(slot_time=0.2 * 3.0, data_time=2.0 * 3.0)
    est = EstimatorConfig(mc_samples=500, quad_points=64, seed=8, tol=1e-10)
    rng = np.random.default_rng(12)
    rows = rng.exponential(1.0, (100, 1))

    g_b = solve_main_gamma_intuitive(params, est).value
    g_s = solve_main_gamma_intuitive(scaled, est).value
    stats_b = solve_sub_layer_batch(params, rows, est)[0]
    stats_s = solve_sub_layer_batch(scaled, rows, est)[0]
    for i in range(rows.shape[0]):
        d_b = intuitive_main_decide(
            g_b, SubLayerStats(stats_b.threshold[i], stats_b.expected_time[i]),
            params.data_time)
        d_s = intuitive_main_decide(
            g_s, SubLayerStats(stats_s.threshold[i], stats_s.expected_time[i]),
            scaled.data_time)
        assert d_b == d_s

    go_b = solve_main_gamma_optimal(params, est).value
    go_s = solve_main_gamma_optimal(scaled, est).value
    w_b = solve_sub_w_batch(params, rows, go_b, est)[0]
    w_s = solve_sub_w_batch(scaled, rows, go_s, est)[0]
    for i in range(rows.shape[0]):
        assert optimal_main_decide(go_b, w_b[i], params.data_time) \
            == optimal_main_decide(go_s, w_s[i], scaled.data_time)
