"""Stopping predicates: thresholds are inclusive, kind-checked, and vectorized."""

import numpy as np
import pytest

from relaystop import (
    EstimatorConfig,
    InvalidParameterError,
    PolicyKind,
    PolicyMismatchError,
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

FULL = PolicySpec(PolicyKind.FULL_CSI, lambda_star=0.5)
INT = PolicySpec(PolicyKind.INTUITIVE_BILEVEL, gamma_star=0.4)
OPT = PolicySpec(PolicyKind.OPTIMAL_BILEVEL, gamma_star=0.4)


def test_policy_spec_requires_matching_threshold():
    with pytest.raises(InvalidParameterError):
        PolicySpec(PolicyKind.FULL_CSI)
    with pytest.raises(InvalidParameterError):
        PolicySpec(PolicyKind.OPTIMAL_BILEVEL, lambda_star=0.5)
    with pytest.raises(InvalidParameterError):
        PolicySpec(PolicyKind.FULL_CSI, lambda_star=float("nan"))
    # a negative threshold is no policy: every first observation would stop
    with pytest.raises(InvalidParameterError, match="lambda_star"):
        PolicySpec(PolicyKind.FULL_CSI, lambda_star=-0.5)
    for kind in (PolicyKind.INTUITIVE_BILEVEL, PolicyKind.OPTIMAL_BILEVEL):
        with pytest.raises(InvalidParameterError, match="gamma_star"):
            PolicySpec(kind, gamma_star=-0.5)


def test_full_csi_decide_threshold_inclusive():
    assert full_csi_decide(FULL, 1.0) is True  # boundary stop
    assert full_csi_decide(FULL, 0.999) is False
    zero = PolicySpec(PolicyKind.FULL_CSI, lambda_star=0.0)
    assert full_csi_decide(zero, 0.0)


def test_full_csi_decide_monotone_in_rate(rng):
    rates = np.sort(rng.exponential(1.0, 100))
    stops = [full_csi_decide(FULL, float(r)) for r in rates]
    assert stops == sorted(stops)  # once stopping, always stopping


def test_full_csi_decide_wrong_kind():
    with pytest.raises(PolicyMismatchError):
        full_csi_decide(INT, 1.0)


def test_intuitive_main_decide():
    stats = SubLayerStats(threshold=1.0 / 1.2, expected_time=1.2)
    # bits 1, and 1 - 0.4 * 1.2 = 0.52 >= 0.4 * 2 / 2
    assert intuitive_main_decide(INT, stats, 2.0)
    zero = SubLayerStats(0.0, 1.2)
    assert not intuitive_main_decide(INT, zero, 2.0)
    # exact equality stops (binary-exact constants: 0.375*2 - 0.25*2 == 0.25*1)
    quarter = PolicySpec(PolicyKind.INTUITIVE_BILEVEL, gamma_star=0.25)
    edge = SubLayerStats(0.375, 2.0)
    assert intuitive_main_decide(quarter, edge, 2.0)
    with pytest.raises(PolicyMismatchError):
        intuitive_main_decide(OPT, stats, 2.0)


def test_intuitive_main_equivalent_threshold_form():
    # with bits = threshold * time, the rule reads (lam - g) time >= g T / 2
    g = 0.37
    spec = PolicySpec(PolicyKind.INTUITIVE_BILEVEL, gamma_star=g)
    rng = np.random.default_rng(3)
    for _ in range(200):
        lam = float(rng.uniform(0, 1.5))
        time_ = float(rng.uniform(0.5, 3.0))
        stats = SubLayerStats(lam, time_)
        direct = intuitive_main_decide(spec, stats, 2.0)
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
    assert optimal_main_decide(OPT, 0.52, 2.0)  # 0.52 >= 0.4
    assert not optimal_main_decide(OPT, -0.1, 2.0)
    zero = PolicySpec(PolicyKind.OPTIMAL_BILEVEL, gamma_star=0.0)
    assert optimal_main_decide(zero, 0.0, 2.0)
    with pytest.raises(PolicyMismatchError):
        optimal_main_decide(INT, 0.52, 2.0)


def test_optimal_sub_decide():
    # continues the worked example: (T/2) rate >= W + (T/2) gamma
    assert optimal_sub_decide(OPT, 0.52, 1.0, 2.0)  # 1.0 >= 0.92
    assert not optimal_sub_decide(OPT, 0.52, 0.0, 2.0)
    assert optimal_sub_decide(OPT, 0.52, 0.92, 2.0)  # equality stops
    with pytest.raises(PolicyMismatchError):
        optimal_sub_decide(FULL, 0.52, 1.0, 2.0)


def test_predicates_on_arrays_match_scalar_calls():
    quarter_int = PolicySpec(PolicyKind.INTUITIVE_BILEVEL, gamma_star=0.25)
    quarter_opt = PolicySpec(PolicyKind.OPTIMAL_BILEVEL, gamma_star=0.25)
    rates = np.array([0.0, 0.5, 0.999, 1.0, 1.25, 3.0])
    bits = np.array([0.0, 0.5, 0.75, 0.75, 1.0, 2.0])
    times = np.array([1.0, 2.0, 2.0, 2.5, 1.0, 0.5])
    w = np.array([-1.0, 0.0, 0.125, 0.25, 1.0, 3.0])
    # (rule, row whose binary-exact values sit on the rule's >= boundary)
    rules = [
        (lambda r, b, t, x: full_csi_decide(FULL, r), 3),
        (lambda r, b, t, x: intuitive_main_decide(  # threshold bits / time
            quarter_int, SubLayerStats(b / t, t), 2.0), 2),
        (lambda r, b, t, x: intuitive_sub_decide(0.5, r), 1),
        (lambda r, b, t, x: optimal_main_decide(quarter_opt, x, 2.0), 3),
        (lambda r, b, t, x: optimal_sub_decide(quarter_opt, x, r, 2.0), 4),
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
    spec_b = PolicySpec(PolicyKind.INTUITIVE_BILEVEL, gamma_star=g_b)
    spec_s = PolicySpec(PolicyKind.INTUITIVE_BILEVEL, gamma_star=g_s)
    for i in range(rows.shape[0]):
        d_b = intuitive_main_decide(
            spec_b, SubLayerStats(stats_b.threshold[i], stats_b.expected_time[i]),
            params.data_time)
        d_s = intuitive_main_decide(
            spec_s, SubLayerStats(stats_s.threshold[i], stats_s.expected_time[i]),
            scaled.data_time)
        assert d_b == d_s

    go_b = solve_main_gamma_optimal(params, est).value
    go_s = solve_main_gamma_optimal(scaled, est).value
    w_b = solve_sub_w_batch(params, rows, go_b, est)[0]
    w_s = solve_sub_w_batch(scaled, rows, go_s, est)[0]
    ospec_b = PolicySpec(PolicyKind.OPTIMAL_BILEVEL, gamma_star=go_b)
    ospec_s = PolicySpec(PolicyKind.OPTIMAL_BILEVEL, gamma_star=go_s)
    for i in range(rows.shape[0]):
        assert optimal_main_decide(ospec_b, w_b[i], params.data_time) \
            == optimal_main_decide(ospec_s, w_s[i], scaled.data_time)
