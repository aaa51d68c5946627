"""Relay-level solvers: rate tails, positive parts, throughput and reward roots."""

import math

import numpy as np
import pytest

from relaystop import (
    EstimatorConfig,
    FixedGain,
    InvalidParameterError,
    af_rate,
    rate_saturation,
    solve_sub_layer_batch,
    solve_sub_w_batch,
    sub_layer_expected_positive_part,
    sub_layer_tail_prob,
    success_prob,
)
from .conftest import (
    hook_params,
    make_params,
    reference_sub_lambda,
    reference_w,
    stress_params,
    w_residual,
)

# L=1, p1=0.5 -> p_r = 0.5; tau = 0.2, T = 2 throughout the worked examples
HOOK = hook_params()
EST = EstimatorConfig(mc_samples=1000, quad_points=64, seed=1, tol=1e-9)
UNIT_RATE = math.log2(4.0 / 3.0)  # af_rate(1, 1, 1, 1)
STRESS = stress_params()


# --- tail probability ---------------------------------------------------------

def test_tail_at_zero_threshold_is_one():
    assert sub_layer_tail_prob(HOOK, [3.0], 0.0) == 1.0
    assert sub_layer_tail_prob(HOOK, [0.0], 0.0) == 1.0


def test_tail_above_saturation_is_zero():
    assert sub_layer_tail_prob(HOOK, [3.0], 2.0) == 0.0
    assert sub_layer_tail_prob(HOOK, [3.0], 5.0) == 0.0


def test_tail_worked_example():
    # F=3, threshold 1 needs g >= 2, so P = exp(-2) under unit-mean fading
    assert sub_layer_tail_prob(HOOK, [3.0], 1.0) == pytest.approx(math.exp(-2.0), abs=1e-12)


def test_tail_averages_over_relays():
    params = make_params(source_power=1.0, relay_power=1.0)
    p1 = sub_layer_tail_prob(params, [3.0, 3.0], 1.0)
    assert p1 == pytest.approx(math.exp(-2.0), abs=1e-12)
    p2 = sub_layer_tail_prob(params, [3.0, 0.0], 1.0)
    assert p2 == pytest.approx(0.5 * math.exp(-2.0), abs=1e-12)


def test_tail_monte_carlo_cross_check(rng):
    params = make_params(source_power=2.0, relay_power=3.0, second_hop_mean_gain=0.7)
    f_sq = np.array([1.5, 0.4])
    g = rng.exponential(0.7, 10**6)
    j = rng.integers(0, 2, 10**6)
    rates = af_rate(2.0, 3.0, f_sq[j], g)
    for th in (0.2, 0.8, 1.5):
        mc = float((rates >= th).mean())
        assert sub_layer_tail_prob(params, f_sq, th) == pytest.approx(mc, abs=4e-3)


def test_tail_point_mass_hop():
    # fixed g = 2 at F = 3 gives rate exactly 1
    assert sub_layer_tail_prob(HOOK, [3.0], 0.999, second_hop=FixedGain(2.0)) == 1.0
    assert sub_layer_tail_prob(HOOK, [3.0], 1.0001, second_hop=FixedGain(2.0)) == 0.0


# --- expected positive part ---------------------------------------------------

def test_excess_above_saturation_is_zero():
    sat = rate_saturation(HOOK.source_power, 3.0)
    assert sub_layer_expected_positive_part(HOOK, [3.0], sat, EST) == 0.0
    assert sub_layer_expected_positive_part(HOOK, [3.0], sat + 1.0, EST) == 0.0


def test_excess_at_zero_matches_monte_carlo(rng):
    params = make_params(source_power=1.0, relay_power=1.0)
    f_sq = np.array([3.0, 0.5])
    g = rng.exponential(1.0, 10**6)
    j = rng.integers(0, 2, 10**6)
    rates = af_rate(1.0, 1.0, f_sq[j], g)
    quad = sub_layer_expected_positive_part(params, f_sq, 0.0, EST)
    assert quad == pytest.approx(rates.mean(), rel=0.005)


def test_excess_point_mass_hook():
    # deterministic g = 1 at F = 1: rate is constant log2(4/3)
    for lam in (-0.5, 0.0, 0.2, UNIT_RATE, 0.6):
        got = sub_layer_expected_positive_part(HOOK, [1.0], lam, EST, second_hop=FixedGain(1.0))
        assert got == pytest.approx(max(UNIT_RATE - lam, 0.0), abs=1e-12)


def test_excess_quadrature_is_converged():
    # the default node count is already at the integral's float plateau
    f_sq = np.array([3.0, 0.5])
    default = sub_layer_expected_positive_part(
        make_params(), f_sq, 0.4, EstimatorConfig(mc_samples=100, quad_points=64, seed=1, tol=1e-9))
    fine = sub_layer_expected_positive_part(
        make_params(), f_sq, 0.4, EstimatorConfig(mc_samples=100, quad_points=512, seed=1, tol=1e-9))
    assert default == pytest.approx(fine, abs=1e-12)


# --- relay-level throughput fixed point ----------------------------------------

def test_intuitive_degenerate_zero_gains():
    stats = solve_sub_layer_batch(HOOK, [[0.0]], EST)
    assert stats.threshold[0] == 0.0
    assert stats.stop_prob[0] == 1.0
    assert stats.expected_bits[0] == 0.0
    # T/2 + tau / (2 p_r) = 1 + 0.2
    assert stats.expected_time[0] == pytest.approx(1.2, abs=1e-12)


def test_intuitive_constant_rate_closed_form():
    # rate constant 1 via F=3, g=2: lam = r / (1 + tau / (T p_r)) = 1 / 1.2
    hop = FixedGain(2.0)
    stats = solve_sub_layer_batch(HOOK, [[3.0]], EST, second_hop=hop)
    assert stats.threshold[0] == pytest.approx(1.0 / 1.2, abs=1e-8)
    assert stats.stop_prob[0] == 1.0
    assert stats.expected_time[0] == pytest.approx(1.2, abs=1e-8)
    assert stats.expected_bits[0] == pytest.approx(1.0, abs=1e-8)
    # the tests' bisection reference must meet the same closed form
    assert reference_sub_lambda(HOOK, [3.0], EST, second_hop=hop) \
        == pytest.approx(1.0 / 1.2, abs=1e-8)


def test_intuitive_exponential_contract():
    params = make_params()
    f_sq = np.array([2.0, 0.3])
    stats = solve_sub_layer_batch(params, [f_sq], EST)
    lam, bits, time_ = stats.threshold[0], stats.expected_bits[0], stats.expected_time[0]
    p_r = success_prob(params.num_relays, params.relay_prob)
    lhs = sub_layer_expected_positive_part(params, f_sq, lam, EST)
    rhs = lam * params.slot_time / (params.data_time * p_r)
    assert abs(lhs - rhs) <= EST.tol
    assert lam < max(rate_saturation(params.source_power, f) for f in f_sq)
    assert bits == lam * time_
    assert time_ >= 0.5 * params.data_time


def test_intuitive_batch_matches_scalar(rng):
    cases = [(make_params(), rng.exponential(1.0, (50, 2))),
             (STRESS, rng.exponential(4.0, (50, 4)))]
    for params, rows in cases:
        stats = solve_sub_layer_batch(params, rows, EST)
        p_r = success_prob(params.num_relays, params.relay_prob)
        for i in (0, 7, 23, 49):
            lam = reference_sub_lambda(params, rows[i], EST)
            time_ = 0.5 * params.data_time + params.slot_time / (
                2.0 * p_r * sub_layer_tail_prob(params, rows[i], lam))
            assert stats.threshold[i] == pytest.approx(lam, abs=5e-9)
            assert stats.expected_time[i] == pytest.approx(time_, rel=1e-7)
        assert np.all(stats.expected_bits == stats.threshold * stats.expected_time)


def test_intuitive_threshold_below_saturation(rng):
    params = make_params()
    rows = rng.exponential(1.0, (1000, 2))
    stats = solve_sub_layer_batch(params, rows, EST)
    sat = np.log1p(params.source_power * rows).max(axis=1) / math.log(2.0)
    assert np.all(stats.threshold < sat + 1e-12)
    assert np.all(stats.stop_prob > 0.0)


# --- relay-level reward fixed point --------------------------------------------

def test_w_constant_rate_closed_form():
    # W = (T/2)(r - gamma) - gamma tau / (2 p_r) = 0.6 - 0.08 = 0.52
    hop = FixedGain(2.0)
    w = solve_sub_w_batch(HOOK, [[3.0]], 0.4, EST, second_hop=hop)[0]
    assert w == pytest.approx(0.52, abs=1e-8)
    assert abs(w_residual(HOOK, [3.0], 0.4, w, EST, second_hop=hop)) <= EST.tol
    assert reference_w(HOOK, [3.0], 0.4, EST, second_hop=hop) == pytest.approx(0.52, abs=1e-8)


def test_w_zero_gains_closed_form():
    # zero rate: max(-(T/2) gamma - W, 0) = gamma tau / (2 p_r)
    # -> W = -(T/2) gamma - gamma tau / (2 p_r) = -0.4 - 0.08
    w = solve_sub_w_batch(HOOK, [[0.0]], 0.4, EST)[0]
    assert w == pytest.approx(-0.48, abs=1e-8)
    assert reference_w(HOOK, [0.0], 0.4, EST) == pytest.approx(-0.48, abs=1e-8)
    # cross-check the branch by substituting into the unshifted equation
    lhs = max(-0.5 * HOOK.data_time * 0.4, w)
    rhs = w + 0.4 * HOOK.slot_time / (2.0 * success_prob(1, 0.5))
    assert lhs == pytest.approx(rhs, abs=1e-8)


def test_w_gamma_zero_boundary():
    # at gamma = 0 the root is the essential supremum (T/2) * saturation;
    # the solver lands at the float-tail boundary just under it
    sat = rate_saturation(HOOK.source_power, 3.0)
    w = solve_sub_w_batch(HOOK, [[3.0]], 0.0, EST)[0]
    assert abs(w_residual(HOOK, [3.0], 0.0, w, EST)) <= EST.tol
    assert w <= 0.5 * HOOK.data_time * sat
    assert w == pytest.approx(0.5 * HOOK.data_time * sat, abs=0.01)


def test_w_rejects_negative_gamma():
    with pytest.raises(InvalidParameterError):
        solve_sub_w_batch(HOOK, [[1.0]], -0.1, EST)


def test_w_batch_matches_scalar(rng):
    cases = [(make_params(), rng.exponential(1.0, (60, 2))),
             (STRESS, rng.exponential(4.0, (60, 4)))]
    for params, rows in cases:
        for gamma in (0.2, 0.7, 1.4):
            batch = solve_sub_w_batch(params, rows, gamma, EST)
            for i in (0, 13, 31, 59):
                assert batch[i] == pytest.approx(
                    reference_w(params, rows[i], gamma, EST), abs=5e-9)


@pytest.mark.parametrize("params", [make_params(), STRESS], ids=["base", "stress"])
def test_w_slope_is_the_envelope_derivative(params, rng):
    # W'(gamma) = -(T/2)(1 + k / P(theta)), k = tau / (T p_r), at the
    # threshold theta = gamma + W / (T/2): the outer Newton slope's inner part
    est = EstimatorConfig(mc_samples=100, quad_points=64, seed=1, tol=1e-12)
    rows = rng.exponential(params.first_hop_mean_gain, (40, params.num_relays))
    half_t = 0.5 * params.data_time
    k = params.slot_time / (params.data_time * success_prob(params.num_relays,
                                                            params.relay_prob))
    h = 1e-5
    for gamma in (0.3, 0.8):
        w = solve_sub_w_batch(params, rows, gamma, est)
        central = (solve_sub_w_batch(params, rows, gamma + h, est)
                   - solve_sub_w_batch(params, rows, gamma - h, est)) / (2.0 * h)
        stop = np.array([sub_layer_tail_prob(params, row, gamma + wi / half_t)
                         for row, wi in zip(rows, w)])
        np.testing.assert_allclose(central, -half_t * (1.0 + k / stop), rtol=1e-6)


def test_w_residual_against_monte_carlo(rng):
    # verify the solved W satisfies the unshifted reward equation on raw draws
    params = make_params(source_power=1.0, relay_power=1.0)
    f_sq = np.array([2.5, 0.8])
    gamma = 0.5
    w = solve_sub_w_batch(params, [f_sq], gamma, EST)[0]
    g = rng.exponential(1.0, 10**6)
    j = rng.integers(0, 2, 10**6)
    reward = 0.5 * params.data_time * af_rate(1.0, 1.0, f_sq[j], g)
    half_gamma = 0.5 * params.data_time * gamma
    lhs = np.maximum(reward - half_gamma, w).mean()
    p_r = success_prob(params.num_relays, params.relay_prob)
    rhs = w + gamma * params.slot_time / (2.0 * p_r)
    se = np.maximum(reward - half_gamma, w).std(ddof=1) / 1000.0
    assert abs(lhs - rhs) < 4 * se


class _DuckExponentialHop:
    """Duck-typed hop model exercising the generic tail fallback."""

    atom = None

    def __init__(self, mean):
        self.mean = mean

    def sample(self, rng, size=None):
        return rng.exponential(self.mean, size)

    def tail_prob(self, required):
        return np.exp(-np.maximum(np.asarray(required, dtype=float), 0.0) / self.mean)


def test_custom_hop_object_matches_builtin():
    from relaystop import RayleighFading

    params = make_params()
    f_sq = np.array([2.0, 0.3])
    duck = _DuckExponentialHop(0.8)
    builtin = RayleighFading(0.8)
    for th in (0.2, 1.0):
        assert sub_layer_tail_prob(params, f_sq, th, second_hop=duck) == pytest.approx(
            sub_layer_tail_prob(params, f_sq, th, second_hop=builtin), abs=1e-12)
    for lam in (0.0, 0.5):
        assert sub_layer_expected_positive_part(params, f_sq, lam, EST, second_hop=duck) \
            == pytest.approx(sub_layer_expected_positive_part(
                params, f_sq, lam, EST, second_hop=builtin), abs=1e-12)
    w_duck = solve_sub_w_batch(params, [f_sq], 0.6, EST, second_hop=duck)[0]
    w_builtin = solve_sub_w_batch(params, [f_sq], 0.6, EST, second_hop=builtin)[0]
    assert w_duck == pytest.approx(w_builtin, abs=1e-9)


def test_w_nonincreasing_in_gamma(rng):
    params = make_params()
    rows = rng.exponential(1.0, (5, 2))
    grid = np.linspace(0.01, 2.5, 15)
    for row in rows:
        values = [reference_w(params, row, g, EST) for g in grid]
        assert np.all(np.diff(values) <= 1e-9)
