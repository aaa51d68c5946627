"""Full-CSI threshold: fixed point, uniqueness, and the grid oracle."""

import numpy as np
import pytest

from relaystop import (
    EstimatorConfig,
    InvalidParameterError,
    SolverFailureError,
    full_csi_rate_sampler,
    oracle_threshold_search,
    solve_full_csi_lambda,
    success_prob,
)
from .conftest import (
    discrete_rate_sampler,
    expected_positive_part_full_csi,
    hook_params,
    make_params,
)

# tau/p_s = 0.2 with these hook constants (K=1, p0=1, tau=0.2)
HOOK = hook_params(source_prob=1.0, relay_prob=1.0)
EST = EstimatorConfig(mc_samples=2000, quad_points=64, seed=2, tol=1e-9)


def _residual(params, est, lam, sampler):
    cost = params.slot_time / success_prob(params.num_sources, params.source_prob)
    return expected_positive_part_full_csi(params, lam, est, sampler) - lam * cost


def test_positive_part_at_zero_is_half_mean_rate():
    params = make_params()
    est = EstimatorConfig(mc_samples=5000, seed=9, tol=1e-9)
    rng = np.random.default_rng(est.seed)
    rates = full_csi_rate_sampler(params)(rng, est.mc_samples)
    expected = 0.5 * params.data_time * rates.mean()
    assert expected_positive_part_full_csi(params, 0.0, est) == pytest.approx(expected, rel=1e-12)


def test_positive_part_vanishes_for_large_lambda():
    params = make_params()
    est = EstimatorConfig(mc_samples=5000, seed=9, tol=1e-9)
    rng = np.random.default_rng(est.seed)
    top = full_csi_rate_sampler(params)(rng, est.mc_samples).max()
    assert expected_positive_part_full_csi(params, 0.5 * top, est) == 0.0


def test_positive_part_point_mass_example():
    # constant rate 1, T = 2, lam = 0.25: max(1 - 0.5, 0) = 0.5
    assert expected_positive_part_full_csi(
        HOOK, 0.25, EST, discrete_rate_sampler([1.0])) == pytest.approx(0.5, abs=1e-12)


def test_positive_part_rejects_negative_lambda():
    with pytest.raises(InvalidParameterError):
        expected_positive_part_full_csi(HOOK, -0.1, EST)


def test_constant_rate_closed_form():
    # lam* = (T r / 2) / (T + tau/p_s) = 1 / 2.2
    sol = solve_full_csi_lambda(HOOK, EST, discrete_rate_sampler([1.0]))
    assert sol.value == pytest.approx(1.0 / 2.2, abs=1e-8)
    assert abs(sol.residual) <= EST.tol
    assert sol.bracket[0] <= sol.value <= sol.bracket[1]


def test_two_point_closed_form_is_exact():
    # R in {0, 2} equally likely: (1/2)(2 - 2 lam) = 0.2 lam  ->  lam = 5/6
    sol = solve_full_csi_lambda(HOOK, EST, discrete_rate_sampler([0.0, 2.0]))
    assert sol.value == pytest.approx(5.0 / 6.0, abs=1e-8)


def test_exponential_solver_contract():
    params = make_params()
    est = EstimatorConfig(mc_samples=20000, seed=4, tol=1e-6)
    sol = solve_full_csi_lambda(params, est)
    assert abs(sol.residual) <= est.tol
    assert abs(_residual(params, est, sol.value, None) - sol.residual) <= 1e-12
    assert sol.iterations > 0


def test_degenerate_all_zero_rates():
    sol = solve_full_csi_lambda(HOOK, EST, discrete_rate_sampler([0.0]))
    assert sol.value == 0.0
    assert sol.residual == 0.0


def test_uniqueness_single_sign_change():
    params = make_params()
    est = EstimatorConfig(mc_samples=20000, seed=4, tol=1e-6)
    sol = solve_full_csi_lambda(params, est)
    grid = np.linspace(0.0, 2.0 * sol.bracket[1], 200)
    signs = np.sign([_residual(params, est, lam, None) for lam in grid])
    changes = int(np.sum(np.abs(np.diff(np.sign(signs[signs != 0]))) > 0))
    assert changes == 1


def test_lambda_nondecreasing_in_relay_count():
    # the best-relay rate is a max over relays, so diversity only helps here
    est = EstimatorConfig(mc_samples=20000, seed=4, tol=1e-6)
    values = [solve_full_csi_lambda(make_params(num_relays=L), est).value
              for L in (1, 2, 4, 8)]
    assert all(a <= b + 10 * est.tol for a, b in zip(values, values[1:]))


def test_time_unit_invariance():
    # scaling T and tau together leaves the throughput fixed point unchanged
    base = solve_full_csi_lambda(make_params(), EST)
    scaled_params = make_params(slot_time=0.1 * 3.7, data_time=1.0 * 3.7)
    scaled = solve_full_csi_lambda(scaled_params, EST)
    assert scaled.value == pytest.approx(base.value, abs=5e-9)


# --- oracle -------------------------------------------------------------------

def test_oracle_two_point_grid():
    sampler = discrete_rate_sampler([0.0, 2.0])
    th, tp = oracle_threshold_search(HOOK, [0.0, 1.0], EST, sampler)
    # threshold 1 accepts only rate 2: throughput (1 * 1/2) / (2 * 1/2 + 0.2) = 5/6
    assert th == 1.0
    assert tp == pytest.approx(5.0 / 6.0, abs=1e-12)
    # threshold 0 alone gives the always-stop throughput 1 / 2.2
    th0, tp0 = oracle_threshold_search(HOOK, [0.0], EST, sampler)
    assert (th0, tp0) == (0.0, pytest.approx(1.0 / 2.2, abs=1e-12))


def test_oracle_constant_rate():
    th, tp = oracle_threshold_search(HOOK, [0.0, 0.3, 0.9], EST, discrete_rate_sampler([1.0]))
    assert tp == pytest.approx(1.0 / 2.2, abs=1e-12)


def test_oracle_singleton_at_solved_threshold():
    params = make_params()
    est = EstimatorConfig(mc_samples=20000, seed=4, tol=1e-9)
    sol = solve_full_csi_lambda(params, est)
    th, tp = oracle_threshold_search(params, [2.0 * sol.value], est)
    # fixed-point identity: the pure-threshold throughput at 2 lam* is lam*
    assert tp == pytest.approx(sol.value, abs=1e-8)


def test_oracle_agreement_on_fine_grid():
    params = make_params()
    est = EstimatorConfig(mc_samples=20000, seed=4, tol=1e-9)
    sol = solve_full_csi_lambda(params, est)
    grid = np.linspace(0.0, 4.0 * sol.value, 500)
    th, tp = oracle_threshold_search(params, grid, est)
    assert abs(th - 2.0 * sol.value) <= grid[1] - grid[0]
    assert abs(tp - sol.value) <= 0.005 * sol.value
    assert tp <= sol.value + 1e-9  # no rule beats the realized optimum


def test_oracle_skips_unreachable_thresholds():
    sampler = discrete_rate_sampler([0.0, 2.0])
    th, tp = oracle_threshold_search(HOOK, [0.0, 1.0, 50.0], EST, sampler)
    assert th == 1.0
    with pytest.raises(SolverFailureError):
        oracle_threshold_search(HOOK, [50.0], EST, sampler)


def test_oracle_validates_grid():
    with pytest.raises(InvalidParameterError):
        oracle_threshold_search(HOOK, [], EST)
    with pytest.raises(InvalidParameterError):
        oracle_threshold_search(HOOK, [1.0, 0.5], EST)


def test_samplers_validate():
    with pytest.raises(InvalidParameterError):
        discrete_rate_sampler([-1.0])
    with pytest.raises(InvalidParameterError):
        discrete_rate_sampler([float("inf")])
    with pytest.raises(InvalidParameterError):
        discrete_rate_sampler([])
    with pytest.raises(InvalidParameterError):
        discrete_rate_sampler([1.0, 2.0], [1.0])
    with pytest.raises(InvalidParameterError):
        discrete_rate_sampler([1.0], [-1.0])


def test_estimator_config_validates_seed_and_tol():
    for bad in (dict(seed=-1), dict(seed=1.5), dict(tol=0.0), dict(tol=float("inf")),
                dict(tol=float("nan"))):
        with pytest.raises(InvalidParameterError):
            EstimatorConfig(**bad)


def test_discrete_sampler_exact_proportions(rng):
    sampler = discrete_rate_sampler([0.0, 1.0, 3.0], [0.25, 0.25, 0.5])
    draws = sampler(rng, 1000)
    assert (draws == 0.0).sum() == 250
    assert (draws == 1.0).sum() == 250
    assert (draws == 3.0).sum() == 500
