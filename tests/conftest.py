import numpy as np
import pytest

from relaystop import (
    EstimatorConfig,
    SystemParams,
    rate_saturation,
    sub_layer_expected_positive_part,
    success_prob,
)


def make_params(**overrides) -> SystemParams:
    """Default two-source, two-relay configuration used across tests."""
    fields = dict(
        num_sources=2,
        num_relays=2,
        source_power=10.0,
        relay_power=10.0,
        first_hop_mean_gain=1.0,
        second_hop_mean_gain=1.0,
        slot_time=0.1,
        data_time=1.0,
        source_prob=0.5,
        relay_prob=0.5,
    )
    fields.update(overrides)
    return SystemParams(**fields)


def stress_params() -> SystemParams:
    """Near-saturation relay level: most inner Newton rows freeze early."""
    return make_params(num_relays=4, relay_prob=0.25, first_hop_mean_gain=4.0,
                       second_hop_mean_gain=0.25)


def hook_params(**overrides) -> SystemParams:
    """Single source and relay with the worked-example timing constants."""
    fields = dict(
        num_sources=1,
        num_relays=1,
        source_power=1.0,
        relay_power=1.0,
        first_hop_mean_gain=1.0,
        second_hop_mean_gain=1.0,
        slot_time=0.2,
        data_time=2.0,
        source_prob=0.5,
        relay_prob=0.5,
    )
    fields.update(overrides)
    return SystemParams(**fields)


# --- scalar bisection reference for the relay-level batch engine ---------------
#
# Written only against the public positive-part quadrature, independent of the
# row-Newton engine: one first-hop realization, plain bisection on a bracket
# whose ends are known in closed form.


def bisect_decreasing(f, lo: float, hi: float, tol: float) -> float:
    """Root of a decreasing f with f(lo) >= 0 >= f(hi), by bisection."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        r = f(mid)
        if abs(r) <= tol and hi - lo <= tol * max(1.0, abs(mid)):
            return mid
        lo, hi = (mid, hi) if r > 0.0 else (lo, mid)
    raise AssertionError(f"bisection did not converge: [{lo}, {hi}], residual {r}")


def _max_saturation(params: SystemParams, f_sq) -> float:
    return float(np.max(rate_saturation(params.source_power, np.asarray(f_sq, dtype=float))))


def _contention_slope(params: SystemParams) -> float:
    """tau / (T p_r): relay-level contention cost per unit of threshold."""
    return params.slot_time / (params.data_time
                               * success_prob(params.num_relays, params.relay_prob))


def reference_sub_lambda(params: SystemParams, f_sq, est: EstimatorConfig,
                         second_hop=None) -> float:
    """Relay-level throughput threshold lam of one realization:
    E[max(R_m - lam, 0)] = lam tau / (T p_r), bracketed by [0, max saturation]."""
    slope = _contention_slope(params)
    return bisect_decreasing(
        lambda lam: sub_layer_expected_positive_part(params, f_sq, lam, est, second_hop)
        - lam * slope, 0.0, _max_saturation(params, f_sq), est.tol)


def w_residual(params: SystemParams, f_sq, gamma: float, w: float, est: EstimatorConfig,
               second_hop=None) -> float:
    """(T/2)(E[max(R_m - theta, 0)] - gamma tau / (T p_r)), theta = gamma + W / (T/2):
    the relay-level reward equation at W, in reward units."""
    half_t = 0.5 * params.data_time
    target = gamma * _contention_slope(params)
    excess = sub_layer_expected_positive_part(params, f_sq, gamma + w / half_t, est, second_hop)
    return half_t * (excess - target)


def reference_w(params: SystemParams, f_sq, gamma: float, est: EstimatorConfig,
                second_hop=None) -> float:
    """Relay-level reward W of one realization. Below theta = min(0, E[R] - target) - 1
    the positive part is E[R] - theta > target; at max saturation it is 0."""
    half_t = 0.5 * params.data_time
    target = gamma * _contention_slope(params)
    e0 = sub_layer_expected_positive_part(params, f_sq, 0.0, est, second_hop)
    lo = half_t * (min(0.0, e0 - target) - 1.0 - gamma)
    hi = half_t * (_max_saturation(params, f_sq) - gamma)
    return bisect_decreasing(lambda w: w_residual(params, f_sq, gamma, w, est, second_hop),
                             lo, hi, est.tol)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@pytest.fixture
def small_est() -> EstimatorConfig:
    return EstimatorConfig(mc_samples=2000, quad_points=64, seed=5, tol=1e-9)
