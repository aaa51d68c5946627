import math

import numpy as np
import pytest

from relaystop import (
    ContentionDeadlockError,
    EstimatorConfig,
    InvalidParameterError,
    PolicyKind,
    RayleighFading,
    SystemParams,
    full_csi_rate_sampler,
    intuitive_main_decide,
    optimal_main_decide,
    rate_saturation,
    solve_sub_layer_batch,
    solve_sub_w_batch,
    success_prob,
)
from relaystop.solver import CHUNK_ROWS, _as_rows, _draw_rates, _SecondHopKernel


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


# --- closed-form observation and rate hooks ------------------------------------


def fixed_rate_observations(rate: float, relay: int = 1):
    """Observation hook with a constant rate, for closed-form checks."""
    if rate < 0 or not math.isfinite(rate):
        raise InvalidParameterError("rate must be finite and >= 0")

    def sampler(rng: np.random.Generator, n: int):
        return np.full(n, float(rate)), np.full(n, relay, dtype=int)

    return sampler


def discrete_rate_sampler(values, weights=None):
    """Finite-support rate distribution laid out as an exact balanced sample.

    The sample contains deterministic proportions (largest-remainder
    apportionment), so fixed points computed on it match finite-support
    arithmetic exactly instead of fluctuating with multinomial noise.
    """
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 1 or vals.size == 0 or np.any(vals < 0) or not np.all(np.isfinite(vals)):
        raise InvalidParameterError("values must be a non-empty 1-D array of finite rates >= 0")
    if weights is None:
        w = np.full(vals.size, 1.0 / vals.size)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != vals.shape or np.any(w < 0) or w.sum() <= 0:
            raise InvalidParameterError("weights must be nonnegative and match values")
        w = w / w.sum()

    def sampler(rng: np.random.Generator, n: int) -> np.ndarray:
        counts = _apportion(w, n)
        return np.repeat(vals, counts)

    return sampler


def _apportion(weights: np.ndarray, n: int) -> np.ndarray:
    exact = weights * n
    counts = np.floor(exact).astype(int)
    short = n - counts.sum()
    if short > 0:
        order = np.argsort(-(exact - counts), kind="stable")
        counts[order[:short]] += 1
    return counts


# --- literal contention reference for the geometric draw ------------------------


def simulate_contention_slots(rng: np.random.Generator, n: int, p: float,
                              slot_cap: int = 1_000_000_000) -> tuple[int, int]:
    """(slot count, 1-based winner) of one contention, simulating every slot:
    a slot succeeds when exactly one of the n contenders transmits."""
    if success_prob(n, p) <= 0.0:
        raise ContentionDeadlockError(f"success probability is 0 for n={n}, p={p}")
    for slots in range(1, slot_cap + 1):
        contending = rng.random(n) < p
        if int(contending.sum()) == 1:
            return slots, int(np.argmax(contending)) + 1
    raise ContentionDeadlockError(f"no successful contention within {slot_cap} slots")


# --- positive-part oracles: full CSI on the fixed sample, one relay-level row ---


def expected_positive_part_full_csi(params: SystemParams, lam: float,
                                    est: EstimatorConfig, rate_sampler=None) -> float:
    """Monte Carlo estimate of E[max((T/2) R - lam T, 0)] on the fixed sample."""
    if lam < 0:
        raise InvalidParameterError("lam must be >= 0")
    rates = _draw_rates(params, est, rate_sampler)
    t = params.data_time
    return float(np.maximum(0.5 * t * rates - lam * t, 0.0).mean())


def sub_layer_tail_prob(params: SystemParams, f_sq, threshold: float,
                        second_hop=None) -> float:
    """P(relay-level observation rate >= threshold | first-hop gains)."""
    kernel = _SecondHopKernel(params, _as_rows(f_sq), 2, second_hop)
    return float(kernel.tail(np.array([threshold], dtype=float))[0])


def sub_layer_expected_positive_part(params: SystemParams, f_sq, lam: float,
                                     est: EstimatorConfig, second_hop=None) -> float:
    """E[max(R_m - lam, 0) | first-hop gains] by tail-integral quadrature."""
    kernel = _SecondHopKernel(params, _as_rows(f_sq), est.quad_points, second_hop)
    return float(kernel.excess(np.array([lam], dtype=float))[0])


# --- scalar bisection reference for the relay-level batch engine ---------------
#
# Written only against the single-realization positive-part quadrature above,
# independent of the row-Newton engine: one first-hop realization, plain
# bisection on a bracket whose ends are known in closed form.


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


# --- policy-value oracle: exact renewal-reward throughput of given thresholds ---
#
# A delivered packet is one renewal cycle, so the long-run throughput of a policy
# is E[bits per cycle] / E[time per cycle] (renewal-reward theorem). Both
# expectations are taken in closed form per observation and averaged over an
# independent sample, and the ratio estimator's stderr comes with it.


def policy_value(params: SystemParams, spec, samples: int, seed: int,
                 est: EstimatorConfig | None = None) -> tuple[float, float]:
    """Throughput of the thresholds in ``spec`` and its stderr, on ``samples`` fresh draws.

    Full CSI: per rate R, bits (T/2) R 1{R >= 2 lam*} and time T 1{R >= 2 lam*}
    + tau/p_s, the expected contention per observation. Two-part: per first-hop
    row with relay-level threshold theta (lam(f) for the intuitive rule,
    gamma* + W/(T/2) for the coupled rule), stop probability P = tail(theta),
    expected bits (T/2)(excess(theta)/P + theta) = (T/2) E[R | R >= theta],
    relay time T/2 + tau/(2 p_r P) (a geometric number of half-slot
    contentions, then the forward leg); on a source-level stop the row adds
    those bits and that time plus the broadcast T/2, and every row adds
    tau/(2 p_s).
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x0AC1]))
    t = params.data_time
    if spec.kind is PolicyKind.FULL_CSI:
        rates = full_csi_rate_sampler(params)(rng, samples)
        stop = rates >= 2.0 * spec.lambda_star
        x = np.where(stop, 0.5 * t * rates, 0.0)
        y = t * stop + params.slot_time / success_prob(params.num_sources, params.source_prob)
        return _ratio_with_stderr(x, y)
    est = est if est is not None else EstimatorConfig(tol=1e-9)
    rows = RayleighFading(params.first_hop_mean_gain).sample(rng, (samples, params.num_relays))
    if spec.kind is PolicyKind.INTUITIVE_BILEVEL:
        stats = solve_sub_layer_batch(params, rows, est)
        theta = stats.threshold
        stop = intuitive_main_decide(spec, stats, t)
    else:
        w = solve_sub_w_batch(params, rows, spec.gamma_star, est)
        theta = spec.gamma_star + w / (0.5 * t)
        stop = optimal_main_decide(spec, w, t)
    p_r = success_prob(params.num_relays, params.relay_prob)
    x = np.zeros(samples)
    y = np.full(samples, params.slot_time / (2.0 * success_prob(params.num_sources,
                                                                 params.source_prob)))
    for i in range(0, samples, CHUNK_ROWS):
        idx = i + np.flatnonzero(stop[i:i + CHUNK_ROWS])
        kernel = _SecondHopKernel(params, rows[idx], est.quad_points, None)
        tail = kernel.tail(theta[idx])
        x[idx] = 0.5 * t * (kernel.excess(theta[idx]) / tail + theta[idx])
        y[idx] += 0.5 * t + params.slot_time / (2.0 * p_r * tail) + 0.5 * t
    return _ratio_with_stderr(x, y)


def _ratio_with_stderr(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """sum(x) / sum(y) and its delta-method (ratio-estimator) standard error."""
    ratio = float(x.sum() / y.sum())
    return ratio, float(np.std(x - ratio * y, ddof=1) / np.sqrt(x.size) / y.mean())


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@pytest.fixture
def small_est() -> EstimatorConfig:
    return EstimatorConfig(mc_samples=2000, quad_points=64, seed=5, tol=1e-9)
