import math
from typing import NamedTuple

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
    solve_sub_layer_batch,
    solve_sub_w_batch,
    success_prob,
)
from relaystop.channel import (as_rows, best_relay_excess_tail, rate_saturation,
                               second_hop_kernel)
from relaystop.policies import intuitive_main_decide, optimal_main_decide
from relaystop.solver import CHUNK_ROWS, _draw_rates


# A root search's failure: it names the worst row, its residual and its enclosure.
ENGINE_FAILURE = (r"no root after {} Newton iteration\(s\) \(worst row {}: residual {}, "
                  r"enclosure \[\S+, \S+\]\)")


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


# --- positive-part oracles: full CSI, exact or on the fixed sample; one relay-level row


def expected_positive_part_full_csi(params: SystemParams, lam: float | np.ndarray,
                                    est: EstimatorConfig,
                                    rate_sampler=None) -> float | np.ndarray:
    """Monte Carlo estimate of E[max((T/2) R - lam T, 0)] on the fixed sample.

    An array of lam gives an array of estimates, all on one draw of the sample.
    """
    lams = np.asarray(lam, dtype=float)
    if np.any(lams < 0):
        raise InvalidParameterError("lam must be >= 0")
    t = params.data_time
    half_rates = 0.5 * t * _draw_rates(params, est, rate_sampler)
    out = [float(np.maximum(half_rates - x * t, 0.0).mean()) for x in lams.ravel()]
    return out[0] if lams.ndim == 0 else np.array(out)


def full_csi_residual(params: SystemParams, lam: float | np.ndarray) -> float | np.ndarray:
    """The exact full-CSI residual (T/2) E[max(R - 2 lam, 0)] - lam tau / p_s that
    ``solve_full_csi_lambda`` solves by default, from the closed-form tail;
    an array of lam gives an array of residuals."""
    lams = np.asarray(lam, dtype=float)
    cost = params.slot_time / success_prob(params.num_sources, params.source_prob)
    out = [0.5 * params.data_time * best_relay_excess_tail(params, 2.0 * x)[0] - x * cost
           for x in lams.ravel()]
    return out[0] if lams.ndim == 0 else np.array(out)


def sub_layer_tail_prob(params: SystemParams, f_sq, threshold: float,
                        second_hop=None) -> float:
    """P(relay-level observation rate >= threshold | first-hop gains)."""
    kernel = second_hop_kernel(params, as_rows(f_sq, params.num_relays), second_hop)
    return float(kernel.excess_tail(np.array([threshold], dtype=float))[1][0])


def sub_layer_expected_positive_part(params: SystemParams, f_sq, lam: float,
                                     est: EstimatorConfig, second_hop=None) -> float:
    """E[max(R_m - lam, 0) | first-hop gains], the closed-form tail integral."""
    kernel = second_hop_kernel(params, as_rows(f_sq, params.num_relays), second_hop)
    return float(kernel.excess_tail(np.array([lam], dtype=float))[0][0])


def coupled_sign_rules(params: SystemParams, spec, rows: np.ndarray, second_hop=None):
    """Exact reference for the coupled rule's decisions on first-hop ``rows``:
    the source-level stop mask, and ``relay_stop(i, rates)`` for rows i.

    The relay-level threshold theta* = gamma* + W / (T/2) is the root of
    excess(theta) = gamma* tau / (T p_r), and excess strictly decreases, so
    W >= (T/2) gamma* iff excess(2 gamma*) >= target, and R >= theta* iff
    excess(R) <= target. Each decision is the sign of one kernel evaluation,
    so no root is solved and no solver tolerance enters.
    """
    target = spec.value * params.slot_time / (
        params.data_time * success_prob(params.num_relays, params.relay_prob))
    kernel = second_hop_kernel(params, as_rows(rows, params.num_relays), second_hop)

    def excess(thetas, idx=slice(None)):
        return kernel.excess_tail(thetas, idx)[0]

    return (excess(np.full(kernel.rows.shape[0], 2.0 * spec.value)) >= target,
            lambda i, rates: excess(rates, i) <= target)


# --- scalar bisection reference for the relay-level batch engine ---------------
#
# Written only against the single-realization positive part above,
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
        stop = rates >= 2.0 * spec.value
        x = np.where(stop, 0.5 * t * rates, 0.0)
        y = t * stop + params.slot_time / success_prob(params.num_sources, params.source_prob)
        return _ratio_with_stderr(x, y)
    est = est if est is not None else EstimatorConfig(tol=1e-9)
    rows = RayleighFading(params.first_hop_mean_gain).sample(rng, (samples, params.num_relays))
    if spec.kind is PolicyKind.INTUITIVE_BILEVEL:
        stats = solve_sub_layer_batch(params, rows, est)[0]
        theta = stats.threshold
        stop = intuitive_main_decide(spec.value, stats, t)
    else:
        w = solve_sub_w_batch(params, rows, spec.value, est)[0]
        theta = spec.value + w / (0.5 * t)
        stop = optimal_main_decide(spec.value, w, t)
    x = np.zeros(samples)
    y = np.full(samples, params.slot_time / (2.0 * success_prob(params.num_sources,
                                                                 params.source_prob)))
    for i in range(0, samples, CHUNK_ROWS):
        idx = i + np.flatnonzero(stop[i:i + CHUNK_ROWS])
        x[idx], time_ = relay_level_bits_and_time(params, rows[idx], theta[idx])
        y[idx] += time_ + 0.5 * t
    return _ratio_with_stderr(x, y)


def relay_level_bits_and_time(params: SystemParams, rows: np.ndarray, theta: np.ndarray):
    """Per first-hop row with relay-level threshold theta: the expected bits
    (T/2)(excess(theta)/P + theta) and the relay time T/2 + tau/(2 p_r P),
    P = tail(theta)."""
    half_t = 0.5 * params.data_time
    excess, tail = second_hop_kernel(params, rows).excess_tail(theta)
    p_r = success_prob(params.num_relays, params.relay_prob)
    return half_t * (excess / tail + theta), half_t + params.slot_time / (2.0 * p_r * tail)


def _ratio_with_stderr(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """sum(x) / sum(y) and its delta-method (ratio-estimator) standard error."""
    ratio = float(x.sum() / y.sum())
    return ratio, float(np.std(x - ratio * y, ddof=1) / np.sqrt(x.size) / y.mean())


# --- exact two-part reference at L = 1 -----------------------------------------
#
# With one relay the first hop is a single exponential gain f of mean mu, and
# each rule's source-level gain g(f) rises with f: bits - gamma (time + T/2)
# for the intuitive rule, W - (T/2) gamma for the coupled one. So the stop set
# is [f0, inf), g(f0) = 0, and the source-level expectation is the
# Gauss-Laguerre sum
#   E[max(g(f), 0)] = e^{-f0/mu} int_0^inf g(f0 + mu s) e^{-s} ds.
# The gains come from the batch solvers at tol 1e-13; f0 and gamma* are roots
# found by scipy's brentq. No sample enters, so the only error is the rule's.
# The same sum gives each rule's policy value V(gamma') at an imposed rate.


L1_EST = EstimatorConfig(tol=1e-13)


class L1Reference(NamedTuple):
    gamma: float  # gamma* of the rule
    nodes: np.ndarray  # the first-hop gains f0 + mu s_i of the sum
    sd: float  # delta-method sd of one sample row's share of the sampled root


def _l1_gain(params: SystemParams, kind, gamma: float, f) -> np.ndarray:
    """The rule's source-level gain at rate gamma per first-hop gain in f."""
    half_t = 0.5 * params.data_time
    rows = np.asarray(f, dtype=float).reshape(-1, 1)
    if kind is PolicyKind.INTUITIVE_BILEVEL:
        stats = solve_sub_layer_batch(params, rows, L1_EST)[0]
        bits = stats.threshold * stats.expected_time
        return bits - gamma * (stats.expected_time + half_t)
    return solve_sub_w_batch(params, rows, gamma, L1_EST)[0] - half_t * gamma


def _l1_boundary(params: SystemParams, kind, gamma: float) -> float:
    """The root f0 of the rule's gain at rate gamma, by brentq."""
    from scipy.optimize import brentq

    def g(f):
        return float(_l1_gain(params, kind, gamma, [f])[0])
    hi = 1.0
    while g(hi) <= 0.0:
        hi *= 2.0
    return brentq(g, 1e-12, hi, xtol=1e-15, rtol=8.9e-16)


def _l1_stop_set(params: SystemParams, kind, gamma: float, f0: float, nodes: int):
    """The sum's nodes f0 + mu s_i, their weights e^{-f0/mu} w_i and the gains
    there, after checking on the grid (those nodes, and Gauss-Legendre nodes
    on (0, f0)) that the gain changes sign once, at f0."""
    mu = params.first_hop_mean_gain
    s, w = np.polynomial.laguerre.laggauss(nodes)
    u = 0.5 * (np.polynomial.legendre.leggauss(nodes)[0] + 1.0)
    g = _l1_gain(params, kind, gamma, np.concatenate([f0 * u, f0 + mu * s]))
    below, above = g[:nodes], g[nodes:]
    assert np.all(below <= 0.0) and np.all(above > 0.0), (
        f"{kind} gain at gamma {gamma} changes sign more than once: split at every crossing")
    return f0 + mu * s, math.exp(-f0 / mu) * w, above


def l1_reference(params: SystemParams, kind, nodes: int) -> L1Reference:
    """gamma* of the rule ``kind`` at L = 1 from a ``nodes``-point Gauss-Laguerre
    sum above the stop boundary f0, with the per-row sd of the sampled root.
    gamma* must lie in [0.9, 1.5], as it does on make_params(num_relays=1,
    relay_prob=1.0).

    Every evaluation checks on its grid that the gain changes sign once, at
    f0 (``_l1_stop_set``). The sd is sqrt(Var max(g, 0)) / |R'(gamma*)|,
    the delta method for the root of mean(max(g_i, 0)) - gamma cost; R' is a
    central difference of the sum at fixed f0, which g(f0) = 0 allows.
    """
    from scipy.optimize import brentq

    cost = params.slot_time / (2.0 * success_prob(params.num_sources, params.source_prob))
    roots = {}

    def positive_part(gamma, f0):
        """sum w g over the nodes above f0."""
        _, w, g = _l1_stop_set(params, kind, gamma, f0, nodes)
        return float(w @ g)

    def residual(gamma):
        roots[gamma] = f0 = _l1_boundary(params, kind, gamma)
        return positive_part(gamma, f0) - gamma * cost

    gamma = brentq(residual, 0.9, 1.5, xtol=1e-15, rtol=8.9e-16)
    f0, h = roots[gamma], 1e-5
    f, w, g = _l1_stop_set(params, kind, gamma, f0, nodes)
    mean, square = w @ g, w @ g ** 2
    slope = (positive_part(gamma + h, f0) - positive_part(gamma - h, f0)) / (2.0 * h) - cost
    return L1Reference(gamma, f, math.sqrt(square - mean ** 2) / abs(slope))


def l1_policy_value(params: SystemParams, kind, gamma: float, nodes: int = 60) -> float:
    """V(gamma): the exact throughput of the complete policy that the rule
    ``kind`` defines at the imposed rate gamma, at L = 1.

    The source stops where the rule's gain is >= 0, on [f0, inf); the relay
    then stops at R >= theta, theta = lam(f) (intuitive) or gamma + W/(T/2)
    (coupled). The renewal-reward ratio of ``policy_value`` becomes
    e^{-f0/mu} sum w bits / (tau/(2 p_s) + e^{-f0/mu} sum w (time + T/2)).
    """
    half_t = 0.5 * params.data_time
    f, w, _ = _l1_stop_set(params, kind, gamma, _l1_boundary(params, kind, gamma), nodes)
    rows = f[:, None]
    if kind is PolicyKind.INTUITIVE_BILEVEL:
        theta = solve_sub_layer_batch(params, rows, L1_EST)[0].threshold
    else:
        theta = gamma + solve_sub_w_batch(params, rows, gamma, L1_EST)[0] / half_t
    bits, time_ = relay_level_bits_and_time(params, rows, theta)
    cost = params.slot_time / (2.0 * success_prob(params.num_sources, params.source_prob))
    return float(w @ bits) / (cost + float(w @ (time_ + half_t)))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@pytest.fixture
def small_est() -> EstimatorConfig:
    return EstimatorConfig(mc_samples=2000, quad_points=64, seed=5, tol=1e-9)
