"""Fixed-point threshold solvers for the stopping policies.

Every threshold in the protocol solves an equation of the same shape: an
expected positive part, decreasing in the unknown, equals a linear contention
cost, increasing in the unknown. The scalar operations find roots by
bisection with bracket doubling, which cannot miss the unique crossing.

Expectations are split by hop. Second-hop (single-gain) expectations are
computed deterministically: the rate tail inverts in closed form for an
exponential gain, and the positive part is the tail integral, evaluated with
fixed Gauss-Legendre nodes. First-hop expectations use a fixed,
seed-determined Monte Carlo sample that is reused for every candidate
threshold (common random numbers), so each realized residual is itself a
monotone function and the solvers converge to the unique root of the realized
estimator.

The batched many-realization engines exploit one more structural fact: the
positive part E[max(R - theta, 0)] is convex and decreasing in theta with
derivative -P(R >= theta), so Newton iteration from the left converges
monotonically without overshooting, and convexity yields certified root
enclosures (a secant chord to the bracket's far end from the left, the
derivative bound from the right). That replaces dozens of bisection sweeps
per nested solve with a handful; the scalar operations keep plain bisection
and agreement between the two routes is enforced by tests.

Point-mass and finite-support channel hooks are part of the public surface:
they make the closed-form worked examples exact and are used heavily in
tests.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import (
    RayleighFading,
    SystemParams,
    af_rate,
    gain_for_rate,
    rate_saturation,
)
from .contention import success_prob
from .errors import InvalidParameterError, SolverFailureError

# Row-chunk size for batched inner solves; bounds peak memory at roughly
# chunk * num_relays * quad_points floats per temporary.
CHUNK_ROWS = 8192

# The relay-level reward equation degenerates at a source-level rate of
# exactly zero, so source-level bisection never evaluates below this floor.
GAMMA_FLOOR = 1e-12


@dataclass(frozen=True)
class EstimatorConfig:
    """Numerical settings shared by the solvers.

    mc_samples: first-hop Monte Carlo sample count (fixed per seed).
    quad_points: Gauss-Legendre nodes for second-hop tail integrals.
    seed: root seed of the fixed sample set.
    tol: residual and bracket tolerance for root finding.
    max_iter: iteration cap per bracket expansion or root search.
    """

    mc_samples: int = 20_000
    quad_points: int = 64
    seed: int = 0
    tol: float = 1e-9
    max_iter: int = 200

    def __post_init__(self) -> None:
        if not isinstance(self.mc_samples, int) or self.mc_samples < 1:
            raise InvalidParameterError("mc_samples must be an integer >= 1")
        if not isinstance(self.quad_points, int) or self.quad_points < 2:
            raise InvalidParameterError("quad_points must be an integer >= 2")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise InvalidParameterError("seed must be an integer >= 0")
        if not (self.tol > 0.0) or not math.isfinite(self.tol):
            raise InvalidParameterError("tol must be finite and > 0")
        if not isinstance(self.max_iter, int) or self.max_iter < 50:
            raise InvalidParameterError("max_iter must be an integer >= 50")


@dataclass(frozen=True)
class ThresholdSolution:
    """A solved threshold with its residual and root-search diagnostics."""

    value: float
    residual: float
    iterations: int
    bracket: tuple[float, float]


@dataclass(frozen=True)
class SubLayerStats:
    """Solved relay-level stopping problem per first-hop realization.

    Fields are floats for one realization or equal-length arrays for a block.

    threshold: maximal conditional relay-level throughput; also the stop
        threshold on the observed relay rate.
    expected_bits: expected bits delivered once this realization is accepted
        (threshold * expected_time by construction).
    expected_time: expected relay-level time, contention plus the second-hop
        transmission half.
    stop_prob: per relay-level observation probability of stopping.
    """

    threshold: float
    expected_bits: float
    expected_time: float
    stop_prob: float


# ---------------------------------------------------------------------------
# Rate samplers (full-CSI scenario) and channel hooks


def default_observations(params: SystemParams, first_hop=None, second_hop=None):
    """Joint sampler of (best rate, 1-based best relay) per full-CSI observation.

    Draws the n x L first-hop block, then the n x L second-hop block, from
    one generator; ties go to the lowest relay index.
    """
    fh = _first_hop_model(params, first_hop)
    sh = _second_hop_model(params, second_hop)

    def sampler(rng: np.random.Generator, n: int):
        shape = (n, params.num_relays)
        rates = af_rate(params.source_power, params.relay_power,
                        np.atleast_2d(fh.sample(rng, shape)),
                        np.atleast_2d(sh.sample(rng, shape)))
        best = rates.argmax(axis=1)
        return rates[np.arange(n), best], best + 1

    return sampler


def full_csi_rate_sampler(params: SystemParams, first_hop=None, second_hop=None):
    """Sampler of the best-relay rate under both hops drawn fresh."""
    observations = default_observations(params, first_hop, second_hop)

    def sampler(rng: np.random.Generator, n: int) -> np.ndarray:
        return observations(rng, n)[0]

    return sampler


def constant_rate_sampler(rate: float):
    """Degenerate rate distribution, constant at ``rate``."""
    if not (rate >= 0.0) or not math.isfinite(rate):
        raise InvalidParameterError("rate must be finite and >= 0")

    def sampler(rng: np.random.Generator, n: int) -> np.ndarray:
        return np.full(n, float(rate))

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


def _first_hop_model(params: SystemParams, first_hop):
    return first_hop if first_hop is not None else RayleighFading(params.first_hop_mean_gain)


def _second_hop_model(params: SystemParams, second_hop):
    return second_hop if second_hop is not None else RayleighFading(params.second_hop_mean_gain)


def _draw_rates(params: SystemParams, est: EstimatorConfig, rate_sampler) -> np.ndarray:
    rng = np.random.default_rng(est.seed)
    sampler = rate_sampler if rate_sampler is not None else full_csi_rate_sampler(params)
    rates = np.asarray(sampler(rng, est.mc_samples), dtype=float)
    if rates.ndim != 1 or rates.size != est.mc_samples:
        raise InvalidParameterError("rate sampler must return mc_samples rates")
    if np.any(rates < 0) or not np.all(np.isfinite(rates)):
        raise InvalidParameterError("sampled rates must be finite and >= 0")
    return rates


# ---------------------------------------------------------------------------
# Full-CSI threshold (single-layer stopping)


def expected_positive_part_full_csi(params: SystemParams, lam: float,
                                    est: EstimatorConfig, rate_sampler=None) -> float:
    """Monte Carlo estimate of E[max((T/2) R - lam T, 0)] on the fixed sample."""
    if lam < 0:
        raise InvalidParameterError("lam must be >= 0")
    rates = _draw_rates(params, est, rate_sampler)
    t = params.data_time
    return float(np.maximum(0.5 * t * rates - lam * t, 0.0).mean())


def solve_full_csi_lambda(params: SystemParams, est: EstimatorConfig,
                          rate_sampler=None) -> ThresholdSolution:
    """Solve the full-CSI rate-of-return fixed point.

    The root lam* of  E[max((T/2) R - lam T, 0)] = lam * tau / p_s  is the
    maximal long-run throughput; the corresponding stop rule is a pure
    threshold at rate 2*lam*.
    """
    rates = _draw_rates(params, est, rate_sampler)
    t = params.data_time
    half_rates = 0.5 * t * rates
    cost = params.slot_time / success_prob(params.num_sources, params.source_prob)

    def residual(lam: float) -> float:
        return float(np.maximum(half_rates - lam * t, 0.0).mean() - lam * cost)

    return _solve_scalar(residual, est, name="full-CSI throughput")


def oracle_threshold_search(params: SystemParams, grid, est: EstimatorConfig,
                            rate_sampler=None) -> tuple[float, float]:
    """Brute-force throughput maximization over candidate rate thresholds.

    For each threshold the long-run throughput of the pure-threshold rule is
    evaluated in closed renewal-reward form on the same fixed sample set the
    solver uses:  (T/2) E[R 1{R >= th}] / (T P(R >= th) + tau/p_s).
    Grid entries with empty acceptance sets are skipped.
    """
    thresholds = np.asarray(grid, dtype=float)
    if thresholds.ndim != 1 or thresholds.size == 0:
        raise InvalidParameterError("grid must be a non-empty 1-D sequence")
    if np.any(np.diff(thresholds) < 0):
        raise InvalidParameterError("grid must be sorted ascending")
    rates = np.sort(_draw_rates(params, est, rate_sampler))
    n = rates.size
    suffix = np.zeros(n + 1)
    suffix[:n] = np.cumsum(rates[::-1])[::-1]
    t = params.data_time
    cost = params.slot_time / success_prob(params.num_sources, params.source_prob)

    best_th = None
    best_tp = -np.inf
    for th in thresholds:
        idx = int(np.searchsorted(rates, th, side="left"))
        kept = n - idx
        if kept == 0:
            continue
        tp = 0.5 * t * (suffix[idx] / n) / (t * kept / n + cost)
        if tp > best_tp:
            best_tp = tp
            best_th = float(th)
    if best_th is None:
        raise SolverFailureError("every grid threshold lies above the sampled rate support")
    return best_th, float(best_tp)


# ---------------------------------------------------------------------------
# Second-hop expectations (relay-level observation rate)
#
# Conditioned on first-hop gains, the winning relay of a contention round is
# uniform and its second-hop gain is a fresh draw, so
#   P(R_m >= x) = (1/L) sum_j tail(gain needed for rate x at relay j)
# and E[max(R_m - x, 0)] is the integral of that tail above x (plus a linear
# part for x < 0, where the positive part is the identity).


@lru_cache(maxsize=None)
def _leggauss(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


class _SecondHopKernel:
    """Positive-part and tail evaluator for a fixed block of realizations.

    Precomputes everything that does not depend on the threshold and reuses
    two scratch arrays, so the per-iteration cost inside the root finders is
    one fused quadrature sweep. An exponential second hop gets the fused
    closed-form tail; a point-mass hop gets exact finite arithmetic; any
    other hop object falls back to its tail_prob through the generic gain
    inversion. Instances are not safe to share across threads (scratch
    buffers); build one kernel per thread.
    """

    def __init__(self, params: SystemParams, rows: np.ndarray, quad_points: int, hop):
        self.params = params
        self.rows = rows
        self.hop = hop
        self.atom = getattr(hop, "atom", None)
        self.ps = params.source_power
        self.pr = params.relay_power
        if self.atom is not None:
            self.rates = af_rate(self.ps, self.pr, rows, self.atom)
            self.sat_top = np.atleast_1d(self.rates).max(axis=1)
        else:
            self.sat = rate_saturation(self.ps, rows)
            self.sat_top = np.atleast_1d(self.sat).max(axis=1)
            self.a = self.ps * np.minimum(rows, 1e300)
            self.scaled3 = ((1.0 + self.a) / self.pr)[..., None]
            self.a3 = self.a[..., None]
            self.nodes, self.weights = _leggauss(quad_points)
            self.exponential = isinstance(hop, RayleighFading)
            if self.exponential:
                self.inv_mean = 1.0 / hop.mean_gain
                shape = (*rows.shape, quad_points)
                self._t = np.empty(shape)
                self._c = np.empty(shape)
        self._e0 = None

    @property
    def e0(self) -> np.ndarray:
        """E[max(R, 0)] = E[R] per row, cached."""
        if self._e0 is None:
            self._e0 = self.excess(np.zeros(self.rows.shape[0]))
        return self._e0

    def _fused_tails(self, half: np.ndarray, mid: np.ndarray) -> np.ndarray:
        """Gain tails at the mapped quadrature nodes, written into scratch.

        c = 2^t - 1 instead of expm1(t ln 2): for tiny t the relative error
        of c is ~eps/t, but the needed gain stays O(c) and the tail error is
        O(need * eps / t), far below quadrature resolution.
        """
        t, c = self._t, self._c
        np.multiply(half[..., None], self.nodes, out=t)
        t += mid[..., None]
        np.exp2(t, out=c)
        c -= 1.0
        np.subtract(self.a3, c, out=t)  # t now holds a - c (the denominator)
        dead = t <= 0.0
        c *= self.scaled3
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            c /= t
            c *= -self.inv_mean
            np.exp(c, out=c)
        c[dead] = 0.0
        return c

    def _generic_tails(self, t: np.ndarray) -> np.ndarray:
        need = gain_for_rate(self.ps, self.pr, self.rows[..., None], t)
        return np.asarray(self.hop.tail_prob(need))

    def excess(self, thetas: np.ndarray) -> np.ndarray:
        """E[max(R - theta, 0)] per row; thetas may be negative."""
        thetas = np.asarray(thetas, dtype=float)
        if self.atom is not None:
            return np.maximum(self.rates - thetas[:, None], 0.0).mean(axis=1)
        lo = np.minimum(np.maximum(thetas[:, None], 0.0), self.sat)
        half = 0.5 * (self.sat - lo)
        mid = 0.5 * (self.sat + lo)
        if self.exponential:
            tails = self._fused_tails(half, mid)
        else:
            tails = self._generic_tails(mid[..., None] + half[..., None] * self.nodes)
        per_relay = (tails @ self.weights) * half
        return per_relay.mean(axis=1) + np.maximum(-thetas, 0.0)

    def tail(self, thetas: np.ndarray) -> np.ndarray:
        """P(R >= theta) per row; 1 for theta <= 0."""
        thetas = np.asarray(thetas, dtype=float)
        if self.atom is not None:
            hit = (self.rates >= thetas[:, None]).mean(axis=1)
        else:
            t = np.maximum(thetas, 0.0)[:, None, None]
            if self.exponential:
                with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                    c = np.exp2(t) - 1.0
                    denom = self.a3 - c
                    need = np.where(denom > 0.0, c * self.scaled3 / denom, np.inf)
                tails = np.exp(-need * self.inv_mean)
            else:
                tails = self._generic_tails(t)
            hit = tails[..., 0].mean(axis=1)
        return np.where(thetas <= 0.0, 1.0, hit)


def sub_layer_tail_prob(params: SystemParams, f_sq, threshold: float,
                        second_hop=None) -> float:
    """P(relay-level observation rate >= threshold | first-hop gains)."""
    rows = _as_rows(f_sq)
    hop = _second_hop_model(params, second_hop)
    kernel = _SecondHopKernel(params, rows, 2, hop)
    return float(kernel.tail(np.array([threshold], dtype=float))[0])


def sub_layer_expected_positive_part(params: SystemParams, f_sq, lam: float,
                                     est: EstimatorConfig, second_hop=None) -> float:
    """E[max(R_m - lam, 0) | first-hop gains] by tail-integral quadrature."""
    rows = _as_rows(f_sq)
    hop = _second_hop_model(params, second_hop)
    kernel = _SecondHopKernel(params, rows, est.quad_points, hop)
    return float(kernel.excess(np.array([lam], dtype=float))[0])


def _as_rows(f_sq) -> np.ndarray:
    arr = np.asarray(f_sq, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] == 0:
        raise InvalidParameterError("first-hop gains must be a 1-D or 2-D array")
    if np.any(arr < 0) or not np.all(np.isfinite(arr)):
        raise InvalidParameterError("first-hop gains must be finite and >= 0")
    return arr


def _as_single_row(f_sq) -> np.ndarray:
    rows = _as_rows(f_sq)
    if rows.shape[0] != 1:
        raise InvalidParameterError(
            "expected one first-hop realization; use the batch variant for many")
    return rows


# ---------------------------------------------------------------------------
# Relay-level (sub-layer) solvers
#
# Both relay-level equations invert the same strictly decreasing function:
#   throughput rule:  excess(lam)   = lam * slot_time / (T p_r)
#   reward rule:      excess(theta) = gamma * slot_time / (T p_r),
#                     where theta = gamma + W / (T/2).


def solve_sub_layer_intuitive(params: SystemParams, f_sq, est: EstimatorConfig,
                              second_hop=None) -> SubLayerStats:
    """Solve the relay-level throughput fixed point for one realization.

    The threshold lam solves  E[max(R_m - lam, 0)] = lam * tau / (T p_r).
    Expected relay-level time counts the second-hop transmission half plus
    one expected contention per observation, with a geometric observation
    count at the solved stop probability. All-zero first-hop gains yield the
    documented degenerate statistics rather than an error.
    """
    rows = _as_single_row(f_sq)
    hop = _second_hop_model(params, second_hop)
    p_r = success_prob(params.num_relays, params.require_relay_prob())
    kernel = _SecondHopKernel(params, rows, est.quad_points, hop)
    slope = params.slot_time / (params.data_time * p_r)
    lam, _, _, _ = _bisect_rows(lambda x: kernel.excess(x) - x * slope,
                                np.zeros_like(kernel.sat_top), kernel.sat_top, est)
    lam_v, bits, time_, p = _stats_from_lambda(params, kernel, lam, p_r)
    return SubLayerStats(float(lam_v[0]), float(bits[0]), float(time_[0]), float(p[0]))


def solve_sub_layer_batch(params: SystemParams, f_rows, est: EstimatorConfig,
                          second_hop=None):
    """Vectorized relay-level throughput solve per first-hop realization.

    Returns (threshold, expected_bits, expected_time, stop_prob) arrays, one
    entry per row of ``f_rows``. Same equation as solve_sub_layer_intuitive,
    solved for all rows at once by the guarded-Newton engine.
    """
    rows = _as_rows(f_rows)
    hop = _second_hop_model(params, second_hop)
    p_r = success_prob(params.num_relays, params.require_relay_prob())
    slope = params.slot_time / (params.data_time * p_r)
    parts = []
    for i in range(0, rows.shape[0], CHUNK_ROWS):
        kernel = _SecondHopKernel(params, rows[i:i + CHUNK_ROWS], est.quad_points, hop)
        lam = _newton_rows(kernel, slope, np.zeros(kernel.rows.shape[0]), est,
                           theta_scale=1.0)
        parts.append(_stats_from_lambda(params, kernel, lam, p_r))
    return tuple(np.concatenate(arrs) for arrs in zip(*parts))


def _stats_from_lambda(params, kernel, lam, p_r):
    stop_prob = kernel.tail(lam)
    with np.errstate(divide="ignore"):
        expected_time = (0.5 * params.data_time
                         + params.slot_time / (2.0 * p_r * stop_prob))
    return lam, lam * expected_time, expected_time, stop_prob


def solve_sub_w(params: SystemParams, f_sq, gamma: float, est: EstimatorConfig,
                second_hop=None) -> ThresholdSolution:
    """Solve the relay-level reward fixed point at an imposed return rate.

    W solves  E[max((T/2) R_m - (T/2) gamma, W)] = W + gamma tau / (2 p_r),
    rewritten through max(a, W) - W = max(a - W, 0) so the left side becomes
    a shifted positive part, then bisected in W. W may be negative for poor
    first hops. At gamma = 0 the equation degenerates and the root is the
    essential supremum of the reward, (T/2) * max saturation; the solver
    lands at the float-tail boundary just below it. The stop rule W generates
    is  (T/2) R_m >= W + (T/2) gamma.
    """
    if gamma < 0:
        raise InvalidParameterError("gamma must be >= 0")
    rows = _as_single_row(f_sq)
    hop = _second_hop_model(params, second_hop)
    p_r = success_prob(params.num_relays, params.require_relay_prob())
    kernel = _SecondHopKernel(params, rows, est.quad_points, hop)
    half_t = 0.5 * params.data_time
    target = gamma * params.slot_time / (params.data_time * p_r)

    def residual(w):
        return half_t * (kernel.excess(gamma + w / half_t) - target)

    # Deterministic bracket: below theta_lo the positive part is linear and
    # exceeds the cost; at max saturation it is zero.
    theta_lo = np.minimum(0.0, kernel.e0 - target) - 1.0
    lo = half_t * (theta_lo - gamma)
    hi = half_t * (kernel.sat_top - gamma)
    w, b_lo, b_hi, iters = _bisect_rows(residual, lo, hi, est)
    return ThresholdSolution(float(w[0]), float(residual(w)[0]), iters,
                             (float(b_lo[0]), float(b_hi[0])))


def solve_sub_w_batch(params: SystemParams, f_rows, gamma: float,
                      est: EstimatorConfig, second_hop=None) -> np.ndarray:
    """Vectorized solve_sub_w over rows of first-hop realizations."""
    if gamma < 0:
        raise InvalidParameterError("gamma must be >= 0")
    rows = _as_rows(f_rows)
    hop = _second_hop_model(params, second_hop)
    p_r = success_prob(params.num_relays, params.require_relay_prob())
    parts = []
    for i in range(0, rows.shape[0], CHUNK_ROWS):
        kernel = _SecondHopKernel(params, rows[i:i + CHUNK_ROWS], est.quad_points, hop)
        parts.append(_w_from_kernel(params, kernel, gamma, est, p_r))
    return np.concatenate(parts)


def _w_from_kernel(params, kernel, gamma, est, p_r):
    half_t = 0.5 * params.data_time
    target = gamma * params.slot_time / (params.data_time * p_r)
    targets = np.full(kernel.rows.shape[0], target)
    theta = _newton_rows(kernel, 0.0, targets, est, theta_scale=half_t)
    return half_t * (theta - gamma)


# ---------------------------------------------------------------------------
# Source-level (main-layer) thresholds for the two-part access scheme


def solve_main_gamma_intuitive(params: SystemParams, est: EstimatorConfig,
                               first_hop=None, second_hop=None) -> ThresholdSolution:
    """Source-level throughput fixed point over intuitive relay-level stats.

    Draws the fixed first-hop sample, solves the relay-level throughput
    problem per realization, and bisects gamma on
      mean(max(bits - gamma (time + T/2), 0)) = gamma tau / (2 p_s).
    The stop rule is  bits - gamma* time >= gamma* T/2.
    """
    rows = _draw_first_hop_rows(params, est, first_hop)
    _, bits, time_, _ = solve_sub_layer_batch(params, rows, est, second_hop)
    cost = params.slot_time / (2.0 * success_prob(params.num_sources, params.source_prob))
    half_t = 0.5 * params.data_time

    def residual(gamma: float) -> float:
        gain = np.maximum(bits - gamma * time_ - gamma * half_t, 0.0).mean()
        return float(gain - gamma * cost)

    return _solve_scalar(residual, est, name="two-part throughput (intuitive rule)")


def solve_main_gamma_optimal(params: SystemParams, est: EstimatorConfig,
                             first_hop=None, second_hop=None) -> ThresholdSolution:
    """Source-level throughput fixed point for the reward-coupled rule.

    Over the same fixed first-hop sample as the intuitive solver, bisects
    gamma on  mean(max(W(gamma) - (T/2) gamma, 0)) = gamma tau / (2 p_s),
    where W(gamma) is the relay-level reward fixed point per realization.
    The stop rule is  W(gamma*) >= (T/2) gamma*.
    """
    rows = _draw_first_hop_rows(params, est, first_hop)
    hop = _second_hop_model(params, second_hop)
    p_r = success_prob(params.num_relays, params.require_relay_prob())
    cost = params.slot_time / (2.0 * success_prob(params.num_sources, params.source_prob))
    half_t = 0.5 * params.data_time
    kernels = [_SecondHopKernel(params, rows[i:i + CHUNK_ROWS], est.quad_points, hop)
               for i in range(0, rows.shape[0], CHUNK_ROWS)]

    def residual(gamma: float) -> float:
        g = max(gamma, GAMMA_FLOOR)
        total = 0.0
        for kernel in kernels:
            w = _w_from_kernel(params, kernel, g, est, p_r)
            total += float(np.maximum(w - half_t * g, 0.0).sum())
        return total / rows.shape[0] - g * cost

    return _solve_scalar(residual, est, name="two-part throughput (coupled rule)")


def _draw_first_hop_rows(params: SystemParams, est: EstimatorConfig, first_hop) -> np.ndarray:
    rng = np.random.default_rng(est.seed)
    model = _first_hop_model(params, first_hop)
    rows = np.asarray(model.sample(rng, (est.mc_samples, params.num_relays)), dtype=float)
    return rows


# ---------------------------------------------------------------------------
# Root-finding engines


def _solve_scalar(residual, est: EstimatorConfig, name: str) -> ThresholdSolution:
    """Bisection with bracket doubling from [0, 1] on a decreasing residual."""
    r0 = residual(0.0)
    if r0 <= 0.0:
        # Degenerate input (zero expected reward): the root sits at 0.
        return ThresholdSolution(0.0, float(r0), 0, (0.0, 0.0))
    lo, hi = 0.0, 1.0
    for _ in range(est.max_iter):
        if residual(hi) <= 0.0:
            break
        lo = hi
        hi *= 2.0
    else:
        raise SolverFailureError(
            f"{name}: no sign change found while doubling the bracket up to {hi}")

    value = lo
    res = r0
    for iters in range(1, est.max_iter + 1):
        value = 0.5 * (lo + hi)
        res = residual(value)
        if (hi - lo) <= est.tol * max(1.0, abs(value)) and abs(res) <= est.tol:
            return ThresholdSolution(value, res, iters, (lo, hi))
        if res > 0.0:
            lo = value
        else:
            hi = value
    raise SolverFailureError(
        f"{name}: bisection did not converge within {est.max_iter} iterations "
        f"(bracket [{lo}, {hi}], residual {res})")


def _bisect_rows(residual, lo: np.ndarray, hi: np.ndarray, est: EstimatorConfig):
    """Vectorized bisection; expects residual(lo) >= 0 >= residual(hi) per row."""
    lo = lo.astype(float).copy()
    hi = hi.astype(float).copy()
    for iters in range(1, est.max_iter + 1):
        mid = 0.5 * (lo + hi)
        res = residual(mid)
        done = ((hi - lo) <= est.tol * np.maximum(1.0, np.abs(mid))) \
            & (np.abs(res) <= est.tol)
        if bool(done.all()):
            return mid, lo, hi, iters
        take = res > 0.0
        lo = np.where(take, mid, lo)
        hi = np.where(take, hi, mid)
    worst = int(np.argmax(np.abs(res)))
    raise SolverFailureError(
        f"row bisection did not converge within {est.max_iter} iterations "
        f"(worst row {worst}: bracket [{lo[worst]}, {hi[worst]}], residual {res[worst]})")


def _newton_rows(kernel: _SecondHopKernel, cost_slope: float, targets: np.ndarray,
                 est: EstimatorConfig, theta_scale: float):
    """Solve excess(theta) - cost_slope * theta = target per row.

    The residual f is convex and strictly decreasing with derivative
    -(tail(theta) + cost_slope), which gives certified two-sided root
    enclosures: at an iterate left of the root, the secant chord to the
    bracket's negative endpoint crosses zero at or beyond the root; at an
    iterate right of the root, |f| / |f'(theta)| bounds the distance back.
    Newton steps from the left (which cannot overshoot) are forced to at
    least the bracket midpoint, so even against the saturation boundary,
    where the tail's essential singularity makes bare Newton crawl, the
    bracket contracts geometrically. Rows whose target exceeds excess(0) are
    solved exactly on the linear branch theta <= 0, where the positive part
    is the identity.

    A row is converged when its residual is inside tolerance and its
    enclosure is smaller than tol (all in caller units via ``theta_scale``,
    T/2 for reward solves); converged rows freeze while the rest iterate.
    """
    e0 = kernel.e0
    # Linear branch: excess(theta) = e0 - theta for theta <= 0.
    theta = np.where(targets >= e0, (e0 - targets) / (1.0 + cost_slope), 0.0)
    lo = theta.copy()
    hi = np.maximum(theta, kernel.sat_top)
    f_hi = -cost_slope * hi - targets  # excess(sat_top) = 0, in closed form
    frozen = np.zeros(theta.shape, dtype=bool)
    f = np.zeros_like(theta)
    for iters in range(1, est.max_iter + 1):
        f = np.where(frozen, f,
                     kernel.excess(theta) - cost_slope * theta - targets)
        slope = kernel.tail(theta) + cost_slope
        pos = (f > 0.0) & ~frozen
        neg = (f < 0.0) & ~frozen
        lo = np.where(pos, theta, lo)
        hi = np.where(neg, theta, hi)
        f_hi = np.where(neg, f, f_hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            gap = np.where(pos, f / np.maximum(slope, 1e-300), 0.0)
            # chord from (theta, f > 0) to (hi, f_hi <= 0) overestimates the
            # root of a convex decreasing residual
            chord = np.where(pos, f * (hi - theta) / np.maximum(f - f_hi, 1e-300), 0.0)
            back = np.where(neg, -f / np.maximum(slope, 1e-300), 0.0)
        enclosure = np.where(pos, chord, back)
        scaled_tol = est.tol * np.maximum(1.0, theta_scale * np.abs(theta))
        done = ((np.abs(f) * theta_scale) <= est.tol) \
            & (((enclosure * theta_scale) <= scaled_tol)
               | (((hi - lo) * theta_scale) <= scaled_tol))
        frozen |= done
        if bool(frozen.all()):
            return theta
        mid = 0.5 * (lo + hi)
        # A Newton step from the left never overshoots; take it while it
        # covers a useful fraction of the certified remaining distance, and
        # bisect the bracket when it stalls against the singularity.
        advance = np.where(gap >= 0.125 * chord, theta + gap, mid)
        theta = np.where(frozen, theta, np.where(pos, advance, mid))
    worst = int(np.argmax(np.where(frozen, 0.0, np.abs(f))))
    raise SolverFailureError(
        f"row Newton did not converge within {est.max_iter} iterations "
        f"(worst row {worst}: theta {theta[worst]}, residual {f[worst]})")
