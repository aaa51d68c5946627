"""Fixed-point threshold solvers for the stopping policies.

Every threshold in the protocol solves an equation of the same shape: an
expected positive part, decreasing in the unknown, equals a linear contention
cost, increasing in the unknown. The residual is convex, so Newton steps from
the left of the root never overshoot, and convexity certifies enclosures.

Expectations are split by hop. Second-hop (single-gain) expectations are
computed deterministically: the rate tail inverts in closed form for an
exponential gain, and the positive part is the tail integral, evaluated with
fixed Gauss-Legendre nodes. First-hop expectations use a fixed,
seed-determined Monte Carlo sample that is reused for every candidate
threshold (common random numbers), so each realized residual is itself a
convex decreasing function with a unique root.

The source-level thresholds are rate-of-return problems, solved by Newton's
method on the residual and its slope (Dinkelbach's method); the coupled solve
starts at the intuitive root, which it dominates. Every relay-level solve,
one realization or many, goes through one batch engine that runs guarded
Newton on all rows at once, dropping converged rows from the kernel passes.
A row's tangent root lies left of its root (the residual is convex), so the
engine steps there from the right, and each coupled outer evaluation after
the first starts every row at the tangent root for its new target.

The second hop is either Rayleigh fading (exponential squared gain, the
paper's channel) or a point mass (``FixedGain``); the point mass, and any
finite-support ``rate_sampler`` a caller passes, make the closed-form worked
examples exact. The first hop and the best-relay draw only sample, so they
take any object with a ``sample(rng, size)`` method.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .channel import FixedGain, RayleighFading, SystemParams, af_rate, rate_saturation
from .contention import success_prob
from .errors import InvalidParameterError, SolverFailureError

# Row-chunk size for batched inner solves; bounds peak memory at roughly
# chunk * num_relays * quad_points floats per temporary.
CHUNK_ROWS = 8192

# The relay-level reward equation degenerates at a source-level rate of
# exactly zero, so the coupled residual is never evaluated below this floor.
GAMMA_FLOOR = 1e-12

# Iteration cap of every root search: outer residual evaluations and
# row-Newton iterations alike.
MAX_ITER = 200


@dataclass(frozen=True)
class EstimatorConfig:
    """Numerical settings shared by the solvers.

    mc_samples: first-hop Monte Carlo sample count (fixed per seed).
    quad_points: Gauss-Legendre nodes for second-hop tail integrals.
    seed: root seed of the fixed sample set.
    tol: residual and bracket tolerance for root finding.
    """

    mc_samples: int = 20_000
    quad_points: int = 64
    seed: int = 0
    tol: float = 1e-9

    def __post_init__(self) -> None:
        if not isinstance(self.mc_samples, int) or self.mc_samples < 1:
            raise InvalidParameterError("mc_samples must be an integer >= 1")
        if not isinstance(self.quad_points, int) or self.quad_points < 2:
            raise InvalidParameterError("quad_points must be an integer >= 2")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise InvalidParameterError("seed must be an integer >= 0")
        if not (self.tol > 0.0) or not math.isfinite(self.tol):
            raise InvalidParameterError("tol must be finite and > 0")


@dataclass(frozen=True)
class ThresholdSolution:
    """A solved threshold, its residual, residual evaluations, root enclosure,
    and relay-level work summed over chunks and evaluations: row-Newton
    iterations and kernel rows (rows x relays over the row-Newton passes)."""

    value: float
    residual: float
    iterations: int
    bracket: tuple[float, float]
    inner_iterations: int = 0
    kernel_rows: int = 0


@dataclass(frozen=True)
class SubLayerStats:
    """Solved relay-level stopping problem per first-hop realization.

    ``solve_sub_layer_batch`` returns equal-length arrays, one entry per
    realization; the policies also take floats for a single realization.

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
# Rate samplers (full-CSI scenario) and hop models


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


def solve_full_csi_lambda(params: SystemParams, est: EstimatorConfig,
                          rate_sampler=None) -> ThresholdSolution:
    """Solve the full-CSI rate-of-return fixed point.

    The root lam* of  E[max((T/2) R - lam T, 0)] = lam * tau / p_s  is the
    maximal long-run throughput; the corresponding stop rule is a pure
    threshold at rate 2*lam*. Newton steps start at 0.
    """
    t = params.data_time
    half_rates = 0.5 * t * _draw_rates(params, est, rate_sampler)
    cost = params.slot_time / success_prob(params.num_sources, params.source_prob)
    evaluate = _piecewise_linear_residual(half_rates, t, cost)
    return _solve_convex(evaluate, cost, est, "full-CSI throughput")


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
    idx = np.searchsorted(rates, thresholds, side="left")
    kept = n - idx
    if not kept.any():
        raise SolverFailureError("every grid threshold lies above the sampled rate support")
    tp = np.where(kept > 0, 0.5 * t * (suffix[idx] / n) / (t * kept / n + cost), -np.inf)
    best = int(np.argmax(tp))  # the first of equal maxima
    return float(thresholds[best]), float(tp[best])


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
    one fused quadrature sweep. The second hop picks the path: Rayleigh
    fading gets the fused closed-form tail, a ``FixedGain`` point mass gets
    exact finite arithmetic, and any other hop object is an
    InvalidParameterError. Instances are not safe to share across threads
    (scratch buffers); build one kernel per thread.
    """

    def __init__(self, params: SystemParams, rows: np.ndarray, quad_points: int, second_hop):
        self.rows = rows
        hop = _second_hop_model(params, second_hop)
        ps, pr = params.source_power, params.relay_power
        self.point_mass = isinstance(hop, FixedGain)
        if self.point_mass:
            self.rates = af_rate(ps, pr, rows, hop.gain)
            self.sat_top = np.atleast_1d(self.rates).max(axis=1)
        elif isinstance(hop, RayleighFading):
            self.sat = rate_saturation(ps, rows)
            self.sat_top = np.atleast_1d(self.sat).max(axis=1)
            a = ps * np.minimum(rows, 1e300)
            self.scaled3 = ((1.0 + a) / pr)[..., None]
            self.a3 = a[..., None]
            self.nodes, self.weights = _leggauss(quad_points)
            self.inv_mean = 1.0 / hop.mean_gain
            shape = (*rows.shape, quad_points)
            self._t = np.empty(shape)
            self._c = np.empty(shape)
        else:
            raise InvalidParameterError(
                "second hop must be RayleighFading or FixedGain, got "
                f"{type(hop).__name__}")

    @cached_property
    def e0(self) -> np.ndarray:  # E[max(R, 0)] = E[R] per row, one pass on first use
        return self.excess(np.zeros(self.rows.shape[0]))

    def _fused_tails(self, half: np.ndarray, mid: np.ndarray, idx) -> np.ndarray:
        """Gain tails of rows idx at the mapped nodes, in leading scratch rows.

        c = 2^t - 1 instead of expm1(t ln 2): for tiny t the relative error
        of c is ~eps/t, but the needed gain stays O(c) and the tail error is
        O(need * eps / t), far below quadrature resolution.
        """
        m = half.shape[0]
        t, c = self._t[:m], self._c[:m]
        np.multiply(half[..., None], self.nodes, out=t)
        t += mid[..., None]
        np.exp2(t, out=c)
        c -= 1.0
        np.subtract(self.a3[idx], c, out=t)  # t now holds a - c (the denominator)
        dead = t <= 0.0
        c *= self.scaled3[idx]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            c /= t
            c *= -self.inv_mean
            np.exp(c, out=c)
        c[dead] = 0.0
        return c

    def excess(self, thetas: np.ndarray, idx=slice(None)) -> np.ndarray:
        """E[max(R - theta, 0)] for the rows ``idx``; thetas may be negative."""
        thetas = np.asarray(thetas, dtype=float)
        if self.point_mass:
            return np.maximum(self.rates[idx] - thetas[:, None], 0.0).mean(axis=1)
        sat = self.sat[idx]
        lo = np.minimum(np.maximum(thetas[:, None], 0.0), sat)
        half = 0.5 * (sat - lo)
        mid = 0.5 * (sat + lo)
        per_relay = (self._fused_tails(half, mid, idx) @ self.weights) * half
        return per_relay.mean(axis=1) + np.maximum(-thetas, 0.0)

    def tail(self, thetas: np.ndarray, idx=slice(None)) -> np.ndarray:
        """P(R >= theta) for the rows ``idx``; 1 for theta <= 0."""
        thetas = np.asarray(thetas, dtype=float)
        if self.point_mass:
            hit = (self.rates[idx] >= thetas[:, None]).mean(axis=1)
        else:
            t = np.maximum(thetas, 0.0)[:, None, None]
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                c = np.exp2(t) - 1.0
                denom = self.a3[idx] - c
                need = np.where(denom > 0.0, c * self.scaled3[idx] / denom, np.inf)
            hit = np.exp(-need * self.inv_mean)[..., 0].mean(axis=1)
        return np.where(thetas <= 0.0, 1.0, hit)


def _as_rows(f_sq) -> np.ndarray:
    arr = np.asarray(f_sq, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] == 0:
        raise InvalidParameterError("first-hop gains must be a 1-D or 2-D array")
    if np.any(arr < 0) or not np.all(np.isfinite(arr)):
        raise InvalidParameterError("first-hop gains must be finite and >= 0")
    return arr


# ---------------------------------------------------------------------------
# Relay-level (sub-layer) solvers
#
# Both relay-level equations invert the same strictly decreasing function:
#   throughput rule:  excess(lam)   = lam * slot_time / (T p_r)
#   reward rule:      excess(theta) = gamma * slot_time / (T p_r),
#                     where theta = gamma + W / (T/2).


def solve_sub_layer_batch(params: SystemParams, f_rows, est: EstimatorConfig,
                          second_hop=None) -> SubLayerStats:
    """Relay-level throughput statistics, one entry per first-hop realization.

    The threshold lam solves E[max(R_m - lam, 0)] = lam * tau / (T p_r); the
    expected time is T/2 plus one expected contention per observation over a
    geometric observation count. All-zero first-hop gains give threshold 0
    and stop probability 1 rather than an error.
    """
    kernels = _chunk_kernels(params, _as_rows(f_rows), est, second_hop)
    return _intuitive_rows(params, kernels, est)[0]


def _chunk_kernels(params, rows, est, second_hop):
    """One second-hop kernel per CHUNK_ROWS rows, built as iterated."""
    for i in range(0, rows.shape[0], CHUNK_ROWS):
        yield _SecondHopKernel(params, rows[i:i + CHUNK_ROWS], est.quad_points, second_hop)


def _intuitive_rows(params, kernels, est):
    """Relay-level throughput statistics over chunk kernels, and the relay-level work."""
    p_r = success_prob(params.num_relays, params.require_relay_prob())
    slope = params.slot_time / (params.data_time * p_r)
    parts, inner, kernel_rows = [], 0, 0
    for kernel in kernels:
        lam, stop_prob, _, iters, passes = _newton_rows(
            kernel, slope, np.zeros(kernel.rows.shape[0]), est, theta_scale=1.0)
        parts.append((lam, stop_prob))
        inner += iters
        kernel_rows += passes
    lam, stop_prob = (np.concatenate(arrs) for arrs in zip(*parts))
    with np.errstate(divide="ignore"):
        expected_time = (0.5 * params.data_time
                         + params.slot_time / (2.0 * p_r * stop_prob))
    return SubLayerStats(lam, lam * expected_time, expected_time, stop_prob), (inner, kernel_rows)


def solve_sub_w_batch(params: SystemParams, f_rows, gamma: float,
                      est: EstimatorConfig, second_hop=None) -> np.ndarray:
    """Relay-level reward fixed point W, one per first-hop realization.

    At the imposed return rate gamma, W solves
    E[max((T/2) R_m - (T/2) gamma, W)] = W + gamma tau / (2 p_r); W may be
    negative for poor first hops, and its stop rule is
    (T/2) R_m >= W + (T/2) gamma. At gamma = 0 the root is the essential
    supremum of the reward, (T/2) * max saturation, and the solver lands at
    the float-tail boundary just below it.
    """
    if gamma < 0:
        raise InvalidParameterError("gamma must be >= 0")
    p_r = success_prob(params.num_relays, params.require_relay_prob())
    half_t = 0.5 * params.data_time
    target = gamma * params.slot_time / (params.data_time * p_r)
    kernels = _chunk_kernels(params, _as_rows(f_rows), est, second_hop)
    return np.concatenate([
        half_t * (_newton_rows(kernel, 0.0, np.full(kernel.rows.shape[0], target), est,
                               theta_scale=half_t)[0] - gamma)
        for kernel in kernels])


def _tangent_start(theta, residual, tail, old_target, target):
    """Tangent root at theta of the reward residual moved from old_target to
    target: a lower point of the new root (convexity); 0 where the tail is 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(tail > 0.0, theta + (residual + old_target - target) / tail, 0.0)


# ---------------------------------------------------------------------------
# Source-level (main-layer) thresholds for the two-part access scheme


def solve_main_gamma_intuitive(params: SystemParams, est: EstimatorConfig,
                               first_hop=None, second_hop=None) -> ThresholdSolution:
    """Source-level throughput fixed point over intuitive relay-level stats.

    Draws the fixed first-hop sample, solves the relay-level throughput
    problem per realization, and finds the root gamma of
      mean(max(bits - gamma (time + T/2), 0)) = gamma tau / (2 p_s).
    The residual is piecewise linear in gamma. The stop rule is
    bits - gamma* time >= gamma* T/2.
    """
    rows = _draw_first_hop_rows(params, est, first_hop)
    return _intuitive_gamma(params, _chunk_kernels(params, rows, est, second_hop), est)


def _intuitive_gamma(params, kernels, est) -> ThresholdSolution:
    stats, work = _intuitive_rows(params, kernels, est)
    cost = params.slot_time / (2.0 * success_prob(params.num_sources, params.source_prob))
    evaluate = _piecewise_linear_residual(stats.expected_bits,
                                          stats.expected_time + 0.5 * params.data_time, cost)
    return _solve_convex(evaluate, cost, est, "two-part throughput (intuitive rule)",
                         work=work)


def _piecewise_linear_residual(gain0, per_unit, cost):
    """Residual mean(max(gain0 - x per_unit, 0)) - x cost, its right derivative
    -mean(per_unit over rows still positive) - cost, and no relay-level work."""
    def evaluate(x: float):
        gain = gain0 - x * per_unit
        slope = -float(np.where(gain > 0.0, per_unit, 0.0).sum()) / gain.size - cost
        return float(np.maximum(gain, 0.0).mean() - x * cost), slope, (0, 0)

    return evaluate


def solve_main_gamma_optimal(params: SystemParams, est: EstimatorConfig,
                             first_hop=None, second_hop=None,
                             start: ThresholdSolution | None = None) -> ThresholdSolution:
    """Source-level throughput fixed point for the reward-coupled rule.

    Over the same fixed first-hop sample as the intuitive solver, finds the
    root gamma of  mean(max(W(gamma) - (T/2) gamma, 0)) = gamma tau / (2 p_s),
    where W(gamma) is the relay-level reward fixed point per realization.
    The stop rule is  W(gamma*) >= (T/2) gamma*. By the envelope theorem
    W'(gamma) = -(T/2)(1 + k / P(theta)), k = tau / (T p_r), with P(theta)
    the relay-level stop probability, so the residual's slope is
    -mean((T/2)(2 + k / P(theta)) over rows with a positive part) - cost.
    Newton starts at the intuitive root, solved on the same rows and
    kernels; the coupled rule dominates it, so the start lies left of the
    root. A caller that already holds ``solve_main_gamma_intuitive`` on the
    same arguments passes it as ``start`` and skips that solve; its
    relay-level work is counted as if solved here. Later evaluations start
    each row at the tangent root of its last residual for the new target.
    """
    rows = _draw_first_hop_rows(params, est, first_hop)
    p_r = success_prob(params.num_relays, params.require_relay_prob())
    cost = params.slot_time / (2.0 * success_prob(params.num_sources, params.source_prob))
    half_t = 0.5 * params.data_time
    k = params.slot_time / (params.data_time * p_r)
    kernels = list(_chunk_kernels(params, rows, est, second_hop))
    if start is None:
        start = _intuitive_gamma(params, kernels, est)
    last = [None] * len(kernels)  # per chunk: (theta, residual, tail, target)

    def evaluate(gamma: float):
        g = max(gamma, GAMMA_FLOOR)
        target = k * g
        total, steep, inner, kernel_rows = 0.0, 0.0, 0, 0
        for i, kernel in enumerate(kernels):
            warm = None if last[i] is None else _tangent_start(*last[i], target)
            theta, stop_prob, residual, iters, passes = _newton_rows(
                kernel, 0.0, np.full(kernel.rows.shape[0], target), est, half_t, warm)
            last[i] = theta, residual, stop_prob, target
            gain = half_t * (theta - g) - half_t * g
            total += float(np.maximum(gain, 0.0).sum())
            with np.errstate(divide="ignore"):
                steep += float((2.0 + k / stop_prob[gain > 0.0]).sum())
            inner += iters
            kernel_rows += passes
        n = rows.shape[0]
        return total / n - g * cost, -half_t * steep / n - cost, (inner, kernel_rows)

    return _solve_convex(evaluate, cost, est, "two-part throughput (coupled rule)",
                         start=start.value, work=(start.inner_iterations, start.kernel_rows))


def _draw_first_hop_rows(params: SystemParams, est: EstimatorConfig, first_hop) -> np.ndarray:
    rng = np.random.default_rng(est.seed)
    model = _first_hop_model(params, first_hop)
    return np.asarray(model.sample(rng, (est.mc_samples, params.num_relays)), dtype=float)


# ---------------------------------------------------------------------------
# Root-finding engines


def _solve_convex(evaluate, cost: float, est: EstimatorConfig, name: str,
                  start: float = 0.0, work: tuple[int, int] = (0, 0)) -> ThresholdSolution:
    """Root on [0, inf) of a convex decreasing residual by Newton's method.

    ``evaluate(x)`` returns (residual r, slope, relay-level work); the slope
    is a subgradient, at most -cost < 0, and the work pairs (row-Newton
    iterations, kernel rows), summed on top of ``work``. Certified enclosure:
    a point with r > 0 is a lower end and x + r / cost an upper one; a point with r <= 0
    is an upper end, and its tangent (below the convex residual) crosses
    zero at a lower one. So the Newton step x - r / s lands at or left of
    the root from either side, and a start right of the root steps back
    along its tangent; a step that leaves the enclosure or stalls is
    replaced by bisection.
    """
    lo, hi = 0.0, math.inf
    x = start
    for iters in range(1, MAX_ITER + 1):
        r, s, (n, m) = evaluate(x)
        work = (work[0] + n, work[1] + m)
        if not math.isfinite(r):
            raise SolverFailureError(f"{name}: residual {r} at {x}")
        if r > 0.0:
            lo = x
            hi = min(hi, x + r / cost)
            bracket = (x, hi)
        elif x <= 0.0:
            # Degenerate input (zero expected reward): the root sits at 0.
            return ThresholdSolution(0.0, r, iters, (0.0, 0.0), *work)
        else:
            hi = x
            bracket = (max(lo, x - r / s), x)
        if abs(r) <= est.tol and bracket[1] - bracket[0] <= est.tol * max(1.0, abs(x)):
            return ThresholdSolution(x, r, iters, bracket, *work)
        step = x - r / s
        x = step if lo <= step <= hi and step != x else 0.5 * (lo + hi)
    raise SolverFailureError(
        f"{name}: Newton did not converge within {MAX_ITER} evaluations from "
        f"{start} (enclosure [{lo}, {hi}], residual {r})")


def _newton_rows(kernel: _SecondHopKernel, cost_slope: float, targets: np.ndarray,
                 est: EstimatorConfig, theta_scale: float, start: np.ndarray | None = None):
    """Solve excess(theta) - cost_slope * theta = target per row.

    Returns (theta, tail(theta), residual, iterations, kernel rows: rows x
    relays over the excess passes). The residual f is convex and strictly
    decreasing with derivative -(tail(theta) + cost_slope), so the tangent
    root from any point lies at or left of the root. Enclosures are
    certified: from the left, the secant chord to the bracket's negative end
    crosses zero at or beyond the root; from the right, the row steps back
    to its tangent root when that lies above the bracket's lower end. From
    the left the Newton step is taken when it covers a useful fraction of
    the chord or at most half the row's previous step; else Newton crawls
    against the tail's essential singularity at saturation and the row
    bisects. Rows whose target exceeds excess(0) are solved exactly on the
    linear branch theta <= 0, where the positive part is the identity; the
    rest start at 0, or at ``start`` (a lower point, clamped to [0, sat]).

    A row is converged when its residual is inside tolerance and its
    enclosure is smaller than tol (all in caller units via ``theta_scale``,
    T/2 for reward solves); converged rows leave the state arrays and the
    kernel passes while the rest iterate.
    """
    e0 = kernel.e0
    # Linear branch: excess(theta) = e0 - theta for theta <= 0.
    linear = targets >= e0
    theta = np.where(linear, (e0 - targets) / (1.0 + cost_slope), 0.0)
    tail, residual = np.empty_like(theta), np.empty_like(theta)
    idx = np.arange(theta.size)
    lo, tg = theta.copy(), targets  # the cold start is a certified lower end
    th = np.where(linear, theta, 0.0 if start is None else np.clip(start, 0.0, kernel.sat_top))
    hi = np.maximum(th, kernel.sat_top)
    f_hi = -cost_slope * hi - tg  # excess(sat_top) = 0, in closed form
    prev, kernel_rows = np.full(theta.size, np.inf), 0
    for iters in range(1, MAX_ITER + 1):
        rows = idx if idx.size < theta.size else slice(None)  # no gathers while all iterate
        f = kernel.excess(th, rows) - cost_slope * th - tg
        kernel_rows += th.size * kernel.rows.shape[1]
        p = kernel.tail(th, rows)
        slope = p + cost_slope
        pos = f > 0.0
        neg = f < 0.0
        lo = np.where(pos, th, lo)
        hi = np.where(neg, th, hi)
        f_hi = np.where(neg, f, f_hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            gap = np.where(pos, f / np.maximum(slope, 1e-300), 0.0)
            # chord from (theta, f > 0) to (hi, f_hi <= 0) overestimates the
            # root of a convex decreasing residual
            chord = np.where(pos, f * (hi - th) / np.maximum(f - f_hi, 1e-300), 0.0)
            back = np.where(neg, -f / np.maximum(slope, 1e-300), 0.0)
        enclosure = np.where(pos, chord, back)
        scaled_tol = est.tol * np.maximum(1.0, theta_scale * np.abs(th))
        done = ((np.abs(f) * theta_scale) <= est.tol) \
            & (((enclosure * theta_scale) <= scaled_tol)
               | (((hi - lo) * theta_scale) <= scaled_tol))
        theta[idx[done]] = th[done]
        tail[idx[done]] = p[done]
        residual[idx[done]] = f[done]
        if bool(done.all()):
            return theta, tail, residual, iters, kernel_rows
        mid = 0.5 * (lo + hi)
        advance = np.where((gap >= 0.125 * chord) | (gap <= 0.5 * prev), th + gap, mid)
        retreat = np.where(th - back > lo, th - back, mid)
        th = np.where(pos, advance, retreat)
        prev = np.where(pos, gap, back)
        keep = ~done
        idx, th, lo, hi, f_hi, tg, f, prev = (
            a[keep] for a in (idx, th, lo, hi, f_hi, tg, f, prev))
    worst = int(np.argmax(np.abs(f)))
    raise SolverFailureError(
        f"row Newton did not converge within {MAX_ITER} iterations "
        f"(worst row {idx[worst]}: theta {th[worst]}, residual {f[worst]})")
