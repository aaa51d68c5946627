"""Fixed-point threshold solvers for the stopping policies.

Every threshold in the protocol solves an equation of the same shape: an
expected positive part, decreasing in the unknown, equals a linear contention
cost, increasing in the unknown. The residual is convex, so Newton steps from
the left of the root never overshoot, and convexity certifies enclosures.

The full-CSI expectation is exact (``channel.best_relay_excess_tail``). The
two-part expectations are split by hop. Second-hop (single-gain) expectations
are deterministic: the second hop's model evaluates them in closed form,
through the kernel its ``relay_kernel`` method builds. First-hop expectations
use a fixed, seed-determined Monte Carlo sample that is reused for every
candidate threshold (common random numbers), so each realized residual, a
sample average of per-row gains, is a convex decreasing function with a
unique root.

One guarded-Newton engine finds every root, on a batch of rows at once,
dropping converged rows from the residual passes. A relay-level solve, one
realization or many, is a batch of kernel rows; a source-level threshold, a
rate-of-return problem (Dinkelbach's method), is a one-row run whose
evaluations may run relay-level batches. A tangent root lies left of the
root (the residual is convex), so the engine steps there from the right.
The coupled solve starts at the intuitive root, which it dominates, and each
outer evaluation after the first starts every row at its new tangent root.

This module names no hop model and reads no power or mean gain:
``relaystop.channel`` resolves the optional ``first_hop`` / ``second_hop``
arguments, draws the first-hop sample, builds the second-hop kernels, whose
``excess_tail`` the engine calls, and evaluates the best-relay law. A
point-mass second hop, and any finite-support ``rate_sampler`` a caller
passes, make the closed-form worked examples exact.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import (SystemParams, as_rows, best_relay_excess_tail, full_csi_rate_sampler,
                      sample_first_hop_rows, second_hop_kernel)
from .contention import success_prob
from .errors import InvalidParameterError, SolverFailureError

# Row-chunk size for batched inner solves; bounds peak memory at roughly
# chunk * num_relays floats per temporary.
CHUNK_ROWS = 8192

# Iteration cap of every root search: outer residual evaluations and
# row-Newton iterations alike.
MAX_ITER = 200


@dataclass(frozen=True)
class EstimatorConfig:
    """Numerical settings shared by the solvers.

    mc_samples: first-hop Monte Carlo sample count (fixed per seed); the
        full-CSI solve reads it, and seed, only with a ``rate_sampler``.
    quad_points: validated and echoed for config compatibility; no kernel
        reads it, since the second-hop integrals are in closed form.
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
    iterations and kernel rows (rows x relays over the row-Newton passes).
    A coupled solve's ``start`` is the intuitive solution it started from."""

    value: float
    residual: float
    iterations: int
    bracket: tuple[float, float]
    inner_iterations: int = 0
    kernel_rows: int = 0
    start: ThresholdSolution | None = None


@dataclass(frozen=True)
class SubLayerStats:
    """Solved relay-level stopping problem per first-hop realization.

    ``solve_sub_layer_batch`` returns equal-length arrays, one entry per
    realization; the policies also take floats for a single realization.

    threshold: maximal conditional relay-level throughput; also the stop
        threshold on the observed relay rate.
    expected_time: expected relay-level time, contention plus the second-hop
        transmission half; accepted, a realization delivers threshold * expected_time bits.
    """

    threshold: float
    expected_time: float


# ---------------------------------------------------------------------------
# Full-CSI threshold (single-layer stopping)


def _draw_rates(params: SystemParams, est: EstimatorConfig, rate_sampler) -> np.ndarray:
    rng = np.random.default_rng(est.seed)
    sampler = rate_sampler if rate_sampler is not None else full_csi_rate_sampler(params)
    rates = np.asarray(sampler(rng, est.mc_samples), dtype=float)
    if rates.ndim != 1 or rates.size != est.mc_samples:
        raise InvalidParameterError("rate sampler must return mc_samples rates")
    if np.any(rates < 0) or not np.all(np.isfinite(rates)):
        raise InvalidParameterError("sampled rates must be finite and >= 0")
    return rates


def solve_full_csi_lambda(params: SystemParams, est: EstimatorConfig,
                          rate_sampler=None) -> ThresholdSolution:
    """Solve the full-CSI rate-of-return fixed point.

    The root lam* of  E[max((T/2) R - lam T, 0)] = lam * tau / p_s  is the
    maximal long-run throughput; the corresponding stop rule is a pure
    threshold at rate 2*lam*. Newton steps start at 0.

    By default R is the best-relay rate of the Rayleigh hops of ``params``,
    and the expectation and its slope -T P(R >= 2 lam) are evaluated from
    the closed-form law ``channel.best_relay_excess_tail``: deterministic, with
    no sample and no random draw. A ``rate_sampler`` instead solves on its
    fixed sample of ``est.mc_samples`` rates drawn from ``est.seed``.
    """
    t = params.data_time
    cost = params.slot_time / success_prob(params.num_sources, params.source_prob)
    if rate_sampler is not None:
        half_rates = 0.5 * t * _draw_rates(params, est, rate_sampler)

        def evaluate(lam: float):
            return *_sample_average_residual(half_rates - lam * t, t, lam, cost), (0, 0)
    else:
        def evaluate(lam: float):
            excess, tail = best_relay_excess_tail(params, 2.0 * lam)
            return 0.5 * t * excess - lam * cost, -t * tail - cost, (0, 0)
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
    if not np.isfinite(thresholds).all():
        raise InvalidParameterError("grid must be finite")
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
# Relay-level (sub-layer) solvers
#
# Both relay-level equations invert the same strictly decreasing function:
#   throughput rule:  excess(lam)   = lam * slot_time / (T p_r)
#   reward rule:      excess(theta) = gamma * slot_time / (T p_r),
#                     where theta = gamma + W / (T/2).


def solve_sub_layer_batch(params: SystemParams, f_rows, est: EstimatorConfig,
                          second_hop=None) -> tuple[SubLayerStats, np.ndarray]:
    """Relay-level throughput statistics, one entry per first-hop realization,
    and the stop probability P per relay-level observation at each root.

    The threshold lam solves E[max(R_m - lam, 0)] = lam * tau / (T p_r); the
    expected time T/2 + tau / (2 p_r P) adds one expected contention per
    observation over a geometric observation count. All-zero first-hop gains
    give threshold 0 and P = 1, one observation, rather than an error.
    """
    kernels = _chunk_kernels(params, as_rows(f_rows, params.num_relays), second_hop)
    return _intuitive_rows(params, kernels, est)[:2]


def _chunk_kernels(params, rows, second_hop):
    """The second hop's relay kernel per CHUNK_ROWS rows, built as iterated."""
    for i in range(0, rows.shape[0], CHUNK_ROWS):
        yield second_hop_kernel(params, rows[i:i + CHUNK_ROWS], second_hop)


def _intuitive_rows(params, kernels, est):
    """Relay-level throughput statistics over chunk kernels, their stop probability and work."""
    p_r = success_prob(params.num_relays, params.require_relay_prob())
    slope = params.slot_time / (params.data_time * p_r)
    lam, stop_prob, _, *work = _newton_rows(kernels, slope, 0.0, est, 1.0)
    with np.errstate(divide="ignore"):
        expected_time = (0.5 * params.data_time
                         + params.slot_time / (2.0 * p_r * stop_prob))
    return SubLayerStats(lam, expected_time), stop_prob, tuple(work)


def solve_sub_w_batch(params: SystemParams, f_rows, gamma: float,
                      est: EstimatorConfig, second_hop=None) -> tuple[np.ndarray, np.ndarray]:
    """Relay-level reward fixed point W, one per first-hop realization, and
    the stop probability per relay-level observation of its stop rule.

    At the imposed return rate gamma, W solves
    E[max((T/2) R_m - (T/2) gamma, W)] = W + gamma tau / (2 p_r); W may be
    negative for poor first hops, and its stop rule is
    (T/2) R_m >= W + (T/2) gamma. At gamma = 0 the root is the essential
    supremum of the reward, (T/2) * max saturation, and the solver lands at
    the float-tail boundary just below it.
    """
    if not (math.isfinite(gamma) and gamma >= 0.0):
        raise InvalidParameterError("gamma must be finite and >= 0")
    p_r = success_prob(params.num_relays, params.require_relay_prob())
    target = params.slot_time / (params.data_time * p_r) * gamma
    half_t = 0.5 * params.data_time
    kernels = _chunk_kernels(params, as_rows(f_rows, params.num_relays), second_hop)
    theta, stop_prob = _newton_rows(kernels, 0.0, target, est, half_t)[:2]
    return half_t * (theta - gamma), stop_prob


def _tangent_start(theta, residual, tail, old_target, target):
    """Tangent root at theta of the reward residual moved from old_target to
    target: a lower point of the new root (convexity). Where the tail is 0
    it is NaN or -inf, and ``_newton_rows`` starts at e0's tangent root."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return theta + (residual + old_target - target) / tail


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
    rows = sample_first_hop_rows(params, np.random.default_rng(est.seed), est.mc_samples,
                                 first_hop)
    return _intuitive_gamma(params, _chunk_kernels(params, rows, second_hop), est)


def _intuitive_gamma(params, kernels, est) -> ThresholdSolution:
    name = "two-part throughput (intuitive rule)"
    try:
        stats, _, work = _intuitive_rows(params, kernels, est)
    except SolverFailureError as err:
        raise SolverFailureError(f"{name}: {err}") from err
    cost = params.slot_time / (2.0 * success_prob(params.num_sources, params.source_prob))
    bits = stats.threshold * stats.expected_time
    per_unit = stats.expected_time + 0.5 * params.data_time

    def evaluate(gamma: float):
        return *_sample_average_residual(bits - gamma * per_unit, per_unit, gamma, cost), (0, 0)

    return _solve_convex(evaluate, cost, est, name, work=work)


def _sample_average_residual(gain, gain_slope, x, cost):
    """The sample-average residual mean(max(gain, 0)) - x cost at x, and its
    right derivative -sum(gain_slope over rows with gain > 0) / n - cost,
    where gain_slope is each row's -d gain / dx (an array or one value)."""
    slope = -float(np.where(gain > 0.0, gain_slope, 0.0).sum()) / gain.size - cost
    return float(np.maximum(gain, 0.0).mean() - x * cost), slope


def solve_main_gamma_optimal(params: SystemParams, est: EstimatorConfig,
                             first_hop=None, second_hop=None) -> ThresholdSolution:
    """Source-level throughput fixed point for the reward-coupled rule.

    Over the same fixed first-hop sample as the intuitive solver, finds the
    root gamma of  mean(max(W(gamma) - (T/2) gamma, 0)) = gamma tau / (2 p_s),
    where W(gamma) is the relay-level reward fixed point per realization.
    The stop rule is  W(gamma*) >= (T/2) gamma*. By the envelope theorem
    W'(gamma) = -(T/2)(1 + k / P(theta)), k = tau / (T p_r), with P(theta)
    the relay-level stop probability, so the residual's slope is
    -mean((T/2)(2 + k / P(theta)) over rows with a positive part) - cost.
    Newton starts at the intuitive root, solved on the same rows and
    kernels and returned as ``start``, whose relay-level work the counts
    include; the coupled rule dominates it, so the start lies left of the
    root. Each evaluation solves W on every chunk in one ``_newton_rows``
    call and sums over the whole sample; after the first, each row starts
    at its new tangent root.
    """
    rows = sample_first_hop_rows(params, np.random.default_rng(est.seed), est.mc_samples,
                                 first_hop)
    p_r = success_prob(params.num_relays, params.require_relay_prob())
    cost = params.slot_time / (2.0 * success_prob(params.num_sources, params.source_prob))
    half_t = 0.5 * params.data_time
    k = params.slot_time / (params.data_time * p_r)
    kernels = list(_chunk_kernels(params, rows, second_hop))
    start = _intuitive_gamma(params, kernels, est)
    last = None  # (theta, residual, tail, target) of the last evaluation

    def evaluate(gamma: float):
        nonlocal last
        target = k * gamma
        warm = None if last is None else _tangent_start(*last, target)
        theta, stop_prob, residual, inner, kernel_rows = _newton_rows(
            kernels, 0.0, target, est, half_t, warm)
        last = theta, residual, stop_prob, target
        # -d gain / d gamma per row; k / P is inf where P is 0 or subnormal, and
        # an infinite slope makes _newton bisect rather than step
        with np.errstate(divide="ignore", over="ignore"):
            steep = half_t * (2.0 + k / stop_prob)
        gain = half_t * (theta - gamma) - half_t * gamma
        return *_sample_average_residual(gain, steep, gamma, cost), (inner, kernel_rows)

    sol = _solve_convex(evaluate, cost, est, "two-part throughput (coupled rule)",
                        start=start.value, work=(start.inner_iterations, start.kernel_rows))
    return replace(sol, start=start)


# ---------------------------------------------------------------------------
# Root-finding engine


def _solve_convex(evaluate, cost: float, est: EstimatorConfig, name: str,
                  start: float = 0.0, work: tuple[int, int] = (0, 0)) -> ThresholdSolution:
    """Root on [0, inf) of a convex decreasing residual (Dinkelbach's method),
    as a one-row ``_newton`` run from ``start`` with the slope bound ``cost``.

    ``evaluate(x)`` returns (residual, slope <= -cost < 0, relay-level work:
    row-Newton iterations and kernel rows, summed on top of ``work``).
    """
    work = list(work)

    def residual(x, rows):
        try:
            r, s, (n, m) = evaluate(float(x[0]))
        except SolverFailureError as err:
            raise SolverFailureError(f"{name} at {x[0]}: {err}") from err
        work[:] = work[0] + n, work[1] + m
        return np.array([r]), np.array([-s])

    (x,), (r,), (lower,), (upper,), iters = _newton(
        residual, np.array([float(start)]), np.zeros(1), np.full(1, math.inf), np.zeros(1),
        est.tol, 1.0, name, cost)
    return ThresholdSolution(float(x), float(r), iters, (float(lower), float(upper)), *work)


def _newton_rows(kernels, cost_slope: float, target: float, est: EstimatorConfig,
                 theta_scale: float, start: np.ndarray | None = None):
    """Solve excess(theta) - cost_slope * theta = target per row of the chunk
    kernels, one ``_newton`` run per chunk. Returns (theta, tail(theta),
    residual) over the whole sample, then the row-Newton iterations and
    kernel rows (rows x relays over the excess passes) summed over chunks.

    The slope is -(tail + cost_slope); the top saturation rate, where excess
    vanishes, is a closed-form upper end. At theta <= 0 the excess is
    e0 - theta, so the tangent root from 0, (e0 - target) / (1 + cost_slope),
    is the root where it is <= 0 (the linear branch) and a certified lower
    point elsewhere. Every row starts there, or at ``start`` where that is
    higher (a NaN there is passed over). Tolerances are in caller units via
    ``theta_scale``, T/2 for reward solves. A failure names the sample row.
    """
    parts, iters, kernel_rows, row0 = [], 0, 0, 0
    for kernel in kernels:
        n = kernel.rows.shape[0]
        tangent = (kernel.e0 - target) / (1.0 + cost_slope)
        th = tangent if start is None else np.fmax(tangent, start[row0:row0 + n])
        hi = np.maximum(th, kernel.sat_top)
        tail = np.empty(n)  # every row's first pass fills it

        def residual(th, rows):
            nonlocal kernel_rows
            excess, p = kernel.excess_tail(th, rows)
            kernel_rows += th.size * kernel.rows.shape[1]
            tail[rows] = p
            return excess - cost_slope * th - target, p + cost_slope

        theta, f, _, _, n_iter = _newton(residual, th, np.minimum(tangent, 0.0), hi,
                                         -cost_slope * hi - target, est.tol, theta_scale,
                                         "relay-level rows", row0=row0)
        parts.append((theta, tail, f))
        iters += n_iter
        row0 += n
    return (*(np.concatenate(part) for part in zip(*parts)), iters, kernel_rows)


def _newton(residual, x, lo, hi, f_hi, tol: float, scale: float, name: str, cost: float = 0.0,
            row0: int = 0):
    """Guarded Newton on a batch of convex decreasing residuals, a root per row.

    ``residual(x, rows)`` returns (f, -f') for the rows still iterating (an
    index array, or ``slice(None)`` while all do). Each row starts at x in a
    certified enclosure [lo, hi], f(hi) <= f_hi <= 0. A point with f > 0 is a
    lower end, and x + f / cost an upper one (slope <= -cost); f < 0 makes an
    upper end, and f <= 0 at the lower end the root. A tangent root lies at
    or left of the root: right of it a row steps back there if that is above
    lo. Left of it the chord to the upper end crosses zero at or beyond the
    root; the Newton step is taken if it covers 1/8 of the chord or at most
    half the last step, else the row bisects (Newton crawls at a singularity).
    Converged rows (|f| and the enclosure inside tol, in caller units via
    ``scale``) leave the residual passes: only a pass where some row
    converged writes results and compacts the active rows. At ``cost`` 0,
    every relay-level run, the upper bound x + f / cost is +inf and is not
    formed. Returns (x, f, lower, upper, iterations): per row the root, its
    residual and enclosure, then the residual passes. A non-finite residual, a row not done with no float strictly
    inside its enclosure, or MAX_ITER iterations raise SolverFailureError
    naming the worst row, counted from ``row0``.
    """
    out = np.empty((4, x.size))
    idx, th, prev = np.arange(x.size), x, np.full(x.size, math.inf)
    for iters in range(1, MAX_ITER + 1):
        # no gathers while all iterate
        f, d = residual(th, idx if idx.size < x.size else slice(None))
        if not np.isfinite(f).all():
            break
        pos, neg = f > 0.0, f < 0.0
        lo = np.where(pos, th, lo)
        hi = np.where(neg, th, hi)
        f_hi = np.where(neg, f, f_hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            if cost > 0.0:  # at cost 0 every bound is +inf and changes nothing
                bound = np.where(pos, th + f / cost, math.inf)
                f_hi = np.where(bound < hi, 0.0, f_hi)
                hi = np.minimum(hi, bound)
            newton = f / np.maximum(d, 1e-300)  # from th to its tangent root
            chord = np.where(pos, f * (hi - th) / (f - f_hi), 0.0)
        step = th + newton
        scaled_tol = tol * np.maximum(1.0, scale * np.abs(th))
        done = (~pos & (th == lo)) | ((np.abs(f) * scale <= tol)
                                      & ((np.where(pos, chord, -newton) * scale <= scaled_tol)
                                         | ((hi - lo) * scale <= scaled_tol)))
        if any_done := bool(done.any()):
            rows = idx[done]
            for column, value in zip(out, (th, f, np.where(pos, th, np.maximum(lo, step)),
                                           np.where(pos, hi, th))):
                column[rows] = value[done]
            if bool(done.all()):
                return *out, iters
        take = np.where(pos, ((newton >= 0.125 * chord) | (newton <= 0.5 * prev)) & (step <= hi),
                        step > lo) & (step != th)
        nxt = np.where(take, step, 0.5 * (lo + hi))
        if (stuck := ~done & (nxt == th)).any():  # no float strictly inside the enclosure
            f = np.where(stuck, f, 0.0)
            break
        th, prev = nxt, np.abs(newton)
        if any_done:  # a pass where no row finished keeps the active set as it is
            keep = ~done
            idx, th, lo, hi, f_hi, prev, f = (a[keep] for a in (idx, th, lo, hi, f_hi, prev, f))
    worst = int(np.argmax(np.abs(f)))  # the first NaN, if any
    raise SolverFailureError(
        f"{name}: no root after {iters} Newton iteration(s) (worst row {row0 + idx[worst]}: "
        f"residual {f[worst]}, enclosure [{lo[worst]}, {hi[worst]}])")
