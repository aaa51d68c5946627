"""Slot-level protocol execution under a solved stopping policy.

One delivered packet is one renewal cycle: contention observations, the
stop decision, and the data transmission. Channel gains are i.i.d. per
observation (block fading at observation granularity, no temporal
correlation). Each contention is one geometric draw of its slot count with
a uniform winner. Throughput is total bits over total elapsed time, with a
ratio-estimator standard error over the per-packet (bits, time) pairs.

A run's result is columnar: ``SimStats`` holds one array per packet field
next to the run totals. Observations are drawn in fixed-size chunks and the
source-level stopping predicate is applied to a whole chunk at once; the
relay-level predicate runs per observation, since it needs the contention
winner.

A run is sequential and fully determined by its seed: contention, first-hop,
second-hop, and rate draws come from independent child streams of the master
seed, and batched pre-drawing consumes them in a fixed chunk order, so
identical (params, spec, config) inputs reproduce bit-identical statistics.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import policies
from .channel import SystemParams, af_rate
from .contention import sample_contention
from .errors import (
    CappedPacketError,
    InsufficientDataError,
    InvalidParameterError,
)
from .policies import PolicyKind, PolicySpec
from .solver import (
    EstimatorConfig,
    default_observations,
    solve_sub_layer_batch,
    solve_sub_w_batch,
    _first_hop_model,
    _second_hop_model,
)

_OBS_CHUNK = 2048


@dataclass(frozen=True)
class SimConfig:
    """Run-length, seeding, and guard settings for one simulation."""

    packets: int
    seed: int = 0
    sub_observation_cap: int = 1_000_000
    main_observation_cap: int = 1_000_000

    def __post_init__(self) -> None:
        if not isinstance(self.packets, int) or self.packets < 1:
            raise InvalidParameterError("packets must be an integer >= 1")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise InvalidParameterError("seed must be an integer >= 0")
        for cap in (self.sub_observation_cap, self.main_observation_cap):
            # a NaN cap would compare False forever and disable the never-stop guard
            if not isinstance(cap, int) or cap < 1:
                raise InvalidParameterError("observation caps must be integers >= 1")


@dataclass(frozen=True, eq=False)
class SimStats:
    """Simulation output: one column per packet field, plus run totals.

    Entry i of each column belongs to the i-th delivered packet:
    main_observations / sub_observations count source- and relay-level
    observations (sub is 0 in the full-CSI scenario), rate_at_stop is the
    accepted rate, relay the 1-based forwarding relay, elapsed the cycle time
    including the data transmission, and bits the delivered bits.
    """

    main_observations: np.ndarray
    sub_observations: np.ndarray
    rate_at_stop: np.ndarray
    relay: np.ndarray
    elapsed: np.ndarray
    bits: np.ndarray
    total_bits: float
    total_time: float
    throughput: float
    throughput_stderr: float


@dataclass(frozen=True)
class StoppingTimeStats:
    """Distributional summaries of the stop observation index and rate."""

    counts: dict[int, int]
    mean_observations: float
    rate_samples: np.ndarray = field(repr=False)

    def rate_cdf(self, x: float) -> float:
        """Empirical CDF of the rate at the stopping observation."""
        return float(np.searchsorted(self.rate_samples, x, side="right")
                     / self.rate_samples.size)


def fixed_rate_observations(rate: float, relay: int = 1):
    """Observation hook with a constant rate, for closed-form checks."""
    if rate < 0 or not math.isfinite(rate):
        raise InvalidParameterError("rate must be finite and >= 0")

    def sampler(rng: np.random.Generator, n: int):
        return np.full(n, float(rate)), np.full(n, relay, dtype=int)

    return sampler


def run_scenario1(params: SystemParams, spec: PolicySpec, cfg: SimConfig,
                  observation_sampler=None) -> SimStats:
    """Simulate the full-CSI protocol under the pure-threshold policy.

    Per packet: sources contend in whole slots until one wins, the winner
    observes both hops and its best relay rate, and stops iff the rate meets
    the solved threshold; otherwise contention restarts. On stop the data
    transmission takes T and delivers (T/2) * rate bits.
    """
    if spec.kind is not PolicyKind.FULL_CSI:
        raise InvalidParameterError("run_scenario1 needs a full-CSI policy")
    ss = np.random.SeedSequence(cfg.seed)
    rng_cont, rng_obs = (np.random.default_rng(s) for s in ss.spawn(2))
    sampler = observation_sampler or default_observations(params)

    def draw(n):
        rates, best = sampler(rng_obs, n)
        return rates, best, policies.full_csi_decide(spec, rates)

    observations = _chunked(draw)
    main_obs = np.empty(cfg.packets, dtype=int)
    rate_at_stop = np.empty(cfg.packets)
    relays = np.empty(cfg.packets, dtype=int)
    waited_at_stop = np.empty(cfg.packets)
    for i in range(cfg.packets):
        waited = 0.0
        n_obs = 0
        while True:
            outcome = sample_contention(rng_cont, params.num_sources, params.source_prob,
                                        params.slot_time)
            waited += outcome.elapsed
            n_obs += 1
            if n_obs > cfg.main_observation_cap:
                raise CappedPacketError(
                    f"no stop within {cfg.main_observation_cap} observations; "
                    "the threshold likely exceeds the rate support")
            rate, relay, stop = next(observations)
            if stop:
                break
        main_obs[i] = n_obs
        rate_at_stop[i] = rate
        relays[i] = relay
        waited_at_stop[i] = waited
    return _aggregate(main_obs, np.zeros(cfg.packets, dtype=int), rate_at_stop, relays,
                      waited_at_stop + params.data_time,
                      0.5 * params.data_time * rate_at_stop)


def run_scenario2(params: SystemParams, spec: PolicySpec, cfg: SimConfig,
                  est: EstimatorConfig | None = None,
                  first_hop=None, second_hop=None) -> SimStats:
    """Simulate the two-part access protocol under a bi-level policy.

    Source level: contention in half slots; the winner observes only its
    first-hop gains, solves its relay-level statistic (throughput stats for
    the intuitive rule, the reward fixed point for the coupled rule), and
    stops or re-contends. A re-contending winner observes fresh first-hop
    gains, so observations stay i.i.d. On stop it broadcasts for T/2, then relays contend
    in half slots; each winning relay draws its fresh second-hop gain and
    applies the relay-level rule; on its stop the forward leg takes T/2 and
    delivers (T/2) * rate bits. A relay level that exceeds its observation
    cap is a hard error, since it means the thresholds are inconsistent.
    """
    if spec.kind not in (PolicyKind.INTUITIVE_BILEVEL, PolicyKind.OPTIMAL_BILEVEL):
        raise InvalidParameterError("run_scenario2 needs a bi-level policy")
    params.require_relay_prob()
    est = est if est is not None else EstimatorConfig()
    half_slot = 0.5 * params.slot_time
    half_t = 0.5 * params.data_time
    intuitive = spec.kind is PolicyKind.INTUITIVE_BILEVEL

    ss = np.random.SeedSequence(cfg.seed)
    rng_cont, rng_first, rng_second = (np.random.default_rng(s) for s in ss.spawn(3))
    hop = _second_hop_model(params, second_hop)
    observations = _chunked(
        lambda n: _main_statistics(params, est, spec, intuitive, rng_first, n,
                                   first_hop, second_hop))
    gains = _chunked(lambda n: (hop.sample(rng_second, n),))

    main_obs = np.empty(cfg.packets, dtype=int)
    sub_obs = np.empty(cfg.packets, dtype=int)
    rate_at_stop = np.empty(cfg.packets)
    relays = np.empty(cfg.packets, dtype=int)
    elapsed_col = np.empty(cfg.packets)
    for i in range(cfg.packets):
        elapsed = 0.0
        n_obs = 0
        while True:
            outcome = sample_contention(rng_cont, params.num_sources, params.source_prob,
                                        half_slot)
            elapsed += outcome.elapsed
            n_obs += 1
            if n_obs > cfg.main_observation_cap:
                raise CappedPacketError(
                    f"no source-level stop within {cfg.main_observation_cap} observations")
            f_row, level, stop = next(observations)
            if stop:
                break
        elapsed += half_t  # source broadcast to the relays

        m_obs = 0
        while True:
            outcome = sample_contention(rng_cont, params.num_relays, params.relay_prob,
                                        half_slot)
            elapsed += outcome.elapsed
            m_obs += 1
            if m_obs > cfg.sub_observation_cap:
                raise CappedPacketError(
                    f"no relay-level stop within {cfg.sub_observation_cap} observations; "
                    "relay thresholds are inconsistent with the source-level stop")
            relay = outcome.winner
            (g,) = next(gains)
            rate_m = af_rate(params.source_power, params.relay_power, f_row[relay - 1], g)
            if intuitive:
                stop = policies.intuitive_sub_decide(level, rate_m)
            else:
                stop = policies.optimal_sub_decide(spec, level, rate_m, params.data_time)
            if stop:
                break
        elapsed += half_t  # relay forwards to the destination
        main_obs[i] = n_obs
        sub_obs[i] = m_obs
        rate_at_stop[i] = rate_m
        relays[i] = relay
        elapsed_col[i] = elapsed
    return _aggregate(main_obs, sub_obs, rate_at_stop, relays, elapsed_col,
                      half_t * rate_at_stop)


def stopping_time_stats(stats: SimStats) -> StoppingTimeStats:
    """Histogram and mean of the stop index plus the rate-at-stop sample."""
    values, counts = np.unique(stats.main_observations, return_counts=True)
    return StoppingTimeStats(dict(zip(values.tolist(), counts.tolist())),
                             float(stats.main_observations.mean()),
                             np.sort(stats.rate_at_stop))


def throughput_ci(stats: SimStats) -> tuple[float, float]:
    """Throughput estimate and its ratio-estimator (delta method) stderr."""
    if stats.bits.size < 2:
        raise InsufficientDataError("need at least 2 packets for a standard error")
    return _ratio_and_stderr(stats.bits, stats.elapsed)


def _ratio_and_stderr(bits: np.ndarray, times: np.ndarray) -> tuple[float, float]:
    ratio = float(bits.sum() / times.sum())
    n = bits.size
    if n < 2:
        return ratio, 0.0
    # Shift by the first element before centering: mathematically a no-op,
    # but it keeps identical cycles at exactly zero variance.
    b = bits - bits[0]
    t = times - times[0]
    db = b - b.mean()
    dt = t - t.mean()
    var = (db @ db - 2.0 * ratio * (db @ dt) + ratio * ratio * (dt @ dt)) / (n - 1)
    stderr = float(math.sqrt(max(var, 0.0) / n) / times.mean())
    return ratio, stderr


def _aggregate(main_observations, sub_observations, rate_at_stop, relay,
               elapsed, bits) -> SimStats:
    throughput, stderr = _ratio_and_stderr(bits, elapsed)
    return SimStats(main_observations, sub_observations, rate_at_stop, relay,
                    elapsed, bits,
                    total_bits=float(bits.sum()),
                    total_time=float(elapsed.sum()),
                    throughput=throughput,
                    throughput_stderr=stderr)


def _chunked(draw):
    """Yield the rows of fixed-size batched draws as Python scalars, in draw order."""
    while True:
        yield from zip(*(a.tolist() for a in draw(_OBS_CHUNK)))


def _main_statistics(params, est, spec, intuitive, rng, n, first_hop, second_hop):
    """Draw n first-hop rows, their relay-level statistic, and the stop mask.

    The statistic is the relay-level threshold for the intuitive rule and
    the reward fixed point W* for the coupled rule.
    """
    fh = _first_hop_model(params, first_hop)
    rows = np.atleast_2d(fh.sample(rng, (n, params.num_relays)))
    if intuitive:
        stats = solve_sub_layer_batch(params, rows, est, second_hop)
        return rows, stats.threshold, policies.intuitive_main_decide(
            spec, stats, params.data_time)
    w = solve_sub_w_batch(params, rows, spec.gamma_star, est, second_hop)
    return rows, w, policies.optimal_main_decide(spec, w, params.data_time)
