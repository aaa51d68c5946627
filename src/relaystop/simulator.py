"""Slot-level protocol execution under a solved stopping policy.

One delivered packet is one renewal cycle: contention observations, the
stop decision, and the data transmission. Channel gains are i.i.d. per
observation (block fading at observation granularity). Each contention is a
geometric slot count with a uniform winner. Throughput is total bits over
total elapsed time, with a ratio-estimator standard error over the
per-packet (bits, time) pairs.

Cycles are i.i.d., so a run is a sequence of whole-array passes and its
result is columnar (``SimStats``). Source-level observations are drawn in
chunks of ``_OBS_CHUNK`` rows and the stop mask is applied to a chunk at
once; its stop positions cut the chunk into packets, a packet that has not
stopped by the chunk's end carries its observations into the next chunk,
and contention time is a segment sum of slot counts. The relay level runs
as repeated passes, one observation per pass, over the packets of a source
chunk that have not stopped yet, so its cap is a limit on passes. The
coupled rule decides by the sign of one second-hop kernel evaluation and
solves nothing; the intuitive rule solves its relay-level thresholds.

Stream layout: a run is fully determined by (params, spec, config, seed).

- Scenario 1: ``SeedSequence(seed).spawn(2)`` gives (contention,
  observations) streams. Observations come in chunks of ``_OBS_CHUNK``. The
  k-th observation used by a delivered packet takes the k-th
  ``geometric(p_s)`` variate of the contention stream as its slot count; no
  winner is drawn.
- Scenario 2: ``spawn(4)`` gives (contention, first hop, second hop, relay).
  First-hop rows come in chunks of ``_OBS_CHUNK``, and the k-th source
  observation takes the k-th ``geometric(p_s)`` variate of the contention
  stream, in half slots. Each relay pass over ``a`` packets, in packet
  order, draws ``geometric(p_r, a)`` slot counts and then
  ``integers(1, L+1, a)`` winners from the relay stream, then ``a`` gains
  from the second-hop stream.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import policies
from .channel import SystemParams, af_rate
from .contention import sample_contention, success_prob
from .errors import CappedPacketError, InvalidParameterError
from .policies import PolicyKind, PolicySpec
# perfbench/child.py wraps sample_contention, af_rate and both batch solvers here.
from .solver import (
    EstimatorConfig,
    default_observations,
    solve_sub_layer_batch,
    solve_sub_w_batch,  # noqa: F401
    _SecondHopKernel,
    _as_rows,
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
        # the throughput standard error needs at least two renewal cycles
        if not isinstance(self.packets, int) or self.packets < 2:
            raise InvalidParameterError("packets must be an integer >= 2")
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
    throughput is total_bits / total_time and throughput_stderr its
    ratio-estimator standard error over the per-packet (bits, elapsed) pairs.
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
    cutter = _PacketCutter(cfg, rng_cont, params.num_sources, params.source_prob)
    parts = []
    while cutter.owed:
        rates, best = sampler(rng_obs, _OBS_CHUNK)
        ends, obs, slots = cutter.cut(policies.full_csi_decide(spec, rates))
        parts.append((obs, slots, rates[ends], best[ends]))
    main_obs, slots, rate_at_stop, relays = (np.concatenate(c) for c in zip(*parts))
    return _aggregate(main_obs, np.zeros_like(main_obs), rate_at_stop, relays,
                      params.slot_time * slots + params.data_time,
                      0.5 * params.data_time * rate_at_stop)


def run_scenario2(params: SystemParams, spec: PolicySpec, cfg: SimConfig,
                  est: EstimatorConfig | None = None,
                  first_hop=None, second_hop=None) -> SimStats:
    """Simulate the two-part access protocol under a bi-level policy.

    Source level: contention in half slots; the winner observes only its
    first-hop gains and stops or re-contends by the source-level rule. A
    re-contending winner observes fresh first-hop gains, so observations stay
    i.i.d. On stop it broadcasts for T/2, then relays contend in half slots;
    each winning relay draws its fresh second-hop gain and applies the
    relay-level rule; on its stop the forward leg takes T/2 and delivers
    (T/2) * rate bits. A relay level that exceeds its observation cap is a
    hard error, since it means the thresholds are inconsistent.
    """
    if spec.kind not in (PolicyKind.INTUITIVE_BILEVEL, PolicyKind.OPTIMAL_BILEVEL):
        raise InvalidParameterError("run_scenario2 needs a bi-level policy")
    params.require_relay_prob()
    est = est if est is not None else EstimatorConfig()
    ss = np.random.SeedSequence(cfg.seed)
    rng_cont, rng_first, rng_second, rng_relay = (np.random.default_rng(s)
                                                  for s in ss.spawn(4))
    first = _first_hop_model(params, first_hop)
    hop = _second_hop_model(params, second_hop)
    cutter = _PacketCutter(cfg, rng_cont, params.num_sources, params.source_prob)

    def chunk():
        rows = _as_rows(first.sample(rng_first, (_OBS_CHUNK, params.num_relays)))
        stop, relay_stop = _decision_rules(params, est, spec, rows, second_hop)
        ends, obs, slots = cutter.cut(stop)
        sub_obs, sub_slots, rate, relay = _relay_passes(params, cfg, rows, ends, relay_stop,
                                                        hop, rng_relay, rng_second)
        return obs, slots + sub_slots, sub_obs, rate, relay

    # One chunk at a time, so its kernel is released before the next is built.
    parts = []
    while cutter.owed:
        parts.append(chunk())
    main_obs, slots, sub_obs, rate_at_stop, relays = (np.concatenate(c) for c in zip(*parts))
    half_t = 0.5 * params.data_time
    # contention in half slots, then the source broadcast and the relay's forward leg
    elapsed = 0.5 * params.slot_time * slots + half_t + half_t
    return _aggregate(main_obs, sub_obs, rate_at_stop, relays, elapsed,
                      half_t * rate_at_stop)


class _PacketCutter:
    """Cuts the source-level observation stream into packets, chunk by chunk.

    A packet ends at a stop; one that has not stopped by a chunk's end carries
    its observation and slot counts into the next chunk.
    """

    def __init__(self, cfg: SimConfig, rng: np.random.Generator, n: int, p: float):
        self.owed, self.cap = cfg.packets, cfg.main_observation_cap
        self.rng, self.n, self.p = rng, n, p
        self.open_obs = self.open_slots = 0

    def cut(self, stop: np.ndarray):
        """Stop positions, observation counts and slot counts of the packets that
        stop in a chunk with this stop mask, at most as many as are still owed."""
        ends = np.flatnonzero(stop)[:self.owed]
        self.owed -= ends.size
        used = ends[-1] + 1 if not self.owed else stop.size
        cum = np.concatenate(([0], np.cumsum(sample_contention(self.rng, self.n, self.p,
                                                               used))))
        obs = np.diff(ends, prepend=-1 - self.open_obs)
        slots = np.diff(cum[ends + 1], prepend=-self.open_slots)
        if ends.size:
            start = ends[-1] + 1
            self.open_obs, self.open_slots = used - start, cum[used] - cum[start]
        else:
            self.open_obs += used
            self.open_slots += cum[used]
        if obs.max(initial=0) > self.cap or self.open_obs >= self.cap:
            raise CappedPacketError(
                f"no source-level stop within {self.cap} observations; "
                "the threshold likely exceeds the rate support")
        return ends, obs, slots


def _decision_rules(params, est, spec, rows, second_hop):
    """The source-level stop mask of first-hop rows, and the relay-level rule
    ``relay_stop(i, rates)`` of packets whose source level stopped at rows i.

    The intuitive rule solves its relay-level throughput per row. The coupled
    rule solves nothing: its threshold theta* = gamma* + W / (T/2) is the root
    of excess(theta) = gamma* tau / (T p_r), and excess strictly decreases, so
    W >= (T/2) gamma* iff excess(2 gamma*) >= target, and R >= theta* iff
    excess(R) <= target. Each decision is the sign of one kernel evaluation.
    """
    if spec.kind is PolicyKind.INTUITIVE_BILEVEL:
        stats = solve_sub_layer_batch(params, rows, est, second_hop)
        return (policies.intuitive_main_decide(spec, stats, params.data_time),
                lambda i, rates: policies.intuitive_sub_decide(stats.threshold[i], rates))
    gamma = spec.gamma_star
    if gamma < 0:
        raise InvalidParameterError("gamma must be >= 0")
    target = gamma * params.slot_time / (
        params.data_time * success_prob(params.num_relays, params.relay_prob))
    kernel = _SecondHopKernel(params, rows, est.quad_points, second_hop)
    return (kernel.excess(np.full(rows.shape[0], 2.0 * gamma)) >= target,
            lambda i, rates: kernel.excess(rates, i) <= target)


def _relay_passes(params, cfg, rows, ends, relay_stop, hop, rng_relay, rng_second):
    """Relay level of the packets whose source level stopped at rows ``ends``.

    Each pass gives every packet still running one relay-level observation.
    Returns the observation counts, contention slot counts (in half slots),
    rates at stop and 1-based relays, one entry per packet.
    """
    obs, slots, relay = (np.zeros(ends.size, dtype=np.int64) for _ in range(3))
    rate = np.empty(ends.size)
    live = np.arange(ends.size)
    passes = 0
    while live.size:
        passes += 1
        if passes > cfg.sub_observation_cap:
            raise CappedPacketError(
                f"no relay-level stop within {cfg.sub_observation_cap} observations; "
                "relay thresholds are inconsistent with the source-level stop")
        s, winners = sample_contention(rng_relay, params.num_relays, params.relay_prob,
                                       live.size, winners=True)
        gains = hop.sample(rng_second, live.size)
        r = af_rate(params.source_power, params.relay_power, rows[ends[live], winners - 1],
                    gains)
        slots[live] += s
        stop = relay_stop(ends[live], r)
        done = live[stop]
        obs[done] = passes
        rate[done] = r[stop]
        relay[done] = winners[stop]
        live = live[~stop]
    return obs, slots, rate, relay


def _ratio_and_stderr(bits: np.ndarray, times: np.ndarray) -> tuple[float, float]:
    ratio = float(bits.sum() / times.sum())
    n = bits.size
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
