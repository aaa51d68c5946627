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
chunk that have not stopped yet. One never-stop guard, ``OBSERVATION_CAP``
(read at call time), limits a packet's observations at each level, so at
the relay level it limits the passes. Each chunk solves its relay level
once, W per row for the coupled rule and the relay-level throughput per row
for the intuitive one, and both levels then decide through the ``policies``
predicates. Both solves also return each row's relay-level stop probability
P, and a chunk with a packet whose relay level the guard would stop all but
surely (by that P) is refused before its first relay pass.

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
from .channel import (SystemParams, af_rate, default_observations, hop_models,
                      sample_first_hop_rows)
from .contention import sample_contention
from .errors import CappedPacketError, InvalidParameterError
from .policies import PolicyKind, PolicySpec
from .solver import EstimatorConfig, solve_sub_layer_batch, solve_sub_w_batch

_OBS_CHUNK = 2048

# Observations one packet may take at either level before the run fails: a
# packet past it has a policy that (almost) never stops.
OBSERVATION_CAP = 1_000_000


@dataclass(frozen=True)
class SimConfig:
    """Run length and seed of one simulation."""

    packets: int
    seed: int = 0

    def __post_init__(self) -> None:
        # the throughput standard error needs at least two renewal cycles
        if not isinstance(self.packets, int) or self.packets < 2:
            raise InvalidParameterError("packets must be an integer >= 2")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise InvalidParameterError("seed must be an integer >= 0")


@dataclass(frozen=True, eq=False)
class SimStats:
    """Simulation output: one column per packet field, plus the throughput.

    Entry i of each column belongs to the i-th delivered packet:
    main_observations / sub_observations count source- and relay-level
    observations (sub is 0 in the full-CSI scenario), rate_at_stop is the
    accepted rate, relay the 1-based forwarding relay, elapsed the cycle time
    including the data transmission, and bits the delivered bits.
    throughput is bits.sum() / elapsed.sum() and throughput_stderr its
    ratio-estimator standard error over the per-packet (bits, elapsed) pairs.
    """

    main_observations: np.ndarray
    sub_observations: np.ndarray
    rate_at_stop: np.ndarray
    relay: np.ndarray
    elapsed: np.ndarray
    bits: np.ndarray
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
    rate_at_stop, relays = np.empty(cfg.packets), np.empty(cfg.packets, dtype=np.int64)
    while cutter.owed:
        rates, best = sampler(rng_obs, _OBS_CHUNK)
        ends, k = cutter.cut(policies.full_csi_decide(spec.value, rates))
        rate_at_stop[k], relays[k] = rates[ends], best[ends]
    return _aggregate(cutter.obs, np.zeros_like(cutter.obs), rate_at_stop, relays,
                      params.slot_time * cutter.slots + params.data_time,
                      0.5 * params.data_time * rate_at_stop)


def run_scenario2(params: SystemParams, spec: PolicySpec, cfg: SimConfig,
                  est: EstimatorConfig, first_hop=None, second_hop=None) -> SimStats:
    """Simulate the two-part access protocol under a bi-level policy.

    Source level: contention in half slots; the winner observes only its
    first-hop gains and stops or re-contends by the source-level rule. A
    re-contending winner observes fresh first-hop gains, so observations stay
    i.i.d. On stop it broadcasts for T/2, then relays contend in half slots;
    each winning relay draws its fresh second-hop gain and applies the
    relay-level rule; on its stop the forward leg takes T/2 and delivers
    (T/2) * rate bits. ``est`` sets the relay-level solves of each chunk.
    A packet past ``OBSERVATION_CAP`` observations at either level is a hard
    error.
    """
    if spec.kind not in (PolicyKind.INTUITIVE_BILEVEL, PolicyKind.OPTIMAL_BILEVEL):
        raise InvalidParameterError("run_scenario2 needs a bi-level policy")
    params.require_relay_prob()
    ss = np.random.SeedSequence(cfg.seed)
    rng_cont, rng_first, rng_second, rng_relay = (np.random.default_rng(s)
                                                  for s in ss.spawn(4))
    hop = hop_models(params, second_hop=second_hop)[1]
    cutter = _PacketCutter(cfg, rng_cont, params.num_sources, params.source_prob)
    sub_obs, relays = (np.empty(cfg.packets, dtype=np.int64) for _ in range(2))
    rate_at_stop = np.empty(cfg.packets)
    first_row = 0
    while cutter.owed:
        rows = sample_first_hop_rows(params, rng_first, _OBS_CHUNK, first_hop)
        stop, relay_stop, relay_stop_prob = _decision_rules(params, est, spec, rows,
                                                            second_hop)
        ends, k = cutter.cut(stop)
        _refuse_rare_relay_stops(relay_stop_prob[ends], first_row + ends)
        _relay_passes(params, rows, ends, relay_stop, hop, rng_relay, rng_second,
                      sub_obs[k], cutter.slots[k], rate_at_stop[k], relays[k])
        first_row += _OBS_CHUNK
    half_t = 0.5 * params.data_time
    # contention in half slots, then the source broadcast and the relay's forward leg
    elapsed = 0.5 * params.slot_time * cutter.slots + half_t + half_t
    return _aggregate(cutter.obs, sub_obs, rate_at_stop, relays, elapsed,
                      half_t * rate_at_stop)


class _PacketCutter:
    """Cuts the source-level observation stream into packets, chunk by chunk.

    A packet ends at a stop; one that has not stopped by a chunk's end carries
    its observation and slot counts into the next chunk. The cutter fills the
    per-packet columns ``obs`` and ``slots``.
    """

    def __init__(self, cfg: SimConfig, rng: np.random.Generator, n: int, p: float):
        self.owed, self.cap = cfg.packets, OBSERVATION_CAP
        self.rng, self.n, self.p = rng, n, p
        self.obs, self.slots = (np.empty(cfg.packets, dtype=np.int64) for _ in range(2))
        self.open_obs = self.open_slots = 0

    def cut(self, stop: np.ndarray):
        """Fill the observation and slot counts of the packets that stop in a
        chunk with this stop mask, at most as many as are still owed; return
        their stop positions and the slice of the columns they take."""
        ends = np.flatnonzero(stop)[:self.owed]
        first = self.obs.size - self.owed
        self.owed -= ends.size
        k = slice(first, first + ends.size)
        used = ends[-1] + 1 if not self.owed else stop.size
        cum = np.cumsum(sample_contention(self.rng, self.n, self.p, used))
        obs, slots = self.obs[k], self.slots[k]
        if ends.size:
            at_ends = cum.take(ends)
            obs[0], slots[0] = ends[0] + 1 + self.open_obs, at_ends[0] + self.open_slots
            np.subtract(ends[1:], ends[:-1], out=obs[1:])
            np.subtract(at_ends[1:], at_ends[:-1], out=slots[1:])
            self.open_obs, self.open_slots = used - 1 - ends[-1], cum[used - 1] - at_ends[-1]
        else:
            self.open_obs += used
            self.open_slots += cum[used - 1]
        if obs.max(initial=0) > self.cap or self.open_obs >= self.cap:
            raise CappedPacketError(
                f"no source-level stop within {self.cap} observations; "
                "the threshold likely exceeds the rate support")
        return ends, k


def _decision_rules(params, est, spec, rows, second_hop):
    """The source-level stop mask of first-hop rows, the relay-level rule
    ``relay_stop(i, rates)`` of packets whose source level stopped at rows i,
    and each row's relay-level stop probability per observation.

    Each rule solves its relay level once per row: the intuitive rule its
    relay-level throughput, the coupled rule its reward fixed point W. Both
    solves return the stop probability.
    """
    gamma = spec.value
    if spec.kind is PolicyKind.INTUITIVE_BILEVEL:
        stats, stop_prob = solve_sub_layer_batch(params, rows, est, second_hop)
        return (policies.intuitive_main_decide(gamma, stats, params.data_time),
                lambda i, rates: policies.intuitive_sub_decide(stats.threshold[i], rates),
                stop_prob)
    w, stop_prob = solve_sub_w_batch(params, rows, gamma, est, second_hop)
    return (policies.optimal_main_decide(gamma, w, params.data_time),
            lambda i, rates: policies.optimal_sub_decide(gamma, w[i], rates, params.data_time),
            stop_prob)


def _refuse_rare_relay_stops(stop_prob, rows):
    """Raise CappedPacketError if a packet's relay level stops with probability
    P per observation where OBSERVATION_CAP * P, the bound on its chance to
    stop within the cap, is below 1e-9; ``rows`` number its first-hop rows."""
    rare = OBSERVATION_CAP * stop_prob < 1e-9
    if rare.any():
        i = int(np.argmax(rare))
        raise CappedPacketError(
            f"the relay level stops too rarely to simulate: at first-hop row {rows[i]} it "
            f"stops with probability {stop_prob[i]:.3g} per observation, so within "
            f"{OBSERVATION_CAP} observations with probability at most "
            f"{OBSERVATION_CAP * stop_prob[i]:.3g}")


def _relay_passes(params, rows, ends, relay_stop, hop, rng_relay, rng_second,
                  obs, slots, rate, relay):
    """Relay level of the packets whose source level stopped at rows ``ends``.

    Each pass gives every packet still running one relay-level observation.
    Fills the packets' entries of the columns ``obs`` (observation counts),
    ``rate`` (rates at stop) and ``relay`` (1-based relays), and adds their
    relay contention slot counts (in half slots) to ``slots``.
    """
    live = np.arange(ends.size)
    passes = 0
    while live.size:
        passes += 1
        if passes > OBSERVATION_CAP:
            raise CappedPacketError(
                f"no relay-level stop within {OBSERVATION_CAP} observations; the relay "
                "thresholds are inconsistent with the source-level stop, or the relay "
                "level stops too rarely to simulate")
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


def _ratio_and_stderr(bits: np.ndarray, times: np.ndarray) -> tuple[float, float]:
    ratio = float(bits.sum() / times.sum())
    n = bits.size
    # Residuals e = db - ratio * dt of the centred columns, their squares summed
    # in numpy's fixed pairwise order (a BLAS dot splits long sums across threads).
    # Shifting by the first element keeps identical cycles at exactly zero.
    e = bits - bits[0]
    e -= e.mean()
    dt = times - times[0]
    dt -= dt.mean()
    dt *= ratio
    e -= dt
    e *= e
    stderr = float(math.sqrt(e.sum() / (n - 1) / n) / times.mean())
    return ratio, stderr


def _aggregate(main_observations, sub_observations, rate_at_stop, relay,
               elapsed, bits) -> SimStats:
    throughput, stderr = _ratio_and_stderr(bits, elapsed)
    return SimStats(main_observations, sub_observations, rate_at_stop, relay,
                    elapsed, bits, throughput, stderr)
