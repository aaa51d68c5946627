"""Protocol simulation: renewal accounting, distributions, reproducibility."""

import dataclasses

import numpy as np
import pytest
from scipy import stats as sps

from relaystop import (
    CappedPacketError,
    EstimatorConfig,
    FixedGain,
    InvalidParameterError,
    PolicyKind,
    PolicySpec,
    RayleighFading,
    SimConfig,
    default_observations,
    full_csi_rate_sampler,
    run_scenario1,
    run_scenario2,
    solve_full_csi_lambda,
    solve_main_gamma_intuitive,
    solve_main_gamma_optimal,
    solve_sub_w_batch,
    success_prob,
)
from relaystop import simulator
from relaystop.channel import af_rate
from relaystop.policies import intuitive_main_decide
from relaystop.simulator import _OBS_CHUNK, _decision_rules
from .conftest import (
    coupled_sign_rules,
    fixed_rate_observations,
    hook_params,
    make_params,
    policy_value,
    stress_params,
)

DET = hook_params(source_prob=1.0, relay_prob=1.0)  # every contention takes 1 slot


COLUMNS = ("main_observations", "sub_observations", "rate_at_stop", "relay",
           "elapsed", "bits")


def full_spec(lam):
    return PolicySpec(PolicyKind.FULL_CSI, lam)


def assert_same_columns(a, b):
    for name in COLUMNS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


# --- scenario 1 ---------------------------------------------------------------

def test_scenario1_constant_rate_closed_form():
    stats = run_scenario1(DET, full_spec(0.3), SimConfig(packets=1024, seed=7),
                          observation_sampler=fixed_rate_observations(1.0))
    # T r / 2 / (T + tau) with T=2, tau=0.2
    assert stats.throughput == pytest.approx(1.0 / 2.2, abs=1e-12)
    assert stats.throughput_stderr == 0.0
    assert np.all(stats.main_observations == 1) and np.all(stats.sub_observations == 0)
    assert np.allclose(stats.elapsed, 2.2) and np.all(stats.bits == 1.0)


def test_scenario1_never_stop_guard(monkeypatch):
    spec = full_spec(2.0)  # threshold 4 above the constant rate 1
    monkeypatch.setattr(simulator, "OBSERVATION_CAP", 50)
    with pytest.raises(CappedPacketError):
        run_scenario1(DET, spec, SimConfig(packets=2, seed=7),
                      observation_sampler=fixed_rate_observations(1.0))


def test_scenario1_requires_full_csi_policy():
    with pytest.raises(InvalidParameterError):
        run_scenario1(DET, PolicySpec(PolicyKind.INTUITIVE_BILEVEL, 0.4),
                      SimConfig(packets=2, seed=0))


def test_scenario1_matches_solver(small_est):
    params = make_params()
    est = EstimatorConfig(mc_samples=50000, quad_points=64, seed=31, tol=1e-6)
    sol = solve_full_csi_lambda(params, est)
    stats = run_scenario1(params, full_spec(sol.value), SimConfig(packets=20000, seed=32))
    assert abs(stats.throughput - sol.value) <= 3.0 * stats.throughput_stderr
    assert stats.bits.sum() / stats.elapsed.sum() == stats.throughput


def test_scenario1_renewal_shuffle_invariance(rng):
    params = make_params()
    stats = run_scenario1(params, full_spec(0.5), SimConfig(packets=500, seed=8))
    order = rng.permutation(stats.bits.size)
    assert stats.bits[order].sum() / stats.elapsed[order].sum() \
        == pytest.approx(stats.throughput, rel=1e-12)


def test_scenario1_deterministic_reruns_bit_identical():
    params = make_params()
    cfg = SimConfig(packets=400, seed=123)
    a = run_scenario1(params, full_spec(0.6), cfg)
    b = run_scenario1(params, full_spec(0.6), cfg)
    assert_same_columns(a, b)
    assert (a.throughput, a.throughput_stderr) == (b.throughput, b.throughput_stderr)


# --- stopping-time statistics, read from the columns ----------------------------

def test_stopping_stats_threshold_zero():
    params = make_params()
    stats = run_scenario1(params, full_spec(0.0), SimConfig(packets=2000, seed=3))
    values, counts = np.unique(stats.main_observations, return_counts=True)
    assert values.tolist() == [1] and counts.tolist() == [2000]
    assert stats.main_observations.mean() == 1.0


def test_stopping_stats_geometric_at_median():
    params = make_params()
    est = EstimatorConfig(mc_samples=200000, quad_points=64, seed=17, tol=1e-6)
    rates = full_csi_rate_sampler(params)(np.random.default_rng(est.seed), est.mc_samples)
    median = float(np.median(rates))
    stats = run_scenario1(params, full_spec(median / 2.0), SimConfig(packets=20000, seed=18))
    assert stats.main_observations.mean() == pytest.approx(2.0, rel=0.05)
    assert stats.main_observations.min() == 1
    assert np.all(stats.rate_at_stop >= median)


def test_stopping_stats_truncated_rate_distribution():
    # rate at stop is the channel rate conditioned on clearing the threshold
    params = make_params()
    threshold = 1.2
    stats = run_scenario1(params, full_spec(threshold / 2.0), SimConfig(packets=10000, seed=21))
    assert stats.rate_at_stop.min() >= threshold
    reference = full_csi_rate_sampler(params)(np.random.default_rng(99), 10**6)
    conditional = reference[reference >= threshold]
    _, pvalue = sps.ks_2samp(stats.rate_at_stop, conditional)
    assert pvalue > 0.01


def test_scenario1_wald_contention_identity():
    params = make_params()
    stats = run_scenario1(params, full_spec(0.9), SimConfig(packets=20000, seed=44))
    p_s = success_prob(params.num_sources, params.source_prob)
    contention = stats.elapsed - params.data_time
    expected = (params.slot_time / p_s) * stats.main_observations.mean()
    assert contention.mean() == pytest.approx(expected, rel=0.02)


# --- throughput standard error --------------------------------------------------

def test_throughput_ci_needs_two_packets():
    # one renewal cycle gives no spread, so a run of one packet is refused up front
    with pytest.raises(InvalidParameterError, match=">= 2"):
        SimConfig(packets=1)
    params = make_params()
    stats = run_scenario1(params, full_spec(0.5), SimConfig(packets=2, seed=8))
    assert np.isfinite(stats.throughput_stderr) and stats.throughput_stderr >= 0.0


def test_throughput_ci_clt_scaling():
    params = make_params()
    small = run_scenario1(params, full_spec(0.5), SimConfig(packets=4000, seed=9))
    large = run_scenario1(params, full_spec(0.5), SimConfig(packets=8000, seed=9))
    shrink = large.throughput_stderr / small.throughput_stderr
    assert shrink == pytest.approx(1.0 / np.sqrt(2.0), rel=0.2)


# --- scenario 2 -----------------------------------------------------------------

def det2_params():
    return hook_params(source_prob=1.0, relay_prob=1.0)


DET_HOPS = dict(first_hop=FixedGain(3.0), second_hop=FixedGain(2.0))  # rate = 1
DET_GAMMA = 1.0 / (2.0 + 0.1 + 0.1)  # (T r / 2) / (T + tau/2 + tau/2)
DET_EST = EstimatorConfig(mc_samples=500, quad_points=64, seed=2, tol=1e-10)


@pytest.mark.parametrize("kind", [PolicyKind.INTUITIVE_BILEVEL, PolicyKind.OPTIMAL_BILEVEL])
def test_scenario2_deterministic_closed_form(kind):
    spec = PolicySpec(kind, DET_GAMMA)
    stats = run_scenario2(det2_params(), spec, SimConfig(packets=1024, seed=6),
                          est=DET_EST, **DET_HOPS)
    assert stats.throughput == pytest.approx(DET_GAMMA, abs=1e-12)
    assert stats.throughput_stderr == 0.0
    assert np.all(stats.main_observations == 1) and np.all(stats.sub_observations == 1)
    assert np.all(stats.relay == 1)
    assert np.allclose(stats.elapsed, 2.2)


def test_scenario2_solver_consistency_intuitive():
    params = make_params()
    est = EstimatorConfig(mc_samples=50000, quad_points=64, seed=41, tol=1e-6)
    sol = solve_main_gamma_intuitive(params, est)
    spec = PolicySpec(PolicyKind.INTUITIVE_BILEVEL, sol.value)
    stats = run_scenario2(params, spec, SimConfig(packets=10000, seed=42), est=est)
    assert abs(stats.throughput - sol.value) <= 3.0 * stats.throughput_stderr
    assert np.all(stats.sub_observations >= 1)


def test_scenario2_solver_consistency_optimal():
    params = make_params()
    est = EstimatorConfig(mc_samples=50000, quad_points=64, seed=41, tol=1e-6)
    sol = solve_main_gamma_optimal(params, est)
    spec = PolicySpec(PolicyKind.OPTIMAL_BILEVEL, sol.value)
    stats = run_scenario2(params, spec, SimConfig(packets=10000, seed=43), est=est)
    assert abs(stats.throughput - sol.value) <= 3.0 * stats.throughput_stderr


def test_scenario2_observation_caps_are_hard_errors(monkeypatch):
    params = det2_params()
    spec = PolicySpec(PolicyKind.INTUITIVE_BILEVEL, DET_GAMMA)
    cfg = SimConfig(packets=10, seed=6)
    stats = run_scenario2(params, spec, cfg, est=DET_EST, **DET_HOPS)
    assert stats.bits.size == 10
    monkeypatch.setattr(simulator, "OBSERVATION_CAP", 25)
    with pytest.raises(CappedPacketError, match="source-level"):
        # a gamma far above the optimum never lets the source level stop
        run_scenario2(params, PolicySpec(PolicyKind.OPTIMAL_BILEVEL, 5.0),
                      SimConfig(packets=2, seed=6), est=DET_EST, **DET_HOPS)
    # a starved relay-level cap must raise, never silently truncate; at gamma* = 0
    # the intuitive source level stops at every first observation, so a cap of 1
    # binds only the relay level, whose solved thresholds stop with probability < 1
    fading = make_params()
    est = EstimatorConfig(mc_samples=1000, quad_points=64, seed=3, tol=1e-6)
    monkeypatch.setattr(simulator, "OBSERVATION_CAP", 1)
    with pytest.raises(CappedPacketError, match="relay-level stop within 1 observations"):
        run_scenario2(fading, PolicySpec(PolicyKind.INTUITIVE_BILEVEL, 0.0),
                      SimConfig(packets=50, seed=9), est=est)


def test_relay_level_guard_names_a_level_too_rare_to_simulate():
    # near-certain source contention: the coupled gamma* is about 4e-19, each
    # row's relay threshold lies just below its top saturation rate, and the
    # relay level stops with probability about 1e-17 per observation, so the
    # run is refused at the real cap before its first relay pass
    params = stress_params()
    params = dataclasses.replace(params, num_sources=8, source_prob=0.999)
    est = EstimatorConfig(mc_samples=1000, quad_points=64, seed=0, tol=1e-6)
    sol = solve_main_gamma_optimal(params, est)
    assert 0.0 < sol.value < 1e-17
    with pytest.raises(CappedPacketError, match=r"^the relay level stops too rarely to "
                       r"simulate: at first-hop row \d+ it stops with probability \S+e-1\d "
                       r"per observation, so within 1000000 observations with probability "
                       r"at most \S+e-1\d$"):
        run_scenario2(params, PolicySpec(PolicyKind.OPTIMAL_BILEVEL, sol.value),
                      SimConfig(packets=200, seed=0), est=est)


def test_intuitive_relay_level_guard_reads_the_solved_stop_probability(monkeypatch):
    # the intuitive rule refuses from the P its relay-level solve returns: a
    # planted P of 1e-20 on one row of the first chunk whose source level
    # stops is named, before the first relay pass
    params = make_params()
    est = EstimatorConfig(mc_samples=500, quad_points=64, seed=0, tol=1e-6)
    gamma = solve_main_gamma_intuitive(params, est).value
    spec = PolicySpec(PolicyKind.INTUITIVE_BILEVEL, gamma)
    solve, planted = simulator.solve_sub_layer_batch, []

    def rare(*args, **kwargs):
        stats, stop_prob = solve(*args, **kwargs)
        if not planted:
            planted.append(int(np.flatnonzero(
                intuitive_main_decide(gamma, stats, params.data_time))[2]))
            stop_prob = stop_prob.copy()
            stop_prob[planted[0]] = 1e-20
        return stats, stop_prob

    monkeypatch.setattr(simulator, "solve_sub_layer_batch", rare)
    with pytest.raises(CappedPacketError) as err:
        run_scenario2(params, spec, SimConfig(packets=200, seed=0), est=est)
    assert str(err.value).startswith(
        f"the relay level stops too rarely to simulate: at first-hop row {planted[0]} it "
        "stops with probability 1e-20 per observation")


def test_scenario2_coupled_rejects_negative_gamma():
    # the policy itself refuses a negative gamma*, before the run starts
    with pytest.raises(InvalidParameterError,
                       match="a 2-optimal policy's value must be finite and >= 0"):
        run_scenario2(det2_params(), PolicySpec(PolicyKind.OPTIMAL_BILEVEL, -0.1),
                      SimConfig(packets=2, seed=0), est=DET_EST, **DET_HOPS)


def test_scenario2_requires_bilevel_policy():
    with pytest.raises(InvalidParameterError):
        run_scenario2(det2_params(), full_spec(0.5), SimConfig(packets=2, seed=0), est=DET_EST)


def test_scenario2_requires_relay_prob():
    params = make_params(relay_prob=None)
    spec = PolicySpec(PolicyKind.INTUITIVE_BILEVEL, 0.4)
    with pytest.raises(InvalidParameterError):
        run_scenario2(params, spec, SimConfig(packets=2, seed=0), est=DET_EST)


def test_scenario2_deterministic_reruns_bit_identical():
    params = make_params()
    est = EstimatorConfig(mc_samples=2000, quad_points=64, seed=3, tol=1e-6)
    sol = solve_main_gamma_intuitive(params, est)
    spec = PolicySpec(PolicyKind.INTUITIVE_BILEVEL, sol.value)
    cfg = SimConfig(packets=300, seed=77)
    a = run_scenario2(params, spec, cfg, est=est)
    b = run_scenario2(params, spec, cfg, est=est)
    assert_same_columns(a, b)


def test_sim_config_validation():
    with pytest.raises(InvalidParameterError):
        SimConfig(packets=0)
    # the throughput standard error needs two renewal cycles
    with pytest.raises(InvalidParameterError, match=">= 2"):
        SimConfig(packets=1)
    with pytest.raises(InvalidParameterError, match="seed"):
        SimConfig(packets=10, seed=-1)


def test_packet_record_invariants():
    params = make_params()
    stats = run_scenario1(params, full_spec(0.5), SimConfig(packets=200, seed=15))
    assert np.all(stats.elapsed >= params.data_time)
    assert np.allclose(stats.bits, 0.5 * params.data_time * stats.rate_at_stop)
    assert np.all((stats.relay >= 1) & (stats.relay <= params.num_relays))
    assert np.all(stats.rate_at_stop >= 2 * 0.5)


# --- columnar passes: chunk boundaries, sign decisions, policy value --------------

STOP_EVERY = 3001  # longer than one observation chunk, and not a multiple of it
assert STOP_EVERY > _OBS_CHUNK and STOP_EVERY % _OBS_CHUNK


def _every_nth(values, n):
    """values[1] at every n-th entry of a stream counted across calls, else values[0]."""
    count = 0

    def draw(size):
        nonlocal count
        index = count + np.arange(1, size + 1)
        count += size
        return np.where(index % n == 0, values[1], values[0])

    return draw


def _every_nth_rate(n):
    """Observation hook: rate 1 at every n-th observation, counted across calls, else 0."""
    rates = _every_nth((0.0, 1.0), n)
    return lambda rng, size: (rates(size), np.ones(size, dtype=int))


def _segment_sums(draws, n):
    """Sums of consecutive blocks of n draws."""
    return draws.reshape(-1, n).sum(axis=1)


def test_scenario1_packets_span_chunk_boundaries(monkeypatch):
    # every packet needs 3001 observations, so each one carries observations and
    # contention slots across one or two chunk boundaries
    params = hook_params(source_prob=0.5)
    cfg = SimConfig(packets=5, seed=4)
    monkeypatch.setattr(simulator, "OBSERVATION_CAP", STOP_EVERY)
    stats = run_scenario1(params, full_spec(0.25), cfg,
                          observation_sampler=_every_nth_rate(STOP_EVERY))
    assert np.all(stats.main_observations == STOP_EVERY)
    # the k-th observation takes the k-th slot count of the contention stream
    rng_cont = np.random.default_rng(np.random.SeedSequence(4).spawn(2)[0])
    slots = _segment_sums(rng_cont.geometric(0.5, 5 * STOP_EVERY), STOP_EVERY)
    assert np.array_equal(stats.elapsed, params.slot_time * slots + params.data_time)
    monkeypatch.setattr(simulator, "OBSERVATION_CAP", STOP_EVERY - 1)
    with pytest.raises(CappedPacketError):
        run_scenario1(params, full_spec(0.25), cfg,
                      observation_sampler=_every_nth_rate(STOP_EVERY))


def _scenario1_loop(params, spec, cfg, sampler):
    """Per-observation reference of run_scenario1 on the documented stream layout:
    observations in chunks of _OBS_CHUNK, each taking the next geometric slot count."""
    rng_cont, rng_obs = (np.random.default_rng(s)
                         for s in np.random.SeedSequence(cfg.seed).spawn(2))
    p_s = success_prob(params.num_sources, params.source_prob)
    rates, relays, k, packets = [], [], 0, []
    for _ in range(cfg.packets):
        n = slots = 0
        while True:
            if k == len(rates):
                rates, relays = (a.tolist() for a in sampler(rng_obs, _OBS_CHUNK))
                k = 0
            rate, relay = rates[k], relays[k]
            k += 1
            n += 1
            slots += int(rng_cont.geometric(p_s))
            if rate >= 2.0 * spec.value:
                break
        packets.append((n, rate, relay, params.slot_time * slots + params.data_time))
    return [np.array(column) for column in zip(*packets)]


def test_scenario1_matches_per_observation_loop():
    # a rate threshold at about the 95th percentile: about 20 observations per
    # packet, so many packets straddle a chunk boundary
    params = make_params()
    spec = full_spec(3.57 / 2.0)
    cfg = SimConfig(packets=3000, seed=21)
    stats = run_scenario1(params, spec, cfg)
    main_obs, rate, relay, elapsed = _scenario1_loop(params, spec, cfg,
                                                     default_observations(params))
    assert main_obs.sum() > 20 * _OBS_CHUNK
    for got, want in ((stats.main_observations, main_obs), (stats.rate_at_stop, rate),
                      (stats.relay, relay), (stats.elapsed, elapsed)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("cap", [_OBS_CHUNK // 2, 2 * _OBS_CHUNK + 1])
def test_never_stopping_stream_hits_the_cap_across_chunks(monkeypatch, cap):
    monkeypatch.setattr(simulator, "OBSERVATION_CAP", cap)
    with pytest.raises(CappedPacketError, match=f"within {cap} "):
        run_scenario1(DET, full_spec(2.0), SimConfig(packets=2, seed=7),
                      observation_sampler=fixed_rate_observations(1.0))
    with pytest.raises(CappedPacketError, match=f"source-level stop within {cap} "):
        run_scenario2(det2_params(), PolicySpec(PolicyKind.OPTIMAL_BILEVEL, 5.0),
                      SimConfig(packets=2, seed=7), est=DET_EST, **DET_HOPS)


class _EveryNthRow:
    """First-hop hook: rows of gain 3 (rate 1 with the gain-2 second hop) at
    every n-th row, counted across calls, and gain 0 (rate 0) elsewhere."""

    def __init__(self, n):
        self.gains = _every_nth((0.0, 3.0), n)

    def sample(self, rng, size):
        return np.repeat(self.gains(size[0])[:, None], size[1], axis=1)


@pytest.mark.parametrize("kind", [PolicyKind.INTUITIVE_BILEVEL, PolicyKind.OPTIMAL_BILEVEL])
def test_scenario2_packets_span_chunk_boundaries(monkeypatch, kind):
    params = hook_params(source_prob=0.5, relay_prob=1.0)
    cfg = SimConfig(packets=5, seed=4)
    monkeypatch.setattr(simulator, "OBSERVATION_CAP", STOP_EVERY)
    stats = run_scenario2(params, PolicySpec(kind, DET_GAMMA), cfg, est=DET_EST,
                          first_hop=_EveryNthRow(STOP_EVERY), second_hop=FixedGain(2.0))
    assert np.all(stats.main_observations == STOP_EVERY)
    assert np.all(stats.sub_observations == 1) and np.all(stats.rate_at_stop == 1.0)
    rng_cont = np.random.default_rng(np.random.SeedSequence(4).spawn(4)[0])
    slots = _segment_sums(rng_cont.geometric(0.5, 5 * STOP_EVERY), STOP_EVERY)
    # half-slot source contention, one half-slot relay contention, two half legs T/2
    half_slot = 0.5 * params.slot_time
    np.testing.assert_allclose(stats.elapsed, half_slot * (slots + 1) + params.data_time,
                               rtol=1e-15)
    monkeypatch.setattr(simulator, "OBSERVATION_CAP", STOP_EVERY - 1)
    with pytest.raises(CappedPacketError, match="source-level"):
        run_scenario2(params, PolicySpec(kind, DET_GAMMA), cfg, est=DET_EST,
                      first_hop=_EveryNthRow(STOP_EVERY), second_hop=FixedGain(2.0))


@pytest.mark.parametrize("params", [make_params(), stress_params()], ids=["base", "stress"])
def test_coupled_sign_decisions_match_the_solved_rule(params):
    # the simulator decides by the solved W; the exact reference decides by the sign
    # of one kernel evaluation, and the two agree wherever W is not within tolerance
    est = EstimatorConfig(mc_samples=4000, quad_points=64, seed=12, tol=1e-6)
    gamma = solve_main_gamma_optimal(params, est).value
    spec = PolicySpec(PolicyKind.OPTIMAL_BILEVEL, gamma)
    rng = np.random.default_rng(13)
    n, t = _OBS_CHUNK, params.data_time
    rows = RayleighFading(params.first_hop_mean_gain).sample(rng, (n, params.num_relays))
    source_stop, relay_stop, _ = _decision_rules(params, est, spec, rows, None)
    sign_source, sign_relay = coupled_sign_rules(params, spec, rows)
    w = solve_sub_w_batch(params, rows, gamma, est)[0]
    clear = np.abs(w - 0.5 * t * gamma) > 10 * est.tol
    assert clear.mean() > 0.99
    assert 0 < sign_source.sum() < n
    assert np.array_equal(source_stop[clear], sign_source[clear])
    # relay level: one observation per row, decided for rows in shuffled order
    winners = rng.integers(0, params.num_relays, n)
    gains = RayleighFading(params.second_hop_mean_gain).sample(rng, n)
    rates = af_rate(params.source_power, params.relay_power, rows[np.arange(n), winners], gains)
    order = rng.permutation(n)
    solved, signed = np.empty(n, dtype=bool), np.empty(n, dtype=bool)
    solved[order] = relay_stop(order, rates[order])
    signed[order] = sign_relay(order, rates[order])
    clear = np.abs(rates - (gamma + w / (0.5 * t))) > 10 * est.tol
    assert clear.mean() > 0.99
    assert 0 < signed.sum() < n
    assert np.array_equal(solved[clear], signed[clear])


def _assert_matches_policy_value(stats, value):
    exact, exact_se = value
    margin = 3.0 * np.hypot(stats.throughput_stderr, exact_se)
    assert abs(stats.throughput - exact) <= margin, (stats.throughput, exact, margin)


def test_scenario1_matches_policy_value():
    params = make_params()
    est = EstimatorConfig(mc_samples=20000, quad_points=64, seed=61, tol=1e-6)
    spec = full_spec(solve_full_csi_lambda(params, est).value)
    stats = run_scenario1(params, spec, SimConfig(packets=100_000, seed=62))
    _assert_matches_policy_value(stats, policy_value(params, spec, 1_000_000, seed=63))


@pytest.mark.parametrize("kind", [PolicyKind.INTUITIVE_BILEVEL, PolicyKind.OPTIMAL_BILEVEL])
def test_scenario2_matches_policy_value(kind):
    params = make_params()
    est = EstimatorConfig(mc_samples=20000, quad_points=64, seed=71, tol=1e-6)
    solve = solve_main_gamma_intuitive if kind is PolicyKind.INTUITIVE_BILEVEL \
        else solve_main_gamma_optimal
    spec = PolicySpec(kind, solve(params, est).value)
    stats = run_scenario2(params, spec, SimConfig(packets=50_000, seed=72), est=est)
    _assert_matches_policy_value(stats, policy_value(params, spec, 50_000, seed=73))
