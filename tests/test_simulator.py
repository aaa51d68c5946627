"""Protocol simulation: renewal accounting, distributions, reproducibility."""

import numpy as np
import pytest
from scipy import stats as sps

from relaystop import (
    CappedPacketError,
    EstimatorConfig,
    FixedGain,
    InsufficientDataError,
    InvalidParameterError,
    PolicyKind,
    PolicySpec,
    SimConfig,
    fixed_rate_observations,
    full_csi_rate_sampler,
    run_scenario1,
    run_scenario2,
    solve_full_csi_lambda,
    solve_main_gamma_intuitive,
    solve_main_gamma_optimal,
    stopping_time_stats,
    throughput_ci,
    success_prob,
)
from .conftest import hook_params, make_params

DET = hook_params(source_prob=1.0, relay_prob=1.0)  # every contention takes 1 slot


COLUMNS = ("main_observations", "sub_observations", "rate_at_stop", "relay",
           "elapsed", "bits")


def full_spec(lam):
    return PolicySpec(PolicyKind.FULL_CSI, lambda_star=lam)


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


def test_scenario1_never_stop_guard():
    spec = full_spec(2.0)  # threshold 4 above the constant rate 1
    with pytest.raises(CappedPacketError):
        run_scenario1(DET, spec, SimConfig(packets=1, seed=7, main_observation_cap=50),
                      observation_sampler=fixed_rate_observations(1.0))


def test_scenario1_requires_full_csi_policy():
    with pytest.raises(InvalidParameterError):
        run_scenario1(DET, PolicySpec(PolicyKind.INTUITIVE_BILEVEL, gamma_star=0.4),
                      SimConfig(packets=1, seed=0))


def test_scenario1_matches_solver(small_est):
    params = make_params()
    est = EstimatorConfig(mc_samples=50000, quad_points=64, seed=31, tol=1e-6)
    sol = solve_full_csi_lambda(params, est)
    stats = run_scenario1(params, full_spec(sol.value), SimConfig(packets=20000, seed=32))
    assert abs(stats.throughput - sol.value) <= 3.0 * stats.throughput_stderr
    assert stats.total_bits / stats.total_time == stats.throughput


def test_scenario1_literal_contention_mode():
    params = make_params()
    cfg = SimConfig(packets=300, seed=5)
    stats = run_scenario1(params, full_spec(0.5), cfg)
    assert stats.bits.size == 300


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


# --- stopping-time statistics ---------------------------------------------------

def test_stopping_stats_threshold_zero():
    params = make_params()
    stats = run_scenario1(params, full_spec(0.0), SimConfig(packets=2000, seed=3))
    st = stopping_time_stats(stats)
    assert st.counts == {1: 2000}
    assert st.mean_observations == 1.0


def test_stopping_stats_geometric_at_median():
    params = make_params()
    est = EstimatorConfig(mc_samples=200000, quad_points=64, seed=17, tol=1e-6)
    rates = full_csi_rate_sampler(params)(np.random.default_rng(est.seed), est.mc_samples)
    median = float(np.median(rates))
    stats = run_scenario1(params, full_spec(median / 2.0), SimConfig(packets=20000, seed=18))
    st = stopping_time_stats(stats)
    assert st.mean_observations == pytest.approx(2.0, rel=0.05)
    assert min(st.counts) == 1
    assert np.all(stats.rate_at_stop >= median)


def test_stopping_stats_truncated_rate_distribution():
    # rate at stop is the channel rate conditioned on clearing the threshold
    params = make_params()
    threshold = 1.2
    stats = run_scenario1(params, full_spec(threshold / 2.0), SimConfig(packets=10000, seed=21))
    st = stopping_time_stats(stats)
    assert st.rate_cdf(threshold - 1e-9) == 0.0
    reference = full_csi_rate_sampler(params)(np.random.default_rng(99), 10**6)
    conditional = reference[reference >= threshold]
    _, pvalue = sps.ks_2samp(st.rate_samples, conditional)
    assert pvalue > 0.01


def test_scenario1_wald_contention_identity():
    params = make_params()
    stats = run_scenario1(params, full_spec(0.9), SimConfig(packets=20000, seed=44))
    st = stopping_time_stats(stats)
    p_s = success_prob(params.num_sources, params.source_prob)
    contention = stats.elapsed - params.data_time
    expected = (params.slot_time / p_s) * st.mean_observations
    assert contention.mean() == pytest.approx(expected, rel=0.02)


# --- throughput_ci --------------------------------------------------------------

def test_throughput_ci_matches_stats():
    params = make_params()
    stats = run_scenario1(params, full_spec(0.5), SimConfig(packets=500, seed=8))
    est, se = throughput_ci(stats)
    assert (est, se) == (stats.throughput, stats.throughput_stderr)
    assert se > 0.0


def test_throughput_ci_needs_two_packets():
    params = make_params()
    stats = run_scenario1(params, full_spec(0.5), SimConfig(packets=1, seed=8))
    with pytest.raises(InsufficientDataError):
        throughput_ci(stats)


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
    spec = PolicySpec(kind, gamma_star=DET_GAMMA)
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
    spec = PolicySpec(PolicyKind.INTUITIVE_BILEVEL, gamma_star=sol.value)
    stats = run_scenario2(params, spec, SimConfig(packets=10000, seed=42), est=est)
    assert abs(stats.throughput - sol.value) <= 3.0 * stats.throughput_stderr
    assert np.all(stats.sub_observations >= 1)


def test_scenario2_solver_consistency_optimal():
    params = make_params()
    est = EstimatorConfig(mc_samples=50000, quad_points=64, seed=41, tol=1e-6)
    sol = solve_main_gamma_optimal(params, est)
    spec = PolicySpec(PolicyKind.OPTIMAL_BILEVEL, gamma_star=sol.value)
    stats = run_scenario2(params, spec, SimConfig(packets=10000, seed=43), est=est)
    assert abs(stats.throughput - sol.value) <= 3.0 * stats.throughput_stderr


def test_scenario2_observation_caps_are_hard_errors():
    params = det2_params()
    spec = PolicySpec(PolicyKind.INTUITIVE_BILEVEL, gamma_star=DET_GAMMA)
    cfg = SimConfig(packets=10, seed=6, sub_observation_cap=1_000_000)
    stats = run_scenario2(params, spec, cfg, est=DET_EST, **DET_HOPS)
    assert stats.bits.size == 10
    with pytest.raises(CappedPacketError, match="source-level"):
        # a gamma far above the optimum never lets the source level stop
        run_scenario2(params, PolicySpec(PolicyKind.OPTIMAL_BILEVEL, gamma_star=5.0),
                      SimConfig(packets=1, seed=6, sub_observation_cap=25,
                                main_observation_cap=25), est=DET_EST, **DET_HOPS)
    # a starved relay-level cap must raise, never silently truncate
    fading = make_params()
    est = EstimatorConfig(mc_samples=1000, quad_points=64, seed=3, tol=1e-6)
    sol = solve_main_gamma_optimal(fading, est)
    with pytest.raises(CappedPacketError, match="relay-level"):
        run_scenario2(fading, PolicySpec(PolicyKind.OPTIMAL_BILEVEL, gamma_star=sol.value),
                      SimConfig(packets=50, seed=9, sub_observation_cap=1), est=est)


def test_scenario2_literal_contention_mode():
    spec = PolicySpec(PolicyKind.INTUITIVE_BILEVEL, gamma_star=DET_GAMMA)
    stats = run_scenario2(det2_params(), spec,
                          SimConfig(packets=64, seed=6),
                          est=DET_EST, **DET_HOPS)
    assert stats.throughput == pytest.approx(DET_GAMMA, abs=1e-12)


def test_scenario2_requires_bilevel_policy():
    with pytest.raises(InvalidParameterError):
        run_scenario2(det2_params(), full_spec(0.5), SimConfig(packets=1, seed=0))


def test_scenario2_requires_relay_prob():
    params = make_params(relay_prob=None)
    spec = PolicySpec(PolicyKind.INTUITIVE_BILEVEL, gamma_star=0.4)
    with pytest.raises(InvalidParameterError):
        run_scenario2(params, spec, SimConfig(packets=1, seed=0))


def test_scenario2_deterministic_reruns_bit_identical():
    params = make_params()
    est = EstimatorConfig(mc_samples=2000, quad_points=64, seed=3, tol=1e-6)
    sol = solve_main_gamma_intuitive(params, est)
    spec = PolicySpec(PolicyKind.INTUITIVE_BILEVEL, gamma_star=sol.value)
    cfg = SimConfig(packets=300, seed=77)
    a = run_scenario2(params, spec, cfg, est=est)
    b = run_scenario2(params, spec, cfg, est=est)
    assert_same_columns(a, b)


def test_sim_config_validation():
    with pytest.raises(InvalidParameterError):
        SimConfig(packets=0)
    with pytest.raises(InvalidParameterError):
        SimConfig(packets=10, sub_observation_cap=0)
    # a NaN cap never compares above the count, so it would disable the guard
    with pytest.raises(InvalidParameterError, match="integers"):
        SimConfig(packets=10, main_observation_cap=float("nan"))
    with pytest.raises(InvalidParameterError, match="integers"):
        SimConfig(packets=10, sub_observation_cap=2.5)
    with pytest.raises(InvalidParameterError, match="seed"):
        SimConfig(packets=10, seed=-1)


def test_packet_record_invariants():
    params = make_params()
    stats = run_scenario1(params, full_spec(0.5), SimConfig(packets=200, seed=15))
    assert np.all(stats.elapsed >= params.data_time)
    assert np.allclose(stats.bits, 0.5 * params.data_time * stats.rate_at_stop)
    assert np.all((stats.relay >= 1) & (stats.relay <= params.num_relays))
    assert np.all(stats.rate_at_stop >= 2 * 0.5)
