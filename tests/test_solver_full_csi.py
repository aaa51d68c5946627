"""Full-CSI threshold: the closed-form best-relay tail against scipy, the
exact fixed point and its diversity relations, the sampled path, and the
grid oracle."""

import math
import warnings

import numpy as np
import pytest

from relaystop import (
    EstimatorConfig,
    InvalidParameterError,
    SolverFailureError,
    channel,
    full_csi_rate_sampler,
    oracle_threshold_search,
    solve_full_csi_lambda,
    success_prob,
)
from .conftest import (
    discrete_rate_sampler,
    expected_positive_part_full_csi,
    full_csi_residual,
    hook_params,
    make_params,
)

# tau/p_s = 0.2 with these hook constants (K=1, p0=1, tau=0.2)
HOOK = hook_params(source_prob=1.0, relay_prob=1.0)
EST = EstimatorConfig(mc_samples=2000, quad_points=64, seed=2, tol=1e-9)


def _residual(params, est, lam, sampler):
    cost = params.slot_time / success_prob(params.num_sources, params.source_prob)
    return expected_positive_part_full_csi(params, lam, est, sampler) - lam * cost


def test_positive_part_at_zero_is_half_mean_rate():
    params = make_params()
    est = EstimatorConfig(mc_samples=5000, seed=9, tol=1e-9)
    rng = np.random.default_rng(est.seed)
    rates = full_csi_rate_sampler(params)(rng, est.mc_samples)
    expected = 0.5 * params.data_time * rates.mean()
    assert expected_positive_part_full_csi(params, 0.0, est) == pytest.approx(expected, rel=1e-12)


def test_positive_part_vanishes_for_large_lambda():
    params = make_params()
    est = EstimatorConfig(mc_samples=5000, seed=9, tol=1e-9)
    rng = np.random.default_rng(est.seed)
    top = full_csi_rate_sampler(params)(rng, est.mc_samples).max()
    assert expected_positive_part_full_csi(params, 0.5 * top, est) == 0.0


def test_positive_part_point_mass_example():
    # constant rate 1, T = 2, lam = 0.25: max(1 - 0.5, 0) = 0.5
    assert expected_positive_part_full_csi(
        HOOK, 0.25, EST, discrete_rate_sampler([1.0])) == pytest.approx(0.5, abs=1e-12)


def test_positive_part_rejects_negative_lambda():
    with pytest.raises(InvalidParameterError):
        expected_positive_part_full_csi(HOOK, -0.1, EST)


def test_constant_rate_closed_form():
    # lam* = (T r / 2) / (T + tau/p_s) = 1 / 2.2
    sol = solve_full_csi_lambda(HOOK, EST, discrete_rate_sampler([1.0]))
    assert sol.value == pytest.approx(1.0 / 2.2, abs=1e-8)
    assert abs(sol.residual) <= EST.tol
    assert sol.bracket[0] <= sol.value <= sol.bracket[1]


def test_two_point_closed_form_is_exact():
    # R in {0, 2} equally likely: (1/2)(2 - 2 lam) = 0.2 lam  ->  lam = 5/6
    sol = solve_full_csi_lambda(HOOK, EST, discrete_rate_sampler([0.0, 2.0]))
    assert sol.value == pytest.approx(5.0 / 6.0, abs=1e-8)


def test_exponential_solver_contract():
    # the sampled path: the root of the residual on the seed's sample
    params = make_params()
    est = EstimatorConfig(mc_samples=20000, seed=4, tol=1e-6)
    sampler = full_csi_rate_sampler(params)
    sol = solve_full_csi_lambda(params, est, sampler)
    assert abs(sol.residual) <= est.tol
    assert abs(_residual(params, est, sol.value, sampler) - sol.residual) <= 1e-12
    assert sol.iterations > 0


def test_degenerate_all_zero_rates():
    sol = solve_full_csi_lambda(HOOK, EST, discrete_rate_sampler([0.0]))
    assert sol.value == 0.0
    assert sol.residual == 0.0


def test_uniqueness_single_sign_change():
    # the exact residual the default solve finds the root of changes sign once,
    # at the solved root
    params = make_params()
    est = EstimatorConfig(mc_samples=20000, seed=4, tol=1e-6)
    sol = solve_full_csi_lambda(params, est)
    grid = np.linspace(0.0, 2.0 * sol.bracket[1], 200)
    signs = np.sign(full_csi_residual(params, grid))
    changes = int(np.sum(np.abs(np.diff(np.sign(signs[signs != 0]))) > 0))
    assert changes == 1
    assert full_csi_residual(params, sol.value - 10 * est.tol) > 0.0
    assert full_csi_residual(params, sol.value + 10 * est.tol) < 0.0


def test_lambda_nondecreasing_in_relay_count():
    # the best-relay rate is a max over relays, so diversity only helps; the
    # exact lambda* rises strictly with L, with no slack
    est = EstimatorConfig(tol=1e-9)
    values = [solve_full_csi_lambda(make_params(num_relays=L), est).value
              for L in (1, 2, 4, 8, 16, 64)]
    assert all(a < b for a, b in zip(values, values[1:])), values


@pytest.mark.parametrize("field, values, rises", [
    ("source_power", (1.0, 3.0, 10.0, 30.0, 100.0), True),
    ("relay_power", (1.0, 3.0, 10.0, 30.0, 100.0), True),
    ("first_hop_mean_gain", (0.25, 0.5, 1.0, 2.0, 4.0), True),
    ("second_hop_mean_gain", (0.25, 0.5, 1.0, 2.0, 4.0), True),
    ("slot_time", (0.01, 0.05, 0.1, 0.2, 0.5), False),
])
def test_lambda_diversity_relations(field, values, rises):
    # lambda* is a deterministic function of the parameters: it rises with
    # either power and either hop mean (every relay's rate grows
    # stochastically) and falls as contention slots get longer; no margin
    est = EstimatorConfig(tol=1e-9)
    lams = [solve_full_csi_lambda(make_params(**{field: v}), est).value for v in values]
    pairs = list(zip(lams, lams[1:]))
    assert all(a < b if rises else a > b for a, b in pairs), lams


def test_exact_lambda_ignores_seed_samples_and_numpy_random(monkeypatch):
    # no sample and no draw: every seed and sample size gives the same bits,
    # and the solve never reaches numpy.random
    params = make_params()
    first = solve_full_csi_lambda(params, EstimatorConfig(mc_samples=1000, seed=1))

    def no_draws(*args, **kwargs):
        raise AssertionError("the exact full-CSI solve drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    for est in (EstimatorConfig(mc_samples=100_000, seed=7), EstimatorConfig(mc_samples=1, seed=0)):
        assert solve_full_csi_lambda(params, est) == first


def test_time_unit_invariance():
    # scaling T and tau together leaves the throughput fixed point unchanged
    base = solve_full_csi_lambda(make_params(), EST)
    scaled_params = make_params(slot_time=0.1 * 3.7, data_time=1.0 * 3.7)
    scaled = solve_full_csi_lambda(scaled_params, EST)
    assert scaled.value == pytest.approx(base.value, abs=5e-9)


# --- oracle -------------------------------------------------------------------

def test_oracle_two_point_grid():
    sampler = discrete_rate_sampler([0.0, 2.0])
    th, tp = oracle_threshold_search(HOOK, [0.0, 1.0], EST, sampler)
    # threshold 1 accepts only rate 2: throughput (1 * 1/2) / (2 * 1/2 + 0.2) = 5/6
    assert th == 1.0
    assert tp == pytest.approx(5.0 / 6.0, abs=1e-12)
    # threshold 0 alone gives the always-stop throughput 1 / 2.2
    th0, tp0 = oracle_threshold_search(HOOK, [0.0], EST, sampler)
    assert (th0, tp0) == (0.0, pytest.approx(1.0 / 2.2, abs=1e-12))


def test_oracle_constant_rate():
    th, tp = oracle_threshold_search(HOOK, [0.0, 0.3, 0.9], EST, discrete_rate_sampler([1.0]))
    assert tp == pytest.approx(1.0 / 2.2, abs=1e-12)


def test_oracle_singleton_at_solved_threshold():
    params = make_params()
    est = EstimatorConfig(mc_samples=20000, seed=4, tol=1e-9)
    sol = solve_full_csi_lambda(params, est, full_csi_rate_sampler(params))
    th, tp = oracle_threshold_search(params, [2.0 * sol.value], est)
    # fixed-point identity on one sample: the pure-threshold throughput at
    # 2 lam* is lam*
    assert tp == pytest.approx(sol.value, abs=1e-8)


def test_oracle_agreement_on_fine_grid():
    params = make_params()
    est = EstimatorConfig(mc_samples=20000, seed=4, tol=1e-9)
    sol = solve_full_csi_lambda(params, est, full_csi_rate_sampler(params))  # the oracle's sample
    grid = np.linspace(0.0, 4.0 * sol.value, 500)
    th, tp = oracle_threshold_search(params, grid, est)
    assert abs(th - 2.0 * sol.value) <= grid[1] - grid[0]
    assert abs(tp - sol.value) <= 0.005 * sol.value
    assert tp <= sol.value + 1e-9  # no rule beats the realized optimum


def test_oracle_skips_unreachable_thresholds():
    sampler = discrete_rate_sampler([0.0, 2.0])
    th, tp = oracle_threshold_search(HOOK, [0.0, 1.0, 50.0], EST, sampler)
    assert th == 1.0
    with pytest.raises(SolverFailureError):
        oracle_threshold_search(HOOK, [50.0], EST, sampler)


def test_oracle_validates_grid():
    with pytest.raises(InvalidParameterError):
        oracle_threshold_search(HOOK, [], EST)
    with pytest.raises(InvalidParameterError):
        oracle_threshold_search(HOOK, [1.0, 0.5], EST)
    for grid in ([math.nan], [math.inf], [0.5, math.nan], [-math.inf, 1.0]):
        with pytest.raises(InvalidParameterError, match="grid must be finite"):
            oracle_threshold_search(HOOK, grid, EST)


@pytest.mark.parametrize("draw, message", [
    (lambda rng, n: np.ones(n - 1), "rate sampler must return mc_samples rates"),
    (lambda rng, n: np.full(n, -1.0), "sampled rates must be finite and >= 0"),
    (lambda rng, n: np.full(n, np.nan), "sampled rates must be finite and >= 0"),
], ids=["wrong-count", "negative", "nan"])
def test_full_csi_rejects_bad_sampled_rates(draw, message):
    with pytest.raises(InvalidParameterError, match=message):
        solve_full_csi_lambda(HOOK, EST, rate_sampler=draw)


def test_samplers_validate():
    with pytest.raises(InvalidParameterError):
        discrete_rate_sampler([-1.0])
    with pytest.raises(InvalidParameterError):
        discrete_rate_sampler([float("inf")])
    with pytest.raises(InvalidParameterError):
        discrete_rate_sampler([])
    with pytest.raises(InvalidParameterError):
        discrete_rate_sampler([1.0, 2.0], [1.0])
    with pytest.raises(InvalidParameterError):
        discrete_rate_sampler([1.0], [-1.0])


def test_estimator_config_validates_seed_and_tol():
    for bad in (dict(seed=-1), dict(seed=1.5), dict(tol=0.0), dict(tol=float("inf")),
                dict(tol=float("nan")), dict(mc_samples=0), dict(quad_points=1)):
        with pytest.raises(InvalidParameterError):
            EstimatorConfig(**bad)


def test_discrete_sampler_exact_proportions(rng):
    sampler = discrete_rate_sampler([0.0, 1.0, 3.0], [0.25, 0.25, 0.5])
    draws = sampler(rng, 1000)
    assert (draws == 0.0).sum() == 250
    assert (draws == 1.0).sum() == 250
    assert (draws == 3.0).sum() == 500


# --- the closed-form best-relay tail against scipy and mpmath -------------------
#
# References (scipy and mpmath are test-only): one relay's tail
# t = z e^{-c (1/a + 1/b)} K1(z) with scipy's k1e, the best of L relays as
# -expm1(L log1p(-t)) (the direct 1 - (1 - t)^L loses tiny tails), and the
# excess by scipy quad over c, cut at multiples of 1/kappa so that no piece
# hides the tail's knee.

def _hops(params):
    return (params.source_power * params.first_hop_mean_gain,
            params.relay_power * params.second_hop_mean_gain)


def _reference_best_tail(c, params):
    from scipy import special

    a, b = _hops(params)
    if c <= 0.0:
        return 1.0
    z = 2.0 * math.sqrt(c * (c + 1.0) / (a * b))
    t = min(z * float(special.k1e(z)) * math.exp(-z - c * (1.0 / a + 1.0 / b)), 1.0)
    return -math.expm1(params.num_relays * math.log1p(-t)) if t < 1.0 else 1.0


def _reference_excess(params, theta):
    from scipy import integrate

    a, b = _hops(params)
    kappa = (1.0 / math.sqrt(a) + 1.0 / math.sqrt(b)) ** 2
    c0 = math.expm1(theta * math.log(2.0))
    cuts = [c0] + [c0 + k / kappa for k in (1e-3, 1e-2, 0.1, 1.0, 3.0, 10.0, 30.0, 100.0, 900.0)]
    with warnings.catch_warnings():
        # quad flags roundoff on pieces whose integrand sits at the float
        # floor; they do not move the sum's relative error
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        return sum(integrate.quad(
            lambda c: _reference_best_tail(c, params) / ((1.0 + c) * math.log(2.0)),
            p, q, epsabs=0.0, epsrel=1.2e-14, limit=400)[0] for p, q in zip(cuts, cuts[1:]))


def _reference_lambda(params):
    from scipy import optimize

    cost = params.slot_time / success_prob(params.num_sources, params.source_prob)

    def residual(lam):
        return 0.5 * params.data_time * _reference_excess(params, 2.0 * lam) - lam * cost

    hi = 1.0
    while residual(hi) > 0.0:
        hi *= 2.0
    return optimize.brentq(residual, 0.0, hi, xtol=1e-15, rtol=8.9e-16, maxiter=500)


# configs A, B and C of the acceptance suite, L = 64, and the envelope's corners
CONFIG_A = dict(num_sources=4, num_relays=2, source_power=10.0, relay_power=10.0,
                slot_time=0.1, source_prob=0.25)
REFERENCE_CASES = {
    "A": CONFIG_A,
    "B": dict(num_relays=1, source_power=5.0, relay_power=5.0, slot_time=0.2, data_time=2.0),
    "C": dict(num_sources=8, num_relays=4, source_power=1.0, relay_power=1.0,
              first_hop_mean_gain=2.0, second_hop_mean_gain=0.5, slot_time=0.05,
              source_prob=0.125),
    "L64": dict(CONFIG_A, num_relays=64),
    "snr1e-2": dict(CONFIG_A, source_power=1e-2, relay_power=1e-2),
    "snr1e6": dict(CONFIG_A, source_power=1e6, relay_power=1e6),
    "slot1e-4": dict(CONFIG_A, slot_time=1e-4),
    "uneven": dict(num_relays=8, source_power=1e3, relay_power=0.1),
}


def test_scaled_k1_matches_scipy():
    # e^z K1(z) against scipy on [1e-300, 1e300], densely around the split;
    # each is within 7e-16 of mpmath (below), so within 1.4e-15 of each other
    from scipy import special

    z = np.concatenate([np.geomspace(1e-300, 1e300, 4001),
                        np.linspace(0.9, 1.1, 201) * channel.K1_SERIES_TOP])
    np.testing.assert_allclose(channel._scaled_k1(z), special.k1e(z), rtol=1.5e-15, atol=0.0)
    assert channel._scaled_k1(np.array([np.inf]))[0] == 0.0
    for part in (z[z < channel.K1_SERIES_TOP], z[z >= channel.K1_SERIES_TOP]):  # one branch only
        np.testing.assert_allclose(channel._scaled_k1(part), special.k1e(part), rtol=1.5e-15)
    assert channel._scaled_k1(np.empty(0)).shape == (0,)


def test_scaled_k1_matches_mpmath_and_its_chebyshev_fit_reproduces():
    # the committed Chebyshev coefficients of sqrt(z) e^z K1(z) in w = 4/z - 1
    # are the interpolant at Chebyshev nodes in 40-digit arithmetic (40 nodes
    # here reproduce them to 1e-15), cut where they fall below 1e-18; e^z K1(z)
    # holds 7e-16 against mpmath
    import mpmath

    with mpmath.workdps(40):
        n = 40
        nodes = [mpmath.cos(mpmath.pi * (k + mpmath.mpf(1) / 2) / n) for k in range(n)]
        top = mpmath.mpf(channel.K1_SERIES_TOP)
        values = []
        for w in nodes:
            z = 2 * top / (w + 1)
            values.append(mpmath.sqrt(z) * mpmath.exp(z) * mpmath.besselk(1, z))
        fit = [2 * mpmath.fsum(v * mpmath.cos(mpmath.pi * j * (k + mpmath.mpf(1) / 2) / n)
                               for k, v in enumerate(values)) / n for j in range(n)]
        fit[0] /= 2
        fit = [float(c) for c in fit]
        z = np.concatenate([np.geomspace(1e-8, 1e4, 80), np.linspace(1.99, 2.01, 11)])
        want = np.array([float(mpmath.exp(v) * mpmath.besselk(1, mpmath.mpf(v))) for v in z])
    kept = len(channel._K1_CHEB)
    assert abs(fit[kept - 1]) >= 1e-18 > max(abs(c) for c in fit[kept:])
    np.testing.assert_allclose(channel._K1_CHEB, fit[:kept], rtol=1e-15, atol=1e-20)
    np.testing.assert_allclose(channel._scaled_k1(z), want, rtol=7e-16, atol=0.0)


def _legendre_newton(n):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]: Newton
    on the Legendre recurrence from the asymptotic guesses. For n = 32 four
    steps converge the nodes; the fifth pass takes the weights' derivative at
    them."""
    x = np.cos(math.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(5):
        p0, p1 = np.ones(n), x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        dp = n * (x * p1 - p0) / (x * x - 1.0)
        x = x - p1 / dp
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


def test_gauss_legendre_constants_are_the_newton_rule():
    # the stored tables are the float reprs of the recurrence's rule: a retyped
    # digit fails
    x, w = _legendre_newton(channel._QUAD_NODES)
    assert np.array_equal(channel._GL_NODES, x)
    assert np.array_equal(channel._GL_WEIGHTS, w)


def test_gauss_legendre_rule():
    # nodes against numpy's; weights by exactness up to degree 2n - 1
    x, w = channel._GL_NODES, channel._GL_WEIGHTS
    want = np.polynomial.legendre.leggauss(channel._QUAD_NODES)[0]
    np.testing.assert_allclose(np.sort(x), want, rtol=0.0, atol=2e-16)
    for k in range(0, 2 * channel._QUAD_NODES, 2):
        assert float(w @ x ** k) == pytest.approx(2.0 / (k + 1), rel=1e-14, abs=0.0), k
        assert abs(float(w @ x ** (k + 1))) <= 1e-15


@pytest.mark.parametrize("name", REFERENCE_CASES)
def test_best_relay_excess_and_tail_match_quadrature_reference(name):
    # theta = 0, and thetas that put y0 = kappa (2^theta - 1) deep in the log
    # panels, at either side of their end y0 = 1 and along the tail; past
    # y0 = 800 both are 0 in float
    params = make_params(**REFERENCE_CASES[name])
    a, b = _hops(params)
    kappa = (1.0 / math.sqrt(a) + 1.0 / math.sqrt(b)) ** 2
    for y0 in (0.0, 1e-20, 1e-6, 0.3, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 2.0, 10.0, 40.0):
        theta = math.log2(1.0 + y0 / kappa)
        excess, tail = channel.best_relay_excess_tail(params, theta)
        # the reference's own rel error is 1.2e-14; the rule measured 2e-14
        assert excess == pytest.approx(_reference_excess(params, theta), rel=5e-14, abs=0.0), y0
        want = _reference_best_tail(math.expm1(theta * math.log(2.0)), params)
        assert tail == pytest.approx(want, rel=1e-14, abs=0.0), y0
    far = math.log2(1.0 + 801.0 / kappa)
    assert channel.best_relay_excess_tail(params, far) == (0.0, 0.0)
    assert _reference_best_tail(math.expm1(far * math.log(2.0)), params) == 0.0


@pytest.fixture(scope="module")
def reference_lambdas():
    return {name: _reference_lambda(make_params(**case)) for name, case in REFERENCE_CASES.items()}


@pytest.mark.parametrize("name", REFERENCE_CASES)
def test_lambda_matches_quadrature_reference(name, reference_lambdas):
    # at tol 1e-12 the root search stops well inside 1e-10 relative
    sol = solve_full_csi_lambda(make_params(**REFERENCE_CASES[name]), EstimatorConfig(tol=1e-12))
    want = reference_lambdas[name]
    assert abs(sol.value - want) <= 1e-10 * want, (sol.value, want)
    assert sol.bracket[0] <= sol.value <= sol.bracket[1]


def test_closed_form_tail_matches_a_large_sample():
    # P(R >= x) and E[max(R - x, 0)] of the best relay on config A against a
    # 2M-draw sample of full_csi_rate_sampler, each within 4 of its standard
    # errors (a false alarm has probability 6e-5 per check); drawn in chunks
    params = make_params(**CONFIG_A)
    sampler = full_csi_rate_sampler(params)
    rng = np.random.default_rng(20240817)
    rates = np.concatenate([sampler(rng, 500_000) for _ in range(4)])
    n = rates.size
    for x in (0.5, 1.0, 2.0208, 3.0, 4.0):
        excess, tail = channel.best_relay_excess_tail(params, x)
        hit = rates >= x
        assert abs(hit.mean() - tail) <= 4.0 * math.sqrt(tail * (1.0 - tail) / n), x
        part = np.maximum(rates - x, 0.0)
        assert abs(part.mean() - excess) <= 4.0 * part.std() / math.sqrt(n), x
