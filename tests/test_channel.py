"""Channel model: gain sampling, relay rates, and their analytic bounds."""

import math

import numpy as np
import pytest

from relaystop import (
    FixedGain,
    InvalidParameterError,
    RayleighFading,
    default_observations,
    full_csi_rate_sampler,
)
from relaystop.channel import af_rate, rate_saturation
from .conftest import make_params, sub_layer_tail_prob

LN2 = math.log(2.0)


# --- sampling ---------------------------------------------------------------

def test_gain_samples_are_nonnegative(rng):
    assert np.all(RayleighFading(1.0).sample(rng, 100) >= 0.0)


def test_gain_sample_mean_matches_variance(rng):
    draws = RayleighFading(2.0).sample(rng, 10**6)
    # law of large numbers at 1e6 draws: mean within 2 +- 0.01 (5 sigma)
    assert abs(draws.mean() - 2.0) < 0.01
    assert np.all(draws >= 0)


def test_gain_sample_rejects_bad_variance():
    with pytest.raises(InvalidParameterError):
        RayleighFading(0.0)
    with pytest.raises(InvalidParameterError):
        RayleighFading(-1.0)
    # JSON configs can carry Infinity and NaN; neither is a mean gain
    for bad in (float("inf"), float("nan")):
        with pytest.raises(InvalidParameterError, match="finite"):
            RayleighFading(bad)
    for bad in (-1.0, float("inf"), float("nan")):
        with pytest.raises(InvalidParameterError, match="gain must be finite and >= 0"):
            FixedGain(bad)


def test_fading_models(rng):
    assert RayleighFading(2.0).sample(rng) >= 0.0
    fixed = FixedGain(1.5)
    assert fixed.sample(rng) == 1.5
    assert np.all(fixed.sample(rng, 4) == 1.5)
    # the mean is the only parameter: a Rayleigh hop is never a point mass
    with pytest.raises(TypeError):
        RayleighFading(1.0, 2.0)


# --- af_rate ----------------------------------------------------------------

def test_af_rate_zero_gain_gives_zero():
    assert af_rate(1.0, 1.0, 0.0, 5.0) == 0.0
    assert af_rate(1.0, 1.0, 5.0, 0.0) == 0.0


def test_af_rate_unit_case():
    assert af_rate(1.0, 1.0, 1.0, 1.0) == pytest.approx(math.log2(4.0 / 3.0), abs=1e-12)


def test_af_rate_saturates_at_first_hop_cap():
    # huge second hop: rate approaches log2(1 + ps * f_sq)
    assert af_rate(1.0, 1.0, 3.0, 1e12) == pytest.approx(2.0, abs=1e-6)
    assert af_rate(1.0, 1.0, 3.0, 1e12) < 2.0


def test_af_rate_handles_extreme_gains_without_overflow():
    r = af_rate(10.0, 10.0, 1e299, 1e299)
    assert np.isfinite(r)
    # equal huge gains sit exactly one bit below the first-hop cap
    assert r == pytest.approx(rate_saturation(10.0, 1e299) - 1.0, rel=1e-9)
    assert np.isfinite(af_rate(1.0, 1.0, np.inf, np.inf))


def test_af_rate_symmetry(rng):
    x = rng.exponential(1.0, 200)
    y = rng.exponential(1.0, 200)
    a = af_rate(2.0, 3.0, x, y)
    b = af_rate(3.0, 2.0, y, x)
    assert np.allclose(a, b, rtol=0, atol=1e-15)


def test_af_rate_monotone_in_each_gain(rng):
    x = rng.exponential(1.0, 500)
    y = rng.exponential(1.0, 500)
    bump = 1.0 + rng.random(500)
    assert np.all(af_rate(1.0, 2.0, x + bump, y) >= af_rate(1.0, 2.0, x, y))
    assert np.all(af_rate(1.0, 2.0, x, y + bump) >= af_rate(1.0, 2.0, x, y))
    # strict when the other gain is positive
    assert np.all(af_rate(1.0, 2.0, x + bump, y + 0.1) > af_rate(1.0, 2.0, x, y + 0.1))


def test_af_rate_product_bound(rng):
    # log2(1 + xy/(1+x+y)) <= xy / ln 2 for x, y >= 0
    x = rng.exponential(1.0, 10**4)
    y = rng.exponential(1.0, 10**4)
    assert np.all(af_rate(1.0, 1.0, x, y) <= x * y / LN2 + 1e-12)


def test_af_rate_below_saturation(rng):
    x = rng.exponential(1.0, 1000)
    g = rng.exponential(5.0, 1000) + 1e-9
    assert np.all(af_rate(2.0, 3.0, x, g) < rate_saturation(2.0, x) + 1e-15)


def test_af_rate_rejects_bad_inputs():
    with pytest.raises(InvalidParameterError):
        af_rate(0.0, 1.0, 1.0, 1.0)
    # a negative or NaN gain is refused on either hop; +inf (capped) and -0.0 are gains
    for bad in (-1.0, -np.inf, np.nan):
        for f, g in ((bad, 1.0), (1.0, bad), (np.array([1.0, bad]), np.ones(2))):
            with pytest.raises(InvalidParameterError, match="must be >= 0"):
                af_rate(1.0, 1.0, f, g)
        with pytest.raises(InvalidParameterError, match="f_sq must be >= 0"):
            rate_saturation(1.0, bad)
    assert af_rate(1.0, 1.0, -0.0, 1.0) == 0.0 == rate_saturation(1.0, -0.0)
    assert np.isfinite(af_rate(1.0, 1.0, np.inf, 1.0))
    assert np.isfinite(rate_saturation(1.0, np.inf))
    for power in (0.0, np.array([1.0, 2.0])):
        with pytest.raises(InvalidParameterError, match="source_power must be a scalar > 0"):
            rate_saturation(power, 1.0)


# --- saturation and the second-hop tail ---------------------------------------

def test_rate_saturation_values():
    assert rate_saturation(1.0, 0.0) == 0.0
    assert rate_saturation(1.0, 3.0) == pytest.approx(2.0, abs=1e-12)
    assert rate_saturation(2.0, 1.5) == pytest.approx(2.0, abs=1e-12)


def test_kernel_tail_inverts_af_rate(rng):
    # one relay: R >= af_rate(f, g) exactly when the second-hop gain is >= g
    params = make_params(num_relays=1, source_power=2.0, relay_power=3.0,
                         second_hop_mean_gain=0.7)
    f = rng.exponential(1.0, 50) + 0.01
    g = rng.exponential(0.7, 50) + 0.01
    for fi, gi in zip(f, g):
        rate = af_rate(2.0, 3.0, fi, gi)
        assert sub_layer_tail_prob(params, [fi], rate) == pytest.approx(
            math.exp(-gi / 0.7), rel=1e-9)


# --- best relay -------------------------------------------------------------

class PerRelayGain:
    """Deterministic hop with a fixed gain per relay, for the best-relay draw."""

    def __init__(self, gains):
        self.gains = np.asarray(gains, dtype=float)

    def sample(self, rng, size):
        return np.broadcast_to(self.gains, size)


def best_relay(params, first_hop, second_hop):
    rates, relays = default_observations(
        params, PerRelayGain(first_hop), PerRelayGain(second_hop))(np.random.default_rng(0), 1)
    return float(rates[0]), int(relays[0])


def test_best_relay_single():
    params = make_params(num_relays=1, source_power=1.0, relay_power=1.0)
    rate, relay = best_relay(params, [1.0], [1.0])
    assert relay == 1
    assert rate == pytest.approx(math.log2(4.0 / 3.0), abs=1e-9)


def test_best_relay_picks_dominant():
    params = make_params(num_relays=2, source_power=1.0, relay_power=1.0)
    rate, relay = best_relay(params, [1.0, 3.0], [1.0, 1e12])
    assert relay == 2
    assert rate == pytest.approx(2.0, abs=1e-6)


def test_best_relay_tie_breaks_low_index():
    params = make_params(num_relays=3, source_power=1.0, relay_power=1.0)
    assert best_relay(params, np.zeros(3), np.zeros(3)) == (0.0, 1)
    # a tie between relays 2 and 3 above relay 1 goes to relay 2
    assert best_relay(params, [1.0, 3.0, 3.0], [1.0, 2.0, 2.0])[1] == 2


@pytest.mark.parametrize("hops", [{}, {"first_hop": RayleighFading(2.0),
                                        "second_hop": FixedGain(0.5)}])
def test_rate_sampler_is_the_best_relay_draw(hops):
    params = make_params(num_relays=3)
    rates, relays = default_observations(params, **hops)(np.random.default_rng(5), 1000)
    sampled = full_csi_rate_sampler(params, **hops)(np.random.default_rng(5), 1000)
    assert np.array_equal(sampled, rates)
    assert set(relays.tolist()) <= {1, 2, 3}


def test_mean_best_rate_bounded_by_product_bound(rng):
    # E[max_j rate_j] <= L * Ps * Pr * mean_f * mean_g / ln 2
    params = make_params(num_relays=2, source_power=1.0, relay_power=1.0)
    n = 10**6
    f = rng.exponential(params.first_hop_mean_gain, (n, 2))
    g = rng.exponential(params.second_hop_mean_gain, (n, 2))
    rates = af_rate(1.0, 1.0, f, g).max(axis=1)
    bound = 2 * 1.0 * 1.0 * 1.0 * 1.0 / LN2
    assert rates.mean() <= bound


# --- types ------------------------------------------------------------------

def test_system_params_validation():
    with pytest.raises(InvalidParameterError):
        make_params(num_sources=0)
    with pytest.raises(InvalidParameterError, match="num_relays must be an integer >= 1"):
        make_params(num_relays=0)
    with pytest.raises(InvalidParameterError):
        make_params(slot_time=0.0)
    with pytest.raises(InvalidParameterError):
        make_params(source_prob=1.5)
    # p = 1 only allowed with a single contender
    with pytest.raises(InvalidParameterError):
        make_params(num_sources=2, source_prob=1.0)
    with pytest.raises(InvalidParameterError):
        make_params(num_relays=2, relay_prob=1.0)
    make_params(num_sources=1, source_prob=1.0)  # fine
    # a slot success probability n p (1 - p)^(n - 1) that rounds to 0 never ends
    # a contention, at either level
    for fields in (dict(num_sources=1076), dict(num_sources=163, source_prob=0.99),
                   dict(num_relays=2000)):
        with pytest.raises(InvalidParameterError, match="slot success probability of 0"):
            make_params(**fields)
    # tau / p_s, every solve's contention cost, overflows before p_s reaches 0:
    # at tau = 0.1 and p = 0.5 from 1038 contenders, at either level
    for fields in (dict(num_sources=1038), dict(num_sources=1060), dict(num_sources=1075),
                   dict(num_relays=1038)):
        with pytest.raises(InvalidParameterError, match=r"slot success probability of "
                           r"\S+e-3\d\d, so the mean contention time slot_time / p_s is "
                           "not finite"):
            make_params(**fields)
    make_params(num_sources=1037, num_relays=1037)  # tau / p_s = 1.2e308
    p = make_params(relay_prob=None)
    with pytest.raises(InvalidParameterError):
        p.require_relay_prob()
