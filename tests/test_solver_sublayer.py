"""Relay-level solvers: rate tails, positive parts, throughput and reward roots."""

import math

import numpy as np
import pytest

from relaystop import (
    EstimatorConfig,
    FixedGain,
    InvalidParameterError,
    PolicyKind,
    PolicySpec,
    RayleighFading,
    SimConfig,
    SolverFailureError,
    run_scenario2,
    solve_main_gamma_intuitive,
    solve_main_gamma_optimal,
    solve_sub_layer_batch,
    solve_sub_w_batch,
    success_prob,
)
from relaystop import channel, solver
from relaystop.channel import GAIN_CAP, af_rate, rate_saturation, second_hop_kernel
from .conftest import (
    ENGINE_FAILURE,
    hook_params,
    make_params,
    reference_sub_lambda,
    reference_w,
    stress_params,
    sub_layer_expected_positive_part,
    sub_layer_tail_prob,
    w_residual,
)

# L=1, p1=0.5 -> p_r = 0.5; tau = 0.2, T = 2 throughout the worked examples
HOOK = hook_params()
EST = EstimatorConfig(mc_samples=1000, quad_points=64, seed=1, tol=1e-9)
UNIT_RATE = math.log2(4.0 / 3.0)  # af_rate(1, 1, 1, 1)
STRESS = stress_params()


# --- tail probability ---------------------------------------------------------

def test_tail_at_zero_threshold_is_one():
    assert sub_layer_tail_prob(HOOK, [3.0], 0.0) == 1.0
    assert sub_layer_tail_prob(HOOK, [0.0], 0.0) == 1.0


def test_tail_above_saturation_is_zero():
    assert sub_layer_tail_prob(HOOK, [3.0], 2.0) == 0.0
    assert sub_layer_tail_prob(HOOK, [3.0], 5.0) == 0.0


def test_tail_worked_example():
    # F=3, threshold 1 needs g >= 2, so P = exp(-2) under unit-mean fading
    assert sub_layer_tail_prob(HOOK, [3.0], 1.0) == pytest.approx(math.exp(-2.0), abs=1e-12)


def test_tail_averages_over_relays():
    params = make_params(source_power=1.0, relay_power=1.0)
    p1 = sub_layer_tail_prob(params, [3.0, 3.0], 1.0)
    assert p1 == pytest.approx(math.exp(-2.0), abs=1e-12)
    p2 = sub_layer_tail_prob(params, [3.0, 0.0], 1.0)
    assert p2 == pytest.approx(0.5 * math.exp(-2.0), abs=1e-12)


def test_tail_monte_carlo_cross_check(rng):
    params = make_params(source_power=2.0, relay_power=3.0, second_hop_mean_gain=0.7)
    f_sq = np.array([1.5, 0.4])
    g = rng.exponential(0.7, 10**6)
    j = rng.integers(0, 2, 10**6)
    rates = af_rate(2.0, 3.0, f_sq[j], g)
    for th in (0.2, 0.8, 1.5):
        mc = float((rates >= th).mean())
        assert sub_layer_tail_prob(params, f_sq, th) == pytest.approx(mc, abs=4e-3)


def test_tail_point_mass_hop():
    # fixed g = 2 at F = 3 gives rate exactly 1
    assert sub_layer_tail_prob(HOOK, [3.0], 0.999, second_hop=FixedGain(2.0)) == 1.0
    assert sub_layer_tail_prob(HOOK, [3.0], 1.0001, second_hop=FixedGain(2.0)) == 0.0


# --- expected positive part ---------------------------------------------------

def test_excess_above_saturation_is_zero():
    sat = rate_saturation(HOOK.source_power, 3.0)
    assert sub_layer_expected_positive_part(HOOK, [3.0], sat, EST) == 0.0
    assert sub_layer_expected_positive_part(HOOK, [3.0], sat + 1.0, EST) == 0.0


def test_excess_at_zero_matches_monte_carlo(rng):
    params = make_params(source_power=1.0, relay_power=1.0)
    f_sq = np.array([3.0, 0.5])
    g = rng.exponential(1.0, 10**6)
    j = rng.integers(0, 2, 10**6)
    rates = af_rate(1.0, 1.0, f_sq[j], g)
    quad = sub_layer_expected_positive_part(params, f_sq, 0.0, EST)
    assert quad == pytest.approx(rates.mean(), rel=0.005)


def test_excess_point_mass_hook():
    # deterministic g = 1 at F = 1: rate is constant log2(4/3)
    for lam in (-0.5, 0.0, 0.2, UNIT_RATE, 0.6):
        got = sub_layer_expected_positive_part(HOOK, [1.0], lam, EST, second_hop=FixedGain(1.0))
        assert got == pytest.approx(max(UNIT_RATE - lam, 0.0), abs=1e-12)


# S(z) = e^z E1(z) holds S_TOL relative against mpmath. Its worst is in
# [0, 1): e^z (z P/Q - gamma - ln z) rounds z P/Q (about 0.8 near z = 1) and
# gamma (0.58) to about 1.5 eps of their size, which E1(1) = 0.22 magnifies
# 3.6-fold, and ln, exp and the product add an eps each: 5.5 eps (4 measured).
S_TOL = 5.5 * np.finfo(float).eps


def _s_splits_and_neighbours():
    """Each split of S and the 4 floats on either side of it."""
    out = []
    for split in channel.S_SPLITS:
        below = above = split
        for _ in range(4):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
            out += [below, above]
        out.append(split)
    return np.array(out)


def test_scaled_exp1_matches_scipy():
    # S against scipy.special on [1e-12, 700], densely around both splits;
    # above 700 E1 underflows, so S is held to 1/(z+1) < S < 1/z (A&S
    # 5.1.19), which merge in float for z > 1e8. scipy's e^z exp1(z) is
    # within 1.7e-15 of mpmath here (measured, the worst near z = 1), so the
    # two agree within S_TOL + 1.7e-15 = 3e-15 (1.8e-15 measured)
    from scipy import special

    z = np.concatenate([np.geomspace(1e-12, 700.0, 4001),
                        *(np.linspace(0.9, 1.1, 201) * split for split in channel.S_SPLITS),
                        _s_splits_and_neighbours()])
    s = channel._scaled_exp1(z)
    np.testing.assert_allclose(s, np.exp(z) * special.exp1(z), rtol=3e-15, atol=0.0)
    big = np.geomspace(700.0, 1e300, 601)
    s = channel._scaled_exp1(np.append(big, np.inf))
    assert np.all((1.0 / (big + 1.0) <= s[:-1]) & (s[:-1] <= 1.0 / big)) and s[-1] == 0.0
    strict = big < 1e8
    assert np.all((1.0 / (big[strict] + 1.0) < s[:-1][strict])
                  & (s[:-1][strict] < 1.0 / big[strict]))
    # one range only, no range, NaN, and nothing to evaluate
    for lo, hi in zip((1e-12, *channel.S_SPLITS), (*channel.S_SPLITS, 700.0)):
        part = np.geomspace(lo, np.nextafter(hi, 0.0), 301)
        np.testing.assert_allclose(channel._scaled_exp1(part), np.exp(part) * special.exp1(part),
                                   rtol=3e-15, atol=0.0)
    assert np.array_equal(channel._scaled_exp1(np.full((2, 3), np.inf)), np.zeros((2, 3)))
    assert np.isnan(channel._scaled_exp1(np.array([0.5, np.nan, 7.0]))).tolist() == [
        False, True, False]
    empty = channel._scaled_exp1(np.empty((2, 0)))
    assert empty.shape == (2, 0) and empty.dtype == float


def test_scaled_exp1_matches_mpmath_and_holds_the_bounds():
    # a dense log grid from 1e-12 to 1e8 and each split +- 4 ulp, against
    # 40-digit values; then 1/(z+1) < S < 1/z on a dense grid above 700, as
    # long as the bounds lie more than a few eps apart from S (their gap
    # to S is about S/z, so up to z = 1e7), and <= beyond
    import mpmath

    z = np.concatenate([np.geomspace(1e-12, 1e8, 2001), _s_splits_and_neighbours()])
    with mpmath.workdps(40):
        want = np.array([float(mpmath.exp(v) * mpmath.e1(v)) for v in map(mpmath.mpf, z)])
    np.testing.assert_allclose(channel._scaled_exp1(z), want, rtol=S_TOL, atol=0.0)
    big = np.geomspace(700.0, 1e7, 20001)
    s = channel._scaled_exp1(big)
    assert np.all((1.0 / (big + 1.0) < s) & (s < 1.0 / big))
    big = np.geomspace(1e7, 1e308, 20001)
    s = channel._scaled_exp1(big)
    assert np.all((1.0 / (big + 1.0) <= s) & (s <= 1.0 / big))


def _fit_rational(f, a, b, degree, p0=None, nodes=40, rounds=16):
    """P/Q of the given degree on [a, b], Q(0) = 1 (and P(0) = p0 if given),
    minimizing the relative error at Chebyshev nodes by linear least squares
    on P - f Q, weighted by 1 / (f Q) with the last round's Q (Loeb's
    iteration; 16 rounds reach its fixed point to 1e-22)."""
    import mpmath

    xs = [(a + b) / 2 + (b - a) / 2 * mpmath.cos(mpmath.pi * (k + mpmath.mpf(1) / 2) / nodes)
          for k in range(nodes)]
    fs = [f(x) for x in xs]
    low = 0 if p0 is None else 1
    q = [mpmath.mpf(1)]
    for _ in range(rounds):
        rows, rhs = [], []
        for x, v in zip(xs, fs):
            w = 1 / (v * mpmath.polyval(q[::-1], x))
            rows.append([w * x ** i for i in range(low, degree + 1)]
                        + [-w * v * x ** j for j in range(1, degree + 1)])
            rhs.append(w * (v if p0 is None else v - p0))
        sol = mpmath.qr_solve(mpmath.matrix(rows), mpmath.matrix(rhs))[0]
        p = ([] if p0 is None else [mpmath.mpf(p0)]) + [sol[i] for i in range(degree + 1 - low)]
        q = [mpmath.mpf(1)] + [sol[degree + 1 - low + j] for j in range(degree)]
    return [float(c) for c in p], [float(c) for c in q]


def test_scaled_exp1_rational_fits_reproduce():
    # the committed coefficients of the three ranges are _fit_rational's in
    # 40-digit arithmetic, of Ein(z)/z on [0, 1], S on [1, 4], and
    # (1/S(4/t) - 4/t - 1)/t on (0, 1] (see the comment in relaystop.channel)
    import mpmath

    def scaled(z):
        return mpmath.exp(z) * mpmath.e1(z)

    with mpmath.workdps(40):
        fits = [
            (channel._S_EIN, _fit_rational(
                lambda z: (mpmath.e1(z) + mpmath.euler + mpmath.log(z)) / z,
                mpmath.mpf(0), mpmath.mpf(1), 5, p0=1)),
            (channel._S_MID, _fit_rational(scaled, mpmath.mpf(1), mpmath.mpf(4), 7)),
            (channel._S_TAIL, _fit_rational(lambda t: (1 / scaled(4 / t) - 4 / t - 1) / t,
                                           mpmath.mpf(0), mpmath.mpf(1), 7,
                                           p0=mpmath.mpf(-1) / 4)),
        ]
    for committed, refit in fits:
        for got, want in zip(committed, refit):
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)


def _reference_tail(x, a, kappa):
    """P(R >= x) for one relay: exp(-kappa c / (a - c)), c = 2^x - 1."""
    c = math.expm1(x * math.log(2.0))
    return math.exp(-kappa * c / (a - c)) if a > c else 0.0


def _reference_excess(lo, a, kappa, sat):
    """The integral of _reference_tail over [lo, sat] by scipy quad, cut where
    kappa u crosses 1e-3 ... 745 so that no piece hides a narrow bump."""
    from scipy import integrate

    cuts = [lo, sat]
    for ku in (1e-3, 1e-2, 0.1, 1.0, 10.0, 40.0, 745.0):
        u = ku / kappa
        x = math.log2(1.0 + a * u / (1.0 + u))
        if lo < x < sat:
            cuts.append(x)
    cuts.sort()
    return sum(integrate.quad(_reference_tail, p, q, args=(a, kappa), epsabs=1e-16,
                              epsrel=1e-13, limit=200)[0] for p, q in zip(cuts, cuts[1:]))


@pytest.mark.parametrize("snr", [1e-2, 1.0, 10.0, 1e3, 1e4, 1e6])
def test_excess_and_tail_match_quadrature_reference(snr):
    # both powers at snr, second-hop mean 0.5; rows include all-zero first-hop
    # gains, gains past GAIN_CAP and a near-zero gain. At L = 8 the kernel
    # averages the relays in sequence where a row-major mean sums pairwise
    for rows in (np.array([[1.3, 0.2], [0.0, 0.0], [1e305, 0.4], [GAIN_CAP, 1e-9]]),
                 np.array([[1.3, 0.2, 0.0, 1e-9, 0.7, 2.5, 1e305, 0.05], [0.0] * 8,
                           [GAIN_CAP, 4.0, 0.9, 0.0, 1e-9, 0.3, 1.1, 6.0]])):
        _check_kernel_against_quadrature(snr, rows)


def _check_kernel_against_quadrature(snr, rows):
    num_relays = rows.shape[1]
    params = make_params(num_relays=num_relays, source_power=snr, relay_power=snr,
                         second_hop_mean_gain=0.5)
    kernel = second_hop_kernel(params, rows)
    for i, row in enumerate(rows):
        top = float(kernel.sat[:, i].max())
        for theta in (-0.4, 0.0, 0.3 * top, 0.5 * top, top * (1.0 - 1e-9), top, top + 1.0):
            got_excess, got_tail = (v[0] for v in kernel.excess_tail(np.array([theta]), [i]))
            want_excess, want_tail = max(-theta, 0.0), 0.0
            lo = max(theta, 0.0)
            for f, sat in zip(row, kernel.sat[:, i].tolist()):
                a = snr * min(float(f), GAIN_CAP)
                kappa = (1.0 + a) / (snr * 0.5)
                if lo < sat:
                    want_excess += _reference_excess(lo, a, kappa, sat) / num_relays
                want_tail += (1.0 if theta <= 0.0 else _reference_tail(lo, a, kappa)) / num_relays
            # each S is within S_TOL relative (see above) and at most S(2e-6) =
            # 12.6 here, as z >= 1/(Pr E|g|^2) = 2e-6, so the excess is within
            # 2 x 12.6 S_TOL / ln 2 = 4.4e-14 (5e-16 measured against quad)
            assert got_excess == pytest.approx(want_excess, rel=5e-14, abs=5e-14), (i, theta)
            assert got_tail == pytest.approx(want_tail, rel=1e-12, abs=1e-300), (i, theta)


def test_excess_where_kappa_overflows():
    # a = 1e306 and 1/(Pr E|g|^2) = 500 put kappa = (1 + a) 500 past the float
    # range: at theta = 0 the excess is S(500) / ln 2 (S(kappa) is 0 in
    # float), with no NaN from inf * 0 and no overflow warning
    from scipy import special

    params = make_params(source_power=1e6, relay_power=1e-2, second_hop_mean_gain=0.2)
    kernel = second_hop_kernel(params, np.array([[1e305]]))
    assert np.isinf(kernel.kappa).all()
    excess, tail = kernel.excess_tail(np.zeros(1))
    assert excess[0] == pytest.approx(np.exp(500.0) * special.exp1(500.0) / math.log(2.0),
                                      rel=1e-13)
    assert tail[0] == 1.0


@pytest.mark.parametrize("snr", [1.0, 10.0, 1e3, 1e6])
def test_excess_slope_is_minus_tail(snr):
    # the row engine takes -tail as the slope of excess; check it by central
    # differences at h = 1e-5 theta wherever the tail is at least 1e-3
    params = make_params(source_power=snr, relay_power=snr, second_hop_mean_gain=0.5)
    rows = np.random.default_rng(5).exponential(1.0, (60, 2))
    kernel = second_hop_kernel(params, rows)
    theta = (np.arange(60) % 6 + 0.5) / 6.0 * kernel.sat_top
    tail = kernel.excess_tail(theta)[1]
    keep = tail >= 1e-3

    def central(h):
        return (kernel.excess_tail(theta + h)[0] - kernel.excess_tail(theta - h)[0]) / (2.0 * h)

    h = 1e-5 * theta
    slope = central(h)
    # the difference's own error: truncation, which is O(h^2), estimated
    # from the step 2h by Richardson; and the excess's absolute error
    # (5e-14, the bound above) over h
    tol = np.abs(central(2.0 * h) - slope) + 5e-14 / h
    assert keep.sum() >= 30
    assert np.all(np.abs(slope + tail)[keep] <= tol[keep]), np.max(np.abs(slope + tail)[keep])


# --- relay-level throughput fixed point ----------------------------------------

def test_intuitive_degenerate_zero_gains():
    stats = solve_sub_layer_batch(HOOK, [[0.0]], EST)[0]
    assert stats.threshold[0] == 0.0
    # one observation: T/2 plus one expected contention, tau / (2 p_r)
    p_r = success_prob(HOOK.num_relays, HOOK.relay_prob)
    assert stats.expected_time[0] == 0.5 * HOOK.data_time + HOOK.slot_time / (2.0 * p_r)
    assert stats.threshold[0] * stats.expected_time[0] == 0.0  # bits
    # T/2 + tau / (2 p_r) = 1 + 0.2
    assert stats.expected_time[0] == pytest.approx(1.2, abs=1e-12)


def test_intuitive_constant_rate_closed_form():
    # rate constant 1 via F=3, g=2: lam = r / (1 + tau / (T p_r)) = 1 / 1.2
    hop = FixedGain(2.0)
    stats = solve_sub_layer_batch(HOOK, [[3.0]], EST, second_hop=hop)[0]
    assert stats.threshold[0] == pytest.approx(1.0 / 1.2, abs=1e-8)
    # every observation stops: T/2 plus one expected contention, tau / (2 p_r)
    p_r = success_prob(HOOK.num_relays, HOOK.relay_prob)
    assert stats.expected_time[0] == 0.5 * HOOK.data_time + HOOK.slot_time / (2.0 * p_r)
    assert stats.expected_time[0] == pytest.approx(1.2, abs=1e-8)
    assert stats.threshold[0] * stats.expected_time[0] == pytest.approx(1.0, abs=1e-8)  # bits
    # the tests' bisection reference must meet the same closed form
    assert reference_sub_lambda(HOOK, [3.0], EST, second_hop=hop) \
        == pytest.approx(1.0 / 1.2, abs=1e-8)


def test_intuitive_exponential_contract():
    params = make_params()
    f_sq = np.array([2.0, 0.3])
    stats = solve_sub_layer_batch(params, [f_sq], EST)[0]
    lam, time_ = stats.threshold[0], stats.expected_time[0]
    p_r = success_prob(params.num_relays, params.relay_prob)
    lhs = sub_layer_expected_positive_part(params, f_sq, lam, EST)
    rhs = lam * params.slot_time / (params.data_time * p_r)
    assert abs(lhs - rhs) <= EST.tol
    assert lam < max(rate_saturation(params.source_power, f) for f in f_sq)
    # the bits lam * time are (T/2) E[R | R >= lam], up to the root's residual
    tail = sub_layer_tail_prob(params, f_sq, lam)
    assert lam * time_ == pytest.approx(0.5 * params.data_time * (lhs / tail + lam), abs=1e-8)
    assert time_ >= 0.5 * params.data_time


def test_intuitive_batch_matches_scalar(rng):
    cases = [(make_params(), rng.exponential(1.0, (50, 2))),
             (STRESS, rng.exponential(4.0, (50, 4)))]
    for params, rows in cases:
        stats, stop_prob = solve_sub_layer_batch(params, rows, EST)
        # the returned P is the kernel's tail at each lambda, bit for bit
        tail = second_hop_kernel(params, rows).excess_tail(stats.threshold)[1]
        assert stop_prob.tobytes() == tail.tobytes()
        p_r = success_prob(params.num_relays, params.relay_prob)
        for i in (0, 7, 23, 49):
            lam = reference_sub_lambda(params, rows[i], EST)
            time_ = 0.5 * params.data_time + params.slot_time / (
                2.0 * p_r * sub_layer_tail_prob(params, rows[i], lam))
            assert stats.threshold[i] == pytest.approx(lam, abs=5e-9)
            assert stats.expected_time[i] == pytest.approx(time_, rel=1e-7)


def test_intuitive_threshold_below_saturation(rng):
    params = make_params()
    rows = rng.exponential(1.0, (1000, 2))
    stats = solve_sub_layer_batch(params, rows, EST)[0]
    sat = np.log1p(params.source_power * rows).max(axis=1) / math.log(2.0)
    assert np.all(stats.threshold < sat + 1e-12)
    assert np.all(np.isfinite(stats.expected_time))  # a stop probability > 0


# --- relay-level reward fixed point --------------------------------------------

def test_w_constant_rate_closed_form():
    # W = (T/2)(r - gamma) - gamma tau / (2 p_r) = 0.6 - 0.08 = 0.52
    hop = FixedGain(2.0)
    (w,), _ = solve_sub_w_batch(HOOK, [[3.0]], 0.4, EST, second_hop=hop)
    assert w == pytest.approx(0.52, abs=1e-8)
    assert abs(w_residual(HOOK, [3.0], 0.4, w, EST, second_hop=hop)) <= EST.tol
    assert reference_w(HOOK, [3.0], 0.4, EST, second_hop=hop) == pytest.approx(0.52, abs=1e-8)


def test_w_zero_gains_closed_form():
    # zero rate: max(-(T/2) gamma - W, 0) = gamma tau / (2 p_r)
    # -> W = -(T/2) gamma - gamma tau / (2 p_r) = -0.4 - 0.08
    (w,), _ = solve_sub_w_batch(HOOK, [[0.0]], 0.4, EST)
    assert w == pytest.approx(-0.48, abs=1e-8)
    assert reference_w(HOOK, [0.0], 0.4, EST) == pytest.approx(-0.48, abs=1e-8)
    # cross-check the branch by substituting into the unshifted equation
    lhs = max(-0.5 * HOOK.data_time * 0.4, w)
    rhs = w + 0.4 * HOOK.slot_time / (2.0 * success_prob(1, 0.5))
    assert lhs == pytest.approx(rhs, abs=1e-8)


def test_w_gamma_zero_boundary():
    # at gamma = 0 the root is the essential supremum (T/2) * saturation;
    # the solver lands at the float-tail boundary just under it
    sat = rate_saturation(HOOK.source_power, 3.0)
    (w,), _ = solve_sub_w_batch(HOOK, [[3.0]], 0.0, EST)
    assert abs(w_residual(HOOK, [3.0], 0.0, w, EST)) <= EST.tol
    assert w <= 0.5 * HOOK.data_time * sat
    assert w == pytest.approx(0.5 * HOOK.data_time * sat, abs=0.01)
    # A stress batch: near saturation some rows' residuals and slopes fall
    # below 1e-300, and every row still converges.
    rows = np.random.default_rng(1).exponential(STRESS.first_hop_mean_gain, (500, 4))
    w = solve_sub_w_batch(STRESS, rows, 0.0, EST)[0]
    tops = 0.5 * STRESS.data_time * rate_saturation(STRESS.source_power, rows).max(axis=1)
    assert np.all(w <= tops)
    assert abs(w_residual(STRESS, rows[159], 0.0, w[159], EST)) <= EST.tol


def test_w_rejects_negative_gamma():
    # a non-finite gamma is rejected too, before it reaches the row engine
    for gamma in (-0.1, math.nan, math.inf):
        with pytest.raises(InvalidParameterError, match="gamma must be finite and >= 0"):
            solve_sub_w_batch(HOOK, [[1.0]], gamma, EST)


def test_w_batch_matches_scalar(rng):
    cases = [(make_params(), rng.exponential(1.0, (60, 2))),
             (STRESS, rng.exponential(4.0, (60, 4)))]
    for params, rows in cases:
        for gamma in (0.2, 0.7, 1.4):
            batch = solve_sub_w_batch(params, rows, gamma, EST)[0]
            for i in (0, 13, 31, 59):
                assert batch[i] == pytest.approx(
                    reference_w(params, rows[i], gamma, EST), abs=5e-9)


@pytest.mark.parametrize("num_relays", [2, 4, 8])
def test_a_rows_relay_level_solve_does_not_depend_on_its_batch(num_relays):
    # the simulator solves its rows in 2048-row batches, and the row engine
    # skips its bookkeeping on passes where no row finishes: each row's W,
    # lambda, expected time and both P are the same bytes in any batch
    params = make_params(num_relays=num_relays, relay_prob=1.0 / num_relays)
    rows = np.random.default_rng(3).exponential(1.0, (300, num_relays))

    def solved(batch):
        w, w_stop_prob = solve_sub_w_batch(params, batch, 0.7, EST)
        stats, stop_prob = solve_sub_layer_batch(params, batch, EST)
        return w, w_stop_prob, stats.threshold, stats.expected_time, stop_prob

    names = ("W", "P of W", "lambda", "expected time", "P of lambda")
    for name, whole, head, rest, alone in zip(names, solved(rows), solved(rows[:7]),
                                              solved(rows[7:]), solved(rows[13:14])):
        assert whole.tobytes() == np.concatenate([head, rest]).tobytes(), name
        assert whole[13:14].tobytes() == alone.tobytes(), name


@pytest.mark.parametrize("params", [make_params(), STRESS], ids=["base", "stress"])
def test_w_slope_is_the_envelope_derivative(params, rng):
    # W'(gamma) = -(T/2)(1 + k / P(theta)), k = tau / (T p_r), at the
    # threshold theta = gamma + W / (T/2): the outer Newton slope's inner part
    est = EstimatorConfig(mc_samples=100, quad_points=64, seed=1, tol=1e-12)
    rows = rng.exponential(params.first_hop_mean_gain, (40, params.num_relays))
    half_t = 0.5 * params.data_time
    k = params.slot_time / (params.data_time * success_prob(params.num_relays,
                                                            params.relay_prob))
    h = 1e-5
    for gamma in (0.3, 0.8):
        w, stop_prob = solve_sub_w_batch(params, rows, gamma, est)
        central = (solve_sub_w_batch(params, rows, gamma + h, est)[0]
                   - solve_sub_w_batch(params, rows, gamma - h, est)[0]) / (2.0 * h)
        stop = np.array([sub_layer_tail_prob(params, row, gamma + wi / half_t)
                         for row, wi in zip(rows, w)])
        np.testing.assert_allclose(central, -half_t * (1.0 + k / stop), rtol=1e-6)
        # the solve's own stop probability is the tail at its root
        np.testing.assert_allclose(stop_prob, stop, rtol=1e-9)


def test_w_residual_against_monte_carlo(rng):
    # verify the solved W satisfies the unshifted reward equation on raw draws
    params = make_params(source_power=1.0, relay_power=1.0)
    f_sq = np.array([2.5, 0.8])
    gamma = 0.5
    (w,), _ = solve_sub_w_batch(params, [f_sq], gamma, EST)
    g = rng.exponential(1.0, 10**6)
    j = rng.integers(0, 2, 10**6)
    reward = 0.5 * params.data_time * af_rate(1.0, 1.0, f_sq[j], g)
    half_gamma = 0.5 * params.data_time * gamma
    lhs = np.maximum(reward - half_gamma, w).mean()
    p_r = success_prob(params.num_relays, params.relay_prob)
    rhs = w + gamma * params.slot_time / (2.0 * p_r)
    se = np.maximum(reward - half_gamma, w).std(ddof=1) / 1000.0
    assert abs(lhs - rhs) < 4 * se


class _SampleOnlyHop:
    """Hop model with a sampler and nothing else: enough to draw, not to solve."""

    def __init__(self, mean):
        self.mean = mean

    def sample(self, rng, size=None):
        return rng.exponential(self.mean, size)


def test_second_hop_must_be_a_known_model():
    params = make_params()
    f_sq = np.array([2.0, 0.3])
    hop = _SampleOnlyHop(0.8)
    calls = [lambda: sub_layer_tail_prob(params, f_sq, 0.2, second_hop=hop),
             lambda: sub_layer_expected_positive_part(params, f_sq, 0.5, EST, second_hop=hop),
             lambda: solve_sub_layer_batch(params, [f_sq], EST, second_hop=hop),
             lambda: solve_sub_w_batch(params, [f_sq], 0.6, EST, second_hop=hop)]
    for call in calls:
        with pytest.raises(InvalidParameterError, match="RayleighFading or FixedGain"):
            call()
    # a first hop is only sampled, so a sample-only model is enough there
    est = EstimatorConfig(mc_samples=200, quad_points=16, seed=1, tol=1e-9)
    assert solve_main_gamma_intuitive(params, est, first_hop=hop) \
        == solve_main_gamma_intuitive(params, est, first_hop=RayleighFading(0.8))


class _FlatFirstHop:
    """A first hop that draws one gain per row, whatever the relay count."""

    def sample(self, rng, size):
        return rng.exponential(1.0, size[0])


_THREE_RELAY_ROWS = np.ones((4, 3))
_SHAPE = "rows of num_relays = 2 gains"
# Each call with malformed first-hop rows under two-relay params: (call, message)
_BAD_ROW_CALLS = {
    "intuitive-flat-draw": (
        lambda p: solve_main_gamma_intuitive(p, EST, first_hop=_FlatFirstHop()), _SHAPE),
    "coupled-flat-draw": (
        lambda p: solve_main_gamma_optimal(p, EST, first_hop=_FlatFirstHop()), _SHAPE),
    "sub-layer-three-columns": (
        lambda p: solve_sub_layer_batch(p, _THREE_RELAY_ROWS, EST), _SHAPE),
    "w-three-columns": (lambda p: solve_sub_w_batch(p, _THREE_RELAY_ROWS, 0.5, EST), _SHAPE),
    "w-3d-array": (lambda p: solve_sub_w_batch(p, np.ones((2, 2, 2)), 0.5, EST), _SHAPE),
    "scenario2-flat-draw": (lambda p: run_scenario2(
        p, PolicySpec(PolicyKind.OPTIMAL_BILEVEL, 0.5),
        SimConfig(packets=100, seed=1), est=EST, first_hop=_FlatFirstHop()), _SHAPE),
    "negative-gain": (lambda p: solve_sub_layer_batch(p, [[1.0, -1.0]], EST),
                      "first-hop gains must be finite and >= 0"),
    "nan-gain": (lambda p: solve_sub_layer_batch(p, [[1.0, np.nan]], EST),
                 "first-hop gains must be finite and >= 0"),
}


@pytest.mark.parametrize("call, message", _BAD_ROW_CALLS.values(), ids=_BAD_ROW_CALLS.keys())
def test_malformed_first_hop_rows_are_rejected(call, message):
    with pytest.raises(InvalidParameterError, match=message):
        call(make_params())


def test_w_nonincreasing_in_gamma(rng):
    params = make_params()
    rows = rng.exponential(1.0, (5, 2))
    grid = np.linspace(0.01, 2.5, 15)
    for row in rows:
        values = [reference_w(params, row, g, EST) for g in grid]
        assert np.all(np.diff(values) <= 1e-9)


# --- row-Newton engine: tangent steps and the warm start -------------------------

ENGINE_CASES = {"base": (make_params(), None), "stress": (STRESS, None),
                "fixed": (make_params(), FixedGain(0.8))}


def _engine_kernel(name, rows=300):
    params, hop = ENGINE_CASES[name]
    f_rows = np.random.default_rng(11).exponential(params.first_hop_mean_gain,
                                                   (rows, params.num_relays))
    return params, second_hop_kernel(params, f_rows, hop)


def _reward_rows(params, kernel, gamma, start=None):
    """The reward target at gamma, and the engine's (theta, tail, residual,
    iterations, kernel rows) for it on every row."""
    target = gamma * params.slot_time / (
        params.data_time * success_prob(params.num_relays, params.relay_prob))
    return target, solver._newton_rows([kernel], 0.0, target, EST,
                                       0.5 * params.data_time, start)


@pytest.mark.parametrize("name", list(ENGINE_CASES))
def test_warm_started_w_matches_cold_solve(name):
    params, kernel = _engine_kernel(name)
    half_t = 0.5 * params.data_time
    k = params.slot_time / (params.data_time
                            * success_prob(params.num_relays, params.relay_prob))
    # puts the rows whose mean rate is below the median on the linear branch
    linear = float(np.median(kernel.e0)) / k
    # rising, falling, a tiny gamma, and the linear branch
    gammas = [0.8, 0.9, 1.2, linear, 0.5, 1e-12, 1e-12, 0.3, 0.7, 0.69, 1.0]
    last = None
    for gamma in gammas:
        target, cold = _reward_rows(params, kernel, gamma)
        if gamma == linear:
            assert 0 < np.count_nonzero(cold[0] < 0.0) < cold[0].size
        # both roots lie inside certified enclosures narrower than the scaled tol
        tol = EST.tol * max(1.0, half_t * float(np.abs(cold[0]).max()))
        if last is not None:
            start = solver._tangent_start(*last, target)
            # the tangent root is a lower point of the root wherever it is defined
            defined = last[2] > 0.0
            assert np.all(start[defined] <= cold[0][defined] + 2.0 * tol / half_t), gamma
        _, warm = _reward_rows(params, kernel, gamma, None if last is None else start)
        last = (warm[0], warm[2], warm[1], target)
        np.testing.assert_allclose(half_t * (warm[0] - gamma), half_t * (cold[0] - gamma),
                                   rtol=0.0, atol=2.0 * tol)


@pytest.mark.parametrize("cost", ["reward", "throughput"])
def test_row_right_of_the_root_steps_to_its_tangent_point(cost):
    params, kernel = _engine_kernel("base", rows=40)
    slope = params.slot_time / (params.data_time
                                * success_prob(params.num_relays, params.relay_prob))
    cost_slope, target = (0.0, 0.7 * slope) if cost == "reward" else (slope, 0.0)
    root = solver._newton_rows([kernel], cost_slope, target, EST, 1.0)[0]  # caches e0
    start = root + 0.1
    excess, tail = kernel.excess_tail(start)
    recorded = _recording(kernel)
    kernel_rows = solver._newton_rows([kernel], cost_slope, target, EST, 1.0, start)[4]
    passes = [thetas for _, thetas in recorded]
    # kernel rows count rows x relays over the excess passes
    assert kernel_rows == sum(thetas.size for thetas in passes) * kernel.rows.shape[1]
    f = excess - cost_slope * start - target
    assert np.all(f < 0.0)
    tangent = start + f / (tail + cost_slope)
    assert np.all((tangent > 0.0) & (tangent <= root + EST.tol))
    np.testing.assert_array_equal(passes[0], start)
    np.testing.assert_array_equal(passes[1], tangent)


@pytest.mark.parametrize("name", [*ENGINE_CASES, "kappa_inf", "L8"])
def test_e0_is_the_excess_pass_at_zero_bit_for_bit(name):
    # the closed form S(m) - S(kappa_j) per relay against the pass, with rows
    # of a = 0 (every relay, and one) and one past GAIN_CAP, whose kappa
    # overflows in "kappa_inf"; "L8" averages 8 relays
    params, hop = {**ENGINE_CASES, "kappa_inf": (make_params(
        source_power=1e6, relay_power=1e-2, second_hop_mean_gain=0.2), None),
        "L8": (make_params(num_relays=8, relay_prob=0.125), None)}[name]
    rows = np.random.default_rng(11).exponential(params.first_hop_mean_gain,
                                                 (50, params.num_relays))
    rows[0] = 0.0
    rows[1, 0] = 0.0
    rows[2, -1] = 1e305
    kernel = second_hop_kernel(params, rows, hop)
    if name == "kappa_inf":
        assert np.isinf(kernel.kappa[-1, 2])
    assert kernel.e0.tobytes() == kernel.excess_tail(np.zeros(rows.shape[0]))[0].tobytes()


def _recording(kernel):
    """Record each excess pass of ``kernel`` as (sample rows, thetas)."""
    passes = []
    excess_tail = kernel.excess_tail

    def recording(thetas, idx=slice(None)):
        passes.append((np.arange(kernel.rows.shape[0])[idx], np.copy(thetas)))
        return excess_tail(thetas, idx)

    kernel.excess_tail = recording
    return passes


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm-tail-0"])
@pytest.mark.parametrize("cost", ["reward", "reward/10", "throughput"])
@pytest.mark.parametrize("name", list(ENGINE_CASES))
def test_every_row_starts_at_the_tangent_root_from_zero(name, cost, warm):
    # at theta <= 0 the excess is e0 - theta, so every row's first pass is at
    # theta1 = (e0 - target) / (1 + cost_slope); where theta1 <= 0 that is the
    # root, and the row leaves after that pass. The reward target at the
    # median E[R] puts half the rows there. A warm start from rows whose
    # previous tail was 0 (NaN or -inf from _tangent_start) starts them at
    # theta1 as well
    params, kernel = _engine_kernel(name)
    slope = params.slot_time / (params.data_time
                                * success_prob(params.num_relays, params.relay_prob))
    if cost == "throughput":
        cost_slope, target = slope, 0.0
    else:
        cost_slope = 0.0
        target = float(np.median(kernel.e0)) / (10.0 if cost == "reward/10" else 1.0)
    theta1 = (kernel.e0 - target) / (1.0 + cost_slope)
    start = None
    if warm:
        past = np.nextafter(kernel.sat_top, np.inf)  # the excess and the tail are 0 here
        excess, tail = kernel.excess_tail(past)
        assert np.all((excess == 0.0) & (tail == 0.0))
        start = solver._tangent_start(past, excess - cost_slope * past - target, tail,
                                      target, target)
        assert np.all(np.isnan(start) | np.isneginf(start))
    passes = _recording(kernel)
    theta, tail, f, _, kernel_rows = solver._newton_rows([kernel], cost_slope, target, EST,
                                                         1.0, start)
    rows, first = passes[0]
    np.testing.assert_array_equal(rows, np.arange(kernel.rows.shape[0]))
    assert first.tobytes() == theta1.tobytes()
    linear = theta1 <= 0.0
    if cost == "reward":
        assert 0 < np.count_nonzero(linear) < linear.size
    assert theta[linear].tobytes() == theta1[linear].tobytes()
    assert np.all((tail[linear] == 1.0) & (np.abs(f[linear]) <= EST.tol))
    assert not any(np.any(linear[idx]) for idx, _ in passes[1:])
    assert kernel_rows == sum(thetas.size for _, thetas in passes) * kernel.rows.shape[1]


def test_cold_rows_take_newton_steps_after_their_first_pass():
    # stress_solve at seed 1 (2000 samples), the coupled solve's first
    # evaluation: Newton from the left of a convex decreasing residual climbs
    # to the root, so each pass after the first is the tangent root of the
    # last and none overshoots. Rows 656, 831 and 1937 step just over half
    # of theta1 after their first pass, under an eighth of the chord, so a
    # crawl guard that counted a step from theta = 0 would bisect them
    est = EstimatorConfig(mc_samples=2000, quad_points=64, seed=1, tol=1e-6)
    gamma = solve_main_gamma_intuitive(STRESS, est).value
    rows = channel.sample_first_hop_rows(STRESS, np.random.default_rng(1), 2000)
    kernel = second_hop_kernel(STRESS, rows)
    p_r = success_prob(STRESS.num_relays, STRESS.relay_prob)
    target = STRESS.slot_time / (STRESS.data_time * p_r) * gamma  # gamma tau / (T p_r)
    excess_tail = kernel.excess_tail
    passes = _recording(kernel)
    theta = solver._newton_rows([kernel], 0.0, target, est, 0.5 * STRESS.data_time)[0]
    for row in (656, 831, 1937):
        path = [thetas[np.searchsorted(idx, row)] for idx, thetas in passes if row in idx]
        assert len(path) >= 3, row
        excess, tail = excess_tail(np.array(path[:-1]), np.full(len(path) - 1, row))
        np.testing.assert_allclose(path[1:], path[:-1] + (excess - target) / tail, rtol=1e-12,
                                   err_msg=str(row))
        assert np.all(np.diff(path) >= 0.0) and path[-1] == theta[row], row


def test_non_finite_target_fails_after_one_pass():
    _, kernel = _engine_kernel("base", rows=40)
    passes = []
    excess_tail = kernel.excess_tail

    def counting(thetas, idx=slice(None)):
        passes.append(thetas.size)
        excess, tail = excess_tail(thetas, idx)
        excess[7] = np.nan  # a non-finite residual on row 7
        return excess, tail

    kernel.excess_tail = counting
    with pytest.raises(SolverFailureError, match=ENGINE_FAILURE.format(1, 7, "nan")):
        solver._newton_rows([kernel], 0.0, 0.1, EST, 1.0)
    assert passes == [40]


def test_engine_failure_names_the_sample_row(monkeypatch):
    params = make_params()
    f_rows = np.random.default_rng(11).exponential(1.0, (solver.CHUNK_ROWS + 40, 2))
    kernel_type = type(RayleighFading(1.0).relay_kernel(params, f_rows[:1]))
    excess_tail = kernel_type.excess_tail

    def planted(kernel, thetas, idx=slice(None)):
        excess, tail = excess_tail(kernel, thetas, idx)
        if kernel.rows.shape[0] == 40:  # the second chunk: its row 5 is sample row 8197
            excess[5] = np.nan
        return excess, tail

    monkeypatch.setattr(kernel_type, "excess_tail", planted)
    row = solver.CHUNK_ROWS + 5
    with pytest.raises(SolverFailureError, match=ENGINE_FAILURE.format(1, row, "nan")):
        solve_sub_w_batch(params, f_rows, 0.5, EST)
