"""Two-hop relay channel model: hop models, their laws and draws, and AF rates.

Rates are in bits/s/Hz, times in arbitrary consistent units. Squared channel
gains are sampled directly as exponential variates (the squared magnitude of
a zero-mean complex Gaussian); phases never enter a rate formula, so they are
never materialized. Relay indices are 1-based throughout, matching node
numbering in the protocol.

A hop model is any object with a ``sample(rng, size)`` method, all that a
first hop or the best-relay draw needs. A second hop of the relay-level
solvers also has ``relay_kernel(params, rows)``, the law of the winning
relay's rate given first-hop rows: Rayleigh fading (the paper's channel) by
exponential integrals, a ``FixedGain`` point mass exactly. ``hop_models``
resolves omitted hops to Rayleigh fading with the mean gains of ``params``.
The best of L Rayleigh relays has an exact rate law too,
``best_relay_excess_tail``, on which the full-CSI threshold rests.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .contention import success_prob
from .errors import InvalidParameterError

LN2 = math.log(2.0)

# Euler's constant, in the series of E1 and K1
EULER_GAMMA = 0.5772156649015329

# Rates saturate long before gains this large; the cap only keeps products
# finite for adversarial inputs, with a power whose product with it is finite
# (at most MAX_POWER, about 1.8e8).
GAIN_CAP = 1e300
MAX_POWER = sys.float_info.max / GAIN_CAP


@dataclass(frozen=True)
class SystemParams:
    """Protocol and channel constants of one network configuration.

    num_sources / num_relays:
        contending source-destination pairs and candidate relays.
    source_power / relay_power:
        transmit powers as dimensionless SNR scales.
    first_hop_mean_gain / second_hop_mean_gain:
        mean squared gain of each hop (the variance of the underlying
        zero-mean complex Gaussian channel coefficient).
    slot_time:
        contention slot duration. Full-CSI operation uses whole slots; the
        two-part access scheme halves them. The contention helpers only
        count slots; the simulator scales the counts by the slot duration.
    data_time:
        total data transmission time per delivered packet, split evenly
        between the two hops.
    source_prob / relay_prob:
        per-slot contention probabilities. relay_prob is only needed by the
        two-part access scheme and may be omitted otherwise.
    """

    num_sources: int
    num_relays: int
    source_power: float
    relay_power: float
    first_hop_mean_gain: float
    second_hop_mean_gain: float
    slot_time: float
    data_time: float
    source_prob: float
    relay_prob: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.num_sources, int) or self.num_sources < 1:
            raise InvalidParameterError("num_sources must be an integer >= 1")
        if not isinstance(self.num_relays, int) or self.num_relays < 1:
            raise InvalidParameterError("num_relays must be an integer >= 1")
        for name in ("source_power", "relay_power", "first_hop_mean_gain",
                     "second_hop_mean_gain", "slot_time", "data_time"):
            value = getattr(self, name)
            if not (value > 0.0) or not math.isfinite(value):
                raise InvalidParameterError(f"{name} must be finite and > 0")
        _check_powers(self.source_power, self.relay_power)
        _check_contention_prob("source_prob", self.source_prob, self.num_sources,
                               self.slot_time)
        if self.relay_prob is not None:
            _check_contention_prob("relay_prob", self.relay_prob, self.num_relays,
                                   self.slot_time)

    def require_relay_prob(self) -> float:
        if self.relay_prob is None:
            raise InvalidParameterError(
                "relay_prob is required for two-part (relay contention) operation")
        return self.relay_prob


def _check_contention_prob(name: str, p: float, n: int, slot_time: float) -> None:
    if not (0.0 < p <= 1.0):
        raise InvalidParameterError(f"{name} must lie in (0, 1]")
    # p == 1 with more than one contender makes every slot collide; far from
    # 1/n, (1 - p)^(n - 1) underflows, and the mean contention time
    # slot_time / p_s, every solve's cost, overflows before it does
    p_s = success_prob(n, p)
    if p_s == 0.0 or not math.isfinite(slot_time / p_s):
        raise InvalidParameterError(
            f"{name} = {p} with {n} contenders gives a slot success probability "
            f"of {p_s:.3g}, so the mean contention time slot_time / p_s is not finite")


@dataclass(frozen=True)
class RayleighFading:
    """Squared-magnitude fading gain: exponential with the given mean."""

    mean_gain: float

    def __post_init__(self) -> None:
        if not (self.mean_gain > 0.0) or not math.isfinite(self.mean_gain):
            raise InvalidParameterError("mean_gain must be finite and > 0")

    def sample(self, rng: np.random.Generator, size=None):
        return rng.exponential(self.mean_gain, size)

    def relay_kernel(self, params: SystemParams, rows: np.ndarray) -> _RayleighKernel:
        return _RayleighKernel(params, rows, self.mean_gain)


@dataclass(frozen=True)
class FixedGain:
    """Point-mass gain, the deterministic-channel hook for tests and demos."""

    gain: float

    def __post_init__(self) -> None:
        if not (self.gain >= 0.0) or not math.isfinite(self.gain):
            raise InvalidParameterError("gain must be finite and >= 0")

    def sample(self, rng: np.random.Generator, size=None):
        if size is None:
            return self.gain
        return np.full(size, self.gain, dtype=float)

    def relay_kernel(self, params: SystemParams, rows: np.ndarray) -> _PointMassKernel:
        return _PointMassKernel(params, rows, self.gain)


def hop_models(params: SystemParams, first_hop=None, second_hop=None):
    """The (first, second) hop models; a None is Rayleigh fading of params' mean gain."""
    return (first_hop if first_hop is not None else RayleighFading(params.first_hop_mean_gain),
            second_hop if second_hop is not None else RayleighFading(params.second_hop_mean_gain))


def second_hop_kernel(params: SystemParams, rows: np.ndarray, second_hop=None):
    """The second hop's ``relay_kernel`` on checked first-hop ``rows``, if it has one."""
    hop = hop_models(params, second_hop=second_hop)[1]
    if not hasattr(hop, "relay_kernel"):
        raise InvalidParameterError(
            f"second hop must be RayleighFading or FixedGain, got {type(hop).__name__}")
    return hop.relay_kernel(params, rows)


def as_rows(f_sq, num_relays: int) -> np.ndarray:
    """First-hop gains as rows of ``num_relays`` gains; a 1-D array is one row."""
    arr = np.asarray(f_sq, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != num_relays:
        raise InvalidParameterError(f"first-hop gains must be rows of num_relays = "
                                    f"{num_relays} gains, got shape {np.shape(f_sq)}")
    if np.any(arr < 0) or not np.all(np.isfinite(arr)):
        raise InvalidParameterError("first-hop gains must be finite and >= 0")
    return arr


def sample_first_hop_rows(params: SystemParams, rng: np.random.Generator, n: int,
                          first_hop=None) -> np.ndarray:
    """n checked rows of first-hop gains, one n x L draw of the first hop."""
    model = hop_models(params, first_hop)[0]
    return as_rows(model.sample(rng, (n, params.num_relays)), params.num_relays)


def default_observations(params: SystemParams, first_hop=None, second_hop=None):
    """Joint sampler of (best rate, 1-based best relay) per full-CSI observation.

    Draws the n x L first-hop block, then the n x L second-hop block, from
    one generator. The best relay is kept by L - 1 column comparisons with a
    strict >, so ties go to the lowest relay index.
    """
    fh, sh = hop_models(params, first_hop, second_hop)

    def sampler(rng: np.random.Generator, n: int):
        shape = (n, params.num_relays)
        rates = af_rate(params.source_power, params.relay_power,
                        np.atleast_2d(fh.sample(rng, shape)),
                        np.atleast_2d(sh.sample(rng, shape)))
        top, best = rates[:, 0].copy(), np.ones(n, dtype=np.int64)
        for j in range(1, params.num_relays):
            better = rates[:, j] > top
            np.copyto(top, rates[:, j], where=better)
            np.copyto(best, j + 1, where=better)
        return top, best

    return sampler


def full_csi_rate_sampler(params: SystemParams, first_hop=None, second_hop=None):
    """Sampler of the best-relay rate under both hops drawn fresh."""
    observations = default_observations(params, first_hop, second_hop)

    def sampler(rng: np.random.Generator, n: int) -> np.ndarray:
        return observations(rng, n)[0]

    return sampler


def af_rate(source_power, relay_power, f_sq, g_sq):
    """Amplify-and-forward end-to-end rate for one relay path.

    log2(1 + Ps*Pr*|f|^2*|g|^2 / (1 + Ps*|f|^2 + Pr*|g|^2)), evaluated in a
    form that cannot overflow. Accepts scalars or broadcastable arrays.
    """
    ps, pr = _check_powers(source_power, relay_power)
    f = _clip_gains("f_sq", f_sq)
    g = _clip_gains("g_sq", g_sq)
    a = ps * f
    b = pr * g
    # b/(1+a+b) <= 1, so the product stays within the range of a.
    arg = a * (b / (1.0 + a + b))
    out = np.log1p(arg) / LN2
    return float(out) if np.ndim(out) == 0 else out


def rate_saturation(source_power, f_sq):
    """Supremum of af_rate over the second-hop gain: log2(1 + Ps*|f|^2)."""
    if not (np.ndim(source_power) == 0 and source_power > 0.0):
        raise InvalidParameterError("source_power must be a scalar > 0")
    f = _clip_gains("f_sq", f_sq)
    out = np.log1p(source_power * f) / LN2
    return float(out) if np.ndim(out) == 0 else out


def _check_powers(source_power, relay_power):
    ps = float(source_power)
    pr = float(relay_power)
    if not (ps > 0.0 and pr > 0.0):
        raise InvalidParameterError("powers must be > 0")
    for name, power in (("source_power", ps), ("relay_power", pr)):
        if not math.isfinite(power * GAIN_CAP):
            raise InvalidParameterError(
                f"{name} = {power:g} times GAIN_CAP = {GAIN_CAP:g} is not finite; "
                f"a power must be at most {MAX_POWER:.4g}")
    return ps, pr


def _clip_gains(name: str, values):
    arr = np.asarray(values, dtype=float)
    if not (arr >= 0.0).all():  # one pass: False at negatives and at NaN
        raise InvalidParameterError(f"{name} must be >= 0")
    return np.minimum(arr, GAIN_CAP)


# ---------------------------------------------------------------------------
# Second-hop kernels (relay-level observation rate)
#
# Conditioned on first-hop gains, the winning relay of a contention round is
# uniform and its second-hop gain is a fresh draw, so
#   P(R_m >= x) = (1/L) sum_j tail(gain needed for rate x at relay j)
# and E[max(R_m - x, 0)] is the integral of that tail above x (plus a linear
# part for x < 0, where the positive part is the identity).
#
# A kernel precomputes what does not depend on the threshold for a block of
# first-hop ``rows``. It gives ``sat_top``, the top saturation rate per row,
# ``e0`` = E[R] per row, and ``excess_tail(thetas, idx)``, one closed-form
# pass giving (E[max(R - theta, 0)], P(R >= theta)) for the rows ``idx``; at
# theta <= 0 these are e0 - theta, bit for bit, and 1. A kernel holds no
# scratch state. Its arrays are relay-major, (L, rows), so each average over
# the relays is L - 1 contiguous vector adds, in relay order for every row
# count, and the active rows ``idx`` are one ``take`` per array.


def _columns(arr: np.ndarray, idx) -> np.ndarray:
    """The columns ``idx`` of a relay-major (L, rows) array: a view for a
    slice, else one ``take`` gather (several times cheaper than ``arr[:, idx]``)."""
    return arr[:, idx] if isinstance(idx, slice) else arr.take(idx, axis=1)


def _relay_mean(terms: np.ndarray) -> np.ndarray:
    """The mean over the relays (axis 0) of a relay-major array, summed in
    relay order. ``terms.mean(axis=0)`` sums one column pairwise from 8
    relays on, so a row's mean would depend on how many rows share its pass."""
    total = terms[0].copy()
    for term in terms[1:]:
        total += term
    total /= terms.shape[0]
    return total


class _PointMassKernel:
    """Point-mass second hop: each relay's rate is fixed, so both are exact means."""

    def __init__(self, params: SystemParams, rows: np.ndarray, gain: float):
        self.rows = rows
        self.rates = af_rate(params.source_power, params.relay_power,
                             np.ascontiguousarray(rows.T), gain)
        self.sat_top = self.rates.max(axis=0)
        self.e0 = _relay_mean(self.rates)

    def excess_tail(self, thetas: np.ndarray, idx=slice(None)):
        thetas = np.asarray(thetas, dtype=float)
        rates = _columns(self.rates, idx)
        excess = (_relay_mean(np.maximum(rates - np.maximum(thetas, 0.0), 0.0))
                  + np.maximum(-thetas, 0.0))
        hit = (rates >= thetas).mean(axis=0)  # a count: exact in any order
        return excess, np.where(thetas <= 0.0, 1.0, hit)


class _RayleighKernel:
    """Rayleigh second hop: the rate tail above x is exp(-kappa u),
    u = c / (a - c), c = 2^x - 1, a = Ps |f|^2, kappa = (1 + a) / (Pr E|g|^2),
    and substituting u for x turns its integral above lo = clip(theta, 0, sat)
    into exp(-kappa u0) [S(kappa (u0 + 1/(1+a))) - S(kappa (u0 + 1))] / ln 2
    with S(z) = e^z E1(z). A relay with a <= c has no rate above lo, so
    u0 = inf zeroes its terms. ``sat``, ``a``, ``scale`` and ``kappa`` are
    (L, rows) arrays; ``rows`` is the (rows, L) array the kernel was given."""

    def __init__(self, params: SystemParams, rows: np.ndarray, mean_gain: float):
        self.rows = rows
        cols = np.ascontiguousarray(rows.T)
        self.sat = rate_saturation(params.source_power, cols)
        self.sat_top = self.sat.max(axis=0)
        self.a = params.source_power * np.minimum(cols, GAIN_CAP)
        self.scale = 1.0 + self.a
        self.inv_mean = 1.0 / (params.relay_power * mean_gain)  # kappa / (1 + a)
        with np.errstate(over="ignore"):  # kappa = inf only zeroes S(kappa (u0 + 1))
            self.kappa = self.scale * self.inv_mean
        # At theta = 0, u0 = 0, so each relay term is S(m) - S(kappa_j), m =
        # 1/(Pr E|g|^2) one scalar: a relay with a = 0 has kappa = (1 + 0) m =
        # m, a zero term as its u0 = inf gives, and kappa = inf gives S(kappa) = 0.
        s = _scaled_exp1(self.kappa)
        np.subtract(_scaled_exp1(np.array([self.inv_mean]))[0], s, out=s)
        self.e0 = _relay_mean(s) / LN2

    def excess_tail(self, thetas: np.ndarray, idx=slice(None)):
        thetas = np.asarray(thetas, dtype=float)
        lo = np.minimum(np.maximum(thetas, 0.0), _columns(self.sat, idx))
        c = np.expm1(lo * LN2)
        gap = _columns(self.a, idx) - c
        u = np.divide(c, gap, out=np.full_like(c, np.inf), where=gap > 0.0)
        del lo, c, gap  # freed before the S pass, where a solve's memory peaks
        with np.errstate(over="ignore"):  # kappa u0 = inf is a zero tail
            u *= _columns(self.scale, idx)
            u *= self.inv_mean  # kappa u0, never inf * 0 where kappa overflows
        z = np.empty((2, *u.shape))
        np.add(u, self.inv_mean, out=z[0])
        np.add(u, _columns(self.kappa, idx), out=z[1])
        s = _scaled_exp1(z)
        np.negative(u, out=u)
        tails = np.exp(u, out=u)
        s[0] -= s[1]
        s[0] *= tails
        excess = _relay_mean(s[0]) / LN2 + np.maximum(-thetas, 0.0)
        return excess, np.where(thetas <= 0.0, 1.0, _relay_mean(tails))


# S(z) = e^z E1(z) in the three ranges of Cody and Thacher ("Rational
# Chebyshev approximations for the exponential integral E1(x)", Math. Comp.
# 22, 1968), each a rational function P/Q:
#   [0, 1):   e^z (z P(z)/Q(z) - gamma - ln z), P/Q = Ein(z)/z of A&S 5.1.11,
#             degree 5/5 pinned to 1 at z = 0;
#   [1, 4):   P(z)/Q(z), degree 7/7;
#   [4, inf): 1/(z + 1 + t P(t)/Q(t)), t = 4/z, degree 7/7 pinned to -1/4 at
#             t = 0. This is (1/z) R(4/z) with R -> 1, so S(inf) = 0; and as
#             1/(z + 1) < S < 1/z (A&S 5.1.19) puts 1/S - z in (0, 1), the
#             monotone roundings of 1 + t P/Q <= 1 and of its sum with z keep
#             both bounds in float.
# Each P/Q minimizes the relative error at 40 Chebyshev nodes by linear least
# squares in 40-digit mpmath, reweighted by the last Q until it is a fixed
# point (Loeb's iteration; tests/test_solver_sublayer.py re-fits them). S then
# holds 9e-16 (4 eps) relative against mpmath; the worst is near z = 1, where
# E1 = 0.22 is a difference of terms near 0.8 and 0.58. Coefficients run from
# degree 0 up: (numerator, denominator).
S_SPLITS = (1.0, 4.0)
_S_EIN = (
    (1.0, 0.1696426669078605, 0.027801377149785554, 0.0014495116716835956,
     6.712094630274773e-05, -6.00294182607644e-08),
    (1.0, 0.4196426669078605, 0.07715648832119458, 0.007841818923777406,
     0.0004457152173863081, 1.1502625130168948e-05),
)
_S_MID = (
    (4.4120012090465535, 96.63695352644798, 462.7361507938449, 757.5408872617072,
     491.8434603077832, 127.33035875230476, 10.71030291241369, 8.965032692390086e-07),
    (1.0, 41.578139227153656, 343.54457778114397, 974.6830229925903,
     1153.8957095906244, 608.4842307997543, 138.03948786150025, 10.710349427248248),
)
_S_TAIL = (
    (-0.25, -2.483509424300998, -8.937884349215292, -14.520067954211916,
     -10.808314356002992, -3.3053565108617136, -0.29964398014282045,
     -0.0009344011148916101),
    (1.0, 10.684037697202989, 42.95206566996113, 82.72291542665114, 80.42871419636629,
     38.10712613544158, 7.716156859420145, 0.4694785790265365),
)
# each as (p_k, q_k) columns, top degree first, for _horner
_S_EIN_COLS, _S_MID_COLS, _S_TAIL_COLS = (np.array(fit).T[::-1, :, None].copy()
                                          for fit in (_S_EIN, _S_MID, _S_TAIL))


def _horner(columns: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Both polynomials of a column pair (top degree first) at x, by Horner's rule."""
    acc = np.empty((2, x.size))
    acc[...] = columns[0]
    for col in columns[1:]:
        acc *= x
        acc += col
    return acc


def _rational(columns: np.ndarray, x: np.ndarray) -> np.ndarray:
    """P(x)/Q(x) of a (P, Q) column pair."""
    p, q = _horner(columns, x)
    return np.divide(p, q, out=p)


def _scaled_exp1(z: np.ndarray) -> np.ndarray:
    """S(z) = e^z E1(z) elementwise for z > 0, with S(inf) = 0 and NaN for NaN.

    Each range gathers its entries by index (a boolean-mask gather and
    scatter cost several times more on mixed ranges); NaN falls in [1, 4).
    """
    flat = z.reshape(-1)
    out = np.empty_like(flat)
    low = flat < S_SPLITS[0]
    high = flat >= S_SPLITS[1]
    mid = np.logical_not(low | high)
    i = low.nonzero()[0]
    if i.size:
        x = flat.take(i)
        r = _rational(_S_EIN_COLS, x)
        r *= x
        r -= EULER_GAMMA
        r -= np.log(x)
        r *= np.exp(x, out=x)
        out[i] = r
    i = mid.nonzero()[0]
    if i.size:
        out[i] = _rational(_S_MID_COLS, flat.take(i))
    i = high.nonzero()[0]
    if i.size:
        x = flat.take(i)
        t = np.divide(4.0, x)
        r = _rational(_S_TAIL_COLS, t)
        r *= t
        r += 1.0
        r += x
        out[i] = np.divide(1.0, r, out=r)
    return out.reshape(z.shape)


# ---------------------------------------------------------------------------
# Best-relay rate tail (full CSI, Rayleigh hops)
#
# One relay's rate is at least x iff (a - c)(b - c) >= c (c + 1) with a, b > c,
# where c = 2^x - 1 and a = Ps |f|^2, b = Pr |g|^2 are exponential with means
# a_bar, b_bar. Integrating b's tail over a gives (Hasna and Alouini, IEEE
# Trans. Wireless Commun., 2003)
#   t(c) = z e^{-c (1/a_bar + 1/b_bar)} K1(z),  z = 2 sqrt(c (c + 1) / (a_bar b_bar)),
# and the best of L independent relays has the tail 1 - (1 - t)^L. In
# y = kappa c, kappa = (1/sqrt(a_bar) + 1/sqrt(b_bar))^2, the exponent
# z + c (1/a_bar + 1/b_bar) is at least y, so t falls like sqrt(y) e^{-y}.
#
# E[max(R - theta, 0)] = int_{c0}^inf (1 - (1 - t)^L) dc / ((1 + c) ln 2),
# c0 = 2^theta - 1, by a fixed Gauss-Legendre rule of 32 nodes per panel in
# y = kappa c: 4 panels of equal width in ln y on [y0, 1] (empty for y0 >= 1),
# which resolve the log singularity at c = 0 and the pole of 1/(1 + c) at
# c = -1, and 4 panels on [max(y0, 1), that + M] with edges at 0, 1/20, 3/20
# and 7/20 of M = 40 + ln L, the cut where L e^{-M} = e^{-40}. Below
# y = e^{-40} the tail is 1 to within O(c ln c), so that piece is integrated
# exactly. Against scipy's quad the excess agrees within 2e-14 relative over
# SNRs 1e-2 to 1e6 and L = 1 to 64 (measured; tests/test_solver_full_csi.py
# allows 5e-14).

_QUAD_NODES = 32       # the size of the rule, _GL_NODES and _GL_WEIGHTS
_LOG_FLOOR = -40.0     # ln y below which the tail is taken as 1
_CUT = 40.0            # the cut M is _CUT + ln L
_UPPER_EDGES = np.array([0.0, 0.05, 0.15, 0.35, 1.0])
_DROP_Y = 800.0        # from y0 on, t and the excess are 0 in float


# The 32-point Gauss-Legendre rule on [-1, 1], as the float reprs of Newton on
# the Legendre recurrence from the asymptotic node guesses (four steps converge
# the nodes, a fifth pass takes the weights' derivative at them);
# tests/test_solver_full_csi.py re-derives both bit for bit.
_GL_NODES = np.array([
    0.9972638618494816, 0.9856115115452684, 0.9647622555875064, 0.9349060759377397,
    0.8963211557660521, 0.84936761373257, 0.7944837959679424, 0.7321821187402897,
    0.6630442669302152, 0.5877157572407623, 0.5068999089322294, 0.42135127613063533,
    0.33186860228212767, 0.23928736225213706, 0.1444719615827965, 0.048307665687738324,
    -0.048307665687738324, -0.1444719615827965, -0.23928736225213706, -0.33186860228212767,
    -0.42135127613063533, -0.5068999089322294, -0.5877157572407623, -0.6630442669302152,
    -0.7321821187402897, -0.7944837959679424, -0.84936761373257, -0.8963211557660521,
    -0.9349060759377397, -0.9647622555875064, -0.9856115115452684, -0.9972638618494816,
])
_GL_WEIGHTS = np.array([
    0.007018610009470136, 0.01627439473090571, 0.02539206530926214, 0.03427386291302141,
    0.042835898022226704, 0.050998059262376154, 0.05868409347853558, 0.06582222277636195,
    0.07234579410884862, 0.07819389578707044, 0.08331192422694672, 0.08765209300440374,
    0.0911738786957639, 0.09384439908080454, 0.09563872007927485, 0.09654008851472785,
    0.09654008851472785, 0.09563872007927485, 0.09384439908080454, 0.0911738786957639,
    0.08765209300440374, 0.08331192422694672, 0.07819389578707044, 0.07234579410884862,
    0.06582222277636195, 0.05868409347853558, 0.050998059262376154, 0.042835898022226704,
    0.03427386291302141, 0.02539206530926214, 0.01627439473090571, 0.007018610009470136,
])


def _panel_rule(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the Gauss-Legendre rule on each panel between
    consecutive ``edges``, flattened."""
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    return (mid + half * _GL_NODES).ravel(), (half * _GL_WEIGHTS).ravel()


def best_relay_excess_tail(params: SystemParams, theta: float) -> tuple[float, float]:
    """(E[max(R - theta, 0)], P(R >= theta)) for theta >= 0, R the best-relay
    rate over the Rayleigh hops of ``params`` (see the section comment)."""
    a_bar = params.source_power * params.first_hop_mean_gain
    b_bar = params.relay_power * params.second_hop_mean_gain
    kappa = (1.0 / math.sqrt(a_bar) + 1.0 / math.sqrt(b_bar)) ** 2
    y0 = kappa * math.expm1(min(theta, 1000.0) * LN2)
    if y0 >= _DROP_Y:
        return 0.0, 0.0
    top = max(y0, 1.0)
    y, w = _panel_rule(top + (_CUT + math.log(params.num_relays)) * _UPPER_EDGES)
    flat = 0.0  # the integral of 1 / ((1 + c) ln 2) below y = e^{_LOG_FLOOR}
    if y0 < 1.0:
        log_lo = max(math.log(y0), _LOG_FLOOR) if y0 > 0.0 else _LOG_FLOOR
        u, v = _panel_rule(np.linspace(log_lo, 0.0, 5))
        y_low = np.exp(u)
        y, w = np.concatenate([y_low, y]), np.concatenate([v * y_low, w])
        flat = (math.log1p(math.exp(log_lo) / kappa) - math.log1p(y0 / kappa)) / LN2
    c = y / kappa
    if theta > 0.0:  # the tail at theta, in the same pass
        c = np.append(c, y0 / kappa)
    z = 2.0 * np.sqrt(c) * np.sqrt(c + 1.0) / math.sqrt(a_bar * b_bar)
    relay_tail = np.minimum(
        z * _scaled_k1(z) * np.exp(-(z + c * (1.0 / a_bar + 1.0 / b_bar))), 1.0)
    with np.errstate(divide="ignore"):  # log1p(-1) = -inf gives 1
        best = -np.expm1(params.num_relays * np.log1p(-relay_tail))  # 1 - (1 - t)^L, tiny t exact
    n = w.size
    # a dot of at most 256 terms: OpenBLAS splits a dot across threads only
    # from about 10k terms on, so this sum's order is the same at any thread count
    excess = float(w @ (best[:n] / (1.0 + c[:n]))) / (kappa * LN2) + flat
    return excess, (float(best[n]) if theta > 0.0 else 1.0)


# e^z K1(z): below K1_SERIES_TOP the series of A&S 9.6.11,
#   z K1(z) = 1 + (z^2/2) sum_k (z^2/4)^k [ln(z/2) - (psi(k+1) + psi(k+2))/2] / (k! (k+1)!),
# whose first omitted term is 6e-18 relative at z = 2, where the sum cancels
# by about 4x; from it on, sqrt(z) e^z K1(z) as a Chebyshev series in w = 4/z - 1,
# fitted against mpmath at 40 digits (tests/test_solver_full_csi.py re-fits
# it). Both hold 7e-16 relative against mpmath.
K1_SERIES_TOP = 2.0
_K1_TERMS = 12
_K1_I = tuple(1.0 / (math.factorial(k) * math.factorial(k + 1)) for k in range(_K1_TERMS))
_K1_PSI = tuple(c * (0.5 * (sum(1.0 / j for j in range(1, k + 1))
                            + sum(1.0 / j for j in range(1, k + 2))) - EULER_GAMMA)
                for k, c in enumerate(_K1_I))
_K1_SERIES_COLS = np.array((_K1_I, _K1_PSI)).T[::-1, :, None].copy()  # for _horner
_K1_CHEB = (
    1.3603130952422213, 0.10392373657681724, -0.002857816859622779,
    0.00019521551847135162, -1.936197974166083e-05, 2.406484947837217e-06,
    -3.5019606030878126e-07, 5.7410841254500495e-08, -1.0345762465678097e-08,
    2.0150497551970347e-09, -4.1903547593419254e-10, 9.218315187605315e-11,
    -2.129967838427791e-11, 5.139639673482343e-12, -1.2891739609498229e-12,
    3.348419666052243e-13, -8.976705182010146e-14, 2.4771544242195988e-14,
    -7.0198370892147685e-15, 2.038703166239861e-15, -6.057047270643018e-16,
    1.8380935752430455e-16, -5.689462849193648e-17, 1.7940510478863572e-17,
    -5.7567444820733025e-18, 1.8778651901623268e-18,
)


def _scaled_k1(z: np.ndarray) -> np.ndarray:
    """e^z K1(z) elementwise for z > 0, with e^z K1(z) = 0 at z = inf."""
    out = np.empty_like(z)
    low = z < K1_SERIES_TOP
    if low.any():
        x = z[low]
        y = 0.25 * x * x
        i_sum, psi_sum = _horner(_K1_SERIES_COLS, y)
        acc = np.log(0.5 * x) * i_sum
        acc -= psi_sum
        acc *= 0.5 * x
        acc += 1.0 / x
        acc *= np.exp(x)
        out[low] = acc
    high = ~low
    if high.any():
        x = z[high]
        w2 = 8.0 / x - 2.0  # 2w
        b1 = b2 = np.zeros_like(x)
        for coef in _K1_CHEB[:0:-1]:  # Clenshaw: b_k = 2w b_{k+1} - b_{k+2} + c_k
            b1, b2 = w2 * b1 - b2 + coef, b1
        out[high] = (0.5 * w2 * b1 - b2 + _K1_CHEB[0]) / np.sqrt(x)
    return out
