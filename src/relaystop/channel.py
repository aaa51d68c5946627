"""Two-hop relay channel model: gain sampling and amplify-and-forward rates.

Rates are in bits/s/Hz, times in arbitrary consistent units. Squared channel
gains are sampled directly as exponential variates (the squared magnitude of
a zero-mean complex Gaussian); phases never enter a rate formula, so they are
never materialized. Relay indices are 1-based throughout, matching node
numbering in the protocol.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError

LN2 = math.log(2.0)

# Rates saturate long before gains this large; the cap only keeps products
# finite for adversarial inputs.
GAIN_CAP = 1e300


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
        _check_contention_prob("source_prob", self.source_prob, self.num_sources)
        if self.relay_prob is not None:
            _check_contention_prob("relay_prob", self.relay_prob, self.num_relays)

    def require_relay_prob(self) -> float:
        if self.relay_prob is None:
            raise InvalidParameterError(
                "relay_prob is required for two-part (relay contention) operation")
        return self.relay_prob


def _check_contention_prob(name: str, p: float, n: int) -> None:
    if not (0.0 < p <= 1.0):
        raise InvalidParameterError(f"{name} must lie in (0, 1]")
    # p == 1 with more than one contender makes every slot collide.
    if p == 1.0 and n > 1:
        raise InvalidParameterError(
            f"{name} = 1 is only allowed with a single contender")


@dataclass(frozen=True)
class RayleighFading:
    """Squared-magnitude fading gain: exponential with the given mean."""

    mean_gain: float

    def __post_init__(self) -> None:
        if not (self.mean_gain > 0.0) or not math.isfinite(self.mean_gain):
            raise InvalidParameterError("mean_gain must be finite and > 0")

    def sample(self, rng: np.random.Generator, size=None):
        return rng.exponential(self.mean_gain, size)


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
    return ps, pr


def _clip_gains(name: str, values):
    arr = np.asarray(values, dtype=float)
    if np.any(arr < 0.0) or np.any(np.isnan(arr)):
        raise InvalidParameterError(f"{name} must be >= 0")
    return np.minimum(arr, GAIN_CAP)
