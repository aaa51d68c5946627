"""Stopping policies as predicates over observations.

A policy is its kind, valued as the CLI's scenario name, and one solved
value (lambda* or gamma*). The predicates take the numbers they compare; the
simulator picks the rule from the kind.

Each rule is one comparison, so it works on a scalar or on a whole block of
observations alike: a scalar input gives a boolean scalar, an array input
gives the elementwise boolean array. All thresholds are inclusive (stop on >=),
matching the rule definitions the thresholds were solved for. Boundary hits
are measure-zero under continuous fading but matter for the deterministic
channel hooks used in tests.

Stop sets: full CSI, a threshold on the best-relay rate; the coupled rule, on
W (which rises in each first-hop gain), then on the relay's rate; the
intuitive rule, on the relay's rate, after a source-level gain that is not
monotone in the first-hop gains at L >= 2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidParameterError
from .solver import SubLayerStats


class PolicyKind(Enum):
    FULL_CSI = "1"
    INTUITIVE_BILEVEL = "2-intuitive"
    OPTIMAL_BILEVEL = "2-optimal"


@dataclass(frozen=True)
class PolicySpec:
    """A solved policy: its kind and its throughput optimum, lambda* or gamma*."""

    kind: PolicyKind
    value: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.value) and self.value >= 0.0):
            raise InvalidParameterError(f"a {self.kind.value} policy's value must be finite and >= 0")


def full_csi_decide(lambda_star, rate):
    """Stop iff the observed best-relay rate reaches 2*lambda_star."""
    return rate >= 2.0 * lambda_star


def intuitive_main_decide(gamma, stats: SubLayerStats, t_data: float):
    """Source-level rule of the intuitive scheme, relay chosen later."""
    return (stats.threshold * stats.expected_time - gamma * stats.expected_time
            >= gamma * t_data / 2.0)


def intuitive_sub_decide(threshold, rate_m):
    """Relay-level rule of the intuitive scheme: stop iff rate >= threshold."""
    if not np.isfinite(threshold).all():
        raise InvalidParameterError("threshold must be finite")
    return rate_m >= threshold


def optimal_main_decide(gamma, w_star, t_data: float):
    """Source-level rule of the coupled scheme: stop iff W >= (T/2) gamma."""
    return w_star >= 0.5 * t_data * gamma


def optimal_sub_decide(gamma, w_star, rate_m, t_data: float):
    """Relay-level rule of the coupled scheme: stop iff (T/2) rate >= W + (T/2) gamma."""
    half_t = 0.5 * t_data
    return half_t * rate_m >= w_star + half_t * gamma
