"""Stopping policies as predicates over observations.

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

from .errors import InvalidParameterError, PolicyMismatchError
from .solver import SubLayerStats


class PolicyKind(Enum):
    FULL_CSI = "full-csi"
    INTUITIVE_BILEVEL = "intuitive-bilevel"
    OPTIMAL_BILEVEL = "optimal-bilevel"


@dataclass(frozen=True)
class PolicySpec:
    """A solved policy: its kind plus the thresholds that kind reads.

    lambda_star is the full-CSI throughput optimum (the rate threshold is
    twice it); gamma_star is the two-part scheme's throughput optimum.
    """

    kind: PolicyKind
    lambda_star: float | None = None
    gamma_star: float | None = None

    def __post_init__(self) -> None:
        name = "lambda_star" if self.kind is PolicyKind.FULL_CSI else "gamma_star"
        value = getattr(self, name)
        if value is None or not (math.isfinite(value) and value >= 0.0):
            raise InvalidParameterError(f"{name} must be finite and >= 0 for this policy kind")


def _require_kind(spec: PolicySpec, kind: PolicyKind) -> None:
    if spec.kind is not kind:
        raise PolicyMismatchError(f"expected a {kind.value} policy, got {spec.kind.value}")


def full_csi_decide(spec: PolicySpec, rate):
    """Stop iff the observed best-relay rate reaches 2*lambda_star."""
    _require_kind(spec, PolicyKind.FULL_CSI)
    return rate >= 2.0 * spec.lambda_star


def intuitive_main_decide(spec: PolicySpec, stats: SubLayerStats, t_data: float):
    """Source-level rule of the intuitive scheme, relay chosen later."""
    _require_kind(spec, PolicyKind.INTUITIVE_BILEVEL)
    g = spec.gamma_star
    return stats.threshold * stats.expected_time - g * stats.expected_time >= g * t_data / 2.0


def intuitive_sub_decide(threshold, rate_m):
    """Relay-level rule of the intuitive scheme: stop iff rate >= threshold."""
    if not np.isfinite(threshold).all():
        raise InvalidParameterError("threshold must be finite")
    return rate_m >= threshold


def optimal_main_decide(spec: PolicySpec, w_star, t_data: float):
    """Source-level rule of the coupled scheme: stop iff W >= (T/2) gamma*."""
    _require_kind(spec, PolicyKind.OPTIMAL_BILEVEL)
    return w_star >= 0.5 * t_data * spec.gamma_star


def optimal_sub_decide(spec: PolicySpec, w_star, rate_m, t_data: float):
    """Relay-level rule of the coupled scheme."""
    _require_kind(spec, PolicyKind.OPTIMAL_BILEVEL)
    half_t = 0.5 * t_data
    return half_t * rate_m >= w_star + half_t * spec.gamma_star
