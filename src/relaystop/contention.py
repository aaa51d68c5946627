"""Slotted random-access contention.

A slot succeeds when exactly one of n contenders transmits, so the per-slot
success probability is n*p*(1-p)^(n-1) and the slot count to the first
success is geometric. The simulator draws each contention with the
geometric shortcut; the literal per-slot Bernoulli loop is kept as the
distributional reference the tests compare it against.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContentionDeadlockError, InvalidParameterError

DEFAULT_SLOT_CAP = 1_000_000_000


@dataclass(frozen=True)
class ContentionOutcome:
    """One successful contention: slot count, 1-based winner, elapsed time."""

    slots: int
    winner: int
    elapsed: float


def success_prob(n: int, p: float) -> float:
    """Probability that a slot with n contenders at probability p succeeds."""
    if not isinstance(n, int) or n < 1:
        raise InvalidParameterError("n must be an integer >= 1")
    if not (0.0 < p <= 1.0):
        raise InvalidParameterError("p must lie in (0, 1]")
    return float(n * p * (1.0 - p) ** (n - 1))


def sample_contention(rng: np.random.Generator, n: int, p: float,
                      slot_duration: float) -> ContentionOutcome:
    """Draw one contention outcome via the geometric shortcut.

    Slots are geometric with the per-slot success probability; the winner is
    uniform over the contenders, independent of the slot count (contenders
    are exchangeable).
    """
    ps = _positive_success_prob(n, p)
    slots = int(rng.geometric(ps))
    winner = int(rng.integers(1, n + 1))
    return ContentionOutcome(slots, winner, slots * slot_duration)


def simulate_contention_slots(rng: np.random.Generator, n: int, p: float,
                              slot_duration: float,
                              slot_cap: int = DEFAULT_SLOT_CAP) -> ContentionOutcome:
    """Draw one contention outcome by simulating every slot literally."""
    _positive_success_prob(n, p)
    slots = 0
    while slots < slot_cap:
        slots += 1
        contending = rng.random(n) < p
        if int(contending.sum()) == 1:
            winner = int(np.argmax(contending)) + 1
            return ContentionOutcome(slots, winner, slots * slot_duration)
    raise ContentionDeadlockError(
        f"no successful contention within {slot_cap} slots (n={n}, p={p})")


def _positive_success_prob(n: int, p: float) -> float:
    ps = success_prob(n, p)
    if ps <= 0.0:
        raise ContentionDeadlockError(
            f"success probability is 0 for n={n}, p={p}; contention never ends")
    return ps
