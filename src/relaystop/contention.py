"""Slotted random-access contention.

A slot succeeds when exactly one of n contenders transmits, so the per-slot
success probability is n*p*(1-p)^(n-1) and the slot count to the first
success is geometric. The simulator draws contentions in bulk with the
geometric shortcut; the tests check it against a literal per-slot Bernoulli
loop.
"""
from __future__ import annotations

import numpy as np

from .errors import ContentionDeadlockError, InvalidParameterError

def success_prob(n: int, p: float) -> float:
    """Probability that a slot with n contenders at probability p succeeds."""
    if not isinstance(n, int) or n < 1:
        raise InvalidParameterError("n must be an integer >= 1")
    if not (0.0 < p <= 1.0):
        raise InvalidParameterError("p must lie in (0, 1]")
    return float(n * p * (1.0 - p) ** (n - 1))


def sample_contention(rng: np.random.Generator, n: int, p: float, size: int,
                      winners: bool = False):
    """Draw ``size`` independent contentions via the geometric shortcut.

    Returns the slot counts, geometric with the per-slot success probability.
    With ``winners``, returns (slot counts, 1-based winners): the winners are
    uniform over the contenders, independent of the slot counts (contenders
    are exchangeable), and drawn after all the slot counts. A draw of k slot
    counts takes the same variates as k draws of one slot count.
    """
    slots = rng.geometric(_positive_success_prob(n, p), size)
    return (slots, rng.integers(1, n + 1, size)) if winners else slots


def _positive_success_prob(n: int, p: float) -> float:
    ps = success_prob(n, p)
    if ps <= 0.0:
        raise ContentionDeadlockError(
            f"success probability is 0 for n={n}, p={p}; contention never ends")
    return ps
