"""Contention model: success probabilities and slot-count distributions.

The bulk geometric draw is checked against the literal per-slot reference
``conftest.simulate_contention_slots``.
"""

import numpy as np
import pytest
from scipy import stats as sps

from relaystop import (
    ContentionDeadlockError,
    InvalidParameterError,
    success_prob,
)
from relaystop.contention import sample_contention
from .conftest import simulate_contention_slots


def test_success_prob_values():
    assert success_prob(1, 1.0) == 1.0
    assert success_prob(2, 0.5) == pytest.approx(0.5)
    # 16 * (1/16) * (15/16)^15 = 0.3798124..., frozen from exact arithmetic
    assert success_prob(16, 1.0 / 16.0) == pytest.approx(0.3798124058152457, abs=1e-12)


def test_success_prob_validation():
    with pytest.raises(InvalidParameterError):
        success_prob(0, 0.5)
    with pytest.raises(InvalidParameterError):
        success_prob(2, 0.0)
    with pytest.raises(InvalidParameterError):
        success_prob(2, 1.2)


def test_success_prob_maximized_at_one_over_n():
    for n in (2, 4, 8, 16):
        grid = np.linspace(0.01, 0.99, 197)
        values = [success_prob(n, p) for p in grid]
        best = grid[int(np.argmax(values))]
        assert abs(best - 1.0 / n) <= grid[1] - grid[0]


def test_sample_contention_deterministic_case(rng):
    slots, winners = sample_contention(rng, 1, 1.0, 5, winners=True)
    assert slots.tolist() == [1] * 5
    assert winners.tolist() == [1] * 5
    assert sample_contention(rng, 1, 1.0, 3).tolist() == [1] * 3


def test_sample_contention_geometric_mean(rng):
    draws = sample_contention(rng, 2, 0.5, 10**6)
    assert draws.mean() == pytest.approx(2.0, abs=0.01)


def test_sample_contention_winner_uniform(rng):
    _, winners = sample_contention(rng, 4, 0.25, 10**6, winners=True)
    for w in (1, 2, 3, 4):
        assert (winners == w).mean() == pytest.approx(0.25, abs=0.002)


def test_sample_contention_elapsed_expectation(rng):
    n, p, slot = 4, 0.2, 0.5
    elapsed = slot * sample_contention(rng, n, p, 10**5)
    expected = slot / success_prob(n, p)
    se = elapsed.std(ddof=1) / np.sqrt(elapsed.size)
    assert abs(elapsed.mean() - expected) < 4 * se


def test_sample_contention_bulk_draw_is_the_scalar_sequence():
    # the simulator's stream layout: however a run chunks its slot draws, the
    # k-th slot count is the k-th variate of the contention stream
    bulk = sample_contention(np.random.default_rng(5), 3, 0.3, 1000)
    rng = np.random.default_rng(5)
    pieces = [sample_contention(rng, 3, 0.3, size) for size in (1, 0, 2, 997)]
    assert np.array_equal(np.concatenate(pieces), bulk)
    rng = np.random.default_rng(5)
    assert np.array_equal([sample_contention(rng, 3, 0.3, 1)[0] for _ in range(50)],
                          bulk[:50])


def test_contention_deadlock_raises(rng):
    with pytest.raises(ContentionDeadlockError):
        sample_contention(rng, 2, 1.0, 1)
    with pytest.raises(ContentionDeadlockError):
        simulate_contention_slots(rng, 3, 1.0)


def test_literal_slots_deterministic_case(rng):
    assert simulate_contention_slots(rng, 1, 1.0) == (1, 1)


def test_literal_slots_chi_square_geometric(rng):
    # literal per-slot simulation must follow Geometric(success_prob)
    n, p = 2, 0.5
    ps = success_prob(n, p)
    draws = np.array([simulate_contention_slots(rng, n, p)[0] for _ in range(10**5)])
    kmax = int(draws.max())
    observed = np.bincount(draws, minlength=kmax + 1)[1:]
    probs = ps * (1 - ps) ** (np.arange(1, kmax + 1) - 1)
    # fold the tail so every expected bin count is comfortably > 5
    cut = int(np.searchsorted(np.cumsum(probs), 1 - 50.0 / draws.size))
    obs = np.append(observed[:cut], observed[cut:].sum())
    exp = np.append(probs[:cut], 1.0 - probs[:cut].sum()) * draws.size
    _, pvalue = sps.chisquare(obs, exp)
    assert pvalue > 0.01


def test_literal_slots_winner_uniform(rng):
    winners = np.array([simulate_contention_slots(rng, 3, 0.4)[1]
                        for _ in range(3 * 10**4)])
    for w in (1, 2, 3):
        assert (winners == w).mean() == pytest.approx(1.0 / 3.0, abs=0.02)


def test_literal_slots_mean(rng):
    draws = np.array([simulate_contention_slots(rng, 3, 1.0 / 3.0)[0]
                      for _ in range(10**5)])
    assert draws.mean() == pytest.approx(2.25, rel=0.02)


@pytest.mark.parametrize("n,p", [(2, 0.5), (4, 0.2), (8, 0.1)])
def test_fast_and_literal_agree_in_distribution(rng, n, p):
    m = 2 * 10**4
    fast = sample_contention(rng, n, p, m)
    slow = np.array([simulate_contention_slots(rng, n, p)[0] for _ in range(m)])
    _, pvalue = sps.ks_2samp(fast, slow)
    assert pvalue > 0.01


def test_literal_slot_cap(rng):
    with pytest.raises(ContentionDeadlockError):
        simulate_contention_slots(rng, 2, 0.001, slot_cap=1)
