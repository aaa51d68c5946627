import numpy as np
import pytest

from relaystop import EstimatorConfig, SystemParams


def make_params(**overrides) -> SystemParams:
    """Default two-source, two-relay configuration used across tests."""
    fields = dict(
        num_sources=2,
        num_relays=2,
        source_power=10.0,
        relay_power=10.0,
        first_hop_mean_gain=1.0,
        second_hop_mean_gain=1.0,
        slot_time=0.1,
        data_time=1.0,
        source_prob=0.5,
        relay_prob=0.5,
    )
    fields.update(overrides)
    return SystemParams(**fields)


def stress_params() -> SystemParams:
    """Near-saturation relay level: most inner Newton rows freeze early."""
    return make_params(num_relays=4, relay_prob=0.25, first_hop_mean_gain=4.0,
                       second_hop_mean_gain=0.25)


def hook_params(**overrides) -> SystemParams:
    """Single source and relay with the worked-example timing constants."""
    fields = dict(
        num_sources=1,
        num_relays=1,
        source_power=1.0,
        relay_power=1.0,
        first_hop_mean_gain=1.0,
        second_hop_mean_gain=1.0,
        slot_time=0.2,
        data_time=2.0,
        source_prob=0.5,
        relay_prob=0.5,
    )
    fields.update(overrides)
    return SystemParams(**fields)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@pytest.fixture
def small_est() -> EstimatorConfig:
    return EstimatorConfig(mc_samples=2000, quad_points=64, seed=5, tol=1e-9)
