"""Opportunistic relay channel access: threshold solvers and simulator."""

from .channel import (
    FixedGain,
    RayleighFading,
    SystemParams,
    af_rate,
    rate_saturation,
)
from .contention import (
    sample_contention,
    success_prob,
)
from .errors import (
    CappedPacketError,
    ConfigError,
    ContentionDeadlockError,
    InvalidParameterError,
    PolicyMismatchError,
    RelayStopError,
    SolverFailureError,
)
from .policies import (
    PolicyKind,
    PolicySpec,
    full_csi_decide,
    intuitive_main_decide,
    intuitive_sub_decide,
    optimal_main_decide,
    optimal_sub_decide,
)
from .simulator import (
    SimConfig,
    SimStats,
    run_scenario1,
    run_scenario2,
)
from .solver import (
    EstimatorConfig,
    SubLayerStats,
    ThresholdSolution,
    default_observations,
    full_csi_rate_sampler,
    oracle_threshold_search,
    solve_full_csi_lambda,
    solve_main_gamma_intuitive,
    solve_main_gamma_optimal,
    solve_sub_layer_batch,
    solve_sub_w_batch,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
