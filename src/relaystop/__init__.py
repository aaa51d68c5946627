"""Opportunistic relay channel access: threshold solvers and simulator.

The package namespace holds what the CLI and the benchmark call: the
parameter and hop types, the solvers, the simulators, the types they return
and the errors they raise. The rate formulas (``relaystop.channel``), the
contention draw (``relaystop.contention``) and the stop predicates
(``relaystop.policies``) stay public in their own modules.
"""

from .channel import (FixedGain, RayleighFading, SystemParams, default_observations,
                      full_csi_rate_sampler)
from .contention import success_prob
from .errors import (CappedPacketError, ConfigError, ContentionDeadlockError,
                     InvalidParameterError, RelayStopError, SolverFailureError)
from .policies import PolicyKind, PolicySpec
from .simulator import SimConfig, SimStats, run_scenario1, run_scenario2
from .solver import (EstimatorConfig, SubLayerStats, ThresholdSolution,
                     oracle_threshold_search, solve_full_csi_lambda,
                     solve_main_gamma_intuitive, solve_main_gamma_optimal,
                     solve_sub_layer_batch, solve_sub_w_batch)

__version__ = "0.1.0"

__all__ = [
    # parameters and hop models
    "SystemParams", "RayleighFading", "FixedGain", "EstimatorConfig", "SimConfig",
    "PolicyKind", "PolicySpec",
    # solvers
    "solve_full_csi_lambda", "solve_main_gamma_intuitive", "solve_main_gamma_optimal",
    "solve_sub_layer_batch", "solve_sub_w_batch", "oracle_threshold_search",
    "full_csi_rate_sampler", "default_observations", "success_prob",
    # simulators
    "run_scenario1", "run_scenario2",
    # result types
    "ThresholdSolution", "SubLayerStats", "SimStats",
    # errors
    "RelayStopError", "ConfigError", "InvalidParameterError", "SolverFailureError",
    "ContentionDeadlockError", "CappedPacketError",
]
