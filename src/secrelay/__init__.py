"""Secrecy capacity of two-hop relay-assisted wiretap channels.

Closed-form AF and DF secrecy capacities with optimal relay gains, the
parametric ratio-of-quadratics solver behind the AF result, a genie-aided
converse bound that certifies it, and Monte Carlo sweeps over Rayleigh
fading. The `secrelay` CLI exposes compute/sweep/montecarlo/verify commands.
"""

from .af import (
    SecrecyResult,
    af_achievable_rate_at,
    af_secrecy_capacity,
    mutual_info_destination,
    mutual_info_eavesdropper,
)
from .channel import (
    ChannelRealization,
    DerivedParams,
    PowerBudget,
    Strategy,
    db_to_linear,
    derive_params,
    gain_domain,
    surrogate_channel,
)
from .converse import (
    BoundEvaluation,
    DegenerateDistributionError,
    NoiseCorrelation,
    PSDViolationError,
    bound_objective,
    gain_ratio_identity_residual,
    genie_upper_bound,
    lmmse_error_variance,
    select_phi,
)
from .df import (
    df_secrecy_capacity,
    second_hop_secrecy_capacity,
    source_relay_capacity,
)
from .fractional import (
    LambdaSolution,
    RatioQuadraticProblem,
    SolverBranch,
    eval_F,
    eval_f,
    grid_oracle,
    lambda_hat_bisection,
    lambda_hat_closed_form,
    maximize_on_interval,
    pi_of_lambda,
    x_of_lambda,
)
from .montecarlo import (
    EnsembleConfig,
    SweepRecord,
    af_batch,
    df_batch,
    ergodic_sweep,
    sample_channel,
)

__version__ = "0.1.0"

__all__ = [
    "BoundEvaluation",
    "ChannelRealization",
    "DegenerateDistributionError",
    "DerivedParams",
    "EnsembleConfig",
    "LambdaSolution",
    "NoiseCorrelation",
    "PSDViolationError",
    "PowerBudget",
    "RatioQuadraticProblem",
    "SecrecyResult",
    "SolverBranch",
    "Strategy",
    "SweepRecord",
    "af_achievable_rate_at",
    "af_batch",
    "af_secrecy_capacity",
    "bound_objective",
    "db_to_linear",
    "derive_params",
    "df_batch",
    "df_secrecy_capacity",
    "ergodic_sweep",
    "eval_F",
    "eval_f",
    "gain_domain",
    "gain_ratio_identity_residual",
    "genie_upper_bound",
    "grid_oracle",
    "lambda_hat_bisection",
    "lambda_hat_closed_form",
    "lmmse_error_variance",
    "maximize_on_interval",
    "mutual_info_destination",
    "mutual_info_eavesdropper",
    "pi_of_lambda",
    "sample_channel",
    "second_hop_secrecy_capacity",
    "select_phi",
    "source_relay_capacity",
    "surrogate_channel",
    "x_of_lambda",
]
