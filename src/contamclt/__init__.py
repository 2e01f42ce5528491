"""Inflated-variance contamination diagnostics for the sample mean.

Sampling model, limit-condition and Lindeberg-index diagnostics, Monte Carlo
replication of the standardized sample mean, and a config-driven experiment
runner with QQ outputs.
"""

__version__ = "0.1.0"

from .model import (  # noqa: F401
    BaseDistribution,
    ContaminationScheme,
    SchemeKind,
    StdLaplace,
    StdNormal,
    StdUniform,
    base_distribution,
)
from .analytic import (  # noqa: F401
    ArrayStats,
    Classification,
    LimitEstimate,
    RegimeCase,
    Trend,
    array_stats,
    classify_power_law,
    closed_form_index,
    condition_a,
    condition_b,
    condition_c,
    kolmogorov_distance_to_normal,
    lindeberg_index_estimate,
    lindeberg_sum,
    lindeberg_upper_bound,
    normal_quantile,
)
from .montecarlo import (  # noqa: F401
    EmpiricalCdf,
    QQPoint,
    ReplicationResult,
    qq_points,
    replicate,
)
from .experiment import (  # noqa: F401
    DEFAULT_SEED,
    ExperimentConfig,
    ExperimentReport,
    run_experiment,
)
