"""Inference for lifetimes observed under dependent double truncation.

A latent lifetime X ~ Exp(theta) and a latent entry time T ~ Unif[0, G]
are coupled by a one-parameter copula (Gumbel-Barnett or FGM); a pair is
observed only when it falls in the region {0 < t < G, t <= x <= t + s}.
The package provides the observable-region density and selection
probability, exact samplers, profile maximum likelihood for
(theta, vartheta), boundary-aware Wald tests for independence, and
Monte Carlo drivers.  ``truncdep.cli`` exposes the same workflow as a
command-line tool.
"""

from .copula import (
    CopulaFamily,
    ModelParams,
    StudyDesign,
    cond_cdf_given_u,
    copula_cdf,
    inv_cond_cdf_given_u,
    joint_cdf,
    joint_density,
    kendall_tau,
    vartheta_range,
)
from .errors import (
    ConvergenceError,
    DataError,
    DomainError,
    InvariantError,
    TruncdepError,
)
from .estimation import FitResult, fisher_info_hat, fit, fit_restricted
from .inference import (
    TestResult,
    TrendReport,
    life_expectancy_fgm,
    trend_report_fgm,
    wald_boundary_test,
    wald_interior_test_fgm,
)
from .likelihood import (
    full_score,
    log_likelihood,
    profile_n,
    profile_score,
)
from .montecarlo import (
    McSummary,
    RepRecord,
    ScenarioSpec,
    hessian_det_scan,
    iter_replications,
    power_curve,
    run_scenario,
    summarize,
)
from .sampling import (
    TruncatedSample,
    simulate_truncated,
)
from .selection import alpha

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "CopulaFamily",
    "DataError",
    "DomainError",
    "FitResult",
    "InvariantError",
    "McSummary",
    "ModelParams",
    "RepRecord",
    "ScenarioSpec",
    "StudyDesign",
    "TestResult",
    "TrendReport",
    "TruncatedSample",
    "TruncdepError",
    "alpha",
    "cond_cdf_given_u",
    "copula_cdf",
    "fisher_info_hat",
    "fit",
    "fit_restricted",
    "full_score",
    "hessian_det_scan",
    "inv_cond_cdf_given_u",
    "iter_replications",
    "joint_cdf",
    "joint_density",
    "kendall_tau",
    "life_expectancy_fgm",
    "log_likelihood",
    "power_curve",
    "profile_n",
    "profile_score",
    "run_scenario",
    "simulate_truncated",
    "summarize",
    "trend_report_fgm",
    "vartheta_range",
    "wald_boundary_test",
    "wald_interior_test_fgm",
]
