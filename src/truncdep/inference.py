"""Independence tests and the FGM life-expectancy trend report.

The Gumbel-Barnett independence test sits on the boundary of the
parameter space: under H0 (vartheta = 0) the estimator lands exactly on
the boundary with asymptotic probability 1/2 and is positive half-normal
otherwise.  The resulting p-value is

    p = P(mixture >= observed) = Phibar(sqrt(n) * vt_hat / sigma_vt),

which is 0.5 exactly when vt_hat = 0 and decreases continuously from
there; rejection at level < 0.5 therefore requires a strictly positive
estimate.  The information matrix is estimated at the restricted
estimator (theta_hat0, 0), i.e. under H0.

The FGM parameter is interior, so its test is a standard two-sided
Wald z-test at the unrestricted fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .copula import CopulaFamily, ModelParams, StudyDesign
from .errors import DomainError, InvariantError
from .estimation import FitResult, _inv2, fit_restricted
from .sampling import TruncatedSample

__all__ = [
    "TestResult",
    "TrendReport",
    "wald_boundary_test",
    "wald_interior_test_fgm",
    "trend_report_fgm",
    "life_expectancy_fgm",
]

DAYS_PER_YEAR = 365.25


@dataclass(frozen=True)
class TestResult:
    """Outcome of a Wald-type test on vartheta.

    For the one-sided boundary construction p_value lies in (0, 0.5],
    with boundary=True forcing statistic 0 and p-value 0.5; the FGM
    interior test is two-sided and its p-value ranges over (0, 1].
    """

    statistic: float
    p_value: float
    reject: bool
    level: float
    sigma_vartheta_hat: float
    boundary: bool


@dataclass(frozen=True)
class TrendReport:
    """Cohort trend implied by an FGM fit.

    ``annual_change`` is vartheta_hat/(theta_hat*G) in years per calendar
    year; positive values mean later birth cohorts have lower life
    expectancy (an annual decrease), matching the sign convention of the
    conditional expectation E[X | T = t] = (1/theta)(1 - vt(1 - 2t/G)/2),
    which increases in the age-at-study-start t when vt > 0.
    """

    life_expectancy_at_mid: float
    annual_change: float
    annual_change_days: float


def _phibar(z: float) -> float:
    """Standard normal upper tail P(Z > z)."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _sigma_from_info(info: np.ndarray) -> float:
    cov = _inv2(info)
    if cov is None:
        raise InvariantError("information matrix is not invertible")
    var = float(cov[1, 1])
    if not (math.isfinite(var) and var > 0.0):
        raise InvariantError(f"nonpositive vartheta variance {var!r}")
    return math.sqrt(var)


def wald_boundary_test(
    fit: FitResult, sample: TruncatedSample, level: float
) -> TestResult:
    """One-sided independence test for the Gumbel-Barnett family.

    ``fit`` is the unrestricted fit supplying vt_hat and n_hat; the
    vartheta variance comes from the information estimated at the
    restricted estimator: a boundary fit's own ``info_hat``, since its
    theta_hat is the restricted estimator, or else ``fit_restricted``'s.
    Levels must lie in (0, 0.5): the null already places probability 0.5
    on the boundary outcome, so larger levels are meaningless.
    """
    if fit.params_hat.family is not CopulaFamily.GUMBEL_BARNETT:
        raise DomainError("boundary test applies to the Gumbel-Barnett family only")
    if not 0.0 < level < 0.5:
        raise DomainError(f"level={level!r} outside (0, 0.5)")
    if fit.at_boundary:
        info0 = fit.info_hat
    else:
        info0 = fit_restricted(sample, CopulaFamily.GUMBEL_BARNETT).info_hat
    sigma = _sigma_from_info(info0)
    vt_hat = fit.params_hat.vartheta
    if vt_hat == 0.0:
        return TestResult(
            statistic=0.0,
            p_value=0.5,
            reject=False,
            level=level,
            sigma_vartheta_hat=sigma,
            boundary=True,
        )
    z = math.sqrt(fit.n_hat) * vt_hat / sigma
    p = _phibar(z)
    return TestResult(
        statistic=z,
        p_value=p,
        reject=p <= level,
        level=level,
        sigma_vartheta_hat=sigma,
        boundary=False,
    )


def wald_interior_test_fgm(
    fit: FitResult, sample: TruncatedSample, level: float
) -> TestResult:
    """Two-sided Wald z-test for the interior FGM parameter."""
    if fit.params_hat.family is not CopulaFamily.FGM:
        raise DomainError("interior test applies to the FGM family only")
    if not 0.0 < level < 1.0:
        raise DomainError(f"level={level!r} outside (0, 1)")
    sigma = _sigma_from_info(fit.info_hat)
    vt_hat = fit.params_hat.vartheta
    z = math.sqrt(fit.n_hat) * vt_hat / sigma
    p = 2.0 * _phibar(abs(z))
    return TestResult(
        statistic=z,
        p_value=p,
        reject=p <= level,
        level=level,
        sigma_vartheta_hat=sigma,
        boundary=False,
    )


def life_expectancy_fgm(params: ModelParams, design: StudyDesign, t: float) -> float:
    """E[X | T = t] = (1/theta) * (1 - vartheta*(1 - 2t/G)/2) under FGM."""
    if params.family is not CopulaFamily.FGM:
        raise DomainError("conditional life expectancy is the FGM-model formula")
    if not 0.0 <= t <= design.big_g:
        raise DomainError(f"t={t!r} outside [0, G]")
    return (1.0 / params.theta) * (
        1.0 - 0.5 * params.vartheta * (1.0 - 2.0 * t / design.big_g)
    )


def trend_report_fgm(
    fit: FitResult | ModelParams,
    design: StudyDesign,
    *,
    days_per_year: float = DAYS_PER_YEAR,
) -> TrendReport:
    """Life-expectancy level and cohort trend implied by an FGM fit.

    Accepts a FitResult or a bare ModelParams (useful for reporting at
    externally given estimates).
    """
    params = fit.params_hat if isinstance(fit, FitResult) else fit
    if params.family is not CopulaFamily.FGM:
        raise DomainError("trend report applies to the FGM family only")
    change = params.vartheta / (params.theta * design.big_g)
    return TrendReport(
        life_expectancy_at_mid=life_expectancy_fgm(params, design, design.big_g / 2.0),
        annual_change=change,
        annual_change_days=change * days_per_year,
    )
