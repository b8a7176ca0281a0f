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

Both tests are one Wald body: z = sqrt(n_hat) * vt_hat / sigma_vt, with
sigma_vt^2 read from ``cov_hat[1, 1]`` of the fit whose information the
test uses, so the information is inverted once, by the fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .copula import CopulaFamily, ModelParams, StudyDesign
from .errors import DomainError, InvariantError
from .estimation import FitResult, fit_restricted
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
    and boundary=True (vt_hat = 0) comes with statistic 0 and p-value
    0.5; the FGM interior test is two-sided and its p-value ranges over
    (0, 1].
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


def _wald(fit: FitResult, info_fit: FitResult, level: float, two_sided: bool) -> TestResult:
    """The Wald z-test of vartheta = 0 at ``fit``'s estimate, with
    sigma_vt^2 = ``info_fit.cov_hat[1, 1]``; that is NaN exactly when the
    fit found ``info_hat`` not invertible.  One-sided, p = Phibar(z), which
    is 0.5 on the boundary vt_hat = 0; two-sided, p = 2 * Phibar(|z|).
    """
    var = float(info_fit.cov_hat[1, 1])
    if math.isnan(var):
        raise InvariantError("information matrix is not invertible")
    if not (math.isfinite(var) and var > 0.0):
        raise InvariantError(f"nonpositive vartheta variance {var!r}")
    sigma = math.sqrt(var)
    vt_hat = fit.params_hat.vartheta
    z = math.sqrt(fit.n_hat) * vt_hat / sigma
    p = 2.0 * _phibar(abs(z)) if two_sided else _phibar(z)
    return TestResult(
        statistic=z,
        p_value=p,
        reject=p <= level,
        level=level,
        sigma_vartheta_hat=sigma,
        boundary=not two_sided and vt_hat == 0.0,
    )


def wald_boundary_test(
    fit: FitResult, sample: TruncatedSample, level: float
) -> TestResult:
    """One-sided independence test for the Gumbel-Barnett family.

    ``fit`` is the unrestricted fit supplying vt_hat and n_hat; the
    vartheta variance comes from the information estimated at the
    restricted estimator: a boundary fit's own ``cov_hat``, since its
    theta_hat is the restricted estimator, or else ``fit_restricted``'s.
    Levels must lie in (0, 0.5): the null already places probability 0.5
    on the boundary outcome, so larger levels are meaningless.
    """
    if fit.params_hat.family is not CopulaFamily.GUMBEL_BARNETT:
        raise DomainError("boundary test applies to the Gumbel-Barnett family only")
    if not 0.0 < level < 0.5:
        raise DomainError(f"level={level!r} outside (0, 0.5)")
    info_fit = fit if fit.at_boundary else fit_restricted(sample, fit.params_hat.family)
    return _wald(fit, info_fit, level, two_sided=False)


def wald_interior_test_fgm(
    fit: FitResult, sample: TruncatedSample, level: float
) -> TestResult:
    """Two-sided Wald z-test for the interior FGM parameter, with the
    variance from the fit's own ``cov_hat``."""
    if fit.params_hat.family is not CopulaFamily.FGM:
        raise DomainError("interior test applies to the FGM family only")
    if not 0.0 < level < 1.0:
        raise DomainError(f"level={level!r} outside (0, 1)")
    return _wald(fit, fit, level, two_sided=True)


def life_expectancy_fgm(params: ModelParams, design: StudyDesign, t: float) -> float:
    """E[X | T = t] = (1/theta) * (1 - vartheta*(1 - 2t/G)/2) under FGM."""
    if params.family is not CopulaFamily.FGM:
        raise DomainError("conditional life expectancy is the FGM-model formula")
    if not 0.0 <= t <= design.big_g:
        raise DomainError(f"t={t!r} outside [0, G]")
    return (1.0 / params.theta) * (
        1.0 - 0.5 * params.vartheta * (1.0 - 2.0 * t / design.big_g)
    )


def trend_report_fgm(fit: FitResult | ModelParams, design: StudyDesign) -> TrendReport:
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
        annual_change_days=change * DAYS_PER_YEAR,
    )
