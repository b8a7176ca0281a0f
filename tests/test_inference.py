"""Wald tests for the dependence parameter and the FGM trend report."""

import math
from dataclasses import replace

import numpy as np
import pytest

from truncdep import (
    CopulaFamily,
    DomainError,
    FitResult,
    InvariantError,
    ModelParams,
    StudyDesign,
    fisher_info_hat,
    fit,
    fit_restricted,
    life_expectancy_fgm,
    simulate_truncated,
    trend_report_fgm,
    wald_boundary_test,
    wald_interior_test_fgm,
)
from truncdep.estimation import _inv2
from truncdep.inference import _phibar

GB = CopulaFamily.GUMBEL_BARNETT
FGM = CopulaFamily.FGM
DESIGN = StudyDesign(24.0, 3.0)


def synthetic_fit(family, theta, vt, n_hat, sigma_vt):
    info = np.diag([1.0, 1.0 / sigma_vt**2])
    cov = np.linalg.inv(info)
    return FitResult(
        params_hat=ModelParams(family, theta, vt),
        n_hat=n_hat,
        at_boundary=False,
        log_lik=0.0,
        info_hat=info,
        cov_hat=cov,
        se=(math.sqrt(cov[0, 0] / n_hat), math.sqrt(cov[1, 1] / n_hat)),
        converged=True,
        iterations=1,
    )


def test_phibar_reference_points():
    assert _phibar(0.0) == 0.5
    assert _phibar(1.6448536269514722) == pytest.approx(0.05, abs=1e-12)
    assert _phibar(-1.6448536269514722) == pytest.approx(0.95, abs=1e-12)


# ---------------------------------------------------------------------------
# Gumbel-Barnett boundary test


def test_boundary_test_positive_estimate_mechanics(gb_sample):
    # sigma from the restricted information inflates on dependent data,
    # so a medium sample gives a modest statistic; rejection is checked
    # on the larger sample below
    _, _, sample = gb_sample
    result = wald_boundary_test(fit(sample, GB), sample, 0.05)
    assert not result.boundary
    assert result.statistic > 0.0
    assert 0.0 < result.p_value < 0.5
    assert result.p_value == pytest.approx(_phibar(result.statistic), rel=1e-14)
    assert result.reject == (result.p_value <= 0.05)
    assert result.level == 0.05


def test_boundary_test_rejects_on_dependent_data():
    params0 = ModelParams(GB, 0.05, 0.3)
    sample = simulate_truncated(params0, DESIGN, 300_000, np.random.default_rng(77))
    result = wald_boundary_test(fit(sample, GB), sample, 0.05)
    assert not result.boundary
    assert result.statistic > 3.0
    assert result.p_value < 1e-3
    assert result.reject


def test_boundary_estimate_gives_half():
    params0 = ModelParams(GB, 0.05, 0.0)
    sample = simulate_truncated(params0, DESIGN, 30_000, np.random.default_rng(41))
    fitted = fit(sample, GB)
    assert fitted.at_boundary
    result = wald_boundary_test(fitted, sample, 0.05)
    assert result.boundary
    assert result.statistic == 0.0
    assert result.p_value == 0.5
    assert not result.reject
    assert result.sigma_vartheta_hat > 0.0


def test_boundary_test_sigma_comes_from_restricted_fit(gb_sample):
    _, _, sample = gb_sample
    result = wald_boundary_test(fit(sample, GB), sample, 0.01)
    restricted = fit_restricted(sample, GB)
    info0 = fisher_info_hat(restricted.params_hat, sample)
    expected = math.sqrt(np.linalg.inv(info0)[1, 1])
    assert result.sigma_vartheta_hat == pytest.approx(expected, rel=1e-12)


def test_boundary_test_reuses_boundary_fit_information(monkeypatch):
    # A boundary fit's theta_hat is the restricted estimator bit for bit,
    # so the test takes its information without refitting.
    params0 = ModelParams(GB, 0.05, 0.0)
    sample = simulate_truncated(params0, DESIGN, 30_000, np.random.default_rng(41))
    fitted = fit(sample, GB)
    assert fitted.at_boundary
    info0 = fisher_info_hat(fit_restricted(sample, GB).params_hat, sample)
    expected = math.sqrt(np.linalg.inv(info0)[1, 1])

    def no_refit(*args, **kwargs):
        raise AssertionError("boundary fit was refitted")

    monkeypatch.setattr("truncdep.inference.fit_restricted", no_refit)
    result = wald_boundary_test(fitted, sample, 0.05)
    assert result.sigma_vartheta_hat == expected


def test_boundary_test_pvalue_consistent_with_statistic():
    params0 = ModelParams(GB, 0.05, 0.0)
    sample = simulate_truncated(params0, DESIGN, 30_000, np.random.default_rng(40))
    fitted = fit(sample, GB)
    assert not fitted.at_boundary
    result = wald_boundary_test(fitted, sample, 0.05)
    assert 0.0 < result.p_value < 0.5
    assert result.p_value == pytest.approx(_phibar(result.statistic), rel=1e-14)
    assert result.reject == (result.p_value <= 0.05)


def test_boundary_test_level_validation(gb_sample):
    _, _, sample = gb_sample
    fitted = fit(sample, GB)
    for bad in (0.0, 0.5, 0.6, -0.1):
        with pytest.raises(DomainError):
            wald_boundary_test(fitted, sample, bad)


def test_boundary_test_rejects_fgm_fit(fgm_sample):
    _, _, sample = fgm_sample
    with pytest.raises(DomainError):
        wald_boundary_test(fit(sample, FGM), sample, 0.05)


# ---------------------------------------------------------------------------
# FGM interior test


def test_interior_test_rejects_on_dependent_data(fgm_sample):
    _, _, sample = fgm_sample
    fitted = fit(sample, FGM)
    result = wald_interior_test_fgm(fitted, sample, 0.05)
    assert result.statistic > 0.0
    assert result.p_value < 1e-4
    assert result.reject
    assert not result.boundary
    assert result.p_value == pytest.approx(
        2.0 * _phibar(abs(result.statistic)), rel=1e-14
    )


def test_interior_test_zero_estimate_gives_p_one(fgm_sample):
    _, _, sample = fgm_sample
    fitted = synthetic_fit(FGM, 0.1, 0.0, 10_000, 1.0)
    result = wald_interior_test_fgm(fitted, sample, 0.05)
    assert result.statistic == 0.0
    assert result.p_value == 1.0
    assert not result.reject


def test_interior_test_at_critical_value(fgm_sample):
    _, _, sample = fgm_sample
    fitted = synthetic_fit(FGM, 0.1, 1.96 / 100.0, 10_000, 1.0)
    result = wald_interior_test_fgm(fitted, sample, 0.05)
    assert result.statistic == pytest.approx(1.96, rel=1e-12)
    assert result.p_value == pytest.approx(0.05, abs=1e-4)
    negated = synthetic_fit(FGM, 0.1, -1.96 / 100.0, 10_000, 1.0)
    mirrored = wald_interior_test_fgm(negated, sample, 0.05)
    assert mirrored.p_value == pytest.approx(result.p_value, rel=1e-14)
    assert mirrored.statistic == -result.statistic


def test_interior_test_level_validation(fgm_sample):
    _, _, sample = fgm_sample
    fitted = fit(sample, FGM)
    for bad in (0.0, 1.0, 1.5):
        with pytest.raises(DomainError):
            wald_interior_test_fgm(fitted, sample, bad)


def test_interior_test_rejects_gb_fit(gb_sample):
    _, _, sample = gb_sample
    with pytest.raises(DomainError):
        wald_interior_test_fgm(fit(sample, GB), sample, 0.05)


def test_interior_test_end_to_end_strong_dependence():
    params0 = ModelParams(FGM, 0.1, 0.5)
    sample = simulate_truncated(params0, DESIGN, 100_000, np.random.default_rng(55))
    fitted = fit(sample, FGM)
    result = wald_interior_test_fgm(fitted, sample, 0.05)
    assert result.reject
    assert abs(fitted.params_hat.vartheta - 0.5) <= 3.0 * fitted.se[1]


# ---------------------------------------------------------------------------
# life expectancy and trend


def test_life_expectancy_midpoint_drops_dependence():
    params = ModelParams(FGM, 0.08, 0.7)
    assert life_expectancy_fgm(params, DESIGN, 12.0) == pytest.approx(
        12.5, rel=1e-14
    )


def test_life_expectancy_endpoints():
    params = ModelParams(FGM, 0.1, 0.4)
    assert life_expectancy_fgm(params, DESIGN, 0.0) == pytest.approx(10.0 * 0.8)
    assert life_expectancy_fgm(params, DESIGN, 24.0) == pytest.approx(10.0 * 1.2)


def test_life_expectancy_increases_in_t_for_positive_dependence():
    params = ModelParams(FGM, 0.1, 0.4)
    grid = np.linspace(0.0, 24.0, 9)
    vals = [life_expectancy_fgm(params, DESIGN, float(t)) for t in grid]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_life_expectancy_validation():
    with pytest.raises(DomainError):
        life_expectancy_fgm(ModelParams(FGM, 0.1, 0.4), DESIGN, -0.5)
    with pytest.raises(DomainError):
        life_expectancy_fgm(ModelParams(GB, 0.1, 0.4), DESIGN, 1.0)


def test_trend_report_published_estimate():
    report = trend_report_fgm(ModelParams(FGM, 0.0817, 0.10), DESIGN)
    assert report.annual_change == pytest.approx(0.10 / (0.0817 * 24.0), rel=1e-14)
    assert 18.0 < report.annual_change_days < 19.0
    assert report.life_expectancy_at_mid == pytest.approx(1.0 / 0.0817, rel=1e-14)


def test_trend_report_zero_dependence_is_flat():
    report = trend_report_fgm(ModelParams(FGM, 0.05, 0.0), DESIGN)
    assert report.annual_change == 0.0
    assert report.annual_change_days == 0.0
    assert report.life_expectancy_at_mid == pytest.approx(20.0)


def test_trend_report_accepts_fit_result(fgm_sample):
    _, _, sample = fgm_sample
    fitted = fit(sample, FGM)
    from_fit = trend_report_fgm(fitted, DESIGN)
    from_params = trend_report_fgm(fitted.params_hat, DESIGN)
    assert from_fit == from_params


def test_trend_report_rejects_gb():
    with pytest.raises(DomainError):
        trend_report_fgm(ModelParams(GB, 0.1, 0.2), DESIGN)


@pytest.mark.parametrize(
    "info,message",
    [
        ([[1.0, 2.0], [2.0, 4.0]], "information matrix is not invertible"),
        ([[np.nan, 0.0], [0.0, 1.0]], "information matrix is not invertible"),
        ([[1.0, 0.0], [0.0, -1.0]], "nonpositive vartheta variance -1.0"),
    ],
    ids=["info0", "info1", "info2"],
)
def test_sigma_from_info_rejects_unusable_information(info, message, gb_sample):
    # Both tests read sigma from cov_hat, which the fit stores as the
    # inverse of info_hat, or all NaN where there is none.
    _, _, sample = gb_sample
    info = np.array(info)
    cov = _inv2(info)
    cov = np.full((2, 2), np.nan) if cov is None else cov
    for family, test in ((GB, wald_boundary_test), (FGM, wald_interior_test_fgm)):
        fitted = replace(
            synthetic_fit(family, 0.1, 0.0, 10_000, 1.0),
            at_boundary=family is GB,
            info_hat=info,
            cov_hat=cov,
        )
        with pytest.raises(InvariantError, match=message):
            test(fitted, sample, 0.05)
