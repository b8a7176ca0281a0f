"""Profile-likelihood fitting and information estimation."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from oracles import lbfgsb_multistart_oracle, numpy_projected_newton

import truncdep
from truncdep import (
    CopulaFamily,
    DataError,
    ModelParams,
    StudyDesign,
    TruncatedSample,
    fisher_info_hat,
    fit,
    fit_restricted,
    log_likelihood,
    simulate_truncated,
    vartheta_range,
)
from truncdep.copula import EPS_THETA
from truncdep.estimation import _FACE_BOX, _inv2, _objective_factory, minimize
from truncdep.likelihood import _obs_terms
from truncdep.selection import _alpha_and_grad

GB = CopulaFamily.GUMBEL_BARNETT
FGM = CopulaFamily.FGM
DESIGN = StudyDesign(24.0, 3.0)


def test_fit_recovers_gb(gb_sample):
    _, _, sample = gb_sample
    result = fit(sample, GB)
    assert result.converged
    assert not result.at_boundary
    assert abs(result.params_hat.theta - 0.05) <= 3.0 * result.se[0]
    assert abs(result.params_hat.vartheta - 0.3) <= 3.0 * result.se[1]
    assert abs(result.n_hat - 30_000) < 3_000
    assert math.isfinite(result.log_lik)


def test_fit_recovers_fgm(fgm_sample):
    _, _, sample = fgm_sample
    result = fit(sample, FGM)
    assert result.converged
    assert not result.at_boundary
    assert abs(result.params_hat.theta - 0.08) <= 3.0 * result.se[0]
    assert abs(result.params_hat.vartheta - 0.4) <= 3.0 * result.se[1]


def _independent_boundary_sample():
    params0 = ModelParams(GB, 0.05, 0.0)
    return simulate_truncated(params0, DESIGN, 30_000, np.random.default_rng(41))


@pytest.mark.parametrize("case", ["gb_interior", "gb_boundary", "fgm"])
def test_fit_matches_multistart_lbfgsb_reference(case, request):
    if case == "gb_boundary":
        family, sample = GB, _independent_boundary_sample()
    else:
        family = GB if case == "gb_interior" else FGM
        sample = request.getfixturevalue("gb_sample" if family is GB else "fgm_sample")[2]
    x, t = sample.x_arr, sample.t_arr
    neg_lp = _objective_factory(family, DESIGN, x, t)
    starts = (1e-3, 0.3, 0.7) if family is GB else (-0.5, 0.0, 0.5)
    bounds = [(EPS_THETA, 1.0 / EPS_THETA), vartheta_range(family)]
    z_ref, lp_ref = lbfgsb_multistart_oracle(
        neg_lp, sample.m / float(np.sum(x)), starts, bounds, 1e-8 * sample.m
    )
    result = fit(sample, family)
    z = np.array([result.params_hat.theta, result.params_hat.vartheta])
    assert result.converged
    assert result.at_boundary is (case == "gb_boundary")
    assert z[0] == pytest.approx(z_ref[0], rel=1e-6)
    assert z[1] == pytest.approx(z_ref[1], abs=1e-6)
    assert -neg_lp(z)[0] >= lp_ref - 1e-8


def test_fit_restricted_pins_vartheta(gb_sample):
    _, _, sample = gb_sample
    result = fit_restricted(sample, GB)
    assert result.params_hat.vartheta == 0.0
    assert not result.at_boundary
    assert result.converged
    assert result.se[0] > 0.0


def test_restricted_nested_in_full(gb_sample):
    _, _, sample = gb_sample
    full = fit(sample, GB)
    restricted = fit_restricted(sample, GB)
    assert full.log_lik >= restricted.log_lik - 1e-6


def test_fit_boundary_snap_on_independent_data():
    sample = _independent_boundary_sample()
    result = fit(sample, GB)
    assert result.converged
    assert result.at_boundary
    assert result.params_hat.vartheta == 0.0
    # theta error from the restricted one-parameter information
    expected_se = math.sqrt(1.0 / (result.info_hat[0, 0] * result.n_hat))
    assert result.se[0] == pytest.approx(expected_se, rel=1e-12)
    assert abs(result.params_hat.theta - 0.05) <= 3.0 * result.se[0]


def test_boundary_fit_theta_is_restricted_theta():
    # Replications 391 and 479 of the acceptance boundary-mass scenario
    # (GB, theta 0.08, vartheta 0, n 1e4, seed 701).  On both the
    # two-parameter optimizer stops just off the face vartheta = 0 with
    # theta short of stationarity there (theta-score 9.6e-5 against a
    # tolerance of 9.45e-5, and -0.10), so snapping vartheta alone
    # fails the boundary KKT check.
    params0 = ModelParams(GB, 0.08, 0.0)
    for rep in (391, 479):
        rng = np.random.default_rng(np.random.SeedSequence(701, spawn_key=(rep,)))
        sample = simulate_truncated(params0, DESIGN, 10_000, rng)
        result = fit(sample, GB)
        restricted = fit_restricted(sample, GB)
        assert result.converged is True
        assert result.at_boundary is True
        assert result.params_hat.theta == restricted.params_hat.theta
        assert result.log_lik >= restricted.log_lik


def _upper_bound_fgm_sample():
    params0 = ModelParams(FGM, 0.08, 0.5)
    return simulate_truncated(params0, DESIGN, 500, np.random.default_rng(1001))


def test_fit_on_upper_vartheta_bound_converges_with_outward_score():
    # M = 47: the profile likelihood keeps rising in vartheta up to the
    # edge of the FGM box, so the maximum sits on the upper bound and
    # KKT needs the vartheta-score to point out of the box there.
    sample = _upper_bound_fgm_sample()
    assert sample.m == 47
    result = fit(sample, FGM)
    assert result.converged
    assert result.params_hat.vartheta == vartheta_range(FGM)[1]
    z = np.array([result.params_hat.theta, result.params_hat.vartheta])
    sum_psi = -_objective_factory(FGM, DESIGN, sample.x_arr, sample.t_arr)(z)[1]
    assert sum_psi[1] > 0.0
    assert abs(sum_psi[0]) <= 1e-7 * sample.m


def test_boundary_fit_checks_the_kkt_sign(monkeypatch):
    # A snap tolerance of 1 forces dependent data onto the face
    # vartheta = 0, where the vartheta score points into the box: the
    # face solve converges, and the sign condition alone fails the fit.
    monkeypatch.setattr("truncdep.estimation._SNAP_TOL", 1.0)
    params0 = ModelParams(GB, 0.08, 0.3)
    sample = simulate_truncated(params0, DESIGN, 30_000, np.random.default_rng(5))
    result = fit(sample, GB)
    assert result.at_boundary is True
    assert result.converged is False
    assert fit_restricted(sample, GB).converged is True


def test_fit_on_the_theta_box_bound_is_not_converged():
    # Small theta*G: the two-parameter solve runs into theta = EPS_THETA,
    # a numerical guard, where the outward theta score held it as a KKT
    # point.  The face solve stops there too.
    params0 = ModelParams(GB, 0.02, 0.5)
    sample = simulate_truncated(params0, DESIGN, 40_000, np.random.default_rng(1001))
    assert sample.m == 1675
    result = fit(sample, GB)
    assert result.params_hat.theta == EPS_THETA
    assert result.converged is False
    restricted = fit_restricted(sample, GB)
    assert restricted.params_hat.theta == EPS_THETA
    assert restricted.converged is False


def _bits(v):
    return np.asarray(v, dtype=float).tobytes()


def _assert_same_solve(got, ref):
    z, grad, _, nit, converged = got
    z_ref, grad_ref, _, nit_ref, converged_ref = ref
    assert _bits(z) == _bits(z_ref)
    assert _bits(grad) == _bits(grad_ref)
    assert (nit, converged) == (nit_ref, converged_ref)


@pytest.mark.parametrize(
    "case", ["gb_interior", "gb_boundary", "gb_face", "fgm", "fgm_upper_bound"]
)
def test_minimize_matches_the_numpy_reference_bit_for_bit(case, request):
    if case in ("gb_boundary", "gb_face"):
        family, sample = GB, _independent_boundary_sample()
    elif case == "fgm_upper_bound":
        family, sample = FGM, _upper_bound_fgm_sample()
    else:
        family = GB if case == "gb_interior" else FGM
        sample = request.getfixturevalue("gb_sample" if family is GB else "fgm_sample")[2]
    neg_lp = _objective_factory(family, DESIGN, sample.x_arr, sample.t_arr)
    naive = sample.m / float(np.sum(sample.x_arr))
    if case == "gb_face":
        z0, (lo, hi) = (naive, 0.0), _FACE_BOX
    else:
        vt_lo, vt_hi = vartheta_range(family)
        z0 = (naive, 0.01 if family is GB else 0.0)
        lo, hi = (EPS_THETA, vt_lo), (1.0 / EPS_THETA, vt_hi)
    got = minimize(neg_lp, z0, lo, hi, sample.m)
    _assert_same_solve(got, numpy_projected_newton(neg_lp, z0, lo, hi, sample.m))


def _quadratic(nan_at):
    """-l_p = (z - c)' A (z - c) / 2 with NaN injected where ``nan_at(z)``
    names: "f", "grad0", "grad1" or "hess", or an infinite theta-theta
    curvature for "h00_inf"."""
    a = np.array([[2.0, 0.5], [0.5, 1.0]])
    c = np.array([0.3, 0.6])

    def neg_lp(z):
        d = np.asarray(z, dtype=float) - c
        f, grad, hess = float(0.5 * d @ a @ d), a @ d, a.copy()
        where = nan_at(np.asarray(z, dtype=float))
        if where == "f":
            f = math.nan
        elif where in ("grad0", "grad1"):
            grad[int(where[-1])] = math.nan
        elif where == "hess":
            hess[:] = math.nan
        elif where == "h00_inf":
            hess[0, 0] = math.inf
        return f, grad, hess, None

    return neg_lp


@pytest.mark.parametrize(
    "nan_at",
    [
        # NaN score at the start, on a free coordinate and on one at its bound.
        lambda z: "grad0" if z[0] == 1.0 else None,
        lambda z: "grad1" if z[1] == 0.0 else None,
        # NaN objective past a line the minimizer sits beyond.
        lambda z: "f" if z[0] < 0.5 else None,
        # NaN curvature everywhere, or an infinite theta-theta entry that
        # leaves a positive determinant but no finite inverse: the scaled
        # gradient step, with unit scale where the curvature is not finite.
        lambda z: "hess",
        lambda z: "h00_inf",
        # NaN theta score everywhere: at (0.9, 0.3) the vartheta score is
        # below tolerance, and the NaN must still win the max-norm.
        lambda z: "grad0",
        # NaN score at every point right of a line: the size never shrinks.
        lambda z: "grad1" if z[0] > 0.35 else None,
    ],
)
def test_minimize_handles_nan_as_the_numpy_reference_does(nan_at):
    neg_lp = _quadratic(nan_at)
    lo, hi = (0.0, 0.0), (1.0, 1.0)
    # A NaN start stays NaN: np.clip passes it through rather than landing
    # it on a bound, where the objective is finite.
    for z0 in ((1.0, 0.0), (1.0, 0.2), (0.9, 0.9), (0.9, 0.3), (math.nan, 0.5)):
        got = minimize(neg_lp, z0, lo, hi, 1)
        with np.errstate(invalid="ignore"):
            ref = numpy_projected_newton(neg_lp, z0, lo, hi, 1)
        _assert_same_solve(got, ref)


def test_fit_reports_nonconvergence_when_out_of_iterations(monkeypatch):
    monkeypatch.setattr("truncdep.estimation._MAX_ITER", 1)
    result = fit(_independent_boundary_sample(), GB)
    assert result.converged is False
    assert result.iterations <= 2


@pytest.mark.parametrize("case", ["gb_interior", "gb_boundary", "fgm", "restricted"])
def test_fit_reads_its_result_from_the_last_evaluation(case, request, monkeypatch):
    if case == "gb_boundary":
        family, sample = GB, _independent_boundary_sample()
    else:
        family = FGM if case == "fgm" else GB
        sample = request.getfixturevalue("fgm_sample" if family is FGM else "gb_sample")[2]
    calls = {"obs_terms": 0, "alpha": 0, "objective": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in ("truncdep.estimation", "truncdep.likelihood"):
        monkeypatch.setattr(f"{module}._obs_terms", counted(_obs_terms, "obs_terms"))
    monkeypatch.setattr(
        "truncdep.estimation.alpha", counted(truncdep.estimation.alpha, "alpha")
    )
    monkeypatch.setattr(
        "truncdep.estimation._objective_factory",
        lambda *args: counted(_objective_factory(*args), "objective"),
    )
    result = (fit_restricted if case == "restricted" else fit)(sample, family)
    assert result.at_boundary is (case == "gb_boundary")
    # No point is evaluated twice; n_hat still goes through the hooked alpha.
    assert calls["obs_terms"] == calls["objective"] > 0
    assert calls["alpha"] == 1
    assert result.log_lik == log_likelihood(result.params_hat, result.n_hat, sample)
    assert np.array_equal(result.info_hat, fisher_info_hat(result.params_hat, sample))


def test_importing_the_package_loads_no_scipy():
    code = (
        "import sys, truncdep; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = str(Path(truncdep.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


def test_fit_interior_on_independent_data():
    params0 = ModelParams(GB, 0.05, 0.0)
    sample = simulate_truncated(params0, DESIGN, 30_000, np.random.default_rng(40))
    result = fit(sample, GB)
    assert result.converged
    assert not result.at_boundary
    assert result.params_hat.vartheta > 0.0
    np.linalg.cholesky(result.cov_hat)


def test_fgm_fit_never_flags_boundary():
    params0 = ModelParams(FGM, 0.08, 0.0)
    sample = simulate_truncated(params0, DESIGN, 20_000, np.random.default_rng(9))
    result = fit(sample, FGM)
    assert result.converged
    assert not result.at_boundary
    assert abs(result.params_hat.vartheta - 0.0) <= 3.0 * result.se[1]


def test_fit_restricted_recovers_theta_on_independent_data():
    params0 = ModelParams(GB, 0.08, 0.0)
    sample = simulate_truncated(params0, DESIGN, 300_000, np.random.default_rng(77))
    result = fit_restricted(sample, GB)
    assert result.converged
    assert abs(result.params_hat.theta - 0.08) <= 3.0 * result.se[0]


def test_fit_rejects_tiny_samples():
    sample = TruncatedSample.from_arrays(np.array([2.0]), np.array([1.0]), DESIGN)
    with pytest.raises(DataError):
        fit(sample, GB)
    empty = TruncatedSample.from_arrays(np.array([]), np.array([]), DESIGN)
    with pytest.raises(DataError):
        fit_restricted(empty, GB)


def test_fit_rejects_degenerate_sample():
    x = np.full(50, 2.0)
    t = np.full(50, 1.0)
    sample = TruncatedSample.from_arrays(x, t, DESIGN)
    with pytest.raises(DataError):
        fit(sample, GB)


def test_se_shrinks_with_sample_size():
    params0 = ModelParams(GB, 0.05, 0.3)
    small = simulate_truncated(params0, DESIGN, 20_000, np.random.default_rng(11))
    big = simulate_truncated(params0, DESIGN, 80_000, np.random.default_rng(12))
    se_small = fit(small, GB).se
    se_big = fit(big, GB).se
    assert se_small[0] > 1.5 * se_big[0]
    assert se_small[1] > 1.5 * se_big[1]


def test_fisher_info_hat_is_symmetric_positive_definite(gb_sample):
    _, _, sample = gb_sample
    result = fit(sample, GB)
    info = fisher_info_hat(result.params_hat, sample)
    assert info[0, 1] == info[1, 0]
    np.linalg.cholesky(info)
    np.testing.assert_array_equal(info, result.info_hat)


def _total_score(family, theta, vt, sample):
    _, (g1, g2), _ = _obs_terms(
        family, theta, vt, sample.design.big_g, sample.x_arr, sample.t_arr, 1
    )
    a, d_t, d_v = _alpha_and_grad(
        family, theta, vt, sample.design.big_g, sample.design.s, 1
    )
    m = sample.m
    return np.array([float(np.sum(g1)) - m * d_t / a, float(np.sum(g2)) - m * d_v / a])


def test_info_agrees_with_score_jacobian(gb_sample):
    # outer-product and derivative forms of the information estimate the
    # same limit; at M ~ 1600 the two differ by O(1/sqrt(M)) sampling
    # noise, so the comparison is loose (the tight version runs on a
    # far larger sample in the acceptance suite)
    _, _, sample = gb_sample
    result = fit(sample, GB)
    th, vt = result.params_hat.theta, result.params_hat.vartheta
    h_th, h_vt = 1e-5 * th, 1e-5
    jac = np.empty((2, 2))
    jac[:, 0] = (
        _total_score(GB, th + h_th, vt, sample)
        - _total_score(GB, th - h_th, vt, sample)
    ) / (2 * h_th)
    jac[:, 1] = (
        _total_score(GB, th, vt + h_vt, sample)
        - _total_score(GB, th, vt - h_vt, sample)
    ) / (2 * h_vt)
    info_fd = -jac / result.n_hat
    info = result.info_hat
    scale = math.sqrt(info[0, 0] * info[1, 1])
    assert info_fd[0, 0] == pytest.approx(info[0, 0], rel=0.1)
    assert info_fd[1, 1] == pytest.approx(info[1, 1], rel=0.1)
    # the cross entry is near zero on the invariant scale, so its
    # disagreement is bounded by the off-diagonal scale, not relatively
    assert abs(info_fd[0, 1] - info[0, 1]) <= 0.05 * scale


@pytest.mark.parametrize("family,theta,vt", [(GB, 0.08, 0.0), (GB, 0.05, 0.3), (FGM, 0.08, 0.4)])
def test_lp_hessian_matches_fd_jacobian_of_score(family, theta, vt):
    sample = simulate_truncated(
        ModelParams(family, theta, vt), DESIGN, 30_000, np.random.default_rng(5)
    )
    x, t = sample.x_arr, sample.t_arr
    z = np.array([theta, vt])
    exact = -_objective_factory(family, DESIGN, x, t)(z)[2]
    h = np.array([1e-6 * theta, 1e-6])
    jac = np.empty((2, 2))
    for i in range(2):
        zp, zm = z.copy(), z.copy()
        zp[i] += h[i]
        zm[i] -= h[i]
        jac[:, i] = (
            _total_score(family, *zp, sample) - _total_score(family, *zm, sample)
        ) / (2.0 * h[i])
    assert exact[0, 1] == exact[1, 0]
    np.testing.assert_allclose(exact, jac, rtol=1e-6)


def test_inv2_inverts_and_flags_singular_matrices():
    mat = np.array([[4.0, 1.0], [1.0, 3.0]])
    np.testing.assert_allclose(_inv2(mat) @ mat, np.eye(2), atol=1e-15)
    assert _inv2(np.array([[1.0, 2.0], [2.0, 4.0]])) is None
    assert _inv2(np.array([[np.nan, 0.0], [0.0, 1.0]])) is None
