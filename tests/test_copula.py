"""Copula CDF, conditionals, inversion, densities, joint CDF, Kendall's tau."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate

from truncdep import (
    CopulaFamily,
    DomainError,
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
from truncdep.copula import _density, _gb_cond_cdf, _gb_survival_pieces

from oracles import (
    central_diff,
    cond_cdf_oracle,
    copula_cdf_oracle,
    inv_cond_oracle,
    latent_density_oracle,
)

GB = CopulaFamily.GUMBEL_BARNETT
FGM = CopulaFamily.FGM

unit_open = st.floats(0.01, 0.99)
gb_vt = st.floats(0.0, 0.999)
fgm_vt = st.floats(-0.999, 0.999)


# ---------------------------------------------------------------------------
# copula_cdf


def test_cdf_independence_is_product():
    assert copula_cdf(GB, 0.5, 0.5, 0.0) == 0.25


def test_cdf_uniform_margin_at_v_one():
    assert copula_cdf(GB, 0.3, 1.0, 0.7) == 0.3


def test_cdf_gb_closed_form_point():
    # frozen from the direct formula, cross-checked by integrating the
    # copula density over [0, 0.5]^2 (agreement to 1e-12)
    assert copula_cdf(GB, 0.5, 0.5, 0.5) == pytest.approx(
        0.19661242613985133, abs=1e-12
    )


@given(u=unit_open, v=unit_open, vt=gb_vt)
def test_cdf_gb_matches_oracle(u, v, vt):
    assert copula_cdf(GB, u, v, vt) == pytest.approx(
        copula_cdf_oracle(GB, u, v, vt), abs=1e-12
    )


@given(u=unit_open, v=unit_open, vt=fgm_vt)
def test_cdf_fgm_matches_oracle(u, v, vt):
    assert copula_cdf(FGM, u, v, vt) == pytest.approx(
        copula_cdf_oracle(FGM, u, v, vt), abs=1e-12
    )


@given(
    family=st.sampled_from([GB, FGM]),
    u=st.floats(0.0, 1.0),
    v=st.floats(0.0, 1.0),
    vt=st.floats(0.0, 0.999),
)
def test_cdf_grounded_and_frechet(family, u, v, vt):
    c = copula_cdf(family, u, v, vt)
    assert max(u + v - 1.0, 0.0) - 1e-12 <= c <= min(u, v) + 1e-12
    assert copula_cdf(family, u, 0.0, vt) == 0.0
    assert copula_cdf(family, 1.0, v, vt) == pytest.approx(v, abs=1e-15)


@given(
    family=st.sampled_from([GB, FGM]),
    u1=unit_open,
    u2=unit_open,
    v1=unit_open,
    v2=unit_open,
    vt=st.floats(0.0, 0.99),
)
def test_cdf_two_increasing(family, u1, u2, v1, v2, vt):
    ua, ub = sorted((u1, u2))
    va, vb = sorted((v1, v2))
    mass = (
        copula_cdf(family, ub, vb, vt)
        - copula_cdf(family, ua, vb, vt)
        - copula_cdf(family, ub, va, vt)
        + copula_cdf(family, ua, va, vt)
    )
    assert mass >= -1e-12


def test_cdf_rejects_bad_inputs():
    with pytest.raises(DomainError):
        copula_cdf(GB, -0.1, 0.5, 0.2)
    with pytest.raises(DomainError):
        copula_cdf(GB, 0.5, 0.5, -0.2)
    with pytest.raises(DomainError):
        copula_cdf(FGM, 0.5, 0.5, 1.5)


# ---------------------------------------------------------------------------
# conditional CDF and its inverse


@given(v=st.floats(0.0, 1.0))
def test_cond_cdf_independence_identity(v):
    assert cond_cdf_given_u(GB, 0.4, v, 0.0) == pytest.approx(v, abs=1e-15)


def test_cond_cdf_upper_boundary():
    assert cond_cdf_given_u(GB, 0.4, 1.0, 0.8) == 1.0


def test_cond_cdf_fd_point():
    # frozen; equals the central difference of copula_cdf in u (1e-7 step)
    got = cond_cdf_given_u(GB, 0.4, 0.6, 0.8)
    assert got == pytest.approx(0.5233008720418181, abs=1e-12)
    fd = central_diff(lambda u: copula_cdf_oracle(GB, u, 0.6, 0.8), 0.4, 1e-7)
    assert got == pytest.approx(fd, abs=1e-6)


@given(
    family=st.sampled_from([GB, FGM]),
    u=unit_open,
    v=unit_open,
    vt=st.floats(0.0, 0.99),
)
def test_cond_cdf_matches_fd_of_cdf(family, u, v, vt):
    fd = central_diff(lambda uu: copula_cdf_oracle(family, uu, v, vt), u, 1e-7)
    assert cond_cdf_given_u(family, u, v, vt) == pytest.approx(fd, abs=1e-6)


@given(p=unit_open)
def test_inv_cond_independence_identity(p):
    assert inv_cond_cdf_given_u(GB, 0.3, p, 0.0) == pytest.approx(p, abs=1e-14)


def test_inv_cond_bisection_point():
    got = inv_cond_cdf_given_u(GB, 0.5, 0.5, 0.9)
    assert got == pytest.approx(0.5237378439547591, abs=1e-10)
    assert got == pytest.approx(inv_cond_oracle(GB, 0.5, 0.5, 0.9), abs=1e-10)


def test_inv_cond_roundtrip_grid():
    grid = np.linspace(0.04, 0.96, 20)
    for family, vt in [(GB, 0.85), (GB, 0.2), (FGM, -0.7), (FGM, 0.6)]:
        for u in grid:
            for p in grid:
                v = inv_cond_cdf_given_u(family, float(u), float(p), vt)
                assert cond_cdf_given_u(family, float(u), v, vt) == pytest.approx(
                    float(p), abs=1e-10
                )


@given(u=unit_open, p=unit_open, vt=st.floats(0.0, 0.999))
def test_inv_cond_gb_matches_bisection(u, p, vt):
    assert inv_cond_cdf_given_u(GB, u, p, vt) == pytest.approx(
        inv_cond_oracle(GB, u, p, vt), abs=1e-9
    )


# ---------------------------------------------------------------------------
# joint density of the latent pair


def test_density_independence_factorizes():
    params = ModelParams(GB, 0.1, 0.0)
    design = StudyDesign(24.0, 3.0)
    expected = (0.1 / 24.0) * math.exp(-0.5)
    assert joint_density(params, design, 5.0, 10.0) == pytest.approx(
        expected, rel=1e-14
    )


def test_density_fgm_at_origin_limit():
    params = ModelParams(FGM, 0.1, 0.1)
    design = StudyDesign(24.0, 3.0)
    got = joint_density(params, design, 1e-12, 1e-12)
    assert got == pytest.approx((0.1 / 24.0) * 1.1, rel=1e-9)


@pytest.mark.parametrize("theta", [0.05, 0.1])
@pytest.mark.parametrize("vt", [0.0, 0.5, 0.9])
def test_density_normalizes_over_latent_domain(theta, vt):
    params = ModelParams(GB, theta, vt)
    design = StudyDesign(24.0, 3.0)
    total, err = integrate.dblquad(
        lambda t, x: joint_density(params, design, x, t),
        0.0,
        60.0 / theta,
        0.0,
        24.0,
        epsabs=1e-9,
        epsrel=1e-9,
    )
    assert err < 1e-7
    assert total == pytest.approx(1.0, abs=1e-6)


@given(
    x=st.floats(0.1, 40.0),
    t=st.floats(0.1, 23.9),
    vt=st.floats(0.0, 0.95),
)
def test_density_gb_matches_copula_times_margins(x, t, vt):
    params = ModelParams(GB, 0.08, vt)
    design = StudyDesign(24.0, 3.0)
    assert joint_density(params, design, x, t) == pytest.approx(
        latent_density_oracle(params, design, x, t), rel=1e-10
    )


@given(
    x=st.floats(0.1, 40.0),
    t=st.floats(0.1, 23.9),
    vt=st.floats(-0.95, 0.95),
)
def test_density_fgm_matches_copula_times_margins(x, t, vt):
    params = ModelParams(FGM, 0.08, vt)
    design = StudyDesign(24.0, 3.0)
    assert joint_density(params, design, x, t) == pytest.approx(
        latent_density_oracle(params, design, x, t), rel=1e-10
    )


@pytest.mark.parametrize("theta", [0.001, 0.08, 5.0])
@pytest.mark.parametrize("vt", [0.0, 0.3, 0.999])
def test_gb_survival_pieces_are_one_minus_the_conditional_cdf(theta, vt):
    # S(u | t) = 1 - P{X <= u | T = t} = 1 - dC/dv at (F(u), t/G), which
    # by symmetry is _gb_cond_cdf with the roles of a and b swapped.
    u = np.linspace(0.0, 60.0, 31)[:, None]
    L = np.log1p(-np.linspace(0.0, 0.999, 19))[None, :]
    pieces = _gb_survival_pieces(theta, vt, u, L, 0)
    survival = _density(pieces, 1.0, 0)[0]
    expected = 1.0 - _gb_cond_cdf(L, -theta * u, vt)
    assert np.max(np.abs(survival - expected)) <= 1e-15


# ---------------------------------------------------------------------------
# joint CDF


def test_joint_cdf_t_beyond_g_is_lifetime_margin():
    params = ModelParams(GB, 0.1, 0.5)
    design = StudyDesign(24.0, 3.0)
    assert joint_cdf(params, design, 10.0, 30.0) == pytest.approx(
        -math.expm1(-1.0), rel=1e-14
    )


def test_joint_cdf_zero_at_x_zero():
    params = ModelParams(GB, 0.07, 0.3)
    assert joint_cdf(params, StudyDesign(24.0, 3.0), 0.0, 12.0) == 0.0


def test_joint_cdf_fgm_is_the_copula_at_the_margins():
    params = ModelParams(FGM, 0.1, -0.6)
    design = StudyDesign(24.0, 3.0)
    for x, t in [(0.5, 1.0), (10.0, 12.0), (40.0, 23.9)]:
        want = copula_cdf_oracle(FGM, -math.expm1(-0.1 * x), t / 24.0, -0.6)
        assert joint_cdf(params, design, x, t) == pytest.approx(want, rel=1e-14)
    assert joint_cdf(params, design, 10.0, 24.0) == -math.expm1(-1.0)
    assert joint_cdf(params, design, 10.0, 30.0) == -math.expm1(-1.0)
    assert joint_cdf(params, design, 0.0, 12.0) == 0.0
    assert joint_cdf(params, design, -1.0, 12.0) == 0.0


def test_joint_cdf_quadrature_point():
    # frozen dblquad of the latent density over [0,10] x [0,12]
    params = ModelParams(GB, 0.1, 0.5)
    design = StudyDesign(24.0, 3.0)
    assert joint_cdf(params, design, 10.0, 12.0) == pytest.approx(
        0.2621855825842799, abs=1e-9
    )


# ---------------------------------------------------------------------------
# Kendall's tau


def test_tau_independence():
    assert kendall_tau(GB, 0.0) == pytest.approx(0.0, abs=1e-8)


def test_tau_gb_small_parameter_values():
    assert kendall_tau(GB, 0.001) == pytest.approx(-0.0005, abs=1e-4)
    assert kendall_tau(GB, 0.01) == pytest.approx(-0.005, abs=1e-4)


def test_tau_fgm_closed_form():
    assert kendall_tau(FGM, 1.0) == 2.0 / 9.0
    assert kendall_tau(FGM, 0.45) == pytest.approx(0.1, rel=1e-15)
    assert kendall_tau(FGM, -0.9) == -0.2


def test_tau_gb_range_and_monotonicity():
    grid = [kendall_tau(GB, vt) for vt in np.arange(0.0, 1.0, 0.1)]
    assert all(a >= b - 1e-12 for a, b in zip(grid, grid[1:]))
    assert kendall_tau(GB, vartheta_range(GB)[1]) == pytest.approx(-0.361, abs=2e-3)
    assert kendall_tau(GB, 1.0) == pytest.approx(-0.361, abs=2e-3)


def test_tau_domain_is_copula_hull():
    assert kendall_tau(FGM, -1.0) == -2.0 / 9.0
    with pytest.raises(DomainError):
        kendall_tau(GB, -0.1)
    with pytest.raises(DomainError):
        kendall_tau(FGM, 1.0001)


# ---------------------------------------------------------------------------
# parameter containers


def test_model_params_validates_box():
    with pytest.raises(DomainError):
        ModelParams(GB, 0.0, 0.1)
    with pytest.raises(DomainError):
        ModelParams(GB, 0.05, -0.01)
    with pytest.raises(DomainError):
        ModelParams(FGM, 0.05, 1.0)
    with pytest.raises(DomainError):
        ModelParams("gb", 0.05, 0.1)


def test_study_design_validates():
    with pytest.raises(DomainError):
        StudyDesign(0.0, 3.0)
    with pytest.raises(DomainError):
        StudyDesign(24.0, math.inf)
