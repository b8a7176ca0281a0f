"""Selection probability alpha and its partials up to second order."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import dblquad

from truncdep import CopulaFamily, ModelParams, StudyDesign, _quad, joint_density
from truncdep.copula import _density, _gb_survival_pieces
from truncdep.selection import _FIXED_LIMIT, _alpha_and_grad, alpha

from oracles import alpha_oracle, fd_gradient

GB = CopulaFamily.GUMBEL_BARNETT
FGM = CopulaFamily.FGM

# Reference scenario grid: all Gumbel-Barnett, four designs.
TABLE_CONFIGS = [
    (24.0, 3.0, 0.05, 0.001),
    (24.0, 3.0, 0.05, 0.01),
    (24.0, 3.0, 0.1, 0.001),
    (24.0, 3.0, 0.1, 0.01),
    (24.0, 48.0, 0.05, 0.001),
    (24.0, 48.0, 0.05, 0.01),
    (24.0, 48.0, 0.1, 0.001),
    (24.0, 48.0, 0.1, 0.01),
    (48.0, 3.0, 0.05, 0.001),
    (48.0, 3.0, 0.05, 0.01),
    (48.0, 3.0, 0.1, 0.001),
    (48.0, 3.0, 0.1, 0.01),
    (24.0, 2.0, 0.05, 0.001),
    (24.0, 2.0, 0.05, 0.01),
    (24.0, 2.0, 0.1, 0.001),
    (24.0, 2.0, 0.1, 0.01),
]


def test_alpha_published_table_points():
    # The G=24, s=48 rows; the companion (24, 3, 0.05, 0.001) table entry
    # disagrees with quadrature and is covered by the acceptance suite.
    a = alpha(ModelParams(GB, 0.05, 0.001), StudyDesign(24.0, 48.0))
    assert a == pytest.approx(0.5294, abs=5e-5)
    a = alpha(ModelParams(GB, 0.1, 0.001), StudyDesign(24.0, 48.0))
    assert a == pytest.approx(0.37575, abs=5e-5)


def test_alpha_fgm_independence_closed_form():
    theta, big_g, s = 0.1, 24.0, 3.0
    expected = (
        (1.0 / (theta * big_g))
        * -math.expm1(-theta * s)
        * -math.expm1(-theta * big_g)
    )
    got = alpha(ModelParams(FGM, theta, 0.0), StudyDesign(big_g, s))
    assert got == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("big_g,s,theta,vt", TABLE_CONFIGS)
def test_alpha_matches_independent_oracle(big_g, s, theta, vt):
    params = ModelParams(GB, theta, vt)
    design = StudyDesign(big_g, s)
    got = alpha(params, design)
    assert 0.0 < got < 1.0
    assert got == pytest.approx(alpha_oracle(params, design), abs=1e-10)


@given(
    theta=st.floats(0.01, 2.0),
    vt=st.floats(-0.9, 0.9),
)
def test_alpha_fgm_matches_oracle(theta, vt):
    params = ModelParams(FGM, theta, vt)
    design = StudyDesign(24.0, 3.0)
    assert alpha(params, design) == pytest.approx(
        alpha_oracle(params, design), rel=1e-9
    )


def test_alpha_matches_oracle_off_table():
    for big_g, s, theta, vt in [
        (24.0, 3.0, 0.05, 0.001),
        (24.0, 48.0, 0.1, 0.01),
        (48.0, 3.0, 0.05, 0.9),  # strong dependence, off the table grid
        (24.0, 2.0, 1.5, 0.5),  # theta*G = 36: fast decay, cached rule
    ]:
        params = ModelParams(GB, theta, vt)
        design = StudyDesign(big_g, s)
        assert alpha(params, design) == pytest.approx(
            alpha_oracle(params, design), abs=1e-10
        )


def test_alpha_is_the_integral_of_the_joint_density_over_d():
    # Production integrates the survival difference, not the density, so
    # this ties alpha to joint_density: a 2-D adaptive rule over D.
    params = ModelParams(GB, 0.08, 0.3)
    design = StudyDesign(24.0, 3.0)
    value, _ = dblquad(
        lambda x, t: joint_density(params, design, x, t),
        0.0,
        design.big_g,
        lambda t: t,
        lambda t: t + design.s,
        epsabs=1e-12,
        epsrel=1e-12,
    )
    assert alpha(params, design) == pytest.approx(value, abs=1e-10)


def test_alpha_large_rate_stays_accurate():
    # rate-adapted grid regime: theta*G far beyond the fixed rule
    for theta in (5.0, 50.0, 1000.0):
        params = ModelParams(GB, theta, 0.3)
        design = StudyDesign(24.0, 3.0)
        got = alpha(params, design)
        assert got == pytest.approx(alpha_oracle(params, design), rel=1e-9)
    # long windows: theta*(G+s) = 67.2 and 60.5 but theta*G = 7.2 and 20.2,
    # so the cached rule applies; the rate-adapted y range, cut at
    # 90/(theta*G), would drop mass
    for big_g, s, theta in ((24.0, 200.0, 0.3), (24.0, 48.0, 0.84)):
        params = ModelParams(GB, theta, 0.0)
        design = StudyDesign(big_g, s)
        got = alpha(params, design)
        assert got == pytest.approx(alpha_oracle(params, design), rel=1e-9)


def test_alpha_increasing_in_window_length():
    params = ModelParams(GB, 0.05, 0.2)
    values = [alpha(params, StudyDesign(24.0, s)) for s in (1.0, 2.0, 4.0, 8.0, 48.0)]
    assert all(a < b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# alpha with its first and second partials (``_alpha_and_grad``)


def test_bundle_alpha_field_consistent():
    design = StudyDesign(24.0, 3.0)
    for family, theta, vt in ((GB, 0.05, 0.0), (FGM, 0.1, 0.1)):
        value = _alpha_and_grad(family, theta, vt, 24.0, 3.0, 2)[0]
        assert value == alpha(ModelParams(family, theta, vt), design)


@pytest.mark.parametrize(
    "family,theta,vt,big_g,s",
    [
        (FGM, 0.1, 0.1, 24.0, 3.0),
        (GB, 0.1, 0.5, 48.0, 3.0),
        (GB, 0.05, 0.001, 24.0, 3.0),
        (GB, 5.0, 0.3, 24.0, 3.0),  # theta*G = 120: the rate-adapted rule
        (FGM, 0.3, -0.6, 24.0, 48.0),
    ],
)
def test_bundle_gradient_matches_fd(family, theta, vt, big_g, s):
    design = StudyDesign(big_g, s)
    _, d_theta, d_vartheta = _alpha_and_grad(family, theta, vt, big_g, s, 1)

    def a_of(z):
        return alpha(ModelParams(family, float(z[0]), float(z[1])), design)

    fd = fd_gradient(a_of, np.array([theta, vt]), np.array([1e-6 * theta, 1e-6]))
    assert d_theta == pytest.approx(fd[0], rel=1e-6)
    assert d_vartheta == pytest.approx(fd[1], rel=1e-6, abs=1e-12)


def test_table_grid_runtime_under_budget():
    start = time.perf_counter()
    for big_g, s, theta, vt in TABLE_CONFIGS:
        alpha(ModelParams(GB, theta, vt), StudyDesign(big_g, s))
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize(
    "family,theta,vt,big_g,s",
    [
        (GB, 0.08, 0.0, 24.0, 3.0),
        (GB, 0.05, 0.3, 24.0, 48.0),
        (GB, 0.3, 0.8, 24.0, 3.0),
        (GB, 5.0, 0.3, 24.0, 3.0),  # theta*G = 120: the rate-adapted rule
        (FGM, 0.1, 0.1, 24.0, 3.0),
        (FGM, 0.3, -0.6, 24.0, 48.0),
    ],
)
def test_bundle_second_partials_match_fd_of_gradient(family, theta, vt, big_g, s):
    *_, d2_tt, d2_tv, d2_vv = _alpha_and_grad(family, theta, vt, big_g, s, 2)

    def grad(th, v):
        return np.array(_alpha_and_grad(family, th, v, big_g, s, 1)[1:])

    h_t, h_v = 1e-5 * theta, 1e-5
    col_t = (grad(theta + h_t, vt) - grad(theta - h_t, vt)) / (2.0 * h_t)
    col_v = (grad(theta, vt + h_v) - grad(theta, vt - h_v)) / (2.0 * h_v)
    assert d2_tt == pytest.approx(col_t[0], rel=1e-6)
    assert d2_tv == pytest.approx(col_t[1], rel=1e-6)
    assert d2_tv == pytest.approx(col_v[0], rel=1e-6)
    assert d2_vv == pytest.approx(col_v[1], rel=1e-6, abs=1e-12)


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize(
    "theta,vt",
    # theta*G = 1.92 and 1.2 run on the cached 160-node rule; 72 on the
    # rate-adapted one.
    [(0.08, 0.3), (0.05, 0.0), (3.0, 0.4)],
)
def test_gb_fields_reduce_as_one_sum_per_field(order, theta, vt):
    # The stacked reduction gives each field the bits of its own np.sum.
    big_g, s = 24.0, 3.0
    if theta * big_g <= _FIXED_LIMIT:
        L, t, w = _quad.domain_grid(big_g)
    else:
        L, t, w = _quad.domain_grid_for_rate(big_g, theta)
    pieces = _gb_survival_pieces(theta, vt, np.stack((t, t + s)), L, order)
    f, grad, hess = _density(pieces, 1.0, order)
    fields = (f, *(grad or ()), *(hess or ()))
    expected = tuple(float(np.sum(w * (v[0] - v[1]))) for v in fields)
    got = _alpha_and_grad(GB, theta, vt, big_g, s, order)
    assert len(got) == (1, 3, 6)[order]
    assert all(type(v) is float for v in got)
    assert np.array(got).tobytes() == np.array(expected).tobytes()
