"""Full likelihood, profiled sample size, and score functions."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from truncdep import (
    CopulaFamily,
    DomainError,
    ModelParams,
    StudyDesign,
    TruncatedSample,
    alpha,
    full_score,
    joint_density,
    log_likelihood,
    profile_n,
    profile_score,
)
from truncdep.likelihood import _obs_terms
from truncdep.selection import _alpha_and_grad

from oracles import fd_gradient, profile_n_candidates

GB = CopulaFamily.GUMBEL_BARNETT
FGM = CopulaFamily.FGM
DESIGN = StudyDesign(24.0, 3.0)


def empty_sample(design=DESIGN):
    return TruncatedSample.from_arrays(np.array([]), np.array([]), design)


def random_sample(family, theta, vt, n, seed):
    from truncdep import simulate_truncated

    params = ModelParams(family, theta, vt)
    return params, simulate_truncated(params, DESIGN, n, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# log_likelihood


def test_loglik_empty_sample_reduces_to_penalty():
    params = ModelParams(GB, 0.1, 0.2)
    expected = (24.0 + 3.0) * 24.0 - 150.0 * alpha(params, DESIGN)
    assert log_likelihood(params, 150.0, empty_sample()) == pytest.approx(
        expected, rel=1e-14
    )


def test_loglik_single_observation_hand_expansion():
    params = ModelParams(GB, 0.1, 0.0)
    sample = TruncatedSample.from_arrays(np.array([2.0]), np.array([1.0]), DESIGN)
    expected = (
        math.log(100.0 * (0.1 / 24.0) * math.exp(-0.2))
        + 27.0 * 24.0
        - 100.0 * alpha(params, DESIGN)
    )
    assert log_likelihood(params, 100.0, sample) == pytest.approx(expected, rel=1e-14)


def test_loglik_additive_in_observations():
    params, sample = random_sample(GB, 0.08, 0.4, 4000, 5)
    half = sample.m // 2
    part_a = TruncatedSample.from_arrays(
        sample.x_arr[:half], sample.t_arr[:half], DESIGN
    )
    part_b = TruncatedSample.from_arrays(
        sample.x_arr[half:], sample.t_arr[half:], DESIGN
    )
    n = 9000.0
    shared = (24.0 + 3.0) * 24.0 - n * alpha(params, DESIGN)
    total = log_likelihood(params, n, sample)
    assert total == pytest.approx(
        log_likelihood(params, n, part_a) + log_likelihood(params, n, part_b) - shared,
        rel=1e-12,
    )


def test_loglik_rejects_bad_n():
    params = ModelParams(GB, 0.1, 0.2)
    with pytest.raises(DomainError):
        log_likelihood(params, 0.0, empty_sample())
    with pytest.raises(DomainError):
        log_likelihood(params, math.nan, empty_sample())


# ---------------------------------------------------------------------------
# profile_n


def test_profile_n_spec_points():
    assert profile_n(10, 0.1) == 99
    assert profile_n(3, 0.4) == 7


def test_profile_n_validation():
    with pytest.raises(DomainError):
        profile_n(0, 0.5)
    with pytest.raises(DomainError):
        profile_n(10, 0.0)
    with pytest.raises(DomainError):
        profile_n(10, 1.0)


@given(m=st.integers(1, 5000), a=st.floats(0.005, 0.99))
def test_profile_n_is_binomial_argmax(m, a):
    assert profile_n(m, a) in profile_n_candidates(m, a)


def test_profile_n_exact_tie_takes_smaller():
    # m/alpha = 440 exactly; the binomial objective ties at 439 and 440
    assert profile_n(55, 0.125) == 439


@given(m=st.integers(1, 2000), a=st.floats(0.01, 0.95))
def test_profile_n_beats_smaller_neighbor(m, a):
    # One-sided optimality under the Poisson-form objective; the upper
    # neighbor can win by O(alpha^2/m) when m/alpha sits just above an
    # integer, which is why optimality is asserted against the binomial
    # objective above.
    n_star = profile_n(m, a)
    if n_star >= m + 1:
        assert m * math.log(n_star) - n_star * a > m * math.log(n_star - 1) - (
            n_star - 1
        ) * a


def test_profile_n_at_least_m():
    assert profile_n(50, 0.999) == 50


# ---------------------------------------------------------------------------
# full_score


def test_full_score_empty_sample_is_alpha_gradient_term():
    params = ModelParams(GB, 0.1, 0.3)
    n = 500.0
    _, d_t, d_v = _alpha_and_grad(GB, 0.1, 0.3, 24.0, 3.0)
    got = full_score(params, n, empty_sample())
    assert got[0] == pytest.approx(-n * d_t, rel=1e-12)
    assert got[1] == pytest.approx(-n * d_v, rel=1e-12)


@pytest.mark.parametrize(
    "family,theta,vt,seed",
    [
        (GB, 0.05, 0.001, 0),
        (GB, 0.08, 0.4, 1),
        (GB, 0.2, 0.85, 2),
        (GB, 0.05, 0.002, 3),
        (FGM, 0.1, -0.6, 4),
        (FGM, 0.08, 0.3, 5),
        (FGM, 0.3, 0.9, 6),
        (FGM, 0.05, 0.0, 7),
        (GB, 0.12, 0.2, 8),
        (FGM, 0.15, -0.2, 9),
    ],
)
def test_full_score_matches_fd_of_loglik(family, theta, vt, seed):
    params, sample = random_sample(family, theta, vt, 3000, seed)
    n = sample.m / alpha(params, DESIGN)

    def ll(z):
        return log_likelihood(ModelParams(family, z[0], z[1]), n, sample)

    fd = fd_gradient(ll, np.array([theta, vt]), np.array([1e-6 * theta, 1e-6]))
    got = full_score(params, n, sample)
    assert got[0] == pytest.approx(fd[0], rel=1e-5)
    assert got[1] == pytest.approx(fd[1], rel=1e-5, abs=1e-7)


def test_full_score_gb_boundary_one_sided_fd():
    # the box is closed at vartheta=0, so the FD stencil must stay one-sided
    params, sample = random_sample(GB, 0.05, 0.0, 3000, 3)
    n = sample.m / alpha(params, DESIGN)

    def ll(th, vt):
        return log_likelihood(ModelParams(GB, th, vt), n, sample)

    h = 1e-6
    fd_theta = (ll(0.05 * (1 + h), 0.0) - ll(0.05 * (1 - h), 0.0)) / (2 * 0.05 * h)
    fd_vt = (-3 * ll(0.05, 0.0) + 4 * ll(0.05, h) - ll(0.05, 2 * h)) / (2 * h)
    got = full_score(params, n, sample)
    assert got[0] == pytest.approx(fd_theta, rel=1e-5)
    assert got[1] == pytest.approx(fd_vt, rel=1e-4)


def test_full_score_independence_theta_component():
    params, sample = random_sample(GB, 0.07, 0.0, 2000, 10)
    n = 5000.0
    _, d_t, _ = _alpha_and_grad(GB, 0.07, 0.0, 24.0, 3.0)
    expected = sample.m / 0.07 - float(np.sum(sample.x_arr)) - n * d_t
    assert full_score(params, n, sample)[0] == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# profile_score


@pytest.mark.parametrize(
    "family,theta,vt,seed",
    [(GB, 0.05, 0.3, 21), (FGM, 0.1, -0.4, 22)],
)
def test_profile_score_sum_matches_fd_of_profile_objective(family, theta, vt, seed):
    params, sample = random_sample(family, theta, vt, 3000, seed)

    def lp(z):
        p = ModelParams(family, float(z[0]), float(z[1]))
        logf = sum(
            math.log(joint_density(p, DESIGN, float(x), float(t)))
            for x, t in zip(sample.x_arr, sample.t_arr)
        )
        return logf - sample.m * math.log(alpha(p, DESIGN))

    fd = fd_gradient(lp, np.array([theta, vt]), np.array([1e-6 * theta, 1e-6]))
    total = profile_score(params, sample).sum(axis=0)
    np.testing.assert_allclose(total, fd, rtol=1e-5)


def test_profile_score_mean_zero_at_truth():
    # expectation over the latent pair of psi * 1_D vanishes at the truth
    params = ModelParams(GB, 0.05, 0.3)
    n = 100_000
    from truncdep.sampling import _draw_latent_arrays, _in_region

    x, t = _draw_latent_arrays(params, DESIGN, n, np.random.default_rng(1234))
    keep = _in_region(x, t, DESIGN)
    _, g1, g2 = _obs_terms(GB, 0.05, 0.3, 24.0, x[keep], t[keep], want_logf=False)
    a, d_t, d_v = _alpha_and_grad(GB, 0.05, 0.3, 24.0, 3.0)
    psi = np.zeros((n, 2))
    psi[keep, 0] = g1 - d_t / a
    psi[keep, 1] = g2 - d_v / a
    mean = psi.mean(axis=0)
    se = psi.std(axis=0, ddof=1) / math.sqrt(n)
    assert abs(mean[0]) <= 3.0 * se[0]
    assert abs(mean[1]) <= 3.0 * se[1]
    # the vectorized path above agrees with the public operation
    sample = TruncatedSample.from_arrays(x[keep], t[keep], DESIGN, n_latent=n)
    np.testing.assert_array_equal(profile_score(params, sample), psi[keep])


@pytest.mark.parametrize(
    "family,theta,vt",
    [(GB, 0.08, 0.0), (GB, 0.05, 0.3), (GB, 0.3, 0.8), (FGM, 0.08, 0.4), (FGM, 0.1, -0.5)],
)
def test_obs_hessian_matches_fd_of_gradients(family, theta, vt):
    # sum of the exact second partials of log f against central differences
    # of the summed analytic gradient; GB at vt = 0 steps outside the box
    _, sample = random_sample(family, theta, vt, 30_000, 3)
    x, t = sample.x_arr, sample.t_arr
    *_, hess = _obs_terms(family, theta, vt, 24.0, x, t, want_hess=True)
    exact = np.array([np.sum(h) for h in hess])

    def summed_grad(z):
        _, g1, g2 = _obs_terms(family, z[0], z[1], 24.0, x, t, want_logf=False)
        return np.array([np.sum(g1), np.sum(g2)])

    z, h = np.array([theta, vt]), np.array([1e-6 * theta, 1e-6])
    jac = np.empty((2, 2))
    for i in range(2):
        zp, zm = z.copy(), z.copy()
        zp[i] += h[i]
        zm[i] -= h[i]
        jac[:, i] = (summed_grad(zp) - summed_grad(zm)) / (2.0 * h[i])
    np.testing.assert_allclose(exact, [jac[0, 0], jac[0, 1], jac[1, 1]], rtol=1e-6)
    assert jac[1, 0] == pytest.approx(jac[0, 1], rel=1e-6)
