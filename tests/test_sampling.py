"""Latent draws, truncation, and the simulated observable sample."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from truncdep import (
    CopulaFamily,
    DataError,
    DomainError,
    ModelParams,
    StudyDesign,
    ScenarioSpec,
    TruncatedSample,
    alpha,
    kendall_tau,
    profile_n,
    simulate_truncated,
)
from truncdep.sampling import _draw_latent_arrays, _in_region

GB = CopulaFamily.GUMBEL_BARNETT
FGM = CopulaFamily.FGM
DESIGN = StudyDesign(24.0, 3.0)


def tau_se(n):
    """Null SE of the sample Kendall tau; adequate scale for weak dependence."""
    return math.sqrt(2.0 * (2.0 * n + 5.0) / (9.0 * n * (n - 1.0)))


# ---------------------------------------------------------------------------
# the truncation rule


def truncated(pairs):
    """The sample of the pairs in D, kept in order, as simulate_truncated builds it."""
    x, t = np.array(pairs, dtype=float).reshape(-1, 2).T
    keep = _in_region(x, t, DESIGN)
    return TruncatedSample.from_arrays(x[keep], t[keep], DESIGN, n_latent=len(pairs))


def test_truncate_keeps_in_region_pair():
    sample = truncated([(2.0, 1.0)])
    assert sample.m == 1
    assert (sample.x_arr.tolist(), sample.t_arr.tolist()) == ([2.0], [1.0])


def test_truncate_drops_pair_beyond_window():
    assert truncated([(5.0, 1.0)]).m == 0


def test_truncate_preserves_order_and_counts_latents():
    sample = truncated([(2.0, 1.0), (50.0, 1.0), (3.5, 2.0)])
    assert sample.n_latent == 3
    assert sample.x_arr.tolist() == [2.0, 3.5]
    assert sample.t_arr.tolist() == [1.0, 2.0]


@given(st.lists(st.tuples(st.floats(0.0, 60.0), st.floats(-1.0, 30.0)), max_size=60))
def test_truncate_equals_manual_filter(pairs):
    kept = [
        (x, t) for x, t in pairs if 0.0 < t < 24.0 and t <= x <= t + 3.0
    ]
    x_arr, t_arr = np.array(pairs, dtype=float).reshape(-1, 2).T
    keep = _in_region(x_arr, t_arr, DESIGN)
    assert list(zip(x_arr[keep].tolist(), t_arr[keep].tolist())) == kept


# ---------------------------------------------------------------------------
# TruncatedSample validation


def test_sample_rejects_out_of_region_observation():
    with pytest.raises(DataError, match="outside D"):
        TruncatedSample.from_arrays(np.array([2.0, 9.0]), np.array([1.0, 1.0]), DESIGN)


def test_sample_rejects_m_exceeding_n_latent():
    with pytest.raises(DataError):
        TruncatedSample.from_arrays(
            np.array([2.0, 2.5]), np.array([1.0, 1.5]), DESIGN, n_latent=1
        )


@pytest.mark.parametrize(
    "x,t",
    [([2.0, 2.5], [1.0]), ([[2.0, 2.5]], [[1.0, 1.5]])],
    ids=["length-mismatch", "two-dimensional"],
)
def test_from_arrays_rejects_malformed_arrays(x, t):
    with pytest.raises(DataError, match="1-D of equal length"):
        TruncatedSample.from_arrays(np.array(x), np.array(t), DESIGN)


def test_sample_arrays_are_read_only():
    x, t = np.array([2.0]), np.array([1.0])
    sample = TruncatedSample.from_arrays(x, t, DESIGN)
    with pytest.raises(ValueError):
        sample.x_arr[0] = 0.0
    # the caller's arrays are copied, not frozen or aliased
    x[0] = 2.5
    assert sample.x_arr[0] == 2.0
    assert x.flags.writeable and t.flags.writeable


# ---------------------------------------------------------------------------
# simulate_truncated


def test_simulate_rejects_nonpositive_n():
    params = ModelParams(GB, 0.05, 0.1)
    with pytest.raises(DomainError):
        simulate_truncated(params, DESIGN, 0, np.random.default_rng(0))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "name,error,call",
    [
        (
            "n_latent",
            DataError,
            lambda v: TruncatedSample.from_arrays(
                np.array([2.0]), np.array([1.0]), DESIGN, n_latent=v
            ),
        ),
        (
            "n",
            DomainError,
            lambda v: simulate_truncated(
                ModelParams(GB, 0.05, 0.1), DESIGN, v, np.random.default_rng(0)
            ),
        ),
        ("m", DomainError, lambda v: profile_n(v, 0.1)),
        (
            "n",
            DomainError,
            lambda v: ScenarioSpec(DESIGN, v, ModelParams(GB, 0.05, 0.1), 2, 0),
        ),
    ],
    ids=["n_latent", "simulate_n", "profile_n_m", "scenario_n"],
)
def test_non_finite_count_raises_package_error(name, error, call, value):
    # one positive-integer rule: floats, NaN and infinities included, raise
    # the operation's own error class with its message
    with pytest.raises(error, match=f"^{name}=-?(nan|inf) must be a positive integer$"):
        call(value)


def test_forced_out_of_region_draw_gives_empty_sample():
    # an empty sample keeps n_latent
    sample = truncated([(100.0, 1.0)])
    assert sample.m == 0
    assert sample.n_latent == 1


def test_simulate_deterministic_given_seed():
    params = ModelParams(GB, 0.05, 0.3)
    a = simulate_truncated(params, DESIGN, 5000, np.random.default_rng(42))
    b = simulate_truncated(params, DESIGN, 5000, np.random.default_rng(42))
    assert a.m == b.m
    np.testing.assert_array_equal(a.x_arr, b.x_arr)
    np.testing.assert_array_equal(a.t_arr, b.t_arr)


@pytest.mark.parametrize(
    "params", [ModelParams(GB, 0.05, 0.3), ModelParams(FGM, 0.1, 0.5)], ids=["gb", "fgm"]
)
def test_latent_stream_takes_two_uniforms_per_unit(params):
    # a unit's pair does not depend on how many units are drawn with it
    rng = np.random.default_rng(7)
    x1, t1 = _draw_latent_arrays(params, DESIGN, 1, rng)
    x8, t8 = _draw_latent_arrays(params, DESIGN, 8, rng)
    x9, t9 = _draw_latent_arrays(params, DESIGN, 9, np.random.default_rng(7))
    assert x1.tolist() + x8.tolist() == x9.tolist()
    assert t1.tolist() + t8.tolist() == t9.tolist()


@pytest.mark.parametrize(
    "family,theta,vt,big_g,s",
    [
        (GB, 0.05, 0.001, 24.0, 3.0),
        (GB, 0.1, 0.01, 48.0, 3.0),
        (GB, 0.05, 0.01, 24.0, 48.0),
        (FGM, 0.1, -0.5, 24.0, 3.0),
    ],
)
def test_selection_rate_consistent_with_alpha(family, theta, vt, big_g, s):
    n = 100_000
    params = ModelParams(family, theta, vt)
    design = StudyDesign(big_g, s)
    sample = simulate_truncated(params, design, n, np.random.default_rng(314))
    a = alpha(params, design)
    se = math.sqrt(a * (1.0 - a) / n)
    assert abs(sample.m / n - a) <= 3.0 * se


def test_selection_rate_all_table_scenarios():
    n = 100_000
    rng = np.random.default_rng(1000)
    for big_g, s in [(24.0, 3.0), (24.0, 48.0), (48.0, 3.0), (24.0, 2.0)]:
        for theta in (0.05, 0.1):
            for vt in (0.001, 0.01):
                params = ModelParams(GB, theta, vt)
                design = StudyDesign(big_g, s)
                a = alpha(params, design)
                m = simulate_truncated(params, design, n, rng).m
                assert abs(m / n - a) <= 3.0 * math.sqrt(a * (1.0 - a) / n)


# ---------------------------------------------------------------------------
# distributional checks on the latent sampler


def _latent_draws(params, n, seed):
    rng = np.random.default_rng(seed)
    from truncdep.sampling import _draw_latent_arrays

    return _draw_latent_arrays(params, DESIGN, n, rng)


def test_margins_exponential_and_uniform():
    params = ModelParams(GB, 0.08, 0.6)
    x, t = _latent_draws(params, 100_000, 99)
    # 1% critical value of the one-sample KS statistic is ~1.63/sqrt(n)
    crit = 1.63 / math.sqrt(len(x))
    assert stats.kstest(x, "expon", args=(0.0, 1.0 / 0.08)).statistic < crit
    assert stats.kstest(t, "uniform", args=(0.0, 24.0)).statistic < crit


def test_independence_case_has_zero_tau():
    params = ModelParams(FGM, 0.1, 0.0)
    x, t = _latent_draws(params, 100_000, 11)
    tau_hat = stats.kendalltau(x, t).statistic
    assert abs(tau_hat) <= 3.0 * tau_se(len(x))


def test_gb_dependence_matches_quadrature_tau():
    params = ModelParams(GB, 0.1, 0.9)
    x, t = _latent_draws(params, 100_000, 12)
    tau_hat = stats.kendalltau(x, t).statistic
    assert tau_hat == pytest.approx(kendall_tau(GB, 0.9), abs=3.0 * tau_se(len(x)))


def test_fgm_dependence_sign_follows_parameter():
    for vt, sign in [(0.8, 1.0), (-0.8, -1.0)]:
        params = ModelParams(FGM, 0.1, vt)
        x, t = _latent_draws(params, 50_000, 13)
        tau_hat = stats.kendalltau(x, t).statistic
        assert tau_hat * sign > 0
        assert tau_hat == pytest.approx(
            kendall_tau(FGM, vt), abs=3.0 * tau_se(len(x))
        )
