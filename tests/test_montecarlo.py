"""Replication driver, aggregation identities, and the curvature scan."""

import math

import numpy as np
import pytest

from truncdep import (
    ConvergenceError,
    CopulaFamily,
    DomainError,
    McSummary,
    ModelParams,
    RepRecord,
    ScenarioSpec,
    StudyDesign,
    hessian_det_scan,
    iter_replications,
    power_curve,
    run_scenario,
    summarize,
)
from truncdep.estimation import _objective_factory
from truncdep.montecarlo import MC_SE_KEYS
from truncdep.sampling import _draw_uniform_pairs, _in_region, _latent_from_uniforms

GB = CopulaFamily.GUMBEL_BARNETT
FGM = CopulaFamily.FGM
DESIGN = StudyDesign(24.0, 3.0)


def gb_spec(**overrides):
    base = dict(
        design=DESIGN,
        n=20_000,
        params0=ModelParams(GB, 0.05, 0.3),
        replications=3,
        seed=11,
        level=0.05,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


# ---------------------------------------------------------------------------
# ScenarioSpec validation


def test_scenario_rejects_single_replication():
    with pytest.raises(DomainError):
        gb_spec(replications=1)


def test_scenario_rejects_bad_n():
    with pytest.raises(DomainError):
        gb_spec(n=0)
    with pytest.raises(DomainError):
        gb_spec(n=2.5)


def test_scenario_rejects_bad_seed():
    with pytest.raises(DomainError):
        gb_spec(seed=-1)


def test_scenario_level_bounds():
    with pytest.raises(DomainError):
        gb_spec(level=0.0)
    # the one-sided boundary test caps Gumbel-Barnett levels below 0.5
    with pytest.raises(DomainError):
        gb_spec(level=0.5)
    fgm0 = ModelParams(FGM, 0.08, 0.2)
    spec = gb_spec(params0=fgm0, level=0.6)
    assert spec.level == 0.6


# ---------------------------------------------------------------------------
# summarize


def make_record(rep, th, vt, boundary=False, reject=False, failed=False):
    return RepRecord(rep, th, vt, boundary, reject, 800, failed)


def test_summarize_exact_statistics():
    params0 = ModelParams(GB, 0.05, 0.3)
    records = [
        make_record(0, 0.04, 0.2, reject=True),
        make_record(1, 0.06, 0.4, boundary=False),
    ]
    s = summarize(records, params0)
    assert s.bias_theta == pytest.approx(0.0, abs=1e-15)
    assert s.var_theta == pytest.approx(1e-4, rel=1e-12)
    assert s.var_central_theta == pytest.approx(1e-4, rel=1e-12)
    assert s.bias_vartheta == pytest.approx(0.0, abs=1e-15)
    assert s.rejection_rate == 0.5
    assert s.boundary_fraction == 0.0
    assert s.failures == 0
    assert s.mc_se["bias_theta"] == pytest.approx(0.01, rel=1e-12)
    assert s.mc_se["rejection_rate"] == pytest.approx(math.sqrt(0.125), rel=1e-12)


def test_summarize_mc_se_keys_follow_the_constant():
    records = [make_record(0, 0.04, 0.2), make_record(1, 0.06, 0.4)]
    assert tuple(summarize(records, ModelParams(GB, 0.05, 0.3)).mc_se) == MC_SE_KEYS


def test_summarize_mse_identity_off_center():
    params0 = ModelParams(GB, 0.05, 0.3)
    rng = np.random.default_rng(0)
    records = [
        make_record(i, 0.06 + 0.01 * rng.standard_normal(), 0.3) for i in range(40)
    ]
    s = summarize(records, params0)
    assert s.bias_theta**2 + s.var_central_theta == pytest.approx(
        s.var_theta, abs=1e-12
    )
    assert s.bias_theta > 0.0


def test_summarize_mse_identity_at_large_theta():
    # rounding in bias^2, central variance and MSE grows with theta0^2
    params0 = ModelParams(GB, 2000.0, 0.3)
    rng = np.random.default_rng(0)
    th = params0.theta * (1.01 + 0.05 * rng.standard_normal(200))
    s = summarize([make_record(i, float(v), 0.3) for i, v in enumerate(th)], params0)
    assert s.bias_theta**2 + s.var_central_theta == pytest.approx(
        s.var_theta, rel=1e-12
    )


def test_summarize_excludes_failures_with_warning():
    params0 = ModelParams(GB, 0.05, 0.3)
    records = [
        make_record(0, 0.05, 0.3),
        make_record(1, math.nan, math.nan, failed=True),
        make_record(2, 0.07, 0.35),
    ]
    with pytest.warns(RuntimeWarning, match="excluded 1 failed"):
        s = summarize(records, params0)
    assert s.failures == 1
    assert math.isfinite(s.bias_theta)
    assert s.bias_theta == pytest.approx(0.01, rel=1e-12)


def test_summarize_all_failed_raises():
    params0 = ModelParams(GB, 0.05, 0.3)
    records = [make_record(i, math.nan, math.nan, failed=True) for i in range(3)]
    with pytest.raises(ConvergenceError, match="all 3 replications failed"):
        summarize(records, params0)


def test_mcsummary_rejects_broken_identity():
    with pytest.raises(Exception):
        McSummary(
            bias_theta=0.1,
            bias_vartheta=0.0,
            var_theta=0.0,
            var_vartheta=0.0,
            var_central_theta=0.0,
            var_central_vartheta=0.0,
            rejection_rate=0.0,
            boundary_fraction=0.0,
            mc_se={},
            failures=0,
        )


# ---------------------------------------------------------------------------
# replication driver


def test_iter_replications_deterministic_across_thread_counts():
    spec = gb_spec(n=4_000, replications=4, seed=7)
    serial = list(iter_replications(spec, threads=1))
    pooled = list(iter_replications(spec, threads=2))
    assert serial == pooled
    assert [r.rep for r in serial] == [0, 1, 2, 3]


def test_iter_replications_pool_has_at_most_one_worker_per_replication(monkeypatch):
    # a serial stand-in for the pool records its size and starts no process
    seen = []

    class SerialPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr("truncdep.montecarlo.ProcessPoolExecutor", SerialPool)
    spec = gb_spec(n=2_000, replications=2, seed=7)
    pooled = list(iter_replications(spec, threads=16))
    assert seen == [2]
    assert pooled == list(iter_replications(spec, threads=1))


@pytest.mark.parametrize("threads", [math.nan, math.inf, 2.7])
def test_iter_replications_refuses_non_integer_threads(threads):
    with pytest.raises(DomainError, match="threads="):
        next(iter_replications(gb_spec(), threads=threads))


def test_failed_replication_is_recorded_and_counted(monkeypatch):
    spec = gb_spec(n=4_000, replications=2, seed=7)
    with monkeypatch.context() as patch:
        patch.setattr("truncdep.estimation._MAX_ITER", 1)
        failed = next(iter_replications(spec, threads=1))
    assert failed.failed
    assert math.isnan(failed.theta_hat) and math.isnan(failed.vartheta_hat)
    ok = list(iter_replications(spec, threads=1))[1]
    assert not ok.failed
    with pytest.warns(RuntimeWarning, match="excluded 1 failed replication"):
        s = summarize([failed, ok], spec.params0)
    assert s.failures == 1
    assert s.bias_theta == ok.theta_hat - spec.params0.theta


def test_run_scenario_gb_smoke():
    s = run_scenario(gb_spec(), threads=1)
    assert s.failures == 0
    assert math.isfinite(s.bias_theta) and math.isfinite(s.bias_vartheta)
    assert s.var_theta >= 0.0 and s.var_vartheta >= 0.0
    assert 0.0 <= s.rejection_rate <= 1.0
    assert 0.0 <= s.boundary_fraction <= 1.0
    assert s.bias_theta**2 + s.var_central_theta == pytest.approx(
        s.var_theta, abs=1e-12
    )


def test_run_scenario_fgm_smoke():
    spec = gb_spec(
        params0=ModelParams(FGM, 0.08, 0.0), n=10_000, replications=2, seed=21
    )
    s = run_scenario(spec, threads=1)
    assert s.failures == 0
    assert s.boundary_fraction == 0.0
    assert abs(s.bias_vartheta) < 0.2


def test_run_scenario_same_seed_reproduces():
    spec = gb_spec(n=5_000, replications=2, seed=13)
    a = run_scenario(spec, threads=1)
    b = run_scenario(spec, threads=1)
    assert a == b


# ---------------------------------------------------------------------------
# power curve


def test_power_curve_shape_and_determinism():
    base = gb_spec(n=10_000, replications=2, seed=3)
    grid = [0.0, 0.3]
    curve = power_curve(base, grid, threads=1)
    assert [v for v, _, _ in curve] == grid
    for _, rate, se in curve:
        assert 0.0 <= rate <= 1.0
        assert math.isfinite(se)
    assert power_curve(base, grid, threads=1) == curve


def test_power_curve_empty_grid():
    assert power_curve(gb_spec(), [], threads=1) == []


# ---------------------------------------------------------------------------
# curvature scan


def test_hessian_det_scan_single_point():
    out = hessian_det_scan([0.08], [0.3], DESIGN, 20_000, seed=5)
    assert out.shape == (1, 1)
    assert math.isfinite(out[0, 0])


def test_hessian_det_scan_deterministic():
    a = hessian_det_scan([0.05, 0.1], [0.2], DESIGN, 10_000, seed=9)
    b = hessian_det_scan([0.05, 0.1], [0.2], DESIGN, 10_000, seed=9)
    np.testing.assert_array_equal(a, b)


def test_hessian_det_scan_positive_on_coarse_grid():
    # stays away from small theta, where the true determinant sits near
    # zero and a short scan can dip negative
    out = hessian_det_scan([0.08, 0.12], [0.0, 0.45, 0.9], DESIGN, 60_000, seed=8)
    assert out.shape == (2, 3)
    assert np.all(out > 0.0)


@pytest.mark.parametrize("theta,vartheta", [(0.05, 0.0), (0.08, 0.45)])
def test_hessian_det_scan_matches_central_difference(theta, vartheta):
    # Same uniforms as the scan; the central difference of the summed
    # score steps across vartheta = 0, where the formulas extend smoothly.
    n_mc, seed = 60_000, 8
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    uv = _draw_uniform_pairs(rng, n_mc)
    x, t = _latent_from_uniforms(ModelParams(GB, theta, vartheta), DESIGN, uv)
    keep = _in_region(x, t, DESIGN)
    neg_lp = _objective_factory(GB, DESIGN, x[keep], t[keep])
    z = np.array([theta, vartheta])
    cols = []
    for k, h in enumerate((1e-5 * theta, 1e-5)):
        e = np.zeros(2)
        e[k] = h
        cols.append((-neg_lp(z + e)[1] + neg_lp(z - e)[1]) / (2.0 * h))
    jac = np.column_stack(cols)
    want = np.linalg.det(jac) / n_mc**2
    got = hessian_det_scan([theta], [vartheta], DESIGN, n_mc, seed=seed)[0, 0]
    assert got == pytest.approx(want, rel=1e-6)


def test_hessian_det_scan_rejects_bad_n_mc():
    with pytest.raises(DomainError):
        hessian_det_scan([0.1], [0.2], DESIGN, 0, seed=1)
