"""Monte Carlo drivers for the truncated-sample estimator.

``run_scenario`` simulates and fits many independent truncated samples
from one (design, n, params0) configuration and aggregates bias,
variance, rejection rate and boundary fraction.  ``power_curve`` sweeps
the dependence parameter to trace level and power of the independence
test.  ``hessian_det_scan`` estimates the determinant of the averaged
score Jacobian over a parameter grid, the curvature quantity behind the
estimator's asymptotics, from the exact Hessian of the profile objective
on common random numbers; it carries Monte Carlo noise only.

Replications are independent tasks: each gets its own seed derived from
(seed, replication index), so results are identical whether they run
serially or on a process pool, and aggregation is an ordered reduction.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from typing import Iterable, Iterator, Sequence

import numpy as np

from .copula import CopulaFamily, ModelParams, StudyDesign
from .errors import (
    ConvergenceError,
    DataError,
    DomainError,
    InvariantError,
    TruncdepError,
    _check_positive_int,
    _check_seed,
)
from .estimation import fit
from .inference import wald_boundary_test, wald_interior_test_fgm
from .likelihood import _obs_terms, _profile_terms
from .sampling import (
    _draw_uniform_pairs,
    _in_region,
    _latent_from_uniforms,
    simulate_truncated,
)
from .selection import _alpha_and_grad

__all__ = [
    "ScenarioSpec",
    "RepRecord",
    "McSummary",
    "MC_SE_KEYS",
    "iter_replications",
    "summarize",
    "run_scenario",
    "power_curve",
    "hessian_det_scan",
]

_MSE_IDENTITY_TOL = 1e-12

# Statistics that carry a Monte Carlo standard error, in McSummary.mc_se order.
MC_SE_KEYS = (
    "bias_theta", "bias_vartheta", "var_theta", "var_vartheta",
    "rejection_rate", "boundary_fraction",
)


@dataclass(frozen=True)
class ScenarioSpec:
    """One simulation scenario: design, latent size, truth, budget.

    ``seed`` is the root of the per-replication seed tree; ``level`` is
    the nominal size handed to the family's independence test (one-sided
    boundary test for Gumbel-Barnett, so there it must lie below 0.5).
    """

    design: StudyDesign
    n: int
    params0: ModelParams
    replications: int
    seed: int
    level: float = 0.05

    def __post_init__(self) -> None:
        _check_positive_int("n", self.n)
        _check_positive_int("replications", self.replications)
        if self.replications < 2:
            raise DomainError("replications must be at least 2")
        _check_seed(self.seed)
        if not (0.0 < self.level < 1.0):
            raise DomainError(f"level={self.level!r} must lie in (0, 1)")
        if (
            self.params0.family is CopulaFamily.GUMBEL_BARNETT
            and not self.level < 0.5
        ):
            raise DomainError(
                "the one-sided boundary test caps the level below 0.5"
            )


@dataclass(frozen=True, slots=True)
class RepRecord:
    """Outcome of a single replication; estimates are nan when failed."""

    rep: int
    theta_hat: float
    vartheta_hat: float
    at_boundary: bool
    reject: bool
    m: int
    failed: bool


@dataclass(frozen=True)
class McSummary:
    """Aggregates over the non-failed replications.

    ``var_*`` is the mean squared deviation from the truth (the table
    statistic); ``var_central_*`` the mean squared deviation from the
    replication mean, both with 1/R normalization, so per parameter
    bias^2 + var_central = var_ holds to rounding.  ``mc_se`` carries
    Monte Carlo standard errors keyed by statistic name, the keys of
    ``MC_SE_KEYS`` in that order.
    """

    bias_theta: float
    bias_vartheta: float
    var_theta: float
    var_vartheta: float
    var_central_theta: float
    var_central_vartheta: float
    rejection_rate: float
    boundary_fraction: float
    mc_se: dict[str, float]
    failures: int

    def __post_init__(self) -> None:
        for tag, b, vc, v in (
            ("theta", self.bias_theta, self.var_central_theta, self.var_theta),
            ("vartheta", self.bias_vartheta, self.var_central_vartheta, self.var_vartheta),
        ):
            if v < 0.0 or vc < 0.0:
                raise InvariantError(f"negative variance statistic for {tag}")
            # Rounding in b^2, vc and v grows with their scale, so the
            # tolerance is relative once v exceeds 1.
            if abs(b * b + vc - v) > _MSE_IDENTITY_TOL * max(1.0, v):
                raise InvariantError(
                    f"bias^2 + central variance != mean squared error for {tag}"
                )


def _resolve_threads(threads: int | None) -> int:
    if threads is None:
        return os.cpu_count() or 1
    _check_positive_int("threads", threads)
    return int(threads)


def _replicate(spec: ScenarioSpec, rep: int) -> RepRecord:
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=spec.seed, spawn_key=(rep,))
    )
    try:
        sample = simulate_truncated(spec.params0, spec.design, spec.n, rng)
        res = fit(sample, spec.params0.family)
        if not res.converged:
            raise ConvergenceError("optimizer did not converge")
        if spec.params0.family is CopulaFamily.GUMBEL_BARNETT:
            test = wald_boundary_test(res, sample, level=spec.level)
        else:
            test = wald_interior_test_fgm(res, sample, level=spec.level)
    except TruncdepError:
        return RepRecord(rep, math.nan, math.nan, False, False, 0, True)
    return RepRecord(
        rep,
        res.params_hat.theta,
        res.params_hat.vartheta,
        res.at_boundary,
        test.reject,
        sample.m,
        False,
    )


def iter_replications(
    spec: ScenarioSpec, *, threads: int | None = None
) -> Iterator[RepRecord]:
    """Yield replication records in replication order.

    ``threads`` > 1 fans the work out to a process pool of at most one
    worker per replication; None uses one worker per logical core.  The
    records are identical either way.
    """
    threads = min(_resolve_threads(threads), spec.replications)
    reps = range(spec.replications)
    if threads == 1:
        for rep in reps:
            yield _replicate(spec, rep)
        return
    chunk = max(1, spec.replications // (4 * threads))
    with ProcessPoolExecutor(max_workers=threads) as pool:
        yield from pool.map(partial(_replicate, spec), reps, chunksize=chunk)


def _se_of_mean(values: np.ndarray) -> float:
    if values.size < 2:
        return math.nan
    return math.sqrt(float(np.var(values, ddof=1)) / values.size)


def _se_of_rate(p: float, r: int) -> float:
    return math.sqrt(p * (1.0 - p) / r)


def summarize(records: Iterable[RepRecord], params0: ModelParams) -> McSummary:
    """Reduce replication records to an McSummary against params0."""
    records = list(records)
    ok = [r for r in records if not r.failed]
    failures = len(records) - len(ok)
    if not ok:
        raise ConvergenceError(f"all {len(records)} replications failed")
    if failures:
        warnings.warn(
            f"excluded {failures} failed replication(s) out of {len(records)}",
            RuntimeWarning,
            stacklevel=2,
        )
    th = np.array([r.theta_hat for r in ok])
    vt = np.array([r.vartheta_hat for r in ok])
    rej = np.array([r.reject for r in ok], dtype=float)
    bnd = np.array([r.at_boundary for r in ok], dtype=float)
    r_eff = len(ok)

    dev_th = (th - params0.theta) ** 2
    dev_vt = (vt - params0.vartheta) ** 2
    rejection = float(np.mean(rej))
    boundary = float(np.mean(bnd))
    se = [_se_of_mean(v) for v in (th, vt, dev_th, dev_vt)]
    se += [_se_of_rate(p, r_eff) for p in (rejection, boundary)]
    mc_se = dict(zip(MC_SE_KEYS, se, strict=True))
    return McSummary(
        bias_theta=float(np.mean(th)) - params0.theta,
        bias_vartheta=float(np.mean(vt)) - params0.vartheta,
        var_theta=float(np.mean(dev_th)),
        var_vartheta=float(np.mean(dev_vt)),
        var_central_theta=float(np.mean((th - np.mean(th)) ** 2)),
        var_central_vartheta=float(np.mean((vt - np.mean(vt)) ** 2)),
        rejection_rate=rejection,
        boundary_fraction=boundary,
        mc_se=mc_se,
        failures=failures,
    )


def run_scenario(spec: ScenarioSpec, *, threads: int | None = None) -> McSummary:
    """Simulate, fit and test ``spec.replications`` times and aggregate."""
    return summarize(iter_replications(spec, threads=threads), spec.params0)


def _derived_seed(seed: int, index: int) -> int:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index, 1))
    return int(ss.generate_state(1, np.uint64)[0])


def power_curve(
    base: ScenarioSpec,
    vartheta_grid: Sequence[float],
    *,
    threads: int | None = None,
) -> list[tuple[float, float, float]]:
    """Rejection rate of the independence test along a vartheta grid.

    Each grid point reruns ``base`` with the true dependence swapped in
    and a seed derived from (base.seed, grid index).  Returns
    (vartheta0, rejection_rate, mc_se) triples in grid order.
    """
    out: list[tuple[float, float, float]] = []
    for i, v0 in enumerate(vartheta_grid):
        spec = replace(
            base,
            params0=replace(base.params0, vartheta=float(v0)),
            seed=_derived_seed(base.seed, i),
        )
        summary = run_scenario(spec, threads=threads)
        out.append((float(v0), summary.rejection_rate, summary.mc_se["rejection_rate"]))
    return out


def hessian_det_scan(
    theta_grid: Sequence[float],
    vartheta_grid: Sequence[float],
    design: StudyDesign,
    n_mc: int,
    seed: int,
    *,
    family: CopulaFamily = CopulaFamily.GUMBEL_BARNETT,
) -> np.ndarray:
    """det of the Monte Carlo average of the score Jacobian, per grid point.

    At each (theta0, vartheta0) the expectation of the profile-score
    Jacobian over a latent pair is estimated from n_mc draws at that
    point, as the exact Hessian of l_p over the kept draws divided by
    n_mc (the score vanishes off the observable region), and its 2x2
    determinant returned, shape (len(theta_grid), len(vartheta_grid)).
    The estimate carries Monte Carlo noise only.  One block of uniforms,
    fixed by ``seed``, is transformed separately per grid point: the
    common random numbers keep point-to-point comparisons (where the
    surface bottoms out) far more stable than the pointwise noise level.
    A positive determinant together with a negative theta-diagonal is
    the curvature condition the estimator's asymptotic normality rests on.
    A grid point where no draw is observed raises ``DataError``: its zero
    Hessian would read as a singular Jacobian.
    """
    _check_positive_int("n_mc", n_mc)
    _check_seed(seed)
    tg = np.atleast_1d(np.asarray(theta_grid, dtype=float))
    vg = np.atleast_1d(np.asarray(vartheta_grid, dtype=float))
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    uv = _draw_uniform_pairs(rng, int(n_mc))
    out = np.empty((tg.size, vg.size))
    for i, th0 in enumerate(tg):
        for j, vt0 in enumerate(vg):
            th, vt = float(th0), float(vt0)
            x, t = _latent_from_uniforms(ModelParams(family, th, vt), design, uv)
            keep = _in_region(x, t, design)
            if not keep.any():
                raise DataError(
                    "no draw lands in the observable region at "
                    f"theta0={th!r}, vartheta0={vt!r} (n_mc={n_mc})"
                )
            x, t = x[keep], t[keep]
            _, _, (h_tt, h_tv, h_vv) = _profile_terms(
                x.size,
                _obs_terms(family, th, vt, design.big_g, x, t, 2),
                _alpha_and_grad(family, th, vt, design.big_g, design.s, 2),
            )
            out[i, j] = (h_tt * h_vv - h_tv * h_tv) / float(n_mc) ** 2
    return out
