"""Profile-likelihood maximization over the parameter box.

``fit`` maximizes the profile objective l_p(theta, vartheta) =
sum_j log f - M log alpha with its analytic gradient (the summed profile
score) using a projected quasi-Newton method (L-BFGS-B) from a 3x3
multi-start grid, then recovers the profiled integer n and the plug-in
Fisher information / covariance.  The Gumbel-Barnett box has the
independence boundary vartheta = 0 as its lower edge; maximizers landing
there (or within the snap tolerance) are clamped to exactly 0 and
flagged, since the boundary-mixture asymptotics split on that event.
On that face theta is re-solved by the restricted fit's own solve, so a
boundary estimate is the restricted estimate plus the KKT sign check
that no ascent leads into vartheta > 0.

``fit_restricted`` pins vartheta = 0 and maximizes over theta alone,
which is the estimator under independent truncation.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize

from .copula import (
    EPS_THETA,
    CopulaFamily,
    ModelParams,
    StudyDesign,
    vartheta_range,
)
from .errors import DataError
from .likelihood import _obs_terms, log_likelihood, profile_n
from .sampling import TruncatedSample
from .selection import _alpha_and_grad, _alpha_and_hess, alpha

__all__ = ["FitOptions", "FitResult", "fit", "fit_restricted", "fisher_info_hat"]

_GB_VARTHETA_STARTS = (1e-3, 0.3, 0.7)
_FGM_VARTHETA_STARTS = (-0.5, 0.0, 0.5)


@dataclass(frozen=True)
class FitOptions:
    """Optimizer options; defaults implement the documented multi-start.

    theta starts are ``naive * theta_factors`` with naive = M / sum(x),
    the exponential MLE that ignores truncation; vartheta starts default
    to a family-specific low/mid/high triple (3x3 grid in total).
    Convergence requires ||sum psi||_inf <= gtol_scale * M or a
    vanishing step, certified by a freshly restarted optimizer moving
    at most step_tol.  Estimates with vartheta below snap_tol are
    clamped to the boundary, where theta is re-solved on the face
    vartheta = 0 from the restricted fit's starts.
    """

    theta_factors: tuple[float, ...] = (0.6, 1.0, 1.6)
    vartheta_starts: tuple[float, ...] | None = None
    gtol_scale: float = 1e-8
    step_tol: float = 1e-10
    max_iter: int = 500
    snap_tol: float = 1e-8


@dataclass(frozen=True)
class FitResult:
    """Outcome of a profile-likelihood fit.

    ``n_hat`` is profile_n(M, alpha(params_hat)); ``log_lik`` the full
    log-likelihood at (params_hat, n_hat).  ``info_hat`` estimates the
    per-latent-unit Fisher information, so standard errors scale with
    1/sqrt(n_hat): interior fits use sqrt(diag(cov_hat)/n_hat); at the
    vartheta = 0 boundary the theta error comes from the restricted
    one-parameter information, sqrt(1/(info_hat[0,0]*n_hat)), and the
    normal-theory vartheta error is kept as a caveated reference value
    (the boundary law is a mixture, not a normal).
    """

    params_hat: ModelParams
    n_hat: int
    at_boundary: bool
    log_lik: float
    info_hat: np.ndarray
    cov_hat: np.ndarray
    se: tuple[float, float]
    converged: bool
    iterations: int


def _objective_factory(
    family: CopulaFamily, design: StudyDesign, x: np.ndarray, t: np.ndarray
):
    m = len(x)
    big_g, s = design.big_g, design.s

    def neg_lp(z: np.ndarray, want_hess: bool = False):
        """-l_p and its gradient; with ``want_hess`` also the exact Hessian,
        -(sum H log f - M (H alpha / alpha - grad alpha grad alpha' / alpha^2))."""
        theta, vartheta = float(z[0]), float(z[1])
        logf, g1, g2, *h = _obs_terms(
            family, theta, vartheta, big_g, x, t, want_hess=want_hess
        )
        alpha_terms = _alpha_and_hess if want_hess else _alpha_and_grad
        a, d_t, d_v, *d2 = alpha_terms(family, theta, vartheta, big_g, s)
        value = float(np.sum(logf)) - m * math.log(a)
        grad = np.array(
            [float(np.sum(g1)) - m * d_t / a, float(np.sum(g2)) - m * d_v / a]
        )
        if not want_hess:
            return -value, -grad
        h_tt, h_tv, h_vv = (float(np.sum(hk)) - m * d2k / a for hk, d2k in zip(h[0], d2))
        r = np.array([d_t, d_v]) / a
        hess = np.array([[h_tt, h_tv], [h_tv, h_vv]]) + m * np.outer(r, r)
        return -value, -grad, -hess

    return neg_lp


def _inv2(mat: np.ndarray) -> np.ndarray | None:
    """Closed-form inverse of a 2x2 matrix; None if singular or not finite."""
    (a, b), (c, d) = np.asarray(mat, dtype=float)
    det = a * d - b * c
    inv = np.array([[d, -b], [-c, a]]) / det if det != 0.0 else np.full((2, 2), np.nan)
    return inv if np.all(np.isfinite(inv)) else None


# L-BFGS-B's LAPACK triangular solves hand even 2x2 systems to the OpenBLAS
# thread pool it links, whose worker then spins beside the caller.  ``_lbfgsb``
# keeps them on the calling thread; with another BLAS this is a no-op.
try:
    from scipy.optimize import _lbfgsb as _lbfgsb_ext

    _set_blas_threads = ctypes.CDLL(_lbfgsb_ext.__file__).openblas_set_num_threads_local
except (ImportError, OSError, AttributeError):
    _set_blas_threads = int


def _lbfgsb(neg_lp, z0: np.ndarray, bounds, options: FitOptions, m: int):
    saved = _set_blas_threads(1)
    try:
        return minimize(
            neg_lp, z0, jac=True, method="L-BFGS-B", bounds=bounds,
            options={
                "maxiter": options.max_iter,
                "ftol": 1e-15,
                "gtol": options.gtol_scale * max(m, 1),
            },
        )
    finally:
        _set_blas_threads(saved)


def _run_starts(neg_lp, starts, bounds, options: FitOptions, m: int):
    best = None
    for z0 in starts:
        res = _lbfgsb(neg_lp, np.asarray(z0, dtype=float), bounds, options, m)
        cand = (float(res.fun), res.x.copy(), int(res.nit), bool(res.success))
        if best is None:
            best = cand
            continue
        # Lower objective wins; near-ties go to the smaller vartheta.
        tol = 1e-9 * (1.0 + abs(best[0]))
        if cand[0] < best[0] - tol or (
            abs(cand[0] - best[0]) <= tol and cand[1][1] < best[1][1]
        ):
            best = cand
    # Restart from the winner with fresh curvature memory.  Either the
    # restart polishes the gradient below tolerance, or it cannot move
    # at all, which certifies the vanishing-step convergence criterion:
    # the tie rule may select a start that stopped on the
    # relative-decrease test with gradient between the two tolerances.
    res = _lbfgsb(neg_lp, best[1], bounds, options, m)
    step_vanished = float(np.max(np.abs(res.x - best[1]))) <= options.step_tol
    success = bool(res.success) or best[3]
    return (float(res.fun), res.x.copy(), best[2] + int(res.nit), success, step_vanished)


def _clip_starts(raw, bounds):
    lo, hi = np.array(bounds, dtype=float).T
    return [np.clip(z0, lo, hi) for z0 in raw]


def _newton_polish(
    neg_lp, z: np.ndarray, bounds, options: FitOptions, m: int,
    free_vartheta: bool = True,
) -> np.ndarray:
    """Drive the analytic gradient to tolerance by damped Newton steps.

    Line-search methods stall once objective differences drop below
    float resolution, which on badly scaled samples leaves the gradient
    an order of magnitude above tolerance.  Stepping on the gradient
    root with the exact Hessian of l_p needs no resolvable objective
    decrease.  Steps larger than the polish radius mean the point is not
    near a stationary one, and the loop exits early.
    """
    lo, hi = np.array(bounds, dtype=float).T
    target = options.gtol_scale * max(m, 1)
    z = z.copy()
    for _ in range(5):
        psi = -neg_lp(z)[1]
        if not free_vartheta:
            psi[1] = 0.0
        if float(np.max(np.abs(psi))) <= target:
            break
        hess = -neg_lp(z, want_hess=True)[2]
        if not free_vartheta:  # on the face only theta moves
            hess = np.diag([hess[0, 0], 1.0])
        inv = _inv2(hess)
        if inv is None:
            break
        delta = -np.sum(inv * psi, axis=1)
        if not np.all(np.isfinite(delta)) or np.max(np.abs(delta)) > 1e-3 * (
            1.0 + float(np.max(np.abs(z)))
        ):
            break
        z_new = np.clip(z + delta, lo, hi)
        if np.array_equal(z_new, z):
            break
        z = z_new
    return z


def _kkt_ok(
    sum_psi: np.ndarray,
    mode: str,
    m: int,
    options: FitOptions,
    step_vanished: bool = False,
) -> bool:
    # Stationarity holds when the gradient is small or, per the
    # step-tolerance alternative, when a restarted optimizer could not
    # move; the boundary sign condition sum(psi_2) <= 0 is never waived
    # because it discriminates the two asymptotic regimes.
    tol = 10.0 * options.gtol_scale * max(m, 1)
    if mode == "boundary":
        return (abs(sum_psi[0]) <= tol or step_vanished) and sum_psi[1] <= tol
    if mode == "theta_only":
        return abs(sum_psi[0]) <= tol or step_vanished
    return float(np.max(np.abs(sum_psi))) <= tol or step_vanished


def _finalize(
    family: CopulaFamily,
    sample: TruncatedSample,
    z: np.ndarray,
    nit: int,
    opt_success: bool,
    at_boundary: bool,
    kkt_mode: str,
    neg_lp,
    options: FitOptions,
    step_vanished: bool = False,
) -> FitResult:
    params_hat = ModelParams(family, float(z[0]), float(z[1]))
    _, grad_neg = neg_lp(np.array([params_hat.theta, params_hat.vartheta]))
    converged = bool(
        (opt_success or step_vanished)
        and _kkt_ok(-grad_neg, kkt_mode, sample.m, options, step_vanished)
    )
    a_hat = alpha(params_hat, sample.design)
    n_hat = profile_n(sample.m, a_hat)
    info = fisher_info_hat(params_hat, sample)
    cov = _inv2(info)
    if cov is None:
        cov = np.full((2, 2), np.nan)
    if at_boundary and info[0, 0] > 0.0:
        se_theta = math.sqrt(1.0 / (info[0, 0] * n_hat))
    else:
        se_theta = math.sqrt(max(cov[0, 0], 0.0) / n_hat)
    se_vartheta = math.sqrt(max(cov[1, 1], 0.0) / n_hat)
    return FitResult(
        params_hat=params_hat,
        n_hat=n_hat,
        at_boundary=at_boundary,
        log_lik=log_likelihood(params_hat, n_hat, sample),
        info_hat=info,
        cov_hat=cov,
        se=(se_theta, se_vartheta),
        converged=converged,
        iterations=nit,
    )


def _snap(z: np.ndarray, family: CopulaFamily, options: FitOptions):
    boundary = bool(
        family is CopulaFamily.GUMBEL_BARNETT and z[1] < options.snap_tol
    )
    if boundary:
        z = np.array([z[0], 0.0])
    return z, boundary


def _solve_face(neg_lp, naive: float, options: FitOptions, m: int):
    """Maximize over theta on the face vartheta = 0.

    This is the restricted fit's solve.  ``fit`` reuses it whenever its
    estimate snaps to the boundary: the two-parameter optimizer stops
    somewhere near the face, not at the theta-stationary point on it,
    and the boundary KKT check needs the latter.
    """
    bounds = [(EPS_THETA, 1.0 / EPS_THETA), (0.0, 0.0)]
    starts = _clip_starts(
        [(naive * f, 0.0) for f in options.theta_factors], bounds
    )
    _, z, nit, success, step_vanished = _run_starts(
        neg_lp, starts, bounds, options, m
    )
    z = _newton_polish(neg_lp, z, bounds, options, m, free_vartheta=False)
    return np.array([z[0], 0.0]), nit, success, step_vanished


def fit(
    sample: TruncatedSample,
    family: CopulaFamily,
    options: FitOptions | None = None,
) -> FitResult:
    """Maximize the profile likelihood over the family's parameter box."""
    options = options or FitOptions()
    if sample.m < 2:
        raise DataError(f"need at least 2 observations, got {sample.m}")
    x, t = sample.x_arr, sample.t_arr
    if float(np.ptp(x)) == 0.0 and float(np.ptp(t)) == 0.0:
        raise DataError("all observations identical; likelihood is degenerate")
    vt_lo, vt_hi = vartheta_range(family)
    bounds = [(EPS_THETA, 1.0 / EPS_THETA), (vt_lo, vt_hi)]
    naive = sample.m / float(np.sum(x))
    vt_starts = options.vartheta_starts
    if vt_starts is None:
        vt_starts = (
            _GB_VARTHETA_STARTS
            if family is CopulaFamily.GUMBEL_BARNETT
            else _FGM_VARTHETA_STARTS
        )
    starts = _clip_starts(
        [(naive * f, v) for f in options.theta_factors for v in vt_starts], bounds
    )
    neg_lp = _objective_factory(family, sample.design, x, t)
    _, z, nit, success, step_vanished = _run_starts(
        neg_lp, starts, bounds, options, sample.m
    )
    z = _newton_polish(neg_lp, z, bounds, options, sample.m)

    def settle(z, nit, success, step_vanished) -> FitResult:
        z, at_boundary = _snap(z, family, options)
        if at_boundary:
            z, face_nit, success, step_vanished = _solve_face(
                neg_lp, naive, options, sample.m
            )
            nit += face_nit
        kkt_mode = "boundary" if at_boundary else "interior"
        return _finalize(
            family, sample, z, nit, success, at_boundary, kkt_mode, neg_lp,
            options, step_vanished,
        )

    result = settle(z, nit, success, step_vanished)
    if result.converged:
        return result

    # Derivative-free fallback polish from the best point; a quadratic
    # penalty keeps the simplex inside the box.
    lo, hi = np.array(bounds, dtype=float).T

    def penalized(q: np.ndarray) -> float:
        qc = np.clip(q, lo, hi)
        return neg_lp(qc)[0] + 1e8 * float(np.sum((q - qc) ** 2))

    res = minimize(
        penalized,
        np.array([result.params_hat.theta, result.params_hat.vartheta]),
        method="Nelder-Mead",
        options={"maxiter": 400, "xatol": 1e-10, "fatol": 1e-12},
    )
    polished = settle(
        np.clip(res.x, lo, hi), nit + int(res.nit), bool(res.success), False
    )
    return polished if polished.log_lik >= result.log_lik else result


def fit_restricted(sample: TruncatedSample, family: CopulaFamily) -> FitResult:
    """Maximize over theta with vartheta fixed at 0 (independence)."""
    options = FitOptions()
    if sample.m < 1:
        raise DataError("need at least 1 observation")
    x, t = sample.x_arr, sample.t_arr
    naive = sample.m / float(np.sum(x))
    neg_lp = _objective_factory(family, sample.design, x, t)
    z, nit, success, step_vanished = _solve_face(neg_lp, naive, options, sample.m)
    # vartheta = 0 is imposed, not found, so the boundary flag stays off
    # and only theta-stationarity is required of the KKT check.
    return _finalize(
        family, sample, z, nit, success, False, "theta_only", neg_lp, options,
        step_vanished,
    )


def fisher_info_hat(params_hat: ModelParams, sample: TruncatedSample) -> np.ndarray:
    """Plug-in Fisher information (1/n_hat) * sum_j psi_j psi_j'."""
    x, t = sample.x_arr, sample.t_arr
    _, g1, g2 = _obs_terms(
        params_hat.family,
        params_hat.theta,
        params_hat.vartheta,
        sample.design.big_g,
        x,
        t,
        want_logf=False,
    )
    a, d_t, d_v = _alpha_and_grad(
        params_hat.family,
        params_hat.theta,
        params_hat.vartheta,
        sample.design.big_g,
        sample.design.s,
    )
    psi1 = g1 - d_t / a
    psi2 = g2 - d_v / a
    n_hat = profile_n(sample.m, a)
    # Elementwise reductions: a BLAS dot of length M wakes a thread pool.
    cross = float(np.sum(psi1 * psi2))
    return np.array(
        [[float(np.sum(psi1 * psi1)), cross], [cross, float(np.sum(psi2 * psi2))]]
    ) / n_hat
