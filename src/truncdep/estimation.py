"""Profile-likelihood maximization over the parameter box.

``fit`` maximizes the profile objective l_p(theta, vartheta) =
sum_j log f - M log alpha by one projected Newton solve on its exact
gradient (the summed profile score) and Hessian, started from the
exponential MLE that ignores truncation, then recovers the profiled
integer n and the plug-in Fisher information / covariance.  The
Gumbel-Barnett box has the independence boundary vartheta = 0 as its
lower edge; maximizers landing there (or within the snap tolerance) are
clamped to exactly 0 and flagged, since the boundary-mixture asymptotics
split on that event.  On that face theta is re-solved by the restricted
fit's own solve, so a boundary estimate is the restricted estimate plus
the KKT sign check that no ascent leads into vartheta > 0.

Convergence is the solver's own projected-gradient test: every free
coordinate of the summed score is small, and every coordinate on a
bound of the box points out of it.  A boundary fit adds one line, the
KKT sign condition that the vartheta score at (theta_hat, 0) points out
of the box.  theta's box [EPS_THETA, 1/EPS_THETA] is a numerical guard,
not a boundary of the model, so a theta_hat on it never counts as
converged.

``fit_restricted`` pins vartheta = 0 and maximizes over theta alone,
which is the estimator under independent truncation.

Each point is evaluated once: the log-likelihood and the plug-in
information are read from the solver's last evaluation.  The solver's
tolerances are module constants; a fit takes no options.  The solver
works on Python floats, not NumPy 2-vectors: at M ~ 1e3 a fit is bound by
per-call dispatch, and scalar IEEE arithmetic in the same order gives
the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .copula import (
    EPS_THETA,
    CopulaFamily,
    ModelParams,
    StudyDesign,
    vartheta_range,
)
from .errors import DataError
from .likelihood import _log_lik, _obs_terms, _profile_terms, _psi, profile_n
from .sampling import TruncatedSample
from .selection import _alpha_and_grad, alpha

__all__ = ["FitResult", "fit", "fit_restricted", "fisher_info_hat"]

# vartheta at the start of the two-parameter solve; theta starts at the
# exponential MLE M / sum(x).
_VARTHETA_START = {CopulaFamily.GUMBEL_BARNETT: 0.01, CopulaFamily.FGM: 0.0}
# The face vartheta = 0 as a box; a coordinate whose box is one point is held.
_FACE_BOX = ((EPS_THETA, 0.0), (1.0 / EPS_THETA, 0.0))
_ARMIJO = 1e-4
# Relative size below which a rise in -l_p is rounding, not ascent.
_RESOLUTION = 1e-12
_MAX_HALVINGS = 30
# The solve stops once the projected score (the free components of sum
# psi, and those on a bound that point into the box) is at most
# _GTOL_SCALE * M, or after _MAX_ITER Newton iterations; a boundary fit
# allows its vartheta score ten times that tolerance.  Estimates with
# vartheta below _SNAP_TOL are clamped to the boundary, where theta is
# re-solved on the face vartheta = 0.
_GTOL_SCALE = 1e-8
_MAX_ITER = 500
_SNAP_TOL = 1e-8


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
    (the boundary law is a mixture, not a normal).  ``iterations``
    counts Newton iterations, summed over the two-parameter solve and,
    for a boundary fit, the face solve.  ``log_lik`` and ``info_hat``
    are read from the solver's last evaluation, at params_hat; ``cov_hat``
    is inv(info_hat), all NaN where none exists.  ``converged`` is the last
    solve's verdict, false for a theta_hat on its box bound, and, for a
    boundary fit, the KKT sign condition.
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

    def neg_lp(z):
        """(-l_p, its gradient, its exact Hessian, terms) at the pair z, the
        gradient and Hessian as ndarrays, with terms the order-2
        (``_obs_terms``, ``_alpha_and_grad``) results behind them."""
        theta, vartheta = float(z[0]), float(z[1])
        terms = (
            _obs_terms(family, theta, vartheta, big_g, x, t, 2),
            _alpha_and_grad(family, theta, vartheta, big_g, s, 2),
        )
        value, (g_t, g_v), (h_tt, h_tv, h_vv) = _profile_terms(m, *terms)
        return -value, -np.array([g_t, g_v]), -np.array([[h_tt, h_tv], [h_tv, h_vv]]), terms

    return neg_lp


def _inv2(mat: np.ndarray) -> np.ndarray | None:
    """Closed-form inverse of a 2x2 matrix; None if singular or not finite."""
    (a, b), (c, d) = np.asarray(mat, dtype=float)
    det = a * d - b * c
    inv = np.array([[d, -b], [-c, a]]) / det if det != 0.0 else np.full((2, 2), np.nan)
    return inv if np.all(np.isfinite(inv)) else None


def _clip(v: float, lo: float, hi: float) -> float:
    """``np.clip`` on one float: NaN passes through, a tie returns the bound."""
    return v if v != v else min(hi, max(lo, v))


def _held(grad, z, lo, hi) -> list[bool]:
    """Per coordinate: no feasible step can move it downhill, because it is
    on a bound with the gradient of -l_p pushing outward, or its box is one
    point."""
    return [
        (zi <= l and g > 0.0) or (zi >= h and g < 0.0) or l == h
        for g, zi, l, h in zip(grad, z, lo, hi)
    ]


def _projected_size(grad, z, lo, hi) -> float:
    """Max-norm of the projected gradient of -l_p (zero on held coordinates).
    A NaN on a free coordinate wins, as in ``np.max``, so it never reads as
    converged."""
    size = 0.0
    for g, held in zip(grad, _held(grad, z, lo, hi)):
        if not held and (abs(g) > size or g != g):
            size = abs(g)
    return size


def minimize(neg_lp, z0, lo, hi, m: int):
    """Minimize -l_p over the box [lo, hi] by projected Newton steps.

    Each iteration holds the coordinates ``_held`` names, steps with the
    exact Hessian on the free block (a diagonally scaled gradient step
    where that block is not positive definite) and backtracks along the
    projection onto the box (Bertsekas 1982).  A trial point is accepted
    on the Armijo rule, or, where objective differences fall below float
    resolution near the optimum and a line search would stall, when it
    shrinks the projected gradient.  Stops when the projected gradient
    is at most _GTOL_SCALE * M.

    ``neg_lp(z)`` takes the pair z and returns (-l_p, gradient, Hessian,
    terms) with ndarray gradient and Hessian; lo and hi are pairs of
    floats.  The solver does its 2x2 algebra in Python floats, converting
    each evaluation once: at M ~ 1e3 an iteration of NumPy 2-vectors costs
    as much as an evaluation, and IEEE float64 arithmetic in the same order
    gives the same bits.  Returns (z, grad, terms, iterations, converged):
    z and grad, the gradient of -l_p at z, are pairs of floats, and terms
    the (``_obs_terms``, ``_alpha_and_grad``) results of the order-2
    evaluation at z.
    """

    def evaluate(z):
        f, grad, hess, terms = neg_lp(z)
        return f, grad.tolist(), hess.tolist(), terms

    tol = _GTOL_SCALE * max(m, 1)
    z = tuple(_clip(float(v), l, h) for v, l, h in zip(z0, lo, hi))
    f, grad, hess, terms = evaluate(z)
    size = _projected_size(grad, z, lo, hi)
    for nit in range(_MAX_ITER):
        if size <= tol:
            return z, grad, terms, nit, True
        (g0, g1), ((h00, h01), (h10, h11)) = grad, hess
        free0, free1 = (not held for held in _held(grad, z, lo, hi))
        pg0, pg1 = (g0 if free0 else 0.0), (g1 if free1 else 0.0)
        # The free block of the Hessian, the identity on held coordinates.
        b00, b11 = (h00 if free0 else 1.0), (h11 if free1 else 1.0)
        b01, b10 = (h01, h10) if free0 and free1 else (0.0, 0.0)
        det = b00 * b11 - b01 * b10
        inv = ()
        if b00 > 0.0 and det > 0.0:
            inv = (b11 / det, -b01 / det, -b10 / det, b00 / det)
        if inv and all(map(math.isfinite, inv)):
            step = (-(inv[0] * pg0 + inv[1] * pg1), -(inv[2] * pg0 + inv[3] * pg1))
        else:
            step = tuple(
                -p / (abs(b) if abs(b) > 0.0 and math.isfinite(b) else 1.0)
                for p, b in ((pg0, b00), (pg1, b11))
            )
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            trial = tuple(_clip(zi + t * si, l, h) for zi, si, l, h in zip(z, step, lo, hi))
            f_new, grad_new, hess_new, terms_new = evaluate(trial)
            size_new = _projected_size(grad_new, trial, lo, hi)
            slope = g0 * (trial[0] - z[0]) + g1 * (trial[1] - z[1])
            if f_new <= f + _ARMIJO * slope or (
                f_new - f <= _RESOLUTION * abs(f) and size_new < size
            ):
                break
            t *= 0.5
        else:
            return z, grad, terms, nit, False
        z, f, grad, hess, terms, size = trial, f_new, grad_new, hess_new, terms_new, size_new
    return z, grad, terms, _MAX_ITER, size <= tol


def _finalize(
    family: CopulaFamily,
    sample: TruncatedSample,
    z,
    terms,
    nit: int,
    converged: bool,
    at_boundary: bool,
) -> FitResult:
    """The FitResult at z, with log_lik and info_hat from ``terms``, the
    solve's last evaluation.  n_hat's ``alpha`` call returns terms' alpha
    bit for bit; it stays because bench/tracer.py hooks that name."""
    obs, a_terms = terms
    params_hat = ModelParams(family, float(z[0]), float(z[1]))
    # theta's box is a numerical guard, not a boundary of the model: a
    # theta_hat on either of its bounds is no maximizer.
    converged = converged and EPS_THETA < params_hat.theta < 1.0 / EPS_THETA
    n_hat = profile_n(sample.m, alpha(params_hat, sample.design))
    info = _info_hat(obs, a_terms, n_hat)
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
        log_lik=_log_lik(sample.m, n_hat, obs[0], a_terms[0], sample.design),
        info_hat=info,
        cov_hat=cov,
        se=(se_theta, se_vartheta),
        converged=converged,
        iterations=nit,
    )


def _solve_face(neg_lp, naive: float, m: int):
    """Maximize over theta on the face vartheta = 0, from (naive, 0).

    This is the restricted fit's solve.  ``fit`` reuses it whenever its
    estimate snaps to the boundary, so a boundary theta_hat is the
    restricted theta_hat, and the boundary KKT sign check runs at the
    theta-stationary point on the face.
    """
    return minimize(neg_lp, (naive, 0.0), *_FACE_BOX, m)


def fit(sample: TruncatedSample, family: CopulaFamily) -> FitResult:
    """Maximize the profile likelihood over the family's parameter box."""
    if sample.m < 2:
        raise DataError(f"need at least 2 observations, got {sample.m}")
    x, t = sample.x_arr, sample.t_arr
    if float(np.ptp(x)) == 0.0 and float(np.ptp(t)) == 0.0:
        raise DataError("all observations identical; likelihood is degenerate")
    vt_lo, vt_hi = vartheta_range(family)
    box = ((EPS_THETA, vt_lo), (1.0 / EPS_THETA, vt_hi))
    naive = sample.m / float(np.sum(x))
    neg_lp = _objective_factory(family, sample.design, x, t)
    z, _, terms, nit, converged = minimize(
        neg_lp, (naive, _VARTHETA_START[family]), *box, sample.m
    )
    # Snap to the boundary: the face solve returns vartheta = 0 exactly.
    at_boundary = bool(family is CopulaFamily.GUMBEL_BARNETT and z[1] < _SNAP_TOL)
    if at_boundary:
        z, grad, terms, face_nit, converged = _solve_face(neg_lp, naive, sample.m)
        nit += face_nit
        # The boundary KKT sign condition: the vartheta score sum psi_2 =
        # -grad[1] points out of the box, within ten times the solve's tolerance.
        converged = bool(converged and grad[1] >= -10.0 * _GTOL_SCALE * sample.m)
    return _finalize(family, sample, z, terms, nit, converged, at_boundary)


def fit_restricted(sample: TruncatedSample, family: CopulaFamily) -> FitResult:
    """Maximize over theta with vartheta fixed at 0 (independence)."""
    if sample.m < 1:
        raise DataError("need at least 1 observation")
    x, t = sample.x_arr, sample.t_arr
    naive = sample.m / float(np.sum(x))
    neg_lp = _objective_factory(family, sample.design, x, t)
    z, _, terms, nit, converged = _solve_face(neg_lp, naive, sample.m)
    # vartheta = 0 is imposed, not found, so the boundary flag stays off
    # and only theta-stationarity is required for convergence.
    return _finalize(family, sample, z, terms, nit, converged, False)


def _info_hat(obs, a_terms, n_hat: int) -> np.ndarray:
    """(1/n_hat) * sum_j psi_j psi_j' from one ``_obs_terms`` result and one
    ``_alpha_and_grad`` result of the same point."""
    psi1, psi2 = _psi(obs, a_terms)
    # Elementwise reductions: a BLAS dot of length M wakes a thread pool.
    cross = float(np.sum(psi1 * psi2))
    return np.array(
        [[float(np.sum(psi1 * psi1)), cross], [cross, float(np.sum(psi2 * psi2))]]
    ) / n_hat


def fisher_info_hat(params_hat: ModelParams, sample: TruncatedSample) -> np.ndarray:
    """Plug-in Fisher information (1/n_hat) * sum_j psi_j psi_j'."""
    fam, th, vt = params_hat.family, params_hat.theta, params_hat.vartheta
    big_g = sample.design.big_g
    obs = _obs_terms(fam, th, vt, big_g, sample.x_arr, sample.t_arr, 1)
    a_terms = _alpha_and_grad(fam, th, vt, big_g, sample.design.s, 1)
    return _info_hat(obs, a_terms, profile_n(sample.m, a_terms[0]))
