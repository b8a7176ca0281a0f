"""Poisson-approximated likelihood, profiled sample size, and scores.

The latent sample size n is unknown, so the observed data are modeled as
a Poisson-type likelihood in (theta, vartheta, n):

    log l(theta, vartheta, n) = sum_j log(n f(x_j, t_j)) + (G+s)G - n alpha

``profile_n`` eliminates n as the largest integer strictly below M/alpha.
Substituting the continuous surrogate n = M/alpha and dropping terms
constant in (theta, vartheta) leaves the profile objective

    l_p(theta, vartheta) = sum_j log f(x_j, t_j) - M log alpha,

whose gradient is exactly the sum of the per-observation profile scores
psi = grad log f - grad alpha / alpha (``profile_score``).  ``_profile_terms``
writes l_p, the summed psi and the exact Hessian once, from one evaluation
of the observed-data terms and of alpha; the estimation module maximizes
l_p with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .copula import CopulaFamily, ModelParams, StudyDesign, _log_density, _pieces
from .errors import DomainError, InvariantError
from .sampling import LatentPair, ObservedPair, TruncatedSample, _in_region
from .selection import _alpha_and_grad, alpha

__all__ = [
    "ProfileScore",
    "log_likelihood",
    "profile_n",
    "full_score",
    "profile_score",
]


@dataclass(frozen=True)
class ProfileScore:
    """The two components of the per-observation profile score."""

    s_theta: float
    s_vartheta: float


def _obs_terms(
    family: CopulaFamily,
    theta: float,
    vartheta: float,
    big_g: float,
    x: np.ndarray,
    t: np.ndarray,
    *,
    want_logf: bool = True,
    want_grads: bool = True,
    want_hess: bool = False,
):
    """(log f, dlogf/dtheta, dlogf/dvartheta) elementwise on support points.

    ``want_hess`` appends the (theta-theta, theta-vartheta, vartheta-vartheta)
    second partials.  All come from the family's kernel in ``copula``, with
    parameters taken raw (no box validation): the formulas extend smoothly
    just outside the admissible box, where the tests' finite differences
    evaluate them.  The copula-density factor c divides the score and is
    bounded away from zero on D for admissible parameters, or InvariantError
    is raised.
    """
    order = 2 if want_hess else 1 if want_grads else 0
    p = _pieces(family, theta, vartheta, big_g, x, t, order)
    if not np.all(p[1] > 0.0):
        raise InvariantError(f"{family.value} copula-density factor hit zero on D")
    logf, (g1, g2), hess = _log_density(p, theta, big_g, order, want_logf=want_logf)
    return (logf, g1, g2, hess) if want_hess else (logf, g1, g2)


def _profile_terms(m: int, obs, a_terms):
    """(l_p, sum psi, Hessian of l_p) from one ``_obs_terms`` result and one
    ``_alpha_and_grad`` result of the same point and order, m observations.

    sum psi = sum grad log f - m grad alpha / alpha; the Hessian, None
    at order 1, is sum H log f - m (H alpha / alpha - grad alpha grad
    alpha' / alpha^2).
    """
    logf, g1, g2, *h = obs
    a, d_t, d_v, *d2 = a_terms
    value = float(np.sum(logf)) - m * math.log(a)
    grad = np.array([float(np.sum(g1)) - m * d_t / a, float(np.sum(g2)) - m * d_v / a])
    if not h:
        return value, grad, None
    h_tt, h_tv, h_vv = (float(np.sum(hk)) - m * d2k / a for hk, d2k in zip(h[0], d2))
    r = np.array([d_t, d_v]) / a
    return value, grad, np.array([[h_tt, h_tv], [h_tv, h_vv]]) + m * np.outer(r, r)


def log_likelihood(params: ModelParams, n: float, sample: TruncatedSample) -> float:
    """log l(theta, vartheta, n) for a real-valued n > 0.

    n enters continuously; the profiling step rounds only at the end.
    Observations are guaranteed inside D by the TruncatedSample invariant.
    """
    if not (math.isfinite(n) and n > 0.0):
        raise DomainError(f"n={n!r} must be a positive real")
    logf, _, _ = _obs_terms(
        params.family,
        params.theta,
        params.vartheta,
        sample.design.big_g,
        sample.x_arr,
        sample.t_arr,
        want_grads=False,
    )
    a = alpha(params, sample.design)
    big_g, s = sample.design.big_g, sample.design.s
    return float(
        sample.m * math.log(n) + np.sum(logf) + (big_g + s) * big_g - n * a
    )


def profile_n(m: int, alpha_value: float) -> int:
    """Largest integer strictly below m/alpha.

    Equals ceil(m/alpha) - 1; in particular the exact-integer case
    m/alpha in N returns m/alpha - 1.
    """
    if m != int(m) or m < 1:
        raise DomainError(f"m={m!r} must be a positive integer")
    if not 0.0 < alpha_value < 1.0:
        raise DomainError(f"alpha={alpha_value!r} outside (0,1)")
    return math.ceil(m / alpha_value) - 1


def full_score(params: ModelParams, n: float, sample: TruncatedSample) -> tuple[float, float]:
    """Gradient of log_likelihood in (theta, vartheta) at real n > 0."""
    if not (math.isfinite(n) and n > 0.0):
        raise DomainError(f"n={n!r} must be a positive real")
    _, g1, g2 = _obs_terms(
        params.family,
        params.theta,
        params.vartheta,
        sample.design.big_g,
        sample.x_arr,
        sample.t_arr,
        want_logf=False,
    )
    _, d_t, d_v = _alpha_and_grad(
        params.family, params.theta, params.vartheta,
        sample.design.big_g, sample.design.s,
    )
    return (float(np.sum(g1) - n * d_t), float(np.sum(g2) - n * d_v))


def _pair_xt(pair: ObservedPair | LatentPair) -> tuple[float, float]:
    if isinstance(pair, ObservedPair):
        return pair.x_tilde, pair.t_tilde
    if isinstance(pair, LatentPair):
        return pair.x, pair.t
    raise DomainError(f"pair must be ObservedPair or LatentPair, got {pair!r}")


def profile_score(
    params: ModelParams,
    pair: ObservedPair | LatentPair,
    design: StudyDesign,
) -> ProfileScore:
    """Per-observation profile score psi(x, t); zero outside D.

    The indicator uses the closed interval [t, t+s] in x and the open
    interval (0, G) in t.
    """
    x, t = _pair_xt(pair)
    xa, ta = np.array([x], dtype=float), np.array([t], dtype=float)
    if not _in_region(xa, ta, design)[0]:
        return ProfileScore(0.0, 0.0)
    _, psi, _ = _profile_terms(
        1,
        _obs_terms(params.family, params.theta, params.vartheta, design.big_g, xa, ta),
        _alpha_and_grad(
            params.family, params.theta, params.vartheta, design.big_g, design.s
        ),
    )
    return ProfileScore(float(psi[0]), float(psi[1]))
