"""Poisson-approximated likelihood, profiled sample size, and scores.

The latent sample size n is unknown, so the observed data are modeled as
a Poisson-type likelihood in (theta, vartheta, n):

    log l(theta, vartheta, n) = sum_j log(n f(x_j, t_j)) + (G+s)G - n alpha

``profile_n`` eliminates n as the largest integer strictly below M/alpha.
Substituting the continuous surrogate n = M/alpha and dropping terms
constant in (theta, vartheta) leaves the profile objective

    l_p(theta, vartheta) = sum_j log f(x_j, t_j) - M log alpha,

whose gradient is exactly the sum of the per-observation profile scores
``profile_score``; the estimation module maximizes l_p directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .copula import CopulaFamily, ModelParams, StudyDesign
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
):
    """(log f, dlogf/dtheta, dlogf/dvartheta) elementwise on support points.

    Parameters are taken raw (no box validation): finite-difference
    consumers evaluate just outside the admissible box, where the
    formulas still extend smoothly.  The Gumbel-Barnett score denominator
    (vt*th*x+1)(vt*L-1)+vt equals -P and is bounded away from zero on D
    for admissible parameters; violation raises InvariantError.
    """
    logf = g1 = g2 = None
    if family is CopulaFamily.GUMBEL_BARNETT:
        L = np.log1p(-t / big_g)
        B = 1.0 - vartheta * L
        A = vartheta * theta * x + 1.0
        P = A * B - vartheta
        if not np.all(P > 0.0):
            raise InvariantError("score/density denominator hit zero on D")
        if want_logf:
            logf = math.log(theta / big_g) - theta * x * B + np.log(P)
        if want_grads:
            dnom = -P
            vl1 = vartheta * L - 1.0  # vt*L - 1 = -B
            g1 = 1.0 / theta + x * vl1 + vartheta * x * vl1 / dnom
            g2 = theta * x * L + ((2.0 * vartheta * theta * x + 1.0) * L - theta * x + 1.0) / dnom
    else:
        ex = np.exp(-theta * x)
        q = 1.0 - 2.0 * t / big_g
        c = 1.0 + vartheta * (2.0 * ex - 1.0) * q
        if not np.all(c > 0.0):
            raise InvariantError("FGM copula-density factor hit zero on D")
        if want_logf:
            logf = math.log(theta / big_g) - theta * x + np.log(c)
        if want_grads:
            g1 = 1.0 / theta - x - 2.0 * vartheta * x * ex * q / c
            g2 = (2.0 * ex - 1.0) * q / c
    return logf, g1, g2


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
    _, g1, g2 = _obs_terms(
        params.family, params.theta, params.vartheta, design.big_g, xa, ta,
        want_logf=False,
    )
    a, d_t, d_v = _alpha_and_grad(
        params.family, params.theta, params.vartheta, design.big_g, design.s
    )
    return ProfileScore(float(g1[0]) - d_t / a, float(g2[0]) - d_v / a)
