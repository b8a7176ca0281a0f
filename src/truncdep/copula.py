"""Copula layer of the dependent-truncation lifetime model.

Two one-parameter copula families link an exponential lifetime X (rate
``theta``) to a uniform birth time T on [0, G]:

* Gumbel-Barnett, ``C(u,v) = u + v - 1 + (1-u)(1-v) exp(-vt*log(1-u)*log(1-v))``
  with ``vt in [0, 1)``; it induces negative dependence only.
* Farlie-Gumbel-Morgenstern (FGM), ``C(u,v) = u*v*(1 + vt*(1-u)*(1-v))``
  with ``vt in (-1, 1)``.

This module holds the copula CDF, the conditional CDF ``c_u(v) = dC/du``
and its inverse (the workhorse of conditional-inversion sampling), the
joint density and CDF of (X, T) under the exponential-by-uniform margins,
and Kendall's tau.

Each family's log-density and its exact first and second partials are
written once here for the likelihood and ``joint_density``; the alpha
integrand uses the Gumbel-Barnett survival function, written the same way.

Public operations take and return Python floats and validate their
domains.  The ``_*`` helpers are vectorized, assume interior inputs, and
skip validation; the other modules build on them.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, InvariantError

# Parameter box constants.  theta is confined to [EPS_THETA, 1/EPS_THETA];
# vartheta stays EPS_VARTHETA away from the degenerate endpoints of each
# family's range.
EPS_THETA = 1e-4
EPS_VARTHETA = 1e-6


class CopulaFamily(enum.Enum):
    """Dispatch tag for the two supported copula families."""

    GUMBEL_BARNETT = "gumbel_barnett"
    FGM = "fgm"


def vartheta_range(family: CopulaFamily) -> tuple[float, float]:
    """Admissible closed interval for the copula parameter of ``family``."""
    if family is CopulaFamily.GUMBEL_BARNETT:
        return (0.0, 1.0 - EPS_VARTHETA)
    return (EPS_VARTHETA - 1.0, 1.0 - EPS_VARTHETA)


@dataclass(frozen=True)
class ModelParams:
    """A parameter point (theta, vartheta) for one copula family.

    Parameters
    ----------
    family : CopulaFamily
    theta : float
        Exponential rate of the lifetime margin, in 1/years.
        Must lie in [EPS_THETA, 1/EPS_THETA].
    vartheta : float
        Copula parameter; family-dependent range, see ``vartheta_range``.

    Construction validates the box and raises DomainError on violation.
    """

    family: CopulaFamily
    theta: float
    vartheta: float

    def __post_init__(self) -> None:
        if not isinstance(self.family, CopulaFamily):
            raise DomainError(f"family must be a CopulaFamily, got {self.family!r}")
        th = self.theta
        if not (math.isfinite(th) and EPS_THETA <= th <= 1.0 / EPS_THETA):
            raise DomainError(
                f"theta={th!r} outside [{EPS_THETA}, {1.0 / EPS_THETA}]"
            )
        _check_vartheta(self.family, self.vartheta)


@dataclass(frozen=True)
class StudyDesign:
    """Study geometry: birth-period length G and observation window s.

    Both are strictly positive, finite, and expressed in years.  Births
    happen uniformly on [0, G]; a unit is observed when its failure falls
    inside the window of length ``s`` that follows the birth period.
    """

    big_g: float
    s: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.big_g) and self.big_g > 0.0):
            raise DomainError(f"big_g={self.big_g!r} must be positive and finite")
        if not (math.isfinite(self.s) and self.s > 0.0):
            raise DomainError(f"s={self.s!r} must be positive and finite")


# ---------------------------------------------------------------------------
# validation helpers


def _check_vartheta(family: CopulaFamily, vartheta: float) -> None:
    lo, hi = vartheta_range(family)
    if not (math.isfinite(vartheta) and lo <= vartheta <= hi):
        raise DomainError(
            f"vartheta={vartheta!r} outside [{lo}, {hi}] for {family.value}"
        )


def _check_unit(name: str, value: float, *, open_interval: bool) -> None:
    ok = math.isfinite(value) and (
        0.0 < value < 1.0 if open_interval else 0.0 <= value <= 1.0
    )
    if not ok:
        kind = "(0,1)" if open_interval else "[0,1]"
        raise DomainError(f"{name}={value!r} outside {kind}")


# ---------------------------------------------------------------------------
# copula CDF and conditionals


def copula_cdf(family: CopulaFamily, u: float, v: float, vartheta: float) -> float:
    """Copula CDF C(u, v).

    Accepts the closed unit square including the boundary, where the
    grounded/uniform-margin values are returned exactly.
    """
    _check_vartheta(family, vartheta)
    _check_unit("u", u, open_interval=False)
    _check_unit("v", v, open_interval=False)
    if family is CopulaFamily.FGM:
        c = u * v * (1.0 + vartheta * (1.0 - u) * (1.0 - v))
        return min(max(c, 0.0), 1.0)
    if u == 0.0 or v == 0.0:
        return 0.0
    if u == 1.0:
        return v
    if v == 1.0:
        return u
    a = math.log1p(-u)
    b = math.log1p(-v)
    # (1-u)(1-v)e^{-vt*a*b} == exp(a + b - vt*a*b), which avoids the
    # underflow of the separate product near the upper boundary.
    c = u + v - 1.0 + math.exp(a + b - vartheta * a * b)
    return min(max(c, 0.0), 1.0)


def _gb_cond_cdf(a, b, vartheta):
    """c_u(v) for Gumbel-Barnett at a = log(1-u), b = log(1-v), interior only."""
    return 1.0 - np.exp(b - vartheta * a * b) * (1.0 - vartheta * b)


def cond_cdf_given_u(family: CopulaFamily, u: float, v: float, vartheta: float) -> float:
    """Conditional CDF c_u(v) = dC(u,v)/du of V given U = u.

    ``u`` must be interior: the Gumbel-Barnett form involves log(1-u).
    Nondecreasing in v with c_u(0) = 0 and c_u(1) = 1.
    """
    _check_vartheta(family, vartheta)
    _check_unit("u", u, open_interval=True)
    _check_unit("v", v, open_interval=False)
    if family is CopulaFamily.FGM:
        c = v + vartheta * (1.0 - 2.0 * u) * v * (1.0 - v)
        return min(max(c, 0.0), 1.0)
    if v == 0.0:
        return 0.0
    if v == 1.0:
        return 1.0
    a = math.log1p(-u)
    b = math.log1p(-v)
    c = float(_gb_cond_cdf(a, b, vartheta))
    return min(max(c, 0.0), 1.0)


def _fgm_inv_cond(u, p, vartheta):
    """Closed-form inverse of the FGM conditional CDF, vectorized.

    Solves k*v^2 - (1+k)*v + p = 0 with k = vartheta*(1-2u) via the
    cancellation-free quadratic root; exact for k = 0.
    """
    k = vartheta * (1.0 - 2.0 * np.asarray(u, dtype=float))
    p = np.asarray(p, dtype=float)
    disc = (1.0 + k) ** 2 - 4.0 * k * p
    return 2.0 * p / ((1.0 + k) + np.sqrt(disc))


def _gb_inv_cond(u, p, vartheta, *, tol=1e-14, max_iter=100):
    """Inverse of the Gumbel-Barnett conditional CDF, vectorized.

    Works in w = -log(1-v) >= 0, where c_u(v) = p becomes

        g(w) = -(1 - vartheta*a) * w + log(1 + vartheta*w) - log(1-p) = 0

    with a = log(1-u) <= 0.  g is strictly decreasing and concave, so a
    Newton iteration started left of the root overshoots once and then
    converges monotonically from the right; a bracket guards against
    floating-point stalls.  |g| <= tol implies the conditional-CDF
    residual |c_u(v) - p| <= (1-p)*|g|.
    """
    u = np.asarray(u, dtype=float)
    p = np.asarray(p, dtype=float)
    a = np.log1p(-u)
    slope = 1.0 - vartheta * a  # >= 1
    target = np.log1p(-p)  # < 0
    if vartheta == 0.0:
        return -np.expm1(target / slope)  # slope == 1, exact root

    w = -target / slope  # g(w0) = log1p(vt*w0) >= 0: start left of the root
    lo = np.array(w, copy=True)
    hi = np.full_like(w, np.inf)
    g = np.log1p(vartheta * w)
    for _ in range(max_iter):
        done = np.abs(g) <= tol
        if done.all():
            break
        gp = vartheta / (1.0 + vartheta * w) - slope  # <= vartheta - 1 < 0
        step = g / gp
        w_new = w - step
        np.copyto(lo, w, where=(g > 0.0) & ~done)
        np.copyto(hi, w, where=(g < 0.0) & ~done)
        # Bisect wherever Newton leaves the current bracket.
        bad = (w_new <= lo) | (w_new >= hi)
        mid = np.where(np.isinf(hi), 2.0 * lo + 1.0, 0.5 * (lo + hi))
        w = np.where(done, w, np.where(bad, mid, w_new))
        g = np.where(
            done, g, -slope * w + np.log1p(vartheta * w) - target
        )
    else:
        if np.max(np.abs(g)) > 1e-12:
            raise ConvergenceError(
                "conditional-CDF inversion did not converge "
                f"(max residual {np.max(np.abs(g)):.3e})"
            )
    return -np.expm1(-w)


def inv_cond_cdf_given_u(
    family: CopulaFamily, u: float, p: float, vartheta: float
) -> float:
    """Inverse v of c_u(v) = p, accurate to |c_u(v) - p| <= 1e-12."""
    _check_vartheta(family, vartheta)
    _check_unit("u", u, open_interval=True)
    _check_unit("p", p, open_interval=True)
    if family is CopulaFamily.FGM:
        v = float(_fgm_inv_cond(u, p, vartheta))
    else:
        v = float(_gb_inv_cond(u, p, vartheta))
    return min(max(v, 5e-324), 1.0 - 1e-16)


# ---------------------------------------------------------------------------
# log-density kernel of (X, T) under Exp(theta) x Unif[0, G] margins
#
# f = (theta/G) e^ell c: only the exponent ell and the copula-density factor
# c depend on the family; the GB survival function is S = e^ell c.  A pieces
# function returns (ell, c, d_lt, d_c, h_lt, h_c), the partials of
# lt = ell + log(k0), with k0 = theta/G or 1, and of c as (theta, vartheta)
# pairs and (theta-theta, theta-vartheta, vartheta-vartheta) triples, None
# above ``order``; one that vanishes identically is 0.0.

_HESS_INDEX = ((0, 0), (0, 1), (1, 1))


def _gb_pieces(theta, vartheta, x, L, order: int):
    """Gumbel-Barnett at (x, L = log(1 - t/G)): ell = -theta*x*B, c = P.

    P = (vartheta*theta*x + 1)*B - vartheta with B = 1 - vartheta*L >= 1 is
    minus the printed bracket and stays >= 1 - vartheta > 0 on the support;
    callers assert rather than clamp.
    """
    B = 1.0 - vartheta * L
    P = (vartheta * theta * x + 1.0) * B - vartheta
    d = h = (None, None)
    if order >= 1:
        tx = theta * x
        d_c_vt = -((2.0 * vartheta * theta * x + 1.0) * L - tx + 1.0)
        d = ((1.0 / theta - x * B, tx * L), (vartheta * x * B, d_c_vt))
    if order == 2:
        h_c = (0.0, x * (1.0 - 2.0 * vartheta * L), -2.0 * theta * x * L)
        h = ((-1.0 / theta**2, x * L, 0.0), h_c)
    return (-theta * x * B, P, *d, *h)


def _gb_survival_pieces(theta, vartheta, u, L, order: int):
    """Gumbel-Barnett S(u | t) = P{X > u | T = t} at (u, L = log(1 - t/G)),
    with ell = -theta*u*B, B = 1 - vartheta*L, and c = 1 + theta*vartheta*u."""
    B = 1.0 - vartheta * L
    d = h = (None, None)
    if order >= 1:
        d = ((-u * B, theta * u * L), (vartheta * u, theta * u))
    if order == 2:
        h = ((0.0, u * L, 0.0), (0.0, u, 0.0))
    return (-theta * u * B, 1.0 + theta * vartheta * u, *d, *h)


def _fgm_pieces(theta, vartheta, x, q, order: int):
    """FGM at (x, q = 1 - 2t/G): ell = -theta*x, c = 1 + vartheta*(2e^ell - 1)*q."""
    ell = -theta * x
    ex = np.exp(ell)
    w = 2.0 * ex - 1.0
    d = h = (None, None)
    if order >= 1:
        d = ((1.0 / theta - x, 0.0), (-2.0 * vartheta * x * ex * q, w * q))
    if order == 2:
        h_c = (2.0 * vartheta * x * x * ex * q, -2.0 * x * ex * q, 0.0)
        h = ((-1.0 / theta**2, 0.0, 0.0), h_c)
    c = w  # built in place: one M-sized array fewer
    c *= vartheta
    c *= q
    c += 1.0
    return (ell, c, *d, *h)


def _pieces(family: CopulaFamily, theta, vartheta, big_g, x, t, order: int):
    """The family's pieces at support points (x, t); no validation."""
    if family is CopulaFamily.GUMBEL_BARNETT:
        return _gb_pieces(theta, vartheta, x, np.log1p(-t / big_g), order)
    return _fgm_pieces(theta, vartheta, x, 1.0 - 2.0 * t / big_g, order)


def _log_density(pieces, theta: float, big_g: float, order: int, want_logf=True):
    """(log f, gradient, Hessian), each present up to ``order``.

    Consumes ``pieces``: the gradient is built in the arrays of d_c, so
    that no further M-sized arrays are allocated.
    """
    ell, c, d_lt, r, h_lt, h_c = pieces
    logf = math.log(theta / big_g) + ell + np.log(c) if want_logf else None
    if order == 0:
        return logf, (None, None), None
    for r_i in r:
        r_i /= c  # r = grad c / c
    hess = None
    if order == 2:
        hess = tuple(
            h_lt[k] + h_c[k] / c - r[i] * r[j] for k, (i, j) in enumerate(_HESS_INDEX)
        )
    for r_i, d_i in zip(r, d_lt):
        r_i += d_i
    return logf, r, hess


def _density(pieces, factor: float, order: int):
    """(f, gradient, Hessian) of f = K c with K = k0 e^ell, k0 = ``factor``.

    grad f = K (c grad lt + grad c) and H f = K (c (H lt + grad lt grad lt')
    + H c + grad lt grad c' + grad c grad lt'), which divide by nothing.
    """
    ell, c, d_lt, d_c, h_lt, h_c = pieces
    k = np.exp(ell)
    k *= factor
    f = k * c
    if order == 0:
        return f, None, None
    # In place: fewer grid-sized temporaries to allocate and fault in.
    grad = []
    for d_lt_i, d_c_i in zip(d_lt, d_c):
        g = c * d_lt_i
        g += d_c_i
        g *= k
        grad.append(g)
    if order == 1:
        return f, grad, None
    hess = tuple(
        k * (c * (h_lt[n] + d_lt[i] * d_lt[j]) + h_c[n]
             + d_lt[i] * d_c[j] + d_lt[j] * d_c[i])
        for n, (i, j) in enumerate(_HESS_INDEX)
    )
    return f, grad, hess


def joint_density(params: ModelParams, design: StudyDesign, x: float, t: float) -> float:
    """Joint density f(x, t) of (X, T) at a support point.

    The support is x > 0, 0 < t < G.  For Gumbel-Barnett the printed
    density has a leading minus times a bracket that is negative on the
    support for admissible parameters; the sign is asserted, never
    absolute-valued.
    """
    if not (math.isfinite(x) and x > 0.0):
        raise DomainError(f"x={x!r} outside the support (need x > 0)")
    if not (math.isfinite(t) and 0.0 < t < design.big_g):
        raise DomainError(f"t={t!r} outside the support (need 0 < t < G)")
    p = _pieces(params.family, params.theta, params.vartheta, design.big_g, x, t, 0)
    c = float(p[1])
    if not c > 0.0:
        raise InvariantError(
            f"{params.family.value} copula-density factor {c} <= 0 at x={x}, t={t}"
        )
    return float(_density(p, params.theta / design.big_g, 0)[0])


def joint_cdf(params: ModelParams, design: StudyDesign, x: float, t: float) -> float:
    """Joint CDF F(x, t) = P{X <= x, T <= t}; total on the real plane.

    Piecewise: 0 when x <= 0 or t <= 0; the lifetime margin 1 - e^{-theta x}
    when t >= G; otherwise the copula applied to the margins.
    """
    if not (math.isfinite(x) and math.isfinite(t)):
        raise DomainError(f"x={x!r}, t={t!r} must be finite")
    if x <= 0.0 or t <= 0.0:
        return 0.0
    theta, vt, big_g = params.theta, params.vartheta, design.big_g
    if t >= big_g:
        return -math.expm1(-theta * x)
    if params.family is CopulaFamily.GUMBEL_BARNETT:
        # t/G - e^{-theta x} + e^{-theta x} (1 - t/G)^{vt*theta*x + 1}
        ex = math.exp(-theta * x)
        c = t / big_g + ex * math.expm1(
            (vt * theta * x + 1.0) * math.log1p(-t / big_g)
        )
        return min(max(c, 0.0), 1.0)
    u = -math.expm1(-theta * x)
    return copula_cdf(CopulaFamily.FGM, u, t / big_g, vt)


# ---------------------------------------------------------------------------
# Kendall's tau

_TAU_NODES = 128


def kendall_tau(family: CopulaFamily, vartheta: float) -> float:
    """Kendall's tau of the copula.

    FGM has the closed form 2*vartheta/9.  Gumbel-Barnett has none, so tau
    is computed as 1 - 4 * int int dC/du * dC/dv du dv with a 128-point
    tensor Gauss-Legendre rule; the integrand is smooth on (0,1)^2 and the
    rule is spectrally accurate.

    Unlike the model operations, tau is defined on the family's full
    copula-valid parameter interval ([0,1] Gumbel-Barnett, [-1,1] FGM),
    including the endpoints the estimation box keeps away from.
    """
    lo, hi = (0.0, 1.0) if family is CopulaFamily.GUMBEL_BARNETT else (-1.0, 1.0)
    if not (math.isfinite(vartheta) and lo <= vartheta <= hi):
        raise DomainError(
            f"vartheta={vartheta!r} outside [{lo}, {hi}] for {family.value}"
        )
    if family is CopulaFamily.FGM:
        return 2.0 * vartheta / 9.0
    if vartheta == 0.0:
        return 0.0
    nodes, weights = np.polynomial.legendre.leggauss(_TAU_NODES)
    q = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    a = np.log1p(-q)[:, None]  # log(1-u), column
    b = np.log1p(-q)[None, :]  # log(1-v), row
    du = _gb_cond_cdf(a, b, vartheta)
    dv = 1.0 - np.exp(a - vartheta * a * b) * (1.0 - vartheta * a)
    return float(1.0 - 4.0 * (w @ (du * dv) @ w))
