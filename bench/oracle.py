"""Reference computations for the benchmark's correctness checks.

Everything here is derived from the model's definition and imports
nothing from ``truncdep``: the benchmark compares the program's outputs
against these values, so they must not share its code path.

Model.  A latent lifetime X ~ Exp(theta) and entry time T ~ Unif[0, G]
are coupled by a copula C(u, v) with u = F(x) = 1 - exp(-theta*x) and
v = t/G.  A pair is observed when 0 < t < G and t <= x <= t + s.  With
a = log(1-u) and b = log(1-v):

* Gumbel-Barnett: C = u + v - 1 + exp(a + b - vt*a*b),
  dC/du = 1 - (1 - vt*b) exp(b - vt*a*b),
  dC/dv = 1 - (1 - vt*a) exp(a - vt*a*b),
  c = exp(-vt*a*b) [(1 - vt*a)(1 - vt*b) - vt].
* FGM: C = uv(1 + vt(1-u)(1-v)), dC/du = v(1 + vt(1-2u)(1-v)),
  dC/dv = u(1 + vt(1-u)(1-2v)), c = 1 + vt(1-2u)(1-2v).

The latent density is c(u, v) * theta*exp(-theta*x) / G, and the
selection probability alpha is the average over T of the conditional
hit probability P(t <= X <= t+s | T = t) = dC/dv(F(t+s), v) - dC/dv(F(t), v),
a one-dimensional integral done by adaptive quadrature.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate

GB = "gb"
FGM = "fgm"


def uniform_pairs(rng: np.random.Generator, n: int) -> np.ndarray:
    """The documented stream: two uniforms per unit, U first; exact 0 or 1 redrawn."""
    uv = rng.random((n, 2))
    bad = (uv == 0.0) | (uv == 1.0)
    while bad.any():
        uv[bad] = rng.random(int(bad.sum()))
        bad = (uv == 0.0) | (uv == 1.0)
    return uv


def fgm_inv_cond(u: np.ndarray, p: np.ndarray, vt: float) -> np.ndarray:
    """Root in [0, 1] of k v^2 - (1+k) v + p = 0, k = vt(1-2u).

    Written as 2p / ((1+k) + sqrt(disc)), the form without cancellation
    for small k.
    """
    k = vt * (1.0 - 2.0 * u)
    return 2.0 * p / ((1.0 + k) + np.sqrt((1.0 + k) ** 2 - 4.0 * k * p))


def gb_inv_cond(u: np.ndarray, p: np.ndarray, vt: float) -> np.ndarray:
    """Solve dC/du(u, v) = p for v by bisection (increasing in v)."""
    a = np.log1p(-u)
    lo = np.zeros_like(u)
    hi = np.ones_like(u)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        b = np.log1p(-mid)
        below = 1.0 - (1.0 - vt * b) * np.exp(b - vt * a * b) < p
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def latent(family: str, theta: float, vt: float, big_g: float, uv: np.ndarray):
    """Latent (x, t) arrays by conditional inversion of the uniform pairs."""
    u, p = uv[:, 0], uv[:, 1]
    inv = gb_inv_cond if family == GB else fgm_inv_cond
    v = p.copy() if family == GB and vt == 0.0 else inv(u, p, vt)
    return -np.log1p(-u) / theta, big_g * v


def truncate(x: np.ndarray, t: np.ndarray, big_g: float, s: float):
    keep = (0.0 < t) & (t < big_g) & (t <= x) & (x <= t + s)
    return x[keep], t[keep]


def log_density(family, theta, vt, big_g, x, t) -> np.ndarray:
    """log of c(F(x), t/G) * theta*exp(-theta*x) / G."""
    if family == GB:
        a = -theta * x
        b = np.log1p(-t / big_g)
        log_c = -vt * a * b + np.log((1.0 - vt * a) * (1.0 - vt * b) - vt)
    else:
        u = -np.expm1(-theta * x)
        log_c = np.log1p(vt * (1.0 - 2.0 * u) * (1.0 - 2.0 * t / big_g))
    return log_c + math.log(theta / big_g) - theta * x


def _dc_dv(family: str, u: float, v: float, vt: float) -> float:
    if family == GB:
        a, b = math.log1p(-u), math.log1p(-v)
        return 1.0 - (1.0 - vt * a) * math.exp(a - vt * a * b)
    return u * (1.0 + vt * (1.0 - u) * (1.0 - 2.0 * v))


def _average_over_t(fn, theta: float, big_g: float) -> float:
    # The hit probability concentrates near t = 0 when theta is large;
    # split there so the adaptive rule cannot step over it.
    cut = min(big_g, 60.0 / theta)
    total, _ = integrate.quad(fn, 0.0, cut, epsabs=1e-14, epsrel=1e-12, limit=200)
    if cut < big_g:
        tail, _ = integrate.quad(fn, cut, big_g, epsabs=1e-14, epsrel=1e-12, limit=200)
        total += tail
    return total / big_g


def alpha(family: str, theta: float, vt: float, big_g: float, s: float) -> float:
    """Selection probability P{T <= X <= T+s}."""

    def hit(t: float) -> float:
        v = t / big_g
        u_hi = -math.expm1(-theta * (t + s))
        u_lo = -math.expm1(-theta * t)
        return _dc_dv(family, u_hi, v, vt) - _dc_dv(family, u_lo, v, vt)

    return _average_over_t(hit, theta, big_g)


def profile_loglik(family, theta, vt, big_g, s, x, t) -> float:
    """l_p(theta, vt) = sum_j log f(x_j, t_j) - M log alpha."""
    logf = log_density(family, theta, vt, big_g, x, t)
    return float(np.sum(logf)) - x.size * math.log(alpha(family, theta, vt, big_g, s))


def gb_vartheta_score_at_zero(theta, big_g, s, x, t) -> float:
    """d l_p / d vt at (theta, 0) for Gumbel-Barnett.

    d log c / d vt at vt = 0 is -ab - a - b - 1, and
    d(dC/dv)/d vt at vt = 0 is a e^a (1 + b), integrated like alpha.
    """
    a = -theta * x
    b = np.log1p(-t / big_g)
    sum_dlogf = float(np.sum(-a * b - a - b - 1.0))

    def d_hit(tt: float) -> float:
        bb = math.log1p(-tt / big_g)
        out = 0.0
        for xx, sign in ((tt + s, 1.0), (tt, -1.0)):
            aa = -theta * xx
            out += sign * aa * math.exp(aa) * (1.0 + bb)
        return out

    d_alpha = _average_over_t(d_hit, theta, big_g)
    return sum_dlogf - x.size * d_alpha / alpha(GB, theta, 0.0, big_g, s)
