"""Selection probability alpha = P{T <= X <= T+s} and its derivatives.

A unit born at T with lifetime X enters the observed sample only when it
fails inside the observation window, i.e. on the parallelogram
D = {0 < t <= G, t <= x <= t+s}.  The probability alpha of that event
normalizes the observed-data likelihood, and its first two derivative
orders feed the score and information calculations.  ``_alpha_and_grad``
returns alpha with its partials up to one derivative order (0, 1 or 2);
``alpha`` is its order-0 value with the range check.

The Gumbel-Barnett alpha has no closed form, but its lifetime integral
does: alpha = (1/G) int_0^G [S(t | t) - S(t+s | t)] dt with the
conditional survival function S(u | t) = P{X > u | T = t}.  The
birth-time average runs on the fixed 160-node rule of ``_quad`` (machine
precision; one pass over the nodes per call, and a fit makes one call
per objective evaluation), with a rate-adapted rule once theta*G leaves
the cached rule's validated accuracy range.  The first and second
partials integrate the exact partials of S, from the survival pieces in
``copula``, on the same nodes.  FGM alpha is closed form, linear in
vartheta, and written once with its analytic derivatives (``_fgm_chain``).
"""

from __future__ import annotations

import math

import numpy as np

from . import _quad
from .copula import CopulaFamily, ModelParams, StudyDesign, _density, _gb_survival_pieces
from .errors import InvariantError

# Above this value of theta*G the cached rule loses accuracy (the
# integrand's boundary layer gets too thin); switch to the rate-adapted rule,
# whose y range ``_quad.domain_grid_for_rate`` also sets from theta*G.
_FIXED_LIMIT = 60.0


# ---------------------------------------------------------------------------
# Gumbel-Barnett: the survival difference averaged over birth times


def _gb_fixed(theta, vartheta, big_g, s, order: int) -> tuple[float, ...]:
    """The first 1, 3 or 6 ``_alpha_and_grad`` fields for order 0, 1 or 2.

    Sums w * (near - far) on the birth-time rule, with near the survival
    function S (or a partial) at u = t and far at u = t + s.  Parameters
    are not validated: the integrand extends smoothly just outside the box.
    """
    if theta * big_g <= _FIXED_LIMIT:
        L, t, w = _quad.domain_grid(big_g)
    else:
        L, t, w = _quad.domain_grid_for_rate(big_g, theta)
    pieces = _gb_survival_pieces(theta, vartheta, np.stack((t, t + s)), L, order)
    f, grad, hess = _density(pieces, 1.0, order)
    # One reduction over the stacked (k, 2, nodes) fields: per row it is the
    # same pairwise sum, bit for bit, as one np.sum per field.
    fields = np.stack((f, *(grad or ()), *(hess or ())))
    return tuple(np.add.reduce(w * (fields[:, 0] - fields[:, 1]), axis=-1).tolist())


# ---------------------------------------------------------------------------
# FGM: closed form and analytic derivatives


def _fgm_w(a, big_g):
    """W(a) = (1+e^{-aG})/a - 2(1-e^{-aG})/(G a^2) and two derivatives."""
    eg = math.exp(-a * big_g)
    w = (1.0 + eg) / a - 2.0 * (1.0 - eg) / (big_g * a**2)
    wp = (
        -big_g * eg / a
        - (1.0 + eg) / a**2
        - 2.0 * eg / a**2
        + 4.0 * (1.0 - eg) / (big_g * a**3)
    )
    wpp = (
        big_g**2 * eg / a
        + 4.0 * big_g * eg / a**2
        + 2.0 * (1.0 + eg) / a**3
        + 8.0 * eg / a**3
        - 12.0 * (1.0 - eg) / (big_g * a**4)
    )
    return w, wp, wpp


def _fgm_chain(theta, vartheta, big_g, s):
    """All six ``_alpha_and_grad`` fields from the linear-in-vartheta
    decomposition.

    alpha = a0(theta) + vartheta*a1(theta), so the vartheta derivatives
    are exact: d_vartheta = a1, d2_vartheta_vartheta = 0.
    """
    es, eg = math.exp(-theta * s), math.exp(-theta * big_g)
    a_s, bg = 1.0 - es, 1.0 - eg
    a_sp, bgp = s * es, big_g * eg
    a_spp, bgpp = -(s**2) * es, -(big_g**2) * eg
    tg = theta * big_g
    a0 = a_s * bg / tg
    a0p = (a_sp * bg + a_s * bgp) / tg - a_s * bg / (theta * tg)
    a0pp = (
        (a_spp * bg + 2.0 * a_sp * bgp + a_s * bgpp) / tg
        - 2.0 * (a_sp * bg + a_s * bgp) / (theta * tg)
        + 2.0 * a_s * bg / (theta**2 * tg)
    )
    e2s = math.exp(-2.0 * theta * s)
    a2, a2p, a2pp = 1.0 - e2s, 2.0 * s * e2s, -4.0 * s**2 * e2s
    w1, w1p, w1pp = _fgm_w(theta, big_g)
    w2, w2p, w2pp = _fgm_w(2.0 * theta, big_g)
    a1 = (a2 * w2 - a_s * w1) / big_g
    a1p = (a2p * w2 + 2.0 * a2 * w2p - a_sp * w1 - a_s * w1p) / big_g
    a1pp = (
        a2pp * w2 + 4.0 * a2p * w2p + 4.0 * a2 * w2pp
        - a_spp * w1 - 2.0 * a_sp * w1p - a_s * w1pp
    ) / big_g
    return (
        a0 + vartheta * a1,
        a0p + vartheta * a1p,
        a1,
        a0pp + vartheta * a1pp,
        a1p,
        0.0,
    )


# ---------------------------------------------------------------------------
# public operations


def alpha(params: ModelParams, design: StudyDesign) -> float:
    """Selection probability alpha(theta, vartheta) in (0, 1).

    FGM is closed form; Gumbel-Barnett averages the closed-form window
    hit probability over birth times on the fixed 160-node rule.
    """
    (value,) = _alpha_and_grad(
        params.family, params.theta, params.vartheta, design.big_g, design.s, 0
    )
    if not 0.0 < value < 1.0:
        raise InvariantError(f"alpha={value!r} outside (0,1)")
    return value


def _alpha_and_grad(
    family: CopulaFamily,
    theta: float,
    vartheta: float,
    big_g: float,
    s: float,
    order: int,
) -> tuple[float, ...]:
    """The first 1, 3 or 6 of (alpha, dalpha/dtheta, dalpha/dvartheta,
    d2alpha/dtheta2, d2alpha/dtheta dvartheta, d2alpha/dvartheta2) for
    ``order`` 0, 1 or 2, without box validation.

    FGM is fully analytic.  For Gumbel-Barnett every partial integrates
    the exact partial of the survival difference (differentiation under
    the integral is valid: the integrand and its partials are bounded by
    integrable multiples of e^{-y}) in one pass over the birth-time rule.
    """
    if family is CopulaFamily.FGM:
        return _fgm_chain(theta, vartheta, big_g, s)[: (1, 3, 6)[order]]
    return _gb_fixed(theta, vartheta, big_g, s, order)
