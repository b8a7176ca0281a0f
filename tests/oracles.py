"""Independent oracles for expected-value generation and cross-checks.

Everything here is derived from first principles with its own code path:
closed-form copula derivatives, bisection inversion, one-dimensional
adaptive quadrature of conditional probabilities, brute-force integer
search, and the x,t CSV parsed row by row with the csv module.  Nothing imports from the package's numeric internals, so
agreement between a production routine and its oracle is evidence, not
circularity.  The two exceptions are bit-for-bit references for a
rewrite, not independent derivations: ``numpy_projected_newton``, a
frozen NumPy-array copy of the projected Newton solver, reads the
solver's tolerance constants; ``whole_array_latent``, the latent draw
transformed as one array, calls the package's elementwise transform.
"""

from __future__ import annotations

import csv
import math

import numpy as np
from scipy import integrate

from truncdep import CopulaFamily, DataError, ModelParams, StudyDesign

# ---------------------------------------------------------------------------
# copula building blocks (own derivation)
#
# With a = log(1-u), b = log(1-v) the Gumbel-Barnett copula is
# C = u + v - 1 + exp(a + b - vt*a*b), hence
#   dC/du   = 1 - (1 - vt*b) exp(b - vt*a*b)
#   dC/dv   = 1 - (1 - vt*a) exp(a - vt*a*b)
#   d2C/dudv = exp(-vt*a*b) [(1 - vt*a)(1 - vt*b) - vt]
# FGM: C = uv(1 + vt(1-u)(1-v)), dC/du = v(1 + vt(1-2u)(1-v)),
# density 1 + vt(1-2u)(1-2v).


def copula_cdf_oracle(family: CopulaFamily, u: float, v: float, vt: float) -> float:
    if family is CopulaFamily.GUMBEL_BARNETT:
        a, b = math.log1p(-u), math.log1p(-v)
        return u + v - 1.0 + math.exp(a + b - vt * a * b)
    return u * v * (1.0 + vt * (1.0 - u) * (1.0 - v))


def cond_cdf_oracle(family: CopulaFamily, u: float, v: float, vt: float) -> float:
    """dC/du at (u, v), the conditional CDF of V given U = u."""
    if v <= 0.0:
        return 0.0
    if v >= 1.0:
        return 1.0
    if family is CopulaFamily.GUMBEL_BARNETT:
        a, b = math.log1p(-u), math.log1p(-v)
        return 1.0 - (1.0 - vt * b) * math.exp(b - vt * a * b)
    return v * (1.0 + vt * (1.0 - 2.0 * u) * (1.0 - v))


def copula_density_oracle(family: CopulaFamily, u: float, v: float, vt: float) -> float:
    if family is CopulaFamily.GUMBEL_BARNETT:
        a, b = math.log1p(-u), math.log1p(-v)
        return math.exp(-vt * a * b) * ((1.0 - vt * a) * (1.0 - vt * b) - vt)
    return 1.0 + vt * (1.0 - 2.0 * u) * (1.0 - 2.0 * v)


def inv_cond_oracle(
    family: CopulaFamily, u: float, p: float, vt: float, tol: float = 1e-14
) -> float:
    """Solve cond_cdf_oracle(u, v) = p for v by plain bisection."""
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cond_cdf_oracle(family, u, mid, vt) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# latent density and selection probability (own derivation)
#
# The latent (X, T) density is c(F(x), t/G) * theta*exp(-theta*x) / G with
# F(x) = 1 - exp(-theta*x).  The selection probability is the average over
# T ~ Unif[0, G] of the conditional hit probability
#   P(t <= X <= t+s | T = t) = D2C(F(t+s), t/G) - D2C(F(t), t/G),
# where D2C = dC/dv; a one-dimensional integral, unlike the production
# two-dimensional quadrature of the density.


def latent_density_oracle(params: ModelParams, design: StudyDesign, x: float, t: float) -> float:
    u = -math.expm1(-params.theta * x)
    v = t / design.big_g
    c = copula_density_oracle(params.family, u, v, params.vartheta)
    return c * params.theta * math.exp(-params.theta * x) / design.big_g


def _cond_cdf_given_v(family: CopulaFamily, u: float, v: float, vt: float) -> float:
    """dC/dv at (u, v): conditional CDF of U given V = v, by symmetry."""
    if u <= 0.0:
        return 0.0
    if u >= 1.0:
        return 1.0
    if family is CopulaFamily.GUMBEL_BARNETT:
        a, b = math.log1p(-u), math.log1p(-v)
        return 1.0 - (1.0 - vt * a) * math.exp(a - vt * a * b)
    return u * (1.0 + vt * (1.0 - u) * (1.0 - 2.0 * v))


def alpha_oracle(params: ModelParams, design: StudyDesign) -> float:
    theta, vt = params.theta, params.vartheta
    big_g, s = design.big_g, design.s

    def hit_prob(t: float) -> float:
        v = t / big_g
        u_hi = -math.expm1(-theta * (t + s))
        u_lo = -math.expm1(-theta * t)
        return _cond_cdf_given_v(params.family, u_hi, v, vt) - _cond_cdf_given_v(
            params.family, u_lo, v, vt
        )

    # At large theta the hit probability concentrates near t = 0; split
    # there so the adaptive rule cannot step over the spike.
    cut = min(big_g, 60.0 / theta)
    value, _ = integrate.quad(
        hit_prob, 0.0, cut, epsabs=1e-13, epsrel=1e-12, limit=200
    )
    if cut < big_g:
        tail, _ = integrate.quad(
            hit_prob, cut, big_g, epsabs=1e-13, epsrel=1e-12, limit=200
        )
        value += tail
    return value / big_g


# ---------------------------------------------------------------------------
# finite differences


def central_diff(fn, z: float, h: float) -> float:
    return (fn(z + h) - fn(z - h)) / (2.0 * h)


def fd_gradient(fn, z: np.ndarray, h: np.ndarray | float) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    h = np.broadcast_to(np.asarray(h, dtype=float), z.shape)
    out = np.empty_like(z)
    for i in range(z.size):
        zp, zm = z.copy(), z.copy()
        zp[i] += h[i]
        zm[i] -= h[i]
        out[i] = (fn(zp) - fn(zm)) / (zp[i] - zm[i])
    return out


# ---------------------------------------------------------------------------
# profiled sample size


def profile_n_candidates(
    m: int, alpha_value: float, window: int = 64, tol: float = 1e-8
) -> set[int]:
    """Integer maximizers of the binomial profiling objective, within tol.

    The n-dependent part of the likelihood for M successes out of n
    independent selection trials with probability alpha is
    log C(n, M) + (n - M) log(1 - alpha); searched over a window around
    m/alpha wide enough to contain the maximizer.  The step increment
    log(n(1-alpha)/(n-m)) vanishes as n crosses m/alpha, so at
    exact-integer m/alpha the two neighbors tie and lgamma rounding
    (abs error up to ~1e-9 near n=1e6) cannot order them; every n whose
    objective is within tol of the best is therefore returned.
    """

    def term(n: int) -> float:
        return (
            math.lgamma(n + 1)
            - math.lgamma(n - m + 1)
            + (n - m) * math.log1p(-alpha_value)
        )

    center = max(m, int(m / alpha_value))
    lo = max(m, center - window)
    vals = {n: term(n) for n in range(lo, center + window + 1)}
    best = max(vals.values())
    return {n for n, v in vals.items() if v >= best - tol}


# ---------------------------------------------------------------------------
# reference optimizer


def lbfgsb_multistart_oracle(neg_lp, naive, vartheta_starts, bounds, gtol):
    """Best of SciPy L-BFGS-B runs from a 3x3 grid of starts.

    theta starts at ``naive`` * (0.6, 1.0, 1.6), vartheta at each of
    ``vartheta_starts``; ``neg_lp(z)`` returns -l_p and its gradient first.
    Returns the minimizer with the lowest objective and l_p there.
    """
    from scipy.optimize import minimize

    lo, hi = np.array(bounds, dtype=float).T
    best = None
    for factor in (0.6, 1.0, 1.6):
        for vt in vartheta_starts:
            z0 = np.clip([naive * factor, vt], lo, hi)
            res = minimize(
                lambda z: neg_lp(z)[:2], z0, jac=True, method="L-BFGS-B", bounds=bounds,
                options={"maxiter": 500, "ftol": 1e-15, "gtol": gtol},
            )
            if best is None or res.fun < best.fun:
                best = res
    return best.x, -float(best.fun)


def _np_inv2(mat):
    (a, b), (c, d) = np.asarray(mat, dtype=float)
    det = a * d - b * c
    inv = np.array([[d, -b], [-c, a]]) / det if det != 0.0 else np.full((2, 2), np.nan)
    return inv if np.all(np.isfinite(inv)) else None


def _np_held(grad, z, lo, hi):
    return ((z <= lo) & (grad > 0.0)) | ((z >= hi) & (grad < 0.0)) | (lo == hi)


def _np_projected_size(grad, z, lo, hi):
    free = ~_np_held(grad, z, lo, hi)
    return float(np.max(np.abs(grad[free]), initial=0.0))


def numpy_projected_newton(neg_lp, z0, lo, hi, m):
    """The projected Newton solver on NumPy 2-vectors, as
    ``truncdep.estimation.minimize`` was written before its scalar rewrite.

    Same contract: ``neg_lp(z)`` returns (-l_p, ndarray gradient, ndarray
    Hessian, terms); returns (z, grad, terms, iterations, converged) with z
    and grad as ndarrays.  The tolerances are the solver's module
    constants, read at call time.
    """
    from truncdep import estimation as est

    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    tol = est._GTOL_SCALE * max(m, 1)
    z = np.clip(np.asarray(z0, dtype=float), lo, hi)
    f, grad, hess, terms = neg_lp(z)
    size = _np_projected_size(grad, z, lo, hi)
    for nit in range(est._MAX_ITER):
        if size <= tol:
            return z, grad, terms, nit, True
        free = ~_np_held(grad, z, lo, hi)
        pg = np.where(free, grad, 0.0)
        block = np.where(np.outer(free, free), hess, np.eye(2))
        det = block[0, 0] * block[1, 1] - block[0, 1] * block[1, 0]
        inv = _np_inv2(block) if block[0, 0] > 0.0 and det > 0.0 else None
        if inv is not None:
            step = -np.sum(inv * pg, axis=1)
        else:
            scale = np.abs(np.diag(block))
            step = -pg / np.where((scale > 0.0) & np.isfinite(scale), scale, 1.0)
        t = 1.0
        for _ in range(est._MAX_HALVINGS):
            trial = np.clip(z + t * step, lo, hi)
            f_new, grad_new, hess_new, terms_new = neg_lp(trial)
            size_new = _np_projected_size(grad_new, trial, lo, hi)
            if f_new <= f + est._ARMIJO * float(np.sum(grad * (trial - z))) or (
                f_new - f <= est._RESOLUTION * abs(f) and size_new < size
            ):
                break
            t *= 0.5
        else:
            return z, grad, terms, nit, False
        z, f, grad, hess, terms, size = trial, f_new, grad_new, hess_new, terms_new, size_new
    return z, grad, terms, est._MAX_ITER, size <= tol


# ---------------------------------------------------------------------------
# latent draw: the whole-array transform


def whole_array_latent(params, design, n, rng):
    """Latent (x, t) of n units, transformed as one array.

    The reference for ``truncdep.sampling._draw_latent_arrays``, which
    transforms the same uniforms in blocks: the (n, 2) draw with its zero
    redraws, then ``_latent_from_uniforms`` on all n rows at once.
    """
    from truncdep.sampling import _latent_from_uniforms

    uv = rng.random((n, 2))
    bad = (uv == 0.0) | (uv == 1.0)
    while bad.any():
        uv[bad] = rng.random(int(bad.sum()))
        bad = (uv == 0.0) | (uv == 1.0)
    return _latent_from_uniforms(params, design, uv)


# ---------------------------------------------------------------------------
# x,t CSV parse: the csv module's row loop, one float() per field


def read_xt_oracle(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Parse an x,t CSV row by row, raising DataError with the CLI's messages.

    The reference for ``truncdep.cli._read_sample`` before its region
    check: ``csv.reader`` over the file opened with ``newline=""``, then
    ``float()`` on each field.
    """
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != ["x", "t"]:
            raise DataError(f"{path}:1: header must be exactly 'x,t', got {header!r}")
        xs: list[float] = []
        ts: list[float] = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 2:
                raise DataError(f"{path}:{lineno}: expected 2 fields, got {len(row)}")
            try:
                xs.append(float(row[0]))
                ts.append(float(row[1]))
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: non-numeric value ({exc})") from exc
    if not xs:
        raise DataError(f"{path}: no observations after the header")
    return np.array(xs), np.array(ts)
