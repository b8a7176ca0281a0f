"""Latent-pair simulation and the truncation rule.

Latent pairs (X, T) are generated by conditional inversion: with U, V'
independent Unif(0,1), set V = (c_u)^{-1}(V') at u = U, then
X = -log(1-U)/theta and T = G*V.  A pair is observed only when it falls
in the truncation region D = {0 < t < G, t <= x <= t+s}, stated once in
``_in_region``; ``simulate_truncated`` draws the latent arrays and keeps
the pairs in D as a ``TruncatedSample``.

Every latent draw consumes exactly two uniforms from the supplied
generator in a fixed order (U first), so streams are reproducible across
batch sizes and thread counts.  Exact zeros (probability 2^-53 per
uniform) are redrawn rather than clamped: U = 0 would put X on the
support boundary and V' = 0 is outside the inverse-CDF domain.  NumPy's
``random()`` never returns 1.0, so the infinite-lifetime case U = 1
cannot occur; a redraw guard covers it anyway for foreign generators.

The uniforms are drawn whole, as one (n, 2) array, and then transformed
``_BLOCK`` rows at a time, each block's (x, t) written over its own
(u, p).  Inversion is elementwise, so every variate is the one a
whole-array transform gives; the latent x and t are the two strided
columns of that one buffer, and the draw holds 16 bytes per latent unit
plus one block's temporaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .copula import (
    CopulaFamily,
    ModelParams,
    StudyDesign,
    _fgm_inv_cond,
    _gb_inv_cond,
)
from .errors import DataError, _check_positive_int


@dataclass(frozen=True, eq=False)
class TruncatedSample:
    """An ordered sample of observed pairs under one study design.

    The read-only float64 arrays ``x_arr`` and ``t_arr`` are the sample;
    construction copies them and raises DataError unless every pair lies
    in D.  ``n_latent`` is the latent sample size, known only in
    simulation.
    """

    x_arr: np.ndarray
    t_arr: np.ndarray
    design: StudyDesign
    n_latent: int | None = None

    def __post_init__(self) -> None:
        x, t = np.array(self.x_arr, float), np.array(self.t_arr, float)
        design, n_latent = self.design, self.n_latent
        if x.ndim != 1 or x.shape != t.shape:
            raise DataError(f"x, t must be 1-D of equal length, not {x.shape}, {t.shape}")
        ok = _in_region(x, t, design)
        if not bool(np.all(ok)):
            bad = int(np.argmin(ok))
            raise DataError(
                f"observation {bad} = ({x[bad]}, {t[bad]}) outside D "
                f"for G={design.big_g}, s={design.s}"
            )
        if n_latent is not None:
            _check_positive_int("n_latent", n_latent, DataError)
            if x.size > n_latent:
                raise DataError(f"M={x.size} exceeds n_latent={n_latent}")
        x.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "x_arr", x)
        object.__setattr__(self, "t_arr", t)

    @property
    def m(self) -> int:
        """Number of observations M."""
        return self.x_arr.size

    @classmethod
    def from_arrays(
        cls,
        x: np.ndarray,
        t: np.ndarray,
        design: StudyDesign,
        n_latent: int | None = None,
    ) -> "TruncatedSample":
        return cls(x, t, design, n_latent)


# Rows of the latent draw transformed at a time: the conditional
# inversion's temporaries are one block long, not n long.
_BLOCK = 1 << 16


def _draw_uniform_pairs(rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, 2) uniforms; entries equal to 0 or 1 are redrawn in place."""
    u = rng.random((n, 2))
    bad = u == 0.0
    bad |= u == 1.0
    while bad.any():
        u[bad] = rng.random(int(bad.sum()))
        bad = u == 0.0
        bad |= u == 1.0
    return u


def _latent_from_uniforms(
    params: ModelParams, design: StudyDesign, uv: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    u, p = uv[:, 0], uv[:, 1]
    if params.family is CopulaFamily.GUMBEL_BARNETT:
        v = _gb_inv_cond(u, p, params.vartheta)
    else:
        v = _fgm_inv_cond(u, p, params.vartheta)
    x = -np.log1p(-u) / params.theta
    t = design.big_g * v
    return x, t


def _draw_latent_arrays(
    params: ModelParams, design: StudyDesign, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Latent (x, t) of n units: the strided columns of one (n, 2) buffer.

    The buffer holds the whole uniform draw; each block of ``_BLOCK`` rows
    is transformed and its (x, t) written over its own (u, p), so the draw
    holds 16 bytes per latent unit plus one block's temporaries.
    """
    buf = _draw_uniform_pairs(rng, n)
    for lo in range(0, n, _BLOCK):
        block = buf[lo:lo + _BLOCK]
        block[:, 0], block[:, 1] = _latent_from_uniforms(params, design, block)
    return buf[:, 0], buf[:, 1]


def _in_region(x: np.ndarray, t: np.ndarray, design: StudyDesign) -> np.ndarray:
    """Elementwise membership in D = {0 < t < G, t <= x <= t+s}; NaN is outside."""
    return (0.0 < t) & (t < design.big_g) & (t <= x) & (x <= t + design.s)


def simulate_truncated(
    params: ModelParams, design: StudyDesign, n: int, rng: np.random.Generator
) -> TruncatedSample:
    """Draw n latent pairs and keep those in D, recording n_latent = n."""
    _check_positive_int("n", n)
    x, t = _draw_latent_arrays(params, design, int(n), rng)
    keep = _in_region(x, t, design)
    return TruncatedSample.from_arrays(x[keep], t[keep], design, n_latent=int(n))
