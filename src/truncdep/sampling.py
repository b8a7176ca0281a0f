"""Latent-pair simulation and the truncation rule.

Latent pairs (X, T) are generated by conditional inversion: with U, V'
independent Unif(0,1), set V = (c_u)^{-1}(V') at u = U, then
X = -log(1-U)/theta and T = G*V.  A pair is observed only when it falls
in the truncation region D = {0 < t < G, t <= x <= t+s}, stated once in
``_in_region``; ``truncate`` applies that rule and ``simulate_truncated``
composes both steps into a ``TruncatedSample``.

Every latent draw consumes exactly two uniforms from the supplied
generator in a fixed order (U first), so streams are reproducible across
batch sizes and thread counts.  Exact zeros (probability 2^-53 per
uniform) are redrawn rather than clamped: U = 0 would put X on the
support boundary and V' = 0 is outside the inverse-CDF domain.  NumPy's
``random()`` never returns 1.0, so the infinite-lifetime case U = 1
cannot occur; a redraw guard covers it anyway for foreign generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .copula import (
    CopulaFamily,
    ModelParams,
    StudyDesign,
    _fgm_inv_cond,
    _gb_inv_cond,
)
from .errors import DataError, DomainError


@dataclass(frozen=True, slots=True)
class LatentPair:
    """A latent (lifetime, age-at-study-start) pair; x >= 0, 0 <= t <= G."""

    x: float
    t: float


@dataclass(frozen=True, slots=True)
class ObservedPair:
    """An observed pair, i.e. a latent pair that fell in D."""

    x_tilde: float
    t_tilde: float


@dataclass(frozen=True, init=False, eq=False)
class TruncatedSample:
    """An ordered sample of observed pairs under one study design.

    The read-only float64 arrays ``x_arr`` and ``t_arr`` are the sample;
    ``observations`` is a tuple of ObservedPair built from them on first
    access.  Both constructors, ``TruncatedSample(observations, design,
    n_latent)`` and ``from_arrays(x, t, design, n_latent)``, raise
    DataError unless every pair lies in D.  ``n_latent`` is the latent
    sample size, known only in simulation.
    """

    x_arr: np.ndarray
    t_arr: np.ndarray
    design: StudyDesign
    n_latent: int | None

    def __init__(
        self,
        observations: Iterable[ObservedPair],
        design: StudyDesign,
        n_latent: int | None = None,
    ) -> None:
        obs = tuple(observations)
        x = np.fromiter((o.x_tilde for o in obs), dtype=float, count=len(obs))
        t = np.fromiter((o.t_tilde for o in obs), dtype=float, count=len(obs))
        self._adopt(x, t, design, n_latent)

    def _adopt(self, x: np.ndarray, t: np.ndarray, design: StudyDesign, n_latent) -> None:
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
            if n_latent < 1 or n_latent != int(n_latent):
                raise DataError(f"n_latent={n_latent!r} must be a positive integer")
            if x.size > n_latent:
                raise DataError(f"M={x.size} exceeds n_latent={n_latent}")
        x.setflags(write=False)
        t.setflags(write=False)
        # Frozen: fill the instance dict directly, as cached_property does.
        vars(self).update(x_arr=x, t_arr=t, design=design, n_latent=n_latent)

    @property
    def m(self) -> int:
        """Number of observations M."""
        return self.x_arr.size

    @cached_property
    def observations(self) -> tuple[ObservedPair, ...]:
        return tuple(map(ObservedPair, self.x_arr.tolist(), self.t_arr.tolist()))

    @classmethod
    def from_arrays(
        cls,
        x: np.ndarray,
        t: np.ndarray,
        design: StudyDesign,
        n_latent: int | None = None,
    ) -> "TruncatedSample":
        sample = cls.__new__(cls)
        sample._adopt(np.array(x, float), np.array(t, float), design, n_latent)
        return sample


def _draw_uniform_pairs(rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, 2) uniforms; entries equal to 0 or 1 are redrawn in place."""
    u = rng.random((n, 2))
    bad = (u == 0.0) | (u == 1.0)
    while bad.any():
        u[bad] = rng.random(int(bad.sum()))
        bad = (u == 0.0) | (u == 1.0)
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
    return _latent_from_uniforms(params, design, _draw_uniform_pairs(rng, n))


def draw_latent(
    params: ModelParams, design: StudyDesign, rng: np.random.Generator
) -> LatentPair:
    """One latent pair by conditional inversion; consumes two uniforms."""
    x, t = _draw_latent_arrays(params, design, 1, rng)
    return LatentPair(float(x[0]), float(t[0]))


def _in_region(x: np.ndarray, t: np.ndarray, design: StudyDesign) -> np.ndarray:
    """Elementwise membership in D = {0 < t < G, t <= x <= t+s}; NaN is outside."""
    return (0.0 < t) & (t < design.big_g) & (t <= x) & (x <= t + design.s)


def truncate(
    latent: Sequence[LatentPair] | Iterable[LatentPair], design: StudyDesign
) -> TruncatedSample:
    """Keep the latent pairs lying in D, preserving order.

    Pairs with t exactly 0 or G sit on a probability-zero boundary and
    are dropped.
    """
    latent = list(latent)
    x = np.fromiter((p.x for p in latent), dtype=float, count=len(latent))
    t = np.fromiter((p.t for p in latent), dtype=float, count=len(latent))
    keep = _in_region(x, t, design)
    return TruncatedSample.from_arrays(
        x[keep], t[keep], design, n_latent=len(latent) if latent else None
    )


def simulate_truncated(
    params: ModelParams, design: StudyDesign, n: int, rng: np.random.Generator
) -> TruncatedSample:
    """Draw n latent pairs and truncate, recording n_latent = n.

    Equivalent to ``truncate([draw_latent(...) for _ in range(n)], design)``
    drawn from the same stream, but vectorized.
    """
    if n < 1 or n != int(n):
        raise DomainError(f"n={n!r} must be a positive integer")
    x, t = _draw_latent_arrays(params, design, int(n), rng)
    keep = _in_region(x, t, design)
    return TruncatedSample.from_arrays(x[keep], t[keep], design, n_latent=int(n))
