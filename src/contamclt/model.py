"""Contamination schemes and standardized base distributions.

An observation at index k is drawn from a two-component mixture: with
probability 1 - p_k from the base distribution F (shifted by mu), with
probability p_k from the same shape scaled by sigma_k >= 1.  Schemes supply
the per-index pairs (p_k, sigma_k^2); base distributions supply draws, the
density, and the closed-form truncated second moment E[X^2; |X| >= t] needed
by the Lindeberg diagnostics.

All base distributions here have mean 0 and variance 1.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SchemeKind",
    "ContaminationScheme",
    "BaseDistribution",
    "StdNormal",
    "StdUniform",
    "StdLaplace",
    "base_distribution",
    "draw_centered_row",
]

_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class SchemeKind(enum.Enum):
    POWER_LAW = "powerlaw"
    TABULAR = "tabular"
    UNCONTAMINATED = "none"


@dataclass(frozen=True)
class ContaminationScheme:
    """Per-index mixture weights p_k and inflation factors sigma_k^2.

    Power-law schemes evaluate p_k = p * k**-a and sigma_k^2 = s2 * k**b for
    every k >= 1.  Tabular schemes hold explicit finite sequences and refuse
    to extrapolate past their stored length: silently repeating the last
    entry would corrupt the cumulative variance asymptotics.
    """

    kind: SchemeKind
    p: float = 0.0
    a: float = 1.0
    s2: float = 1.0
    b: float = 1.0
    p_table: tuple[float, ...] = field(default=(), repr=False)
    sigma2_table: tuple[float, ...] = field(default=(), repr=False)

    @staticmethod
    def power_law(p: float, a: float, s2: float, b: float) -> "ContaminationScheme":
        if not (0.0 < p < 1.0):
            raise ValueError(f"power-law weight p must lie in (0, 1), got {p}")
        if not (a > 0.0 and math.isfinite(a)):
            raise ValueError(f"decay exponent a must be positive, got {a}")
        if not (s2 > 1.0 and math.isfinite(s2)):
            raise ValueError(f"inflation factor s2 must exceed 1, got {s2}")
        if not (b > 0.0 and math.isfinite(b)):
            raise ValueError(f"growth exponent b must be positive, got {b}")
        return ContaminationScheme(SchemeKind.POWER_LAW, p=float(p), a=float(a),
                                   s2=float(s2), b=float(b))

    @staticmethod
    def tabular(p_k, sigma2_k) -> "ContaminationScheme":
        p_arr = tuple(float(x) for x in p_k)
        s_arr = tuple(float(x) for x in sigma2_k)
        if len(p_arr) == 0 or len(p_arr) != len(s_arr):
            raise ValueError("tabular scheme needs equal-length, nonempty sequences")
        for i, (pk, sk) in enumerate(zip(p_arr, s_arr)):
            if not (math.isfinite(pk) and 0.0 <= pk <= 1.0):
                raise ValueError(f"p_k out of [0, 1] at index {i + 1}: {pk}")
            if not (math.isfinite(sk) and sk >= 1.0):
                raise ValueError(f"sigma2_k below 1 at index {i + 1}: {sk}")
        return ContaminationScheme(SchemeKind.TABULAR, p_table=p_arr, sigma2_table=s_arr)

    @staticmethod
    def uncontaminated() -> "ContaminationScheme":
        return ContaminationScheme(SchemeKind.UNCONTAMINATED)

    @property
    def length(self) -> int | None:
        """Largest valid index, or None when the scheme is unbounded."""
        if self.kind is SchemeKind.TABULAR:
            return len(self.p_table)
        return None

    def weights(self, n: int, start: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized (p_k, sigma2_k) for k = start..n inclusive."""
        if start < 1 or n < start:
            raise ValueError(f"need 1 <= start <= n, got start={start}, n={n}")
        if self.kind is SchemeKind.UNCONTAMINATED:
            m = n - start + 1
            return np.zeros(m), np.ones(m)
        if self.kind is SchemeKind.POWER_LAW:
            k = np.arange(start, n + 1, dtype=np.float64)
            return self.p * k ** -self.a, self.s2 * k ** self.b
        if n > len(self.p_table):
            raise IndexError(
                f"tabular scheme holds {len(self.p_table)} entries; index {n} is out of range"
            )
        return (np.asarray(self.p_table[start - 1:n]),
                np.asarray(self.sigma2_table[start - 1:n]))


# ---------------------------------------------------------------------------
# Base distributions
# ---------------------------------------------------------------------------

class BaseDistribution:
    """A zero-mean, unit-variance distribution used as the mixture shape.

    Subclasses provide draws, the density, and the truncated second moment
    in closed form (``_tail_moment``).  ``zero_from`` is a threshold from
    which the moment is exactly +0.0 in float64, not a subnormal; there the
    closed form may overflow, so +0.0 is written in its place.
    """

    kind: str = "generic"
    zero_from: float = math.inf

    def draw(self, rng: np.random.Generator, size: int | None = None):
        raise NotImplementedError

    def pdf(self, x):
        raise NotImplementedError

    def truncated_second_moment(self, t, out=None):
        """E[X^2; |X| >= t]; equals 1 at t = 0 and is nonincreasing in t.

        ``out``, if given, receives the values; shaped like ``t``, not overlapping it.
        """
        arr = np.asarray(t, dtype=np.float64)
        lo, hi = (arr.min(), arr.max()) if arr.size else (0.0, 0.0)
        if not (lo >= 0.0 and hi < math.inf):
            raise ValueError(f"threshold must be finite and >= 0, got {t!r}")
        out = np.empty(arr.shape) if out is None else out
        with np.errstate(over="ignore", invalid="ignore"):  # past zero_from only
            self._tail_moment(arr, out)
        if hi >= self.zero_from:
            np.copyto(out, 0.0, where=arr >= self.zero_from)
        np.clip(out, 0.0, 1.0, out=out)
        return float(out) if arr.ndim == 0 else out

    def _tail_moment(self, t: np.ndarray, out: np.ndarray) -> None:
        raise NotImplementedError  # writes the unclipped closed form at t into out


class StdNormal(BaseDistribution):
    """Standard normal base distribution."""

    kind = "normal"
    zero_from = 40.0  # exp(-t^2/2) and erfc(t/sqrt(2)) both underflow to 0.0

    def draw(self, rng, size=None):
        return rng.standard_normal() if size is None else rng.standard_normal(size)

    def pdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        return _INV_SQRT_2PI * np.exp(-0.5 * x * x)

    def _tail_moment(self, t, out):
        # E[X^2; |X| >= t] = 2*(t*phi(t) + 1 - Phi(t)) by one integration by parts
        from scipy.special import erfc
        np.multiply(t, -0.5, out=out)
        out *= t
        np.exp(out, out=out)
        out *= _INV_SQRT_2PI  # phi(t)
        out *= t
        out += 0.5 * erfc(t / _SQRT2)
        out *= 2.0


class StdUniform(BaseDistribution):
    """Uniform on [-sqrt(3), sqrt(3)], standardized to unit variance."""

    kind = "uniform"
    zero_from = _SQRT3  # the support ends there

    def draw(self, rng, size=None):
        return rng.uniform(-_SQRT3, _SQRT3, size)

    def pdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        return np.where(np.abs(x) <= _SQRT3, 1.0 / (2.0 * _SQRT3), 0.0)

    def _tail_moment(self, t, out):
        # exact polynomial tail: 1 - t^3 / (3*sqrt(3)) inside the support
        np.subtract(1.0, t ** 3 / (3.0 * _SQRT3), out=out)


class StdLaplace(BaseDistribution):
    """Laplace with scale 1/sqrt(2), standardized to unit variance."""

    kind = "laplace"
    scale = 1.0 / _SQRT2
    zero_from = 530.0  # exp(-sqrt(2) t) underflows to 0.0

    def draw(self, rng, size=None):
        return rng.laplace(0.0, self.scale, size)

    def pdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        return np.exp(-np.abs(x) / self.scale) / (2.0 * self.scale)

    def _tail_moment(self, t, out):
        # exact exponential tail: exp(-sqrt(2) t) * (t^2 + sqrt(2) t + 1)
        np.multiply(-_SQRT2, t, out=out)
        np.exp(out, out=out)
        out *= t * t + _SQRT2 * t + 1.0


_DISTRIBUTIONS: dict[str, BaseDistribution] = {
    "normal": StdNormal(),
    "uniform": StdUniform(),
    "laplace": StdLaplace(),
}


def base_distribution(kind: str) -> BaseDistribution:
    """Look up a base distribution by kind name: normal | uniform | laplace."""
    try:
        return _DISTRIBUTIONS[kind]
    except KeyError:
        raise ValueError(
            f"unknown base distribution {kind!r}; choose from {sorted(_DISTRIBUTIONS)}"
        ) from None


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def draw_centered_row(n: int, p: np.ndarray, sigma: np.ndarray,
                      dist: BaseDistribution, rng: np.random.Generator) -> np.ndarray:
    """Centered observations (X_k - mu) for k = 1..n, drawn as two blocks.

    Consumes one block of n uniforms followed by one block of n base draws;
    per index the uniform still decides the branch and both events are always
    consumed, so the stream layout is deterministic and branch-independent.
    Centering is exact because mu cancels algebraically before any rounding.
    """
    u = rng.random(n)
    z = dist.draw(rng, n)
    return np.where(u < p, sigma * z, z)
