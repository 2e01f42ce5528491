"""Contamination schemes and standardized base distributions.

An observation at index k is drawn from a two-component mixture: with
probability 1 - p_k from the base distribution F (shifted by mu), with
probability p_k from the same shape scaled by sigma_k >= 1.  Schemes supply
the per-index pairs (p_k, sigma_k^2); base distributions supply draws and the
closed-form truncated second moment E[X^2; |X| >= t] needed by the Lindeberg
diagnostics.

All base distributions here have mean 0 and variance 1.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

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
    every k >= 1.  Tabular schemes hold finite sequences as two float64
    ``bytes`` (16 B a row; ``tabular`` keeps bytes it is given, uncopied), so
    a scheme hashes, compares and pickles as a memory copy.  They refuse to
    extrapolate past their stored length: silently repeating the last entry
    would corrupt the cumulative variance asymptotics.
    """

    kind: SchemeKind
    p: float = 0.0
    a: float = 1.0
    s2: float = 1.0
    b: float = 1.0
    p_table: bytes = field(default=b"", repr=False)  # float64, native byte order
    sigma2_table: bytes = field(default=b"", repr=False)

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
        p, s = (x if type(x) is bytes else np.asarray(x, dtype=np.float64) for x in (p_k, sigma2_k))
        p_arr, s_arr = (np.frombuffer(x) if type(x) is bytes else x for x in (p, s))
        if p_arr.ndim != 1 or s_arr.ndim != 1:  # a scalar, or nested sequences
            raise TypeError("tabular weights must be one-dimensional sequences of floats")
        if p_arr.size == 0 or p_arr.size != s_arr.size:
            raise ValueError("tabular scheme needs equal-length, nonempty sequences")
        p_ok = (p_arr >= 0.0) & (p_arr <= 1.0)  # nan fails every comparison
        ok = p_ok & (s_arr >= 1.0) & (s_arr < math.inf)
        if not ok.all():
            i = int(np.argmin(ok))  # the first bad index; there p_k is checked first
            what, value = (("p_k out of [0, 1]", p_arr[i]) if not p_ok[i]
                           else ("sigma2_k below 1", s_arr[i]))
            raise ValueError(f"{what} at index {i + 1}: {float(value)}")
        return ContaminationScheme(SchemeKind.TABULAR, p_table=bytes(p), sigma2_table=bytes(s))

    @staticmethod
    def uncontaminated() -> "ContaminationScheme":
        return ContaminationScheme(SchemeKind.UNCONTAMINATED)

    @property
    def length(self) -> int | None:
        """Largest valid index, or None when the scheme is unbounded."""
        if self.kind is SchemeKind.TABULAR:
            return len(self.p_table) // 8
        return None

    def weights(self, n: int, start: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized (p_k, sigma2_k) for k = start..n inclusive, as fresh arrays
        that the caller may overwrite."""
        if start < 1 or n < start:
            raise ValueError(f"need 1 <= start <= n, got start={start}, n={n}")
        if self.kind is SchemeKind.UNCONTAMINATED:
            m = n - start + 1
            return np.zeros(m), np.ones(m)
        if self.kind is SchemeKind.POWER_LAW:
            k = np.arange(start, n + 1, dtype=np.float64)
            p = k ** -self.a  # in place from here, bit for bit p * k**-a and s2 * k**b:
            p *= self.p  # ``**=`` takes numpy's scalar-exponent fast paths as ``**`` does
            k **= self.b
            return p, np.multiply(k, self.s2, out=k)
        if n > self.length:
            raise IndexError(f"tabular scheme holds {self.length} entries; "
                             f"index {n} is out of range")
        return (np.frombuffer(self.p_table)[start - 1:n].copy(),
                np.frombuffer(self.sigma2_table)[start - 1:n].copy())


# ---------------------------------------------------------------------------
# Base distributions
# ---------------------------------------------------------------------------

class BaseDistribution:
    """A zero-mean, unit-variance distribution used as the mixture shape.

    Subclasses provide draws and the truncated second moment in closed form
    (``_tail_moment``).  ``zero_from`` is a threshold from which the moment
    is exactly +0.0 in float64, not a subnormal; there +0.0 replaces the closed
    form, which may overflow and is skipped for inputs wholly past it.
    """

    kind: str = "generic"
    zero_from: float = math.inf

    def draw(self, rng: np.random.Generator, out: np.ndarray) -> None:
        raise NotImplementedError  # fills the float64 array out with draws

    def truncated_second_moment(self, t, out=None):
        """E[X^2; |X| >= t]; equals 1 at t = 0 and is nonincreasing in t.

        ``out``, if given, receives the values; shaped like ``t``, not overlapping it.
        """
        arr = np.asarray(t, dtype=np.float64)
        lo, hi = (arr.min(), arr.max()) if arr.size else (0.0, 0.0)
        if not (lo >= 0.0 and hi < math.inf):
            raise ValueError(f"threshold must be finite and >= 0, got {t!r}")
        out = np.empty(arr.shape) if out is None else out
        if lo < self.zero_from:
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

    def draw(self, rng, out):
        rng.standard_normal(out=out)

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

    def draw(self, rng, out):
        # numpy's uniform(-sqrt(3), sqrt(3)), low + (high - low) * U, bit for bit
        np.multiply(rng.random(out=out), 2.0 * _SQRT3, out=out)
        out -= _SQRT3

    def _tail_moment(self, t, out):
        # exact polynomial tail: 1 - t^3 / (3*sqrt(3)) inside the support
        np.subtract(1.0, t ** 3 / (3.0 * _SQRT3), out=out)


class StdLaplace(BaseDistribution):
    """Laplace with scale 1/sqrt(2), standardized to unit variance."""

    kind = "laplace"
    scale = 1.0 / _SQRT2
    zero_from = 530.0  # exp(-sqrt(2) t) underflows to 0.0

    def draw(self, rng, out):
        out[:] = rng.laplace(0.0, self.scale, out.size)  # numpy's laplace has no out=

    def _tail_moment(self, t, out):
        # exact exponential tail: exp(-sqrt(2) t) * (t^2 + sqrt(2) t + 1)
        np.multiply(-_SQRT2, t, out=out)
        np.exp(out, out=out)
        out *= t * t + _SQRT2 * t + 1.0


_DISTRIBUTIONS: dict[str, BaseDistribution] = {
    d.kind: d for d in (StdNormal(), StdUniform(), StdLaplace())}


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

def draw_centered_row(p: np.ndarray, sigma: np.ndarray, dist: BaseDistribution,
                      gens, out: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Centered observations (X_k - mu), k = 1..n, into each row of the block ``out``.

    Row i takes the i-th generator of ``gens`` and consumes n uniforms, then n
    base draws (numpy's sampler bits, uniform as 2*sqrt(3)*U - sqrt(3)), whatever
    branch each index takes, so the stream layout is fixed.  A scratch ``u`` shaped
    like ``out`` takes the uniforms, and one select scales by sigma_k where
    u_k < p_k; a narrower ``u`` takes a row's in pieces, kept as a 1-byte mask,
    and numpy's samplers then fill the row piece by piece, in stream order.
    Returns ``out``; mu cancels before any rounding.
    """
    if u.shape[1] >= out.shape[1]:
        for row, ui, rng in zip(out, u, gens):  # gens last, so none is taken too many
            rng.random(out=ui)
            dist.draw(rng, row)
        return np.multiply(out, sigma, out=out, where=u < p)
    mask, w = np.empty(out.shape[1], dtype=bool), u.shape[1]
    for row, rng in zip(out, gens):
        for lo in range(0, row.size, w):
            np.less(rng.random(out=u[0, :row.size - lo]), p[lo:lo + w], out=mask[lo:lo + w])
        for lo in range(0, row.size, w):
            dist.draw(rng, row[lo:lo + w])
        np.multiply(row, sigma, out=row, where=mask)
    return out
