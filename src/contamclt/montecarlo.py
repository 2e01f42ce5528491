"""Replication of the standardized sample mean and QQ diagnostics.

A run draws R independent replicates of T_n = (n/s_n) * (mean(X) - mu),
builds the empirical CDF of the replicates, measures its Kolmogorov distance
to the standard normal, and produces QQ points (Phi^-1(t), E^-1(t)).

Replicate i always uses a generator split from the master seed by i, and
its sum is correctly rounded (``analytic.exact_sums``, bit for bit
``math.fsum`` of the row), so a run is reproducible and independent of how
replicates are scheduled across workers or stacked into reduction blocks.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .analytic import (array_stats, exact_sums, kolmogorov_distance_to_normal,
                       normal_quantile)
from .model import BaseDistribution, ContaminationScheme, draw_centered_row

__all__ = [
    "EmpiricalCdf",
    "QQPoint",
    "ReplicationResult",
    "replicate",
    "qq_points",
    "default_t_grid",
]


def default_t_grid() -> np.ndarray:
    """199 probability levels t = 0.005, 0.010, ..., 0.995."""
    return np.arange(1, 200, dtype=np.float64) * 5.0 / 1000.0


@dataclass(frozen=True)
class EmpiricalCdf:
    """Sorted replication sample with a generalized-inverse lookup.

    The generalized inverse at level t is the smallest sample x_(i) whose
    ECDF level i/R reaches t; it is nondecreasing and left-continuous.
    """

    sorted_samples: np.ndarray
    R: int

    @staticmethod
    def from_samples(samples) -> "EmpiricalCdf":
        arr = np.asarray(samples, dtype=np.float64).ravel()
        if arr.size == 0:
            raise ValueError("need at least one sample")
        return EmpiricalCdf(sorted_samples=np.sort(arr), R=int(arr.size))

    def inverse(self, t):
        """Smallest x_(i) with i/R >= t, for t in (0, 1]; vectorized."""
        arr = np.asarray(t, dtype=np.float64)
        if not np.all((arr > 0.0) & (arr <= 1.0)):  # nan fails both tests
            raise ValueError(f"levels must lie in (0, 1], got {t!r}")
        idx = np.ceil(arr * self.R).astype(np.int64)
        # correct one-ulp slips in t*R around integer products
        idx = np.where((idx - 1) / self.R >= arr, idx - 1, idx)
        idx = np.where(idx / self.R < arr, idx + 1, idx)
        idx = np.clip(idx, 1, self.R)
        out = self.sorted_samples[idx - 1]
        return float(out) if arr.ndim == 0 else out

    def __eq__(self, other) -> bool:
        return (isinstance(other, EmpiricalCdf) and self.R == other.R
                and np.array_equal(self.sorted_samples, other.sorted_samples))


@dataclass(frozen=True)
class QQPoint:
    t: float
    theoretical: float  # Phi^-1(t)
    empirical: float    # E^-1(t)


@dataclass(frozen=True)
class ReplicationResult:
    """R standardized statistics plus the configuration that produced them."""

    samples: np.ndarray  # in replicate order
    n: int
    reps: int
    scheme: ContaminationScheme
    dist: BaseDistribution
    mu: float
    master_seed: int
    s_n: float
    ks_statistic: float

    def ecdf(self) -> EmpiricalCdf:
        return EmpiricalCdf.from_samples(self.samples)

    def __eq__(self, other) -> bool:
        return (isinstance(other, ReplicationResult)
                and self.n == other.n and self.reps == other.reps
                and self.scheme == other.scheme and self.dist == other.dist
                and self.mu == other.mu and self.master_seed == other.master_seed
                and self.s_n == other.s_n and self.ks_statistic == other.ks_statistic
                and np.array_equal(self.samples, other.samples))


# Replicate rows are stacked into blocks of at most this many elements (at
# least one row) and each block is reduced by one ``exact_sums`` call.
_BLOCK_ELEMS = 1 << 16


def _replicate_chunk(args) -> np.ndarray:
    scheme, dist, n, s_n, master_seed, lo, hi = args
    p, s2 = scheme.weights(n)
    sigma = np.sqrt(s2)
    step = max(1, _BLOCK_ELEMS // n)
    block = np.empty((min(step, hi - lo), n))
    out = np.empty(hi - lo, dtype=np.float64)
    for start in range(lo, hi, step):
        rows = block[:min(step, hi - start)]
        for j, row in enumerate(rows):
            row[:] = draw_centered_row(n, p, sigma, dist,
                                       _rng.stream_generator(master_seed, start + j))
        out[start - lo:start - lo + len(rows)] = exact_sums(rows) / s_n
    return out


def replicate(R: int, n: int, scheme: ContaminationScheme, dist: BaseDistribution,
              mu: float, master_seed: int, workers: int = 1) -> ReplicationResult:
    """R independent standardized statistics from per-replicate split streams.

    The result is a pure function of (R, n, scheme, dist, mu, master_seed);
    ``workers`` only distributes the replicate loop and never changes values.
    The pool never holds more processes than there are tasks or CPUs.
    """
    if R < 1:
        raise ValueError(f"replication count must be >= 1, got {R}")
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")

    s_n = math.sqrt(array_stats(scheme, n).s2_n)
    if workers == 1:
        samples = _replicate_chunk((scheme, dist, n, s_n, master_seed, 0, R))
    else:
        pool_size = min(workers, R, os.cpu_count() or 1)
        step = -(-R // (4 * pool_size))
        tasks = [(scheme, dist, n, s_n, master_seed, lo, min(lo + step, R))
                 for lo in range(0, R, step)]
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            samples = np.concatenate(list(pool.map(_replicate_chunk, tasks)))

    ks = kolmogorov_distance_to_normal(samples)
    return ReplicationResult(samples=samples, n=n, reps=R, scheme=scheme,
                             dist=dist, mu=float(mu), master_seed=int(master_seed),
                             s_n=s_n, ks_statistic=ks)


def qq_points(ecdf: EmpiricalCdf, t_grid) -> tuple[QQPoint, ...]:
    """One (Phi^-1(t), E^-1(t)) pair per grid level t, sorted by t."""
    arr = np.asarray(t_grid, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValueError("t grid must be nonempty")
    if not np.all((arr > 0.0) & (arr < 1.0)):
        raise ValueError("t grid must lie strictly inside (0, 1)")
    if np.any(np.diff(arr) <= 0.0):
        raise ValueError("t grid must be strictly increasing")
    theo = normal_quantile(arr)
    emp = ecdf.inverse(arr)
    return tuple(QQPoint(float(t), float(q), float(e))
                 for t, q, e in zip(arr, theo, emp))
