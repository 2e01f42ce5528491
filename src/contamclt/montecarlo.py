"""Replication of the standardized sample mean and QQ diagnostics.

A run sums R independent replicate rows, then scales them once to T_n =
(n/s_n) * (mean(X) - mu), and measures their Kolmogorov distance to N(0, 1);
``qq_points`` reads QQ points (Phi^-1(t), E^-1(t)) off the same sample.

Replicate i always draws from stream i split from the master seed, and its
sum is correctly rounded (``analytic.exact_sums``, bit for bit ``math.fsum``
of the row), so a run is reproducible and independent of how replicates are
scheduled across workers or stacked into reduction blocks.  A block is drawn
in place (``model.draw_centered_row``), then selected and summed in place,
once each; the streams of a whole task come from one ``rng.stream_generator``
call, which writes each row's PCG64 state into one reused generator.
"""

from __future__ import annotations

import bisect
import concurrent.futures
import math
import os
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from . import rng as _rng
from .analytic import exact_sums, grid_walk, kolmogorov_distance_to_normal
from .model import BaseDistribution, ContaminationScheme, draw_centered_row


def default_t_grid() -> np.ndarray:
    """199 probability levels t = 0.005, 0.010, ..., 0.995."""
    return np.arange(1, 200, dtype=np.float64) * 5.0 / 1000.0


@dataclass(frozen=True)
class QQPoint:
    t: float
    theoretical: float  # Phi^-1(t)
    empirical: float    # E^-1(t)


@dataclass(frozen=True, eq=False)
class ReplicationResult:
    """R standardized statistics, their s_n and their KS distance to N(0, 1)."""

    samples: np.ndarray  # in replicate order
    s_n: float
    ks_statistic: float


# Replicate rows are stacked into blocks of at most this many elements (at
# least one row) and each block is reduced by one ``exact_sums`` call.
_BLOCK_ELEMS = 1 << 16
# A row longer than half a block draws its uniforms and is split in pieces of this many.
_PIECE = 1 << 14
# A task holds at most this many replicates: deriving their streams peaks at
# about 244 B a stream, so at most 8 MB whatever R is.
_TASK_REPS = 1 << 15


def _replicate_chunk(args) -> np.ndarray:
    """Exact sums of rows lo..hi-1, p.size long, unscaled: ``replicate`` divides by s_n."""
    p, sigma, dist, master_seed, lo, hi = args
    step = max(1, _BLOCK_ELEMS // p.size)
    gens = _rng.stream_generator(master_seed, lo, hi)
    block = np.empty((min(step, hi - lo), p.size))
    u = np.empty((len(block), min(p.size, _PIECE) if step == 1 else p.size))  # uniforms, sum scratch
    out = np.empty(hi - lo, dtype=np.float64)
    for start in range(0, hi - lo, step):
        k = min(step, hi - lo - start)
        rows = draw_centered_row(p, sigma, dist, gens, block[:k], u[:k])
        out[start:start + k] = exact_sums(rows, u[:k])
    return out


def _usable_cpus() -> int:
    """CPUs this process may run on; under ``taskset`` or a cpuset that is
    fewer than ``os.cpu_count()``, which counts the machine's."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def replicate(R: int, n: int, scheme: ContaminationScheme, dist: BaseDistribution,
              mu: float, master_seed: int, workers: int = 1) -> ReplicationResult:
    """R independent standardized statistics from per-replicate split streams.

    The result is a pure function of (R, n, scheme, dist, master_seed); ``mu`` is
    never read and stays only for ``perfbench/tracing.py``'s positional call.
    ``workers`` spreads the row sums over at most that many processes, never
    more than tasks or usable CPUs, and never changes a value.  A task carries
    p_k and sigma_k (16n bytes), never the scheme, all let go before s_n's walk.
    It holds the R sums once (8R bytes), writing each task's in place as it
    arrives, and KS adds one sorted copy.
    """
    if R < 1:
        raise ValueError(f"replication count must be >= 1, got {R}")
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")

    pool_size = min(workers, R, _usable_cpus())
    step = min(_TASK_REPS, R if pool_size == 1 else -(-R // (4 * pool_size)))
    p, sigma = scheme.weights(n)
    np.sqrt(sigma, out=sigma)
    tasks = [(p, sigma, dist, master_seed, lo, min(lo + step, R)) for lo in range(0, R, step)]
    samples = np.empty(R, dtype=np.float64)
    with (concurrent.futures.ProcessPoolExecutor(max_workers=pool_size) if pool_size > 1
          else nullcontext()) as pool:
        for (*_, lo, hi), sums in zip(tasks, (pool.map if pool else map)(_replicate_chunk, tasks)):
            samples[lo:hi] = sums
    del p, sigma, tasks, _  # the walk for s_n holds 2**16 indices at a time, not the row
    s_n = math.sqrt(grid_walk(scheme, (n,))[0].s2_n)
    samples /= s_n
    return ReplicationResult(samples, s_n, kolmogorov_distance_to_normal(samples))


def qq_points(samples, t_grid) -> tuple[QQPoint, ...]:
    """One (Phi^-1(t), E^-1(t)) pair per grid level t, sorted by t.

    E^-1(t) is the generalized inverse of the samples' empirical CDF: the
    smallest order statistic x_(i) whose level i/R, as a float, reaches t.
    It holds one sorted copy (8R bytes) and bisects over i; Python's i / R is
    correctly rounded, as ``np.arange(1, R + 1) / R`` is, and monotone in i.
    """
    xs = np.sort(np.asarray(samples, dtype=np.float64).ravel())
    if xs.size == 0:
        raise ValueError("need at least one sample")
    arr = np.asarray(t_grid, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValueError("t grid must be nonempty")
    if not np.all((arr > 0.0) & (arr < 1.0)):  # nan fails both tests
        raise ValueError("t grid must lie strictly inside (0, 1)")
    if np.any(np.diff(arr) <= 0.0):
        raise ValueError("t grid must be strictly increasing")
    r = xs.size  # below[j]: how many levels i/R lie below t_j
    below = [bisect.bisect_left(range(1, r + 1), t, key=lambda i: i / r) for t in arr.tolist()]
    return tuple(QQPoint(float(t), float(q), float(e))
                 for t, q, e in zip(arr, ndtri(arr), xs[below]))
