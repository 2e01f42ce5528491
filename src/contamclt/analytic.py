"""Deterministic diagnostics for the contaminated sample mean.

Covers the cumulative variance s_n^2, the three limit conditions that govern
consistency and normality, Lindeberg sums and the Lindeberg index, the
closed-form index bound L / (1 + L), the power-law regime classification,
the Kolmogorov distance of a sample to the standard normal, and a standard
normal quantile helper.

Limits in n are approximated on a finite geometric grid.  A grid can only
ever show a trend, so limit-valued quantities are reported together with the
rule that produced them (see ``Trend`` and the index-estimate notes below).

``grid_walk`` is the one pass over k = 1..max(n_grid) that the conditions,
the index bound and the index estimate share through their ``walk``
argument: each chunk of weights is fetched once, and the per-index arrays
it keeps feed the Lindeberg sums, which are evaluated in cache-sized blocks.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr, ndtri

from .model import BaseDistribution, ContaminationScheme

__all__ = [
    "ArrayStats",
    "GridWalk",
    "array_stats",
    "grid_walk",
    "exact_sums",
    "Trend",
    "LimitEstimate",
    "condition_a",
    "condition_b",
    "condition_c",
    "lindeberg_sum",
    "lindeberg_index_estimate",
    "lindeberg_upper_bound",
    "closed_form_index",
    "RegimeCase",
    "Classification",
    "classify_power_law",
    "kolmogorov_distance_to_normal",
    "normal_quantile",
    "DEFAULT_N_GRID",
    "DEFAULT_EPS_GRID",
]

DEFAULT_N_GRID: tuple[int, ...] = tuple(1000 * 2 ** j for j in range(8))
DEFAULT_EPS_GRID: tuple[float, ...] = tuple(float(e) for e in np.geomspace(1e-3, 10.0, 40))

# Weights are fetched and summed in chunks aligned to absolute index
# boundaries, each chunk's sum correctly rounded by ``exact_sums``.  The stats
# at n add the full-chunk totals below n in order, then the part-chunk up to
# n, so they are the same whichever other points a walk's grid holds.
_CHUNK = 1 << 16
# Lindeberg terms are evaluated in blocks of this many indices, so that a
# block's temporaries stay in cache.
_BLOCK = 1 << 14

# Rows with 2 * n * max|x| at or above this, or with an inf or nan, are left
# to math.fsum: the level splitter in ``exact_sums`` needs sigma + x finite.
_SPLIT_LIMIT = 2.0 ** 1022


def exact_sums(block) -> np.ndarray:
    """Correctly rounded sum of each row of a 2-D float64 block.

    Equal bit for bit to ``math.fsum(row.tolist())`` for every row, with the
    work vectorized over the block.  Each level applies the error-free
    extraction of Rump, Ogita and Oishi ("Accurate floating-point summation",
    SIAM J. Sci. Comput. 2008) to the residual r: with a power of two
    sigma >= 2 n max|r| per row, q = (sigma + r) - sigma and r - q are both
    exact, every q is a multiple of ulp(sigma)/2 and |sum q| < sigma, so
    ``q.sum`` is exact in any order.  Levels repeat on r - q until it is all
    zero; a row's few level sums then add up exactly to its true sum, which
    ``math.fsum`` rounds once.  Rows the splitter cannot take go to
    ``math.fsum`` whole, so they give its value or raise its exception.
    """
    x = np.asarray(block, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"need a 2-D block, got shape {x.shape}")
    rows, n = x.shape
    out = np.zeros(rows)
    if n == 0:
        return out
    top = np.abs(x).max(axis=1)
    ok = top < _SPLIT_LIMIT / (2.0 * n)  # False for inf and nan too
    for i in np.flatnonzero(~ok):
        out[i] = math.fsum(x[i].tolist())
    r, top = x[ok], top[ok]
    q = np.empty_like(r)
    levels = []
    while top.any():
        sigma = np.ldexp(1.0, np.frexp(2.0 * n * top)[1])[:, None]
        np.add(r, sigma, out=q)
        q -= sigma
        levels.append(q.sum(axis=1))
        r -= q
        top = np.abs(r, out=q).max(axis=1)
    if levels:
        out[ok] = [math.fsum(s) for s in np.array(levels).T.tolist()]
    return out


@dataclass(frozen=True)
class ArrayStats:
    """Cumulative quantities of a scheme at sample size n.

    s2_n is the exact partial sum of (1 - p_k) + p_k sigma_k^2 and satisfies
    s2_n >= n because every sigma_k^2 >= 1.  feller_max is the largest
    per-index variance share max_k p_k sigma_k^2 / s2_n.
    """

    n: int
    s2_n: float
    contamination_mass: float  # (1/n) * sum p_k sigma_k^2
    mean_p: float              # (1/n) * sum p_k
    feller_max: float          # max_k p_k sigma_k^2 / s2_n
    max_sigma2: float          # max_k sigma_k^2


@dataclass(frozen=True, eq=False)
class GridWalk:
    """ArrayStats at every grid point and the per-index arrays up to the top.

    ``ps2``, ``sigma`` and ``q`` hold p_k sigma_k^2, sigma_k and 1 - p_k for
    k = 1..grid[-1]; a row n of the Lindeberg sums reads their first n entries.
    """

    scheme: ContaminationScheme = field(repr=False)
    grid: tuple[int, ...]
    stats: tuple[ArrayStats, ...]
    ps2: np.ndarray = field(repr=False)
    sigma: np.ndarray = field(repr=False)
    q: np.ndarray = field(repr=False)


def grid_walk(scheme: ContaminationScheme, n_grid) -> GridWalk:
    """One chunk-aligned pass over k = 1..max(n_grid), with exact partial sums."""
    grid = tuple(int(n) for n in n_grid)
    if not grid or grid[0] < 1 or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"sample sizes must be increasing and >= 1, got {grid}")
    top = grid[-1]
    ps2_all, sigma, q = np.empty(top), np.empty(top), np.empty(top)
    stats = []
    run = (0.0, 0.0, 0.0, 1.0)  # sum p, sum p s2, max p s2, max s2 over full chunks
    for lo in range(0, top, _CHUNK):
        p, s2 = scheme.weights(min(lo + _CHUNK, top), start=lo + 1)
        hi = lo + p.size
        ps2 = np.multiply(p, s2, out=ps2_all[lo:hi])
        np.sqrt(s2, out=sigma[lo:hi])
        np.subtract(1.0, p, out=q[lo:hi])
        points = [n for n in grid if lo < n <= hi]
        full = hi - lo == _CHUNK
        for n in points + ([hi] if full and hi not in points else []):
            m = n - lo
            chunk_p, chunk_ps2 = exact_sums(np.stack([p[:m], ps2[:m]])).tolist()
            acc = (run[0] + chunk_p, run[1] + chunk_ps2,
                   max(run[2], float(ps2[:m].max())), max(run[3], float(s2[:m].max())))
            if n in points:
                s2_n = (float(n) - acc[0]) + acc[1]
                stats.append(ArrayStats(n, s2_n, acc[1] / n, acc[0] / n, acc[2] / s2_n, acc[3]))
        if full:
            run = acc
    return GridWalk(scheme, grid, tuple(stats), ps2_all, sigma, q)


def array_stats(scheme: ContaminationScheme, n: int) -> ArrayStats:
    """Exact one-pass partial sums for k = 1..n."""
    return grid_walk(scheme, (n,)).stats[0]


def _walked(scheme: ContaminationScheme, n_grid, walk: GridWalk | None) -> GridWalk:
    """``walk`` if it was made for this scheme and n_grid, else a new walk."""
    grid = validate_geometric_grid(n_grid)
    if walk is not None and (walk.grid != grid or walk.scheme != scheme):
        raise ValueError("walk was made for a different scheme or n_grid")
    return walk or grid_walk(scheme, grid)


# ---------------------------------------------------------------------------
# Finite limit estimates
# ---------------------------------------------------------------------------

class Trend(enum.Enum):
    CONVERGING_TO_ZERO = "converging-to-zero"
    CONVERGING_TO_POSITIVE = "converging-to-positive"
    DIVERGING = "diverging"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class LimitEstimate:
    """A sequence evaluated on a geometric n-grid plus its classified trend.

    ``estimate`` is the inferred limit for converging trends and None
    otherwise.
    """

    values: tuple[tuple[int, float], ...]
    last: float
    trend: Trend
    estimate: float | None


def validate_geometric_grid(grid) -> tuple[int, ...]:
    out = tuple(int(n) for n in grid)
    if len(out) < 6:
        raise ValueError(f"grid needs at least 6 points, got {len(out)}")
    if out[0] < 1 or any(b <= a for a, b in zip(out, out[1:])):
        raise ValueError("grid must be strictly increasing positive integers")
    ratios = [b / a for a, b in zip(out, out[1:])]
    rbar = ratios[len(ratios) // 2]
    if any(abs(r - rbar) > 0.25 * rbar for r in ratios):
        raise ValueError("grid must be (approximately) geometric")
    return out


def validate_eps_grid(grid) -> tuple[float, ...]:
    out = tuple(float(e) for e in grid)
    if len(out) < 8:
        raise ValueError(f"epsilon grid needs at least 8 points, got {len(out)}")
    if any(not (math.isfinite(e) and e > 0.0) for e in out):
        raise ValueError("epsilon grid entries must be finite and positive")
    if any(b <= a for a, b in zip(out, out[1:])):
        raise ValueError("epsilon grid must be strictly increasing")
    if out[-1] / out[0] < 10.0 ** 3.99:
        raise ValueError("epsilon grid must span at least four decades")
    ratios = [b / a for a, b in zip(out, out[1:])]
    rbar = ratios[len(ratios) // 2]
    if any(abs(r - rbar) > 0.25 * rbar for r in ratios):
        raise ValueError("epsilon grid must be (approximately) logarithmic")
    return out


def _aitken(v1: float, v2: float, v3: float) -> float:
    """Aitken delta-squared limit of three consecutive sequence values."""
    d1, d2 = v2 - v1, v3 - v2
    denom = d2 - d1
    if abs(denom) < 1e-15:
        return v3
    return v3 - d2 * d2 / denom


def _classify_trend(vals: list[float]) -> tuple[Trend, float | None]:
    last3 = vals[-3:]
    nonincreasing = all(b <= a for a, b in zip(last3, last3[1:]))
    if vals[-1] < 1e-4 and nonincreasing:
        return Trend.CONVERGING_TO_ZERO, 0.0
    # Slowly decaying sequences (e.g. ~ n**-0.1) never pass the absolute
    # threshold on a feasible grid; recognize consistent geometric decay
    # instead.  The test is scale-free: the value ratios must contract
    # consistently and the Aitken limit must be negligible against the
    # current value, so a positive limit hiding under a transient is not
    # misread as zero.
    tail = vals[-4:]
    if len(tail) == 4 and all(v > 0.0 for v in tail) and all(
            b < a for a, b in zip(tail, tail[1:])):
        ratios = [b / a for a, b in zip(tail, tail[1:])]
        q_med = sorted(ratios)[1]
        if q_med <= 0.95 and all(abs(r - q_med) <= 0.05 for r in ratios):
            limit = max(0.0, _aitken(*tail[-3:]))
            if limit <= max(1e-4, 0.1 * vals[-1]):
                return Trend.CONVERGING_TO_ZERO, 0.0
    if all(b > a for a, b in zip(last3, last3[1:])) and vals[-1] > 10.0 * vals[0]:
        return Trend.DIVERGING, None
    pairs = [(last3[i], last3[j]) for i in range(3) for j in range(i + 1, 3)]
    if all(abs(x - y) <= 0.01 * max(abs(x), abs(y)) for x, y in pairs):
        return Trend.CONVERGING_TO_POSITIVE, vals[-1]
    return Trend.UNDETERMINED, None


def _limit_estimate(walk: GridWalk, value_fn) -> LimitEstimate:
    values = [(s.n, float(value_fn(s))) for s in walk.stats]
    vals = [v for _, v in values]
    trend, estimate = _classify_trend(vals)
    return LimitEstimate(values=tuple(values), last=vals[-1], trend=trend,
                         estimate=estimate)


def condition_a(scheme: ContaminationScheme, n_grid=DEFAULT_N_GRID, walk=None) -> LimitEstimate:
    """Does (1/n^2) * sum p_k sigma_k^2 vanish?  Governs weak consistency."""
    return _limit_estimate(_walked(scheme, n_grid, walk), lambda s: s.contamination_mass / s.n)


def condition_b(scheme: ContaminationScheme, n_grid=DEFAULT_N_GRID, walk=None) -> LimitEstimate:
    """Does (1/s_n^2) * max_k sigma_k^2 vanish?  Forces the Lindeberg condition."""
    return _limit_estimate(_walked(scheme, n_grid, walk), lambda s: s.max_sigma2 / s.s2_n)


def condition_c(scheme: ContaminationScheme, n_grid=DEFAULT_N_GRID, walk=None) -> LimitEstimate:
    """Does (1/s_n^2) * max_k p_k sigma_k^2 vanish?  Equivalent to Feller's condition."""
    return _limit_estimate(_walked(scheme, n_grid, walk), lambda s: s.feller_max)


# ---------------------------------------------------------------------------
# Lindeberg sums and index
# ---------------------------------------------------------------------------

def _lindeberg_values(walk: GridWalk, stats: ArrayStats, dist: BaseDistribution,
                      eps_list) -> list[float]:
    """Lindeberg sums of the standardized array at row stats.n for several epsilons.

    Each row's tail moments fill one buffer block by block; one ``np.dot``
    over the whole row reduces it.  A block whose thresholds are all at least
    ``dist.zero_from`` is zero-filled; none exceeds the checked eps * s_n.
    """
    n = stats.n
    s_n = math.sqrt(stats.s2_n)
    base_weight = float(np.sum(walk.q[:n]))  # sum of (1 - p_k)
    threshold_scale = s_n / walk.sigma[:n]   # per-index threshold is eps * s_n / sigma_k
    starts = range(0, n, _BLOCK)
    floors = np.minimum.reduceat(threshold_scale, starts).tolist()
    row, t = np.empty(n), np.empty(min(n, _BLOCK))
    out = []
    for eps in eps_list:
        term_base = base_weight * dist.truncated_second_moment(eps * s_n)
        for lo, floor in zip(starts, floors):
            hi = min(lo + _BLOCK, n)
            if eps * floor >= dist.zero_from:
                row[lo:hi] = 0.0
            else:
                dist.truncated_second_moment(
                    np.multiply(eps, threshold_scale[lo:hi], out=t[:hi - lo]), out=row[lo:hi])
        term_inflated = float(np.dot(walk.ps2[:n], row))
        out.append(min(max((term_base + term_inflated) / stats.s2_n, 0.0), 1.0))
    return out


def lindeberg_sum(scheme: ContaminationScheme, dist: BaseDistribution,
                  n: int, eps: float) -> float:
    """Lindeberg sum of {(X_k - mu)/s_n} at level eps and row n.

    Uses the exact two-term decomposition over the mixture: a base term with
    threshold eps*s_n carrying weight sum(1 - p_k), and an inflated term with
    per-index thresholds eps*s_n/sigma_k carrying weights p_k sigma_k^2, all
    normalized by s_n^2.  Lies in [0, 1] and is nonincreasing in eps.
    """
    if not (isinstance(eps, (int, float)) and math.isfinite(eps) and eps > 0.0):
        raise ValueError(f"eps must be finite and positive, got {eps!r}")
    walk = grid_walk(scheme, (n,))
    return _lindeberg_values(walk, walk.stats[0], dist, [float(eps)])[0]


def _row_limit_surrogate(col: tuple[float, ...]) -> tuple[float, bool]:
    """Estimate lim sup over n from values on the top half of the n-grid.

    Returns (value, trusted).  The estimate is trusted when the values have
    either converged (spread below 1e-3) or decrease with consistently
    contracting differences, in which case the Aitken limit is used.  An
    untrusted column falls back to the conservative grid maximum; it marks an
    epsilon at which the grid has not yet reached the limiting regime.
    """
    vmax = max(col)
    if vmax < 1e-9:
        return vmax, True
    if vmax - min(col) <= 1e-3:
        return vmax, True
    diffs = [b - a for a, b in zip(col, col[1:])]
    if all(d < 0.0 for d in diffs):
        ratios = [d2 / d1 for d1, d2 in zip(diffs, diffs[1:])]
        if all(0.0 < q <= 0.97 for q in ratios):
            return min(max(_aitken(*col[-3:]), 0.0), 1.0), True
    return vmax, False


def lindeberg_index_estimate(scheme: ContaminationScheme, dist: BaseDistribution,
                             n_grid=DEFAULT_N_GRID, eps_grid=DEFAULT_EPS_GRID, walk=None) -> float:
    """Finite-grid estimate of the Lindeberg index sup_eps limsup_n of the sums.

    The sums are nonincreasing in eps, so the supremum is approached as eps
    decreases; but at any finite n the sums also saturate to 1 as eps -> 0,
    a finite-size artifact rather than the limit.  The estimator therefore
    descends the eps grid from its large end and only keeps going while the
    n-direction limit stays resolvable on the grid (values converged, or
    decreasing with consistent contraction; see ``_row_limit_surrogate``).
    Within that trusted range it reports the value at the smallest eps whose
    successive refinements change the estimate by less than 1e-3 over a
    three-point window: the small-eps plateau value, clamped to [0, 1].
    """
    eps = validate_eps_grid(eps_grid)
    walk = _walked(scheme, n_grid, walk)
    rows = [_lindeberg_values(walk, stats, dist, eps)
            for stats in walk.stats[len(walk.stats) // 2:]]

    g, trusted = zip(*(_row_limit_surrogate(col) for col in zip(*rows)))

    # contiguous trusted suffix reachable from the large-eps end
    first = len(eps)
    while first > 0 and trusted[first - 1]:
        first -= 1
    if first == len(eps):
        return max(g)  # nothing resolvable; conservative grid maximum

    tol = 1e-3
    last = len(eps) - 1
    for width in (2, 1):  # prefer a three-point plateau, fall back to two
        for j in range(first, last - width + 1):
            if all(abs(g[i + 1] - g[i]) < tol for i in range(j, j + width)):
                return g[j]
    return g[first]  # no plateau: smallest trusted eps


def lindeberg_upper_bound(scheme: ContaminationScheme, n_grid=DEFAULT_N_GRID, walk=None) -> float:
    """Finite surrogate of limsup (1/s_n^2) * sum p_k sigma_k^2, clamped to [0, 1].

    This bounds the Lindeberg index from above for every scheme; the bound is
    attained for monotone inflation sequences growing at least linearly.
    """
    stats = _walked(scheme, n_grid, walk).stats
    best = max(0.0, *(s.contamination_mass * s.n / s.s2_n for s in stats[len(stats) // 2:]))
    return min(max(best, 0.0), 1.0)


def closed_form_index(L: float) -> float:
    """Index value L / (1 + L) for a convergent contamination mass L >= 0."""
    if not (isinstance(L, (int, float)) and math.isfinite(L) and L >= 0.0):
        raise ValueError(f"L must be finite and >= 0, got {L!r}")
    return L / (1.0 + L)


# ---------------------------------------------------------------------------
# Power-law regime classification
# ---------------------------------------------------------------------------

class RegimeCase(enum.Enum):
    CASE1_AN = "case1-an"              # b < 1: asymptotically normal
    CASE2_AN = "case2-an"              # b >= 1, a > b: asymptotically normal
    CASE3_BOUNDED = "case3-bounded"    # b >= 1, a = b: index p*s2/(1 + p*s2)
    UNCLASSIFIED = "unclassified"      # b >= 1, a < b: no known classification


@dataclass(frozen=True)
class Classification:
    """Regime of a power-law scheme; depends only on the exponents (a, b).

    ``lindeberg_index`` is 0 for the two normal cases, p*s2/(1 + p*s2) for
    the bounded case, and None when unclassified.  ``L`` is the limit of the
    contamination mass where it exists.
    """

    case: RegimeCase
    lindeberg_index: float | None
    L: float | None


def classify_power_law(p: float, a: float, s2: float, b: float) -> Classification:
    ContaminationScheme.power_law(p, a, s2, b)  # parameter bound checks
    if a > b:
        L: float | None = 0.0
    elif a == b:
        L = p * s2
    else:
        L = None  # contamination mass diverges
    if b < 1.0:
        return Classification(RegimeCase.CASE1_AN, 0.0, L)
    if a > b:
        return Classification(RegimeCase.CASE2_AN, 0.0, L)
    if a == b:
        return Classification(RegimeCase.CASE3_BOUNDED, closed_form_index(L), L)
    return Classification(RegimeCase.UNCLASSIFIED, None, None)


# ---------------------------------------------------------------------------
# Kolmogorov distance and normal helpers
# ---------------------------------------------------------------------------

def kolmogorov_distance_to_normal(samples) -> float:
    """Exact sup |E(x) - Phi(x)| between a sample ECDF and the standard normal.

    For sorted values x_(1) <= ... <= x_(R) the supremum over the whole line
    equals max_i max(i/R - Phi(x_(i)), Phi(x_(i)) - (i-1)/R).  The input is
    sorted internally, so the result is invariant under permutation.
    """
    arr = np.asarray(samples, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValueError("need at least one sample")
    if not np.all(np.isfinite(arr)):
        raise ValueError("samples must be finite")
    xs = np.sort(arr)
    r = arr.size
    c = ndtr(xs)
    levels = np.arange(1, r + 1, dtype=np.float64) / r
    d_plus = float(np.max(levels - c))
    d_minus = float(np.max(c - (levels - 1.0 / r)))
    return min(max(d_plus, d_minus, 0.0), 1.0)


def normal_quantile(t):
    """Standard normal quantile; defined strictly inside (0, 1)."""
    arr = np.asarray(t, dtype=np.float64)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise ValueError(f"quantile argument must lie strictly in (0, 1), got {t!r}")
    out = ndtri(arr)
    return float(out) if arr.ndim == 0 else out
