"""Deterministic diagnostics for the contaminated sample mean.

Covers the cumulative variance s_n^2, the three limit conditions that govern
consistency and normality, Lindeberg sums and the Lindeberg index, the
closed-form index bound L / (1 + L), the power-law regime classification,
and the Kolmogorov distance of a sample to the standard normal.

Limits in n are approximated on a finite geometric grid.  A grid can only
ever show a trend, so limit-valued quantities are reported together with the
rule that produced them (see ``Trend`` and the index-estimate notes below).

``grid_walk`` is the one pass over k = 1..max(n_grid) that the conditions,
the index bound and the index estimate share: it keeps only the
``ArrayStats`` and remembers its last (scheme, grid), so a run of the five
diagnostics on one scheme and grid walks once.  The Lindeberg rows are
prefixes of the top row, whose weights the index estimate fetches once more.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .model import BaseDistribution, ContaminationScheme

DEFAULT_N_GRID: tuple[int, ...] = tuple(1000 * 2 ** j for j in range(8))
DEFAULT_EPS_GRID: tuple[float, ...] = tuple(float(e) for e in np.geomspace(1e-3, 10.0, 40))

# Weights are fetched and summed in chunks aligned to absolute index
# boundaries, each chunk's sum correctly rounded by ``exact_sums``.  The stats
# at n add the full-chunk totals below n in order, then the part-chunk up to
# n, so they are the same whichever other points a walk's grid holds.
_CHUNK = 1 << 16
# Lindeberg terms, and the ECDF levels i/R of KS and QQ, come in blocks of this
# many, so a block's temporaries stay in cache and no array of R levels is held.
_BLOCK = 1 << 14

# Rows with 2 * n * max|x| at or above this, or with an inf or nan, are left
# to math.fsum: the splitter in ``exact_sums`` needs sigma + x finite.
_SPLIT_LIMIT = 2.0 ** 1022
_LEAF = 128  # keeps exact_sums' summation tree about 128 + n/128 deep, not n


def exact_sums(block, scratch=None) -> np.ndarray:
    """Correctly rounded sum of each row of a 2-D float64 block, which it overwrites,
    as it does ``scratch``, a float64 array of the block's shape, if one is given.

    Equal bit for bit to ``math.fsum(row.tolist())`` for every row, with the
    work vectorized over the block.  The error-free extraction of Rump, Ogita
    and Oishi ("Accurate floating-point summation", SIAM J. Sci. Comput.
    2008) splits each row x: with a power of two sigma > 2 n max|x|,
    q = (sigma + x) - sigma and r = x - q are exact, every q is a multiple of
    ulp(sigma)/2 and |sum q| < sigma, so tau = ``q.sum`` is exact in any
    order, and |r| <= sigma 2**-53.

    So S = tau + sum r.  rho = fl(sum r) adds r in leaves of _LEAF entries,
    then the k full leaves' sums and the rest's sum: whatever numpy's order
    within a sum, each r_i meets at most c = min(n, _LEAF) + k roundings, so
    rho is off by at most gamma_c sum|r| < 2 c n 2**-106 sigma (an addition
    loses nothing to underflow).  B = fl(c n 2**-105 sigma) + 2**-1074 exceeds
    it, sigma being a power of two: the product is exact unless it
    underflows, losing less than 2**-1074.  With s = fl(tau + rho) and e its
    exact TwoSum error, |S - s| <= |e| + B, so fl(|e| + B) < g/2, g the
    smaller gap from |s| to a float neighbour, puts S strictly nearer s than
    any other float (fl is monotone, and g/2 is a float or 0): s is final.
    s = 0 always fails, and all-zero rows give +0.0 as fsum does.  The other
    failing rows stream tau and then r, which add up exactly to S, through
    ``math.fsum``.  Rows the splitter cannot take go to ``math.fsum`` whole,
    so they give its value or raise its exception.
    """
    r = np.asarray(block, dtype=np.float64)
    if r.ndim != 2:
        raise ValueError(f"need a 2-D block, got shape {r.shape}")
    rows, n = r.shape
    out = np.zeros(rows)
    if n == 0:
        return out
    q = np.empty_like(r) if scratch is None else scratch
    top = np.abs(r, out=q).max(axis=1)
    for i in np.flatnonzero(~(top < _SPLIT_LIMIT / (2.0 * n))):  # inf and nan too
        out[i] = math.fsum(r[i])
        r[i], top[i] = 0.0, 0.0  # an all-zero row, which keeps its fsum value
    sigma = np.ldexp(1.0, np.frexp(2.0 * n * top)[1])[:, None]
    np.add(r, sigma, out=q)
    q -= sigma
    tau = q.sum(axis=1)
    r -= q
    k = n // _LEAF
    leaves = r[:, :k * _LEAF].reshape(rows, k, _LEAF).sum(axis=2)  # reshapes a view
    rho = leaves.sum(axis=1) + r[:, k * _LEAF:].sum(axis=1)
    s = tau + rho
    b = s - tau  # TwoSum: s + e == tau + rho exactly
    e = np.abs((tau - (s - b)) + (rho - b)) + (
        math.ldexp(float((min(n, _LEAF) + k) * n), -105) * sigma[:, 0] + 2.0 ** -1074)
    done = e < 0.5 * (np.abs(s) - np.nextafter(np.abs(s), 0.0))
    out[done] = s[done]
    for i in np.flatnonzero(~done & (top > 0.0)):
        out[i] = math.fsum(itertools.chain((tau[i],), r[i]))
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
    feller_max: float          # max_k p_k sigma_k^2 / s2_n
    max_sigma2: float          # max_k sigma_k^2


@functools.lru_cache(maxsize=1)
def grid_walk(scheme: ContaminationScheme, grid: tuple[int, ...]) -> tuple[ArrayStats, ...]:
    """ArrayStats at each n of ``grid``, a tuple, from one chunk-aligned pass over
    k = 1..max(grid) with exact partial sums.  The last (scheme, grid) is memoized."""
    grid = tuple(int(n) for n in grid)
    if not grid or grid[0] < 1 or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"sample sizes must be increasing and >= 1, got {grid}")
    top = grid[-1]
    stats = []
    run = (0.0, 0.0, 0.0, 1.0)  # sum p, sum p s2, max p s2, max s2 up to lo
    for lo in range(0, top, _CHUNK):
        p, s2 = scheme.weights(min(lo + _CHUNK, top), start=lo + 1)
        hi = lo + p.size
        ps2 = p * s2
        points = [n for n in grid if lo < n <= hi]
        for n in points + ([hi] if hi not in points else []):
            m = n - lo
            chunk_p, chunk_ps2 = exact_sums(np.stack([p[:m], ps2[:m]])).tolist()
            acc = (run[0] + chunk_p, run[1] + chunk_ps2,
                   max(run[2], float(ps2[:m].max())), max(run[3], float(s2[:m].max())))
            if n in points:
                s2_n = (float(n) - acc[0]) + acc[1]
                stats.append(ArrayStats(n, s2_n, acc[1] / n, acc[2] / s2_n, acc[3]))
        run = acc
    return tuple(stats)


def array_stats(scheme: ContaminationScheme, n: int) -> ArrayStats:
    """Exact one-pass partial sums for k = 1..n."""
    return grid_walk(scheme, (n,))[0]


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


def _geometric(out: tuple, min_points: int, what: str) -> tuple:
    """``out`` if it has at least ``min_points`` strictly increasing positive
    entries whose successive ratios all lie within 25% of their median."""
    if len(out) < min_points:
        raise ValueError(f"{what} needs at least {min_points} points, got {len(out)}")
    if not (out[0] > 0 and all(b > a for a, b in zip(out, out[1:]))):  # nan fails
        raise ValueError(f"{what} must be strictly increasing and positive")
    ratios = [b / a for a, b in zip(out, out[1:])]
    rbar = sorted(ratios)[len(ratios) // 2]
    if any(abs(r - rbar) > 0.25 * rbar for r in ratios):
        raise ValueError(f"{what} must be (approximately) geometric")
    return out


def validate_geometric_grid(grid) -> tuple[int, ...]:
    return _geometric(tuple(int(n) for n in grid), 6, "n grid")


def validate_eps_grid(grid) -> tuple[float, ...]:
    out = _geometric(tuple(float(e) for e in grid), 8, "epsilon grid")
    if not (math.isfinite(out[-1]) and out[-1] / out[0] >= 10.0 ** 3.99):
        raise ValueError("epsilon grid must be finite and span at least four decades")
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


def _limit_estimate(scheme: ContaminationScheme, n_grid, value_fn) -> LimitEstimate:
    values = [(s.n, float(value_fn(s)))
              for s in grid_walk(scheme, validate_geometric_grid(n_grid))]
    vals = [v for _, v in values]
    trend, estimate = _classify_trend(vals)
    return LimitEstimate(values=tuple(values), last=vals[-1], trend=trend,
                         estimate=estimate)


def condition_a(scheme: ContaminationScheme, n_grid=DEFAULT_N_GRID) -> LimitEstimate:
    """Does (1/n^2) * sum p_k sigma_k^2 vanish?  Governs weak consistency."""
    return _limit_estimate(scheme, n_grid, lambda s: s.contamination_mass / s.n)


def condition_b(scheme: ContaminationScheme, n_grid=DEFAULT_N_GRID) -> LimitEstimate:
    """Does (1/s_n^2) * max_k sigma_k^2 vanish?  Forces the Lindeberg condition."""
    return _limit_estimate(scheme, n_grid, lambda s: s.max_sigma2 / s.s2_n)


def condition_c(scheme: ContaminationScheme, n_grid=DEFAULT_N_GRID) -> LimitEstimate:
    """Does (1/s_n^2) * max_k p_k sigma_k^2 vanish?  Equivalent to Feller's condition."""
    return _limit_estimate(scheme, n_grid, lambda s: s.feller_max)


# ---------------------------------------------------------------------------
# Lindeberg sums and index
# ---------------------------------------------------------------------------

def _lindeberg_columns(scheme: ContaminationScheme, walk: tuple[ArrayStats, ...],
                       dist: BaseDistribution, eps_list):
    """Yield the Lindeberg sums of the top-half rows of ``scheme``'s ``walk`` at
    each eps of ``eps_list``.

    A sum is the base term (threshold eps*s_n, weight sum(1 - p_k)) plus the
    inflated term (thresholds eps*s_n/sigma_k, weights p_k sigma_k^2), over
    s_n^2; it lies in [0, 1] and is nonincreasing in eps.

    The rows are prefixes of the top row: its 1 - p_k, p_k sigma_k^2 and sigma_k
    are fetched once, in blocks bit-equal to the walk's chunks, and each row reads
    prefix views.  A row's tail moments overwrite the 1 - p_k block by block, and
    one ``np.dot`` reduces them.  A block whose thresholds eps*s_n/sigma_k are all
    at least ``dist.zero_from`` is zero-filled; none exceeds eps*s_n.
    """
    top = walk[-1].n
    ps2, sigma, moment = np.empty(top), np.empty(top), np.empty(top)
    for lo in range(0, top, _BLOCK):
        p, s2 = scheme.weights(min(lo + _BLOCK, top), start=lo + 1)
        hi = lo + p.size
        np.subtract(1.0, p, out=moment[lo:hi])
        np.multiply(p, s2, out=ps2[lo:hi])
        np.sqrt(s2, out=sigma[lo:hi])
    plan = []  # per row: stats, s_n, sum(1 - p_k), each block's start and min s_n/sigma_k
    for stats in walk[len(walk) // 2:]:
        starts, s_n = range(0, stats.n, _BLOCK), math.sqrt(stats.s2_n)
        floors = (s_n / np.maximum.reduceat(sigma[:stats.n], starts)).tolist()
        plan.append((stats, s_n, float(np.sum(moment[:stats.n])), list(zip(starts, floors))))
    t = np.empty(min(top, _BLOCK))
    for eps in eps_list:
        col = []
        for stats, s_n, base_weight, blocks in plan:
            if not math.isfinite(eps * s_n):
                raise ValueError(f"Lindeberg threshold eps*s_n is inf at eps={eps!r}, n={stats.n}")
            term_base = base_weight * dist.truncated_second_moment(eps * s_n)
            for lo, floor in blocks:
                hi = min(lo + _BLOCK, stats.n)
                if eps * floor >= dist.zero_from:
                    moment[lo:hi] = 0.0
                else:
                    tb = np.divide(s_n, sigma[lo:hi], out=t[:hi - lo])
                    dist.truncated_second_moment(np.multiply(tb, eps, out=tb), out=moment[lo:hi])
            term_inflated = float(np.dot(ps2[:stats.n], moment[:stats.n]))
            col.append(min(max((term_base + term_inflated) / stats.s2_n, 0.0), 1.0))
        yield col


def _row_limit_surrogate(col: list[float]) -> tuple[float, bool]:
    """Estimate lim sup over n from values on the top half of the n-grid.

    Returns (value, trusted).  The estimate is trusted when the values have
    either converged (spread below 1e-3) or decrease with consistently
    contracting differences, in which case the Aitken limit is used.  An
    untrusted column falls back to the conservative grid maximum; it marks an
    epsilon at which the grid has not yet reached the limiting regime.
    """
    vmax = max(col)
    if vmax - min(col) <= 1e-3:
        return vmax, True
    diffs = [b - a for a, b in zip(col, col[1:])]
    if all(d < 0.0 for d in diffs):
        ratios = [d2 / d1 for d1, d2 in zip(diffs, diffs[1:])]
        if all(0.0 < q <= 0.97 for q in ratios):
            return min(max(_aitken(*col[-3:]), 0.0), 1.0), True
    return vmax, False


def lindeberg_index_estimate(scheme: ContaminationScheme, dist: BaseDistribution,
                             n_grid=DEFAULT_N_GRID, eps_grid=DEFAULT_EPS_GRID) -> float:
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
    walk = grid_walk(scheme, validate_geometric_grid(n_grid))
    # columns from the large-eps end, evaluated only as far as they are read
    surrogates = map(_row_limit_surrogate, _lindeberg_columns(scheme, walk, dist, eps[::-1]))
    g_top, top_trusted = next(surrogates)
    if not top_trusted:  # nothing resolvable; conservative grid maximum
        return max([g_top, *(v for v, _ in surrogates)])
    # the contiguous trusted suffix reachable from the large-eps end, ascending
    g = [v for v, _ in itertools.takewhile(lambda s: s[1], surrogates)][::-1] + [g_top]
    for width in (2, 1):  # prefer a three-point plateau, fall back to two
        for j in range(len(g) - width):
            if all(abs(g[i + 1] - g[i]) < 1e-3 for i in range(j, j + width)):
                return g[j]
    return g[0]  # no plateau: smallest trusted eps


def lindeberg_upper_bound(scheme: ContaminationScheme, n_grid=DEFAULT_N_GRID) -> float:
    """Finite surrogate of limsup (1/s_n^2) * sum p_k sigma_k^2, clamped to [0, 1].

    This bounds the Lindeberg index from above for every scheme; the bound is
    attained for monotone inflation sequences growing at least linearly.
    """
    stats = grid_walk(scheme, validate_geometric_grid(n_grid))
    best = max(0.0, *(s.contamination_mass * s.n / s.s2_n for s in stats[len(stats) // 2:]))
    return min(best, 1.0)


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
        return Classification(RegimeCase.CASE3_BOUNDED, L / (1.0 + L), L)
    return Classification(RegimeCase.UNCLASSIFIED, None, None)


# ---------------------------------------------------------------------------
# Kolmogorov distance
# ---------------------------------------------------------------------------

def _level_blocks(r: int):
    """Yield (lo, the levels i/r for i = lo+1..min(lo + _BLOCK, r)) block by block;
    their floats are those of ``np.arange(1, r + 1) / r``."""
    for lo in range(0, r, _BLOCK):
        yield lo, np.arange(lo + 1, min(lo + _BLOCK, r) + 1, dtype=np.float64) / r


def kolmogorov_distance_to_normal(samples) -> float:
    """Exact sup |E(x) - Phi(x)| between a sample ECDF and the standard normal.

    For sorted values x_(1) <= ... <= x_(R) the supremum over the whole line
    equals max_i max(i/R - Phi(x_(i)), Phi(x_(i)) - (i-1)/R).  The input is
    sorted internally, so the result is invariant under permutation.  One
    sorted copy (8R bytes) takes Phi in place; the levels come in blocks.
    """
    c = np.sort(np.asarray(samples, dtype=np.float64).ravel())
    if c.size == 0:
        raise ValueError("need at least one sample")
    if not (np.isfinite(c[0]) and np.isfinite(c[-1])):  # nan sorts last
        raise ValueError("samples must be finite")
    d = 0.0
    for lo, levels in _level_blocks(ndtr(c, out=c).size):
        phi = c[lo:lo + levels.size]
        d = max(d, float(np.max(levels - phi)), float(np.max(phi - (levels - 1.0 / c.size))))
    return min(d, 1.0)
