"""Deterministic diagnostics for the contaminated sample mean.

Covers the cumulative variance s_n^2, the three limit conditions that govern
consistency and normality, Lindeberg sums and the Lindeberg index, the
closed-form index bound L / (1 + L), the power-law regime classification,
the Kolmogorov distance of a sample to the standard normal, and a standard
normal quantile helper.

Limits in n are approximated on a finite geometric grid.  A grid can only
ever show a trend, so limit-valued quantities are reported together with the
rule that produced them (see ``Trend`` and the index-estimate notes below).
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
    "array_stats",
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

# Sums are accumulated in chunks aligned to absolute index boundaries, each
# chunk's sum correctly rounded by ``exact_sums``.  Incremental extension then
# reproduces the one-pass result bitwise, because both paths add the same
# chunk totals in the same order.
_CHUNK = 1 << 16

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
    scheme: ContaminationScheme | None = field(repr=False, compare=False, default=None)
    _boundary: int = field(repr=False, compare=False, default=0)
    _run_p: float = field(repr=False, compare=False, default=0.0)
    _run_ps2: float = field(repr=False, compare=False, default=0.0)
    _max_ps2: float = field(repr=False, compare=False, default=0.0)


def array_stats(scheme: ContaminationScheme, n: int,
                extend_from: ArrayStats | None = None) -> ArrayStats:
    """Exact one-pass partial sums for k = 1..n.

    Pass a previous result as ``extend_from`` to continue the accumulation;
    the extended values are bitwise identical to a fresh computation.
    """
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    if extend_from is not None:
        if extend_from.scheme != scheme:
            raise ValueError("extend_from was built for a different scheme")
        if extend_from.n > n:
            raise ValueError(
                f"cannot extend stats at n={extend_from.n} down to n={n}"
            )
        boundary = extend_from._boundary
        run_p, run_ps2 = extend_from._run_p, extend_from._run_ps2
        max_ps2, max_sigma2 = extend_from._max_ps2, extend_from.max_sigma2
    else:
        boundary = 0
        run_p = run_ps2 = max_ps2 = 0.0
        max_sigma2 = 1.0

    while boundary + _CHUNK <= n:
        p, s2 = scheme.weights(boundary + _CHUNK, start=boundary + 1)
        ps2 = p * s2
        chunk_p, chunk_ps2 = exact_sums(np.stack([p, ps2])).tolist()
        run_p += chunk_p
        run_ps2 += chunk_ps2
        max_ps2 = max(max_ps2, float(ps2.max()))
        max_sigma2 = max(max_sigma2, float(s2.max()))
        boundary += _CHUNK

    sum_p, sum_ps2 = run_p, run_ps2
    if n > boundary:
        p, s2 = scheme.weights(n, start=boundary + 1)
        ps2 = p * s2
        chunk_p, chunk_ps2 = exact_sums(np.stack([p, ps2])).tolist()
        sum_p = run_p + chunk_p
        sum_ps2 = run_ps2 + chunk_ps2
        max_ps2 = max(max_ps2, float(ps2.max()))
        max_sigma2 = max(max_sigma2, float(s2.max()))

    s2_n = (float(n) - sum_p) + sum_ps2
    return ArrayStats(
        n=n,
        s2_n=s2_n,
        contamination_mass=sum_ps2 / n,
        mean_p=sum_p / n,
        feller_max=max_ps2 / s2_n,
        max_sigma2=max_sigma2,
        scheme=scheme,
        _boundary=boundary,
        _run_p=run_p,
        _run_ps2=run_ps2,
        _max_ps2=max_ps2,
    )


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


def validate_geometric_grid(grid, min_points: int = 6) -> tuple[int, ...]:
    out = tuple(int(n) for n in grid)
    if len(out) < min_points:
        raise ValueError(f"grid needs at least {min_points} points, got {len(out)}")
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


def _limit_estimate(scheme: ContaminationScheme, n_grid, value_fn) -> LimitEstimate:
    grid = validate_geometric_grid(n_grid)
    stats: ArrayStats | None = None
    values: list[tuple[int, float]] = []
    for n in grid:
        stats = array_stats(scheme, n, extend_from=stats)
        values.append((n, float(value_fn(stats))))
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

def _lindeberg_values(scheme: ContaminationScheme, dist: BaseDistribution,
                      n: int, eps_list, stats: ArrayStats | None = None) -> list[float]:
    """Lindeberg sums of the standardized array at row n for several epsilons."""
    if stats is None:
        stats = array_stats(scheme, n)
    s_n = math.sqrt(stats.s2_n)
    p, s2 = scheme.weights(n)
    ps2 = p * s2
    base_weight = float(np.sum(1.0 - p))  # sum of (1 - p_k)
    threshold_scale = s_n / np.sqrt(s2)   # per-index threshold is eps * s_n / sigma_k
    out = []
    for eps in eps_list:
        term_base = base_weight * dist.truncated_second_moment(eps * s_n)
        term_inflated = float(np.dot(ps2, dist.truncated_second_moment(eps * threshold_scale)))
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
    if n < 1:
        raise ValueError(f"row size must be >= 1, got {n}")
    return _lindeberg_values(scheme, dist, n, [float(eps)])[0]


def _row_limit_surrogate(col: list[float]) -> tuple[float, bool]:
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
                             n_grid=DEFAULT_N_GRID,
                             eps_grid=DEFAULT_EPS_GRID) -> float:
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
    grid = validate_geometric_grid(n_grid)
    eps = validate_eps_grid(eps_grid)
    top = grid[len(grid) // 2:]
    if len(top) < 3:
        raise ValueError("n_grid too short: need at least 3 points in its top half")

    stats: ArrayStats | None = None
    rows = []
    for n in top:
        stats = array_stats(scheme, n, extend_from=stats)
        rows.append(_lindeberg_values(scheme, dist, n, eps, stats=stats))

    g: list[float] = []
    trusted: list[bool] = []
    for j in range(len(eps)):
        value, ok = _row_limit_surrogate([row[j] for row in rows])
        g.append(value)
        trusted.append(ok)

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


def lindeberg_upper_bound(scheme: ContaminationScheme, n_grid=DEFAULT_N_GRID) -> float:
    """Finite surrogate of limsup (1/s_n^2) * sum p_k sigma_k^2, clamped to [0, 1].

    This bounds the Lindeberg index from above for every scheme; the bound is
    attained for monotone inflation sequences growing at least linearly.
    """
    grid = validate_geometric_grid(n_grid)
    stats: ArrayStats | None = None
    best = 0.0
    top_start = len(grid) // 2
    for i, n in enumerate(grid):
        stats = array_stats(scheme, n, extend_from=stats)
        if i >= top_start:
            best = max(best, stats.contamination_mass * stats.n / stats.s2_n)
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
