"""Cumulative statistics, limit conditions, Lindeberg diagnostics, KS."""

import math
import tracemalloc
from fractions import Fraction
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri

from contamclt import analytic
from contamclt.analytic import (
    DEFAULT_EPS_GRID,
    DEFAULT_N_GRID,
    RegimeCase,
    Trend,
    array_stats,
    classify_power_law,
    grid_walk,
    condition_a,
    condition_b,
    condition_c,
    kolmogorov_distance_to_normal,
    lindeberg_index_estimate,
    lindeberg_upper_bound,
    validate_eps_grid,
    validate_geometric_grid,
)
from contamclt.cli import config_from_settings, read_config_file
from contamclt.model import (
    ContaminationScheme,
    StdLaplace,
    StdNormal,
    StdUniform,
    base_distribution,
)
from contamclt.montecarlo import default_t_grid, qq_points

NORMAL = StdNormal()
CASE3 = ContaminationScheme.power_law(0.1, 1.0, 4.0, 1.0)
SMALL_GRID = tuple(100 * 2 ** j for j in range(6))

# pinned via independent high-precision quadrature of the normal density
PHI_AT_196 = 0.97500210485177957


# ---------------------------------------------------------------------------
# array_stats
# ---------------------------------------------------------------------------

def test_uncontaminated_stats():
    n = 100
    st_ = array_stats(ContaminationScheme.uncontaminated(), n)
    assert st_.s2_n == n
    assert st_.feller_max == 0.0
    assert st_.contamination_mass == 0.0


def test_contamination_mass_exact_for_matched_exponents():
    # p_k sigma_k^2 = p * s2 exactly when a = b
    for n in (10, 1000):
        st_ = array_stats(CASE3, n)
        assert st_.contamination_mass == pytest.approx(0.4, rel=1e-13)


def test_hand_computed_cumulative_variance_at_n2():
    # (1 - 0.1) + 0.1*4 + (1 - 0.05) + 0.05*8 = 2.65
    st_ = array_stats(CASE3, 2)
    assert st_.s2_n == pytest.approx(2.65, abs=1e-12)


def test_grid_walk_points_equal_fresh_stats():
    scheme = ContaminationScheme.power_law(0.37, 0.8, 7.0, 1.1)
    for stats in grid_walk(scheme, (45_000, 150_000)):
        fresh = array_stats(scheme, stats.n)
        assert stats == fresh
        assert stats.s2_n == fresh.s2_n
        assert stats.contamination_mass == fresh.contamination_mass
        assert stats.feller_max == fresh.feller_max


def test_grid_walk_across_chunk_boundaries():
    # weights are fetched in 2**16-wide chunks; put grid points on, just
    # before and just after chunk boundaries, several to a chunk and none
    chunk = analytic._CHUNK
    rng = np.random.default_rng(15)
    table = ContaminationScheme.tabular(rng.random(3 * chunk + 7),
                                        1.0 + 50.0 * rng.random(3 * chunk + 7))
    for scheme in (ContaminationScheme.power_law(0.2, 0.6, 3.0, 0.8), table):
        for grid in [(chunk - 1, chunk), (chunk, chunk + 1), (10, chunk + 10),
                     (chunk + 5, 3 * chunk + 7), (100, 5000, chunk, 2 * chunk + 3)]:
            walk = grid_walk(scheme, grid)
            assert tuple(stats.n for stats in walk) == grid
            assert walk == tuple(array_stats(scheme, n) for n in grid)
            # the walk's chunks and a Lindeberg row's one whole-row fetch
            # must hold the same bits, or the Lindeberg sums would move
            top = grid[-1]
            chunks = [scheme.weights(min(lo + chunk, top), start=lo + 1)
                      for lo in range(0, top, chunk)]
            for chunked, whole in zip(zip(*chunks), scheme.weights(top)):
                assert np.array_equal(np.concatenate(chunked).view(np.int64),
                                      whole.view(np.int64))


@pytest.mark.parametrize("walk, top", [(array_stats, 10 ** 6),
                                       (grid_walk, tuple(2 ** j for j in range(22)))])
def test_walk_memory_does_not_grow_with_the_grid_top(walk, top):
    # a walk keeps only its ArrayStats and chunk temporaries of 2**16
    # entries; per-index arrays up to the top would take 8 B per index each
    scheme = ContaminationScheme.power_law(0.2, 1.0, 20.0, 1.0)
    tracemalloc.start()
    try:
        walk(scheme, top)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_decreasing_grid_and_zero_n_are_refused():
    with pytest.raises(ValueError):
        grid_walk(CASE3, (100, 50))
    with pytest.raises(ValueError):
        array_stats(CASE3, 0)


def test_grid_walk_memo_gives_each_scheme_and_grid_its_own_walk():
    # the memo keeps one (scheme, grid); interleave schemes on one grid, one
    # scheme on two grids, and two tables that differ in one sigma2_k only
    rng = np.random.default_rng(22)
    p, s2 = rng.random(400), 1.0 + 50.0 * rng.random(400)
    table = ContaminationScheme.tabular(p, s2)
    s2[250] += 1.0  # k = 251, below the top of both grids
    near = ContaminationScheme.tabular(p, s2)
    other = ContaminationScheme.power_law(0.2, 1.0, 2.0, 1.0)
    g1, g2 = tuple(10 * 2 ** j for j in range(6)), tuple(12 * 2 ** j for j in range(6))
    uncached = grid_walk.__wrapped__
    assert uncached(table, g1) != uncached(near, g1)
    assert uncached(table, g2) != uncached(near, g2)
    for scheme, grid in [(CASE3, g1), (other, g1), (CASE3, g1), (table, g1), (near, g1),
                         (table, g1), (CASE3, g2), (CASE3, g1), (near, g2), (table, g2),
                         (near, g1), (near, g1)]:
        assert grid_walk(scheme, grid) == uncached(scheme, grid)
    # the diagnostics read the memo too; CASE3 and other share p*s2 = 0.4, so
    # their condition A values are equal and condition B tells them apart
    b_case3, b_other = condition_b(CASE3, g1), condition_b(other, g1)
    assert b_case3.values != b_other.values
    assert b_other.values == tuple((s.n, s.max_sigma2 / s.s2_n) for s in uncached(other, g1))
    # a walk that raised is not kept: it raises again, and a walk after it is right
    short = ContaminationScheme.tabular(p[:100], s2[:100])
    for _ in range(2):
        with pytest.raises(IndexError):
            grid_walk(short, g1)
    assert grid_walk(table, g1) == uncached(table, g1)


def test_s2_strictly_increasing_in_n():
    prev = None
    for n in (1, 2, 5, 10, 50):
        cur = array_stats(CASE3, n).s2_n
        if prev is not None:
            assert cur > prev
        prev = cur


@given(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(1.0, 100.0)),
                min_size=1, max_size=60))
@settings(max_examples=100)
def test_cumulative_variance_at_least_n(entries):
    scheme = ContaminationScheme.tabular([p for p, _ in entries],
                                         [s for _, s in entries])
    n = len(entries)
    st_ = array_stats(scheme, n)
    assert st_.s2_n >= n
    assert 0.0 <= st_.feller_max <= 1.0


# ---------------------------------------------------------------------------
# conditions
# ---------------------------------------------------------------------------

def test_conditions_uncontaminated_all_vanish():
    s = ContaminationScheme.uncontaminated()
    for cond in (condition_a, condition_b, condition_c):
        est = cond(s)
        assert est.trend is Trend.CONVERGING_TO_ZERO
        assert est.estimate == 0.0


def test_condition_a_matched_exponents_vanishes():
    est = condition_a(CASE3)
    assert est.trend is Trend.CONVERGING_TO_ZERO
    # values are exactly p*s2/n on the grid
    for n, v in est.values:
        assert v == pytest.approx(0.4 / n, rel=1e-12)


def test_condition_a_diverges_for_quadratic_inflation():
    n_max = SMALL_GRID[-1]
    scheme = ContaminationScheme.tabular([1.0] * n_max,
                                         [float(k * k) for k in range(1, n_max + 1)])
    est = condition_a(scheme, SMALL_GRID)
    assert est.trend is Trend.DIVERGING
    # (1/n^2) sum k^2 ~ n/3
    assert est.last == pytest.approx(n_max / 3.0, rel=0.01)


def test_condition_b_sublinear_inflation_vanishes():
    scheme = ContaminationScheme.power_law(0.5, 0.5, 25.0, 0.9)
    est = condition_b(scheme)
    assert est.trend is Trend.CONVERGING_TO_ZERO


def test_condition_b_matched_exponents_positive_limit():
    est = condition_b(CASE3)
    assert est.trend is Trend.CONVERGING_TO_POSITIVE
    assert est.estimate == pytest.approx(4.0 / 1.4, rel=0.01)


def test_condition_c_matched_exponents_vanishes():
    est = condition_c(CASE3)
    assert est.trend is Trend.CONVERGING_TO_ZERO


def test_condition_c_linear_tabular_vanishes():
    n_max = SMALL_GRID[-1]
    scheme = ContaminationScheme.tabular([1.0] * n_max,
                                         [float(k) for k in range(1, n_max + 1)])
    est = condition_c(scheme, SMALL_GRID)
    assert est.trend is Trend.CONVERGING_TO_ZERO


def test_grid_validation():
    with pytest.raises(ValueError):
        validate_geometric_grid([100, 200, 400])  # too few
    with pytest.raises(ValueError):
        validate_geometric_grid([100, 200, 300, 400, 500, 600])  # arithmetic
    with pytest.raises(ValueError):
        validate_eps_grid(np.geomspace(0.01, 10.0, 20))  # three decades
    with pytest.raises(ValueError):
        validate_eps_grid(np.geomspace(1e-3, 10.0, 5))  # too few
    for bad in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(ValueError):
            validate_eps_grid(DEFAULT_EPS_GRID[:-1] + (bad,))
        with pytest.raises(ValueError):
            validate_eps_grid((bad,) + DEFAULT_EPS_GRID[1:])
    assert validate_geometric_grid(DEFAULT_N_GRID) == DEFAULT_N_GRID
    assert validate_eps_grid(DEFAULT_EPS_GRID) == DEFAULT_EPS_GRID


def test_grid_ratios_are_checked_against_their_median():
    # one ratio of 2.3 among 3s lies within 25% of the median 3; the ratio in
    # the middle of the grid order is that 2.3, and 3 is not within 25% of it
    n_grid = (1000, 3000, 9000, 27000, 62100, 186300, 558900)
    assert validate_geometric_grid(n_grid) == n_grid
    eps_grid = [1e-3]
    for ratio in (3, 3, 3, 3, 2.3, 3, 3, 3, 3):
        eps_grid.append(eps_grid[-1] * ratio)
    assert validate_eps_grid(eps_grid) == tuple(eps_grid)


# ---------------------------------------------------------------------------
# Lindeberg sums and index
# ---------------------------------------------------------------------------

def lindeberg_row(scheme, dist, n, eps_list):
    """The Lindeberg sums of row n at each eps, as the index estimate evaluates them."""
    walk = grid_walk(scheme, (n,))
    return [value for [value] in analytic._lindeberg_columns(scheme, walk, dist, eps_list)]


def test_lindeberg_sum_uniform_vanishes_beyond_support():
    # threshold eps*s_n = sqrt(n) >= 2 exceeds the uniform support sqrt(3)
    s = ContaminationScheme.uncontaminated()
    for n in (4, 16, 100):
        assert lindeberg_row(s, StdUniform(), n, [1.0]) == [0.0]
    # far past the Laplace cutoff too, where its closed form overflows to nan
    assert lindeberg_row(s, StdLaplace(), 1, [1e300]) == [0.0]


def test_lindeberg_sum_tends_to_one_for_tiny_eps():
    for scheme in (CASE3, ContaminationScheme.uncontaminated()):
        [v] = lindeberg_row(scheme, NORMAL, 50, [1e-9])
        assert v == pytest.approx(1.0, abs=1e-9)


def test_lindeberg_sum_bounds_and_monotonicity():
    schemes = [CASE3, ContaminationScheme.uncontaminated(),
               ContaminationScheme.tabular([0.2] * 200, [5.0] * 200)]
    eps_grid = np.geomspace(1e-4, 20.0, 25)
    for scheme in schemes:
        vals = lindeberg_row(scheme, NORMAL, 200, eps_grid.tolist())
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def _row_at_once(scheme, dist, n, eps_list):
    """The Lindeberg sums of row n with every tail moment of the row in one call."""
    stats = array_stats(scheme, n)
    s_n = math.sqrt(stats.s2_n)
    p, s2 = scheme.weights(n)
    ps2, base_weight, scale = p * s2, float(np.sum(1.0 - p)), s_n / np.sqrt(s2)
    return [min(max((base_weight * dist.truncated_second_moment(eps * s_n)
                     + float(np.dot(ps2, dist.truncated_second_moment(eps * scale))))
                    / stats.s2_n, 0.0), 1.0) for eps in eps_list]


@pytest.mark.parametrize("dist", [NORMAL, StdUniform(), StdLaplace()], ids=lambda d: d.kind)
def test_blocked_lindeberg_values_equal_row_at_once(dist):
    block = analytic._BLOCK
    # eps up to 1e3 puts whole blocks past each base's exact-zero cutoff
    eps_list = list(DEFAULT_EPS_GRID) + [30.0, 100.0, 1e3]
    evaluated = []

    class Counted(type(dist)):
        def _tail_moment(self, t, out):
            evaluated.append(t.size)
            super()._tail_moment(t, out)

    schemes = (ContaminationScheme.power_law(0.2, 1.0, 20.0, 1.0),
               ContaminationScheme.power_law(0.3, 0.5, 8.0, 1.2))
    for scheme in schemes:
        for n in (1000, 2 * block + 123, 3 * block):
            evaluated.clear()
            blocked = lindeberg_row(scheme, Counted(), n, eps_list)
            want = _row_at_once(scheme, dist, n, eps_list)
            assert [v.hex() for v in blocked] == [v.hex() for v in want], (scheme, n)
            if n > block:
                # the scalar base terms are 1 element each; the rest are row blocks
                assert sum(evaluated) < len(eps_list) * (n + 1), "no block was zero-filled"


# Lindeberg sums at every fifth eps of DEFAULT_EPS_GRID, from mpmath at 30
# digits with the closed-form tail moments (scripts/compute_oracle_constants.py)
LINDEBERG_EPS = ("0.001", "0.0032570206556597828", "0.010608183551394482",
                 "0.03455107294592218", "0.11253355826007645", "0.3665241237079626",
                 "1.1937766417144358", "3.888155180308085")
LINDEBERG_SCHEMES = {
    "powerlaw": (ContaminationScheme.power_law(0.1, 1.0, 4.0, 1.0), 2000),
    "tabular": (ContaminationScheme.tabular(
        (0.05, 0.3, 0.7, 0.15, 0.9, 0.45, 0.2, 0.6, 0.1, 0.35, 0.8, 0.25),
        (1.0, 3.5, 12.0, 1.25, 40.0, 7.0, 2.0, 25.0, 100.0, 5.5, 60.0, 9.0)), 12),
}
LINDEBERG_ORACLE = {
    ("powerlaw", "normal"): (
        "0.99997189070240809717", "0.99903659062003224748", "0.96941770655385024819",
        "0.52991391330738555402", "0.28464759042948033783", "0.27397705205294062733",
        "0.19434921171960510778", "0.010956513833998896779"),
    ("powerlaw", "laplace"): (
        "0.99995285178189983082", "0.99856329505985712654", "0.96676856349630076829",
        "0.65864570758147055407", "0.29174324839345830873", "0.27488947028378196733",
        "0.21048703345367192685", "0.047029936368792764505"),
    ("powerlaw", "uniform"): (
        "0.99997964299160096973", "0.9992966435178443546", "0.97569827887805307876",
        "0.28574384582703125053", "0.28463110579830577448", "0.27355632306518262904",
        "0.18208773539168882306", "0.0"),
    ("tabular", "normal"): (
        "0.99999997351716753931", "0.99999908529675519264", "0.99996850826367252432",
        "0.99895195304009453261", "0.97493432203390665813", "0.83686435442239475489",
        "0.23337238666409391173", "0.000011682248664453516039"),
    ("tabular", "laplace"): (
        "0.99999995357509400031", "0.99999843541726286691", "0.99995012231352751747",
        "0.99866508262331859973", "0.97830335783459581247", "0.85366478733689460707",
        "0.38923651442487636822", "0.0085486644652102695919"),
    ("tabular", "uniform"): (
        "0.99999998083631980573", "0.99999933787428769534", "0.99997712284621479085",
        "0.9992095697907721588", "0.97268978818230832945", "0.82840605660447405522",
        "0.037033188981271041485", "0.0"),
}


@pytest.mark.parametrize("scheme_name, kind", sorted(LINDEBERG_ORACLE))
def test_lindeberg_values_match_mpmath_oracle(scheme_name, kind):
    """The library's sums lie within a rounding bound of the exact ones.

    With u = 2**-53, L = (B m(eps s_n) + sum_k w_k m(eps s_n / sigma_k)) / s_n^2,
    B = sum (1 - p_k), w_k = p_k sigma_k^2, all terms >= 0 and B + sum w_k = s_n^2:
    - relative to L: each weight within 7u (pow within one ulp, then one
      multiply per factor), u per product with m, (n - 1)u for a sum of n
      terms in any order (the BLAS dot fixes none), u to add the two terms,
      15u to divide by s_n^2 (its walk is within 14u), so (n + 23)u;
    - absolute: thresholds within 12.5u relative (s_n^2 14u halved by the
      sqrt, sigma_k 2.5u, three roundings), moved by at most
      max_t t |m'(t)| <= 3 times that (uniform 3, normal 0.93, Laplace 0.68);
      each m evaluated within 12u of m at its float threshold, exp and erfc
      assumed within 4u; the weights of both add to 1, so 37.5u + 12u.
    Rounded up: |L_lib - L| <= u ((n + 24) L + 64).
    """
    assert tuple(map(float, LINDEBERG_EPS)) == DEFAULT_EPS_GRID[::5]
    scheme, n = LINDEBERG_SCHEMES[scheme_name]
    got = lindeberg_row(scheme, base_distribution(kind), n, [float(e) for e in LINDEBERG_EPS])
    u = Fraction(1, 2 ** 53)
    for eps, value, pin in zip(LINDEBERG_EPS, got, LINDEBERG_ORACLE[scheme_name, kind]):
        exact = Fraction(pin)
        assert abs(Fraction(value) - exact) <= u * ((n + 24) * exact + 64), (eps, value, pin)


SMALL_GRID = tuple(100 * 2 ** j for j in range(6))


def _estimate_cases():
    """name -> (scheme, base, n_grid, eps_grid, whether the largest-eps column is trusted)."""
    rng = np.random.default_rng(20261019)
    table = ContaminationScheme.tabular(0.5 * rng.random(3200), 1.0 + 99.0 * rng.random(3200))
    power, grids = ContaminationScheme.power_law, (SMALL_GRID, DEFAULT_EPS_GRID)
    cases = {
        "powerlaw-0.1-1-2-2-normal": (power(0.1, 1.0, 2.0, 2.0), "normal", *grids, False),
        "powerlaw-0.1-2-2-4-normal": (power(0.1, 2.0, 2.0, 4.0), "normal", *grids, False),
        "powerlaw-0.1-1-1000-0.5-laplace": (power(0.1, 1.0, 1000.0, 0.5), "laplace", *grids,
                                            False),
        "tabular-uniform": (table, "uniform", *grids, True),
    }
    for path in sorted((Path(__file__).resolve().parent.parent / "configs").glob("fig*.cfg")):
        config = config_from_settings(read_config_file(str(path))).validated()
        cases[path.stem] = (config.scheme, config.dist, config.n_grid, config.eps_grid, True)
    return cases


ESTIMATE_CASES = _estimate_cases()


def _index_from_all_columns(scheme, dist, n_grid, eps):
    """The index estimate's rule applied to all columns, each row evaluated on its
    own walk; returns the estimate and every column's trusted flag."""
    rows = [lindeberg_row(scheme, dist, n, eps) for n in n_grid[len(n_grid) // 2:]]
    g, trusted = zip(*(analytic._row_limit_surrogate(col) for col in zip(*rows)))
    first = len(eps)
    while first > 0 and trusted[first - 1]:
        first -= 1
    if first == len(eps):
        return max(g), trusted
    for width in (2, 1):
        for j in range(first, len(eps) - width):
            if all(abs(g[i + 1] - g[i]) < 1e-3 for i in range(j, j + width)):
                return g[j], trusted
    return g[first], trusted


@pytest.mark.parametrize("name", sorted(ESTIMATE_CASES))
def test_index_estimate_equals_the_rule_over_all_columns(name):
    # the estimate stops at the first untrusted column below a trusted top,
    # and takes every column when the top is untrusted
    scheme, kind, n_grid, eps, top_trusted = ESTIMATE_CASES[name]
    dist = base_distribution(kind)
    want, trusted = _index_from_all_columns(scheme, dist, n_grid, eps)
    assert trusted[-1] is top_trusted
    assert lindeberg_index_estimate(scheme, dist, n_grid, eps) == want
    if name == "powerlaw-0.1-1-2-2-normal":
        # an estimate that stopped at the second untrusted column read 0x1.0cb91f318f5f7p-3
        assert want.hex() == "0x1.fff909d9fc265p-1"


@pytest.mark.parametrize("scheme, top_trusted", [
    (CASE3, True), (ContaminationScheme.power_law(0.1, 1.0, 2.0, 2.0), False)])
def test_index_estimate_evaluates_no_column_below_the_first_untrusted(scheme, top_trusted):
    thresholds = []

    class Counted(StdNormal):
        def _tail_moment(self, t, out):
            if t.ndim == 0:  # a row's base term at eps * s_n, once per row and column
                thresholds.append(float(t))
            super()._tail_moment(t, out)

    _, trusted = _index_from_all_columns(scheme, NORMAL, SMALL_GRID, DEFAULT_EPS_GRID)
    assert trusted[-1] is top_trusted
    lindeberg_index_estimate(scheme, Counted(), SMALL_GRID)
    walk = grid_walk(scheme, SMALL_GRID)
    s_ns = [math.sqrt(s.s2_n) for s in walk[len(walk) // 2:]]
    if top_trusted:  # from the largest eps down to the first untrusted column
        count = len(trusted) - max(j for j, ok in enumerate(trusted) if not ok)
        assert count < len(trusted)
    else:
        count = len(trusted)
    assert thresholds == [eps * s_n for eps in DEFAULT_EPS_GRID[::-1][:count] for s_n in s_ns]


def test_index_estimate_uncontaminated_is_zero():
    est = lindeberg_index_estimate(ContaminationScheme.uncontaminated(), NORMAL)
    assert est <= 1e-6


def test_index_estimate_sublinear_regime_is_small():
    scheme = ContaminationScheme.power_law(0.5, 0.5, 25.0, 0.9)
    assert lindeberg_index_estimate(scheme, NORMAL) <= 0.02


def test_index_estimate_matched_exponents_closed_form():
    est = lindeberg_index_estimate(CASE3, NORMAL)
    assert est == pytest.approx(0.4 / 1.4, abs=0.03)


def test_index_estimate_is_base_distribution_independent():
    # the limit p*s2/(1 + p*s2) holds for any unit-variance base shape
    from contamclt.model import StdLaplace
    for dist in (NORMAL, StdUniform(), StdLaplace()):
        est = lindeberg_index_estimate(CASE3, dist)
        assert est == pytest.approx(0.4 / 1.4, abs=0.03), dist.kind


def test_upper_bound_examples():
    assert lindeberg_upper_bound(ContaminationScheme.uncontaminated()) == 0.0
    assert lindeberg_upper_bound(CASE3) == pytest.approx(0.4 / 1.4, abs=0.01)
    # a single contaminated entry is washed out by s_n^2 >= n; the grid
    # surrogate is the value at the smallest top-half n, here 100/(800 + 99)
    n_max = SMALL_GRID[-1]
    lone = ContaminationScheme.tabular([1.0] + [0.0] * (n_max - 1),
                                       [100.0] + [1.0] * (n_max - 1))
    assert lindeberg_upper_bound(lone, SMALL_GRID) == pytest.approx(100.0 / 899.0, rel=1e-12)
    wider = tuple(100 * 2 ** j for j in range(6, 0, -1))[::-1]  # 200 .. 6400
    longer = ContaminationScheme.tabular([1.0] + [0.0] * 6399,
                                         [100.0] + [1.0] * 6399)
    assert lindeberg_upper_bound(longer, wider) <= 100.0 / wider[3]


def test_index_estimate_below_upper_bound():
    for scheme in (ContaminationScheme.uncontaminated(), CASE3,
                   ContaminationScheme.power_law(0.5, 2.0, 25.0, 1.5)):
        est = lindeberg_index_estimate(scheme, NORMAL)
        bound = lindeberg_upper_bound(scheme)
        assert est <= bound + 0.02


def test_condition_implication_ordering():
    # Lindeberg-forcing implies Feller-type implies consistency-type
    schemes = [
        ContaminationScheme.uncontaminated(),
        CASE3,
        ContaminationScheme.power_law(0.5, 0.5, 25.0, 0.9),
        ContaminationScheme.power_law(0.5, 2.0, 25.0, 1.5),
        ContaminationScheme.power_law(0.9, 2.0, 100.0, 1.5),
    ]
    for scheme in schemes:
        b = condition_b(scheme).trend
        c = condition_c(scheme).trend
        a = condition_a(scheme).trend
        if b is Trend.CONVERGING_TO_ZERO:
            assert c is Trend.CONVERGING_TO_ZERO
        if c is Trend.CONVERGING_TO_ZERO:
            assert a is Trend.CONVERGING_TO_ZERO


# ---------------------------------------------------------------------------
# classification and its closed-form index
# ---------------------------------------------------------------------------

def test_classification_cases():
    c1 = classify_power_law(0.5, 0.5, 25.0, 0.9)
    assert c1.case is RegimeCase.CASE1_AN and c1.lindeberg_index == 0.0

    c2 = classify_power_law(0.9, 2.0, 100.0, 1.5)
    assert c2.case is RegimeCase.CASE2_AN and c2.lindeberg_index == 0.0
    assert c2.L == 0.0

    c3 = classify_power_law(0.1, 1.0, 4.0, 1.0)
    assert c3.case is RegimeCase.CASE3_BOUNDED
    assert c3.L == pytest.approx(0.4, abs=1e-15)
    assert c3.lindeberg_index == pytest.approx(2.0 / 7.0, abs=1e-15)

    big = classify_power_law(0.5, 1.0, 2e6, 1.0)  # p * s2 = 1e6
    assert big.case is RegimeCase.CASE3_BOUNDED and big.lindeberg_index > 0.999999

    u = classify_power_law(0.1, 0.5, 4.0, 1.5)
    assert u.case is RegimeCase.UNCLASSIFIED
    assert u.lindeberg_index is None and u.L is None


def test_classification_parameter_bounds():
    with pytest.raises(ValueError):
        classify_power_law(1.2, 1.0, 4.0, 1.0)
    with pytest.raises(ValueError):
        classify_power_law(0.5, 1.0, 0.5, 1.0)


# ---------------------------------------------------------------------------
# Kolmogorov distance
# ---------------------------------------------------------------------------

def test_ks_of_exact_quantile_comb():
    r = 1000
    samples = ndtri((np.arange(1, r + 1) - 0.5) / r)
    assert kolmogorov_distance_to_normal(samples) == pytest.approx(1 / (2 * r), abs=1e-12)


def test_ks_single_sample_at_zero():
    assert kolmogorov_distance_to_normal([0.0]) == pytest.approx(0.5, abs=1e-15)


def test_ks_seeded_normal_draws_small():
    draws = np.random.default_rng(31).standard_normal(5000)
    assert kolmogorov_distance_to_normal(draws) < 0.03


def test_ks_agrees_with_scipy():
    draws = np.random.default_rng(8).standard_normal(700) * 1.3 + 0.2
    mine = kolmogorov_distance_to_normal(draws)
    theirs = scipy.stats.kstest(draws, "norm").statistic
    assert mine == pytest.approx(theirs, abs=1e-12)


def test_ks_errors():
    # nan sorts last and infinities to either end, wherever they were
    for bad in ([], [1.0, math.nan], [math.nan, 1.0, 2.0], [1.0, math.inf, 2.0],
                [-math.inf, 0.0], [math.inf, -math.inf, math.nan]):
        with pytest.raises(ValueError):
            kolmogorov_distance_to_normal(bad)


@given(st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=60),
       st.randoms(use_true_random=False))
@settings(max_examples=100)
def test_ks_permutation_invariant_and_bounded(samples, rand):
    d = kolmogorov_distance_to_normal(samples)
    shuffled = list(samples)
    rand.shuffle(shuffled)
    assert kolmogorov_distance_to_normal(shuffled) == d
    assert 0.0 <= d <= 1.0


def test_normal_cdf_quantile_basics():
    # the normal quantile the program reports: the QQ points' theoretical column
    grid = default_t_grid()
    theoretical = [pt.theoretical for pt in qq_points([0.0, 1.0], grid)]
    expected = [NormalDist().inv_cdf(t) for t in grid]
    assert theoretical == pytest.approx(expected, abs=1e-14)
    assert qq_points([0.0], [0.5])[0].theoretical == 0.0


def test_quantile_cdf_roundtrip():
    # the normal CDF the program uses: the KS distance of one point x is
    # max(Phi(x), 1 - Phi(x))
    for x in np.linspace(-6.0, 6.0, 121).tolist():
        phi = NormalDist().cdf(x)
        assert kolmogorov_distance_to_normal([x]) == pytest.approx(max(phi, 1.0 - phi), abs=1e-14)
    assert kolmogorov_distance_to_normal([1.96]) == pytest.approx(PHI_AT_196, abs=1e-15)


def test_normal_domain_errors():
    # the program takes normal quantiles only through qq_points, which must
    # refuse every level outside the open unit interval before ndtri sees it
    for bad in (0.0, 1.0, -0.2, 1.4, math.nan):
        with pytest.raises(ValueError):
            qq_points([1.0, 2.0], [bad])


# R at the edges of the level blocks: one level, a block less one, a whole
# block, a block and one, and three blocks and a part
BLOCK_EDGE_R = (1, 2, analytic._BLOCK - 1, analytic._BLOCK, analytic._BLOCK + 1,
                3 * analytic._BLOCK + 5)


@pytest.mark.parametrize("r", BLOCK_EDGE_R)
def test_ks_equals_the_whole_array_formula_across_level_blocks(r):
    # draws rounded to 0.01, so the larger samples hold many ties
    samples = np.round(np.random.default_rng(r).standard_normal(r), 2)
    c = ndtr(np.sort(samples))
    levels = np.arange(1, r + 1, dtype=np.float64) / r
    want = min(max(float(np.max(levels - c)), float(np.max(c - (levels - 1.0 / r))), 0.0), 1.0)
    assert kolmogorov_distance_to_normal(samples) == want


@pytest.mark.parametrize("r", BLOCK_EDGE_R)
@pytest.mark.parametrize("ties", [True, False])
def test_qq_equals_the_whole_array_search_across_level_blocks(r, ties):
    # with ties, draws rounded to 0.01; without, a permutation of 0..R-1, whose
    # order statistic x_(i) is i - 1, so the value names the index it came from
    rng = np.random.default_rng(r)
    samples = np.round(rng.standard_normal(r), 2) if ties else rng.permutation(r).astype(float)
    xs = np.sort(samples)
    levels = np.arange(1, r + 1) / r
    grids = [default_t_grid()]
    for i in (analytic._BLOCK - 1, analytic._BLOCK, analytic._BLOCK + 1):
        if i < r:  # the level i/R itself and the floats on either side of it
            grids.append([np.nextafter(i / r, 0.0), i / r, np.nextafter(i / r, 1.0)])
    for grid in grids:
        got = [pt.empirical for pt in qq_points(samples, grid)]
        assert got == xs[np.searchsorted(levels, grid)].tolist(), grid


@pytest.mark.parametrize("fn", [kolmogorov_distance_to_normal,
                                lambda samples: qq_points(samples, default_t_grid())],
                         ids=["ks", "qq"])
def test_ks_and_qq_memory_is_one_sorted_copy(fn):
    # one sorted copy (KS takes Phi in place) and levels in blocks; a second
    # array of R floats, such as all R levels at once, breaks the bound
    r = 10 ** 6
    samples = np.random.default_rng(5).standard_normal(r)
    tracemalloc.start()
    try:
        fn(samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 8 * r
