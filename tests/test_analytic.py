"""Cumulative statistics, limit conditions, Lindeberg diagnostics, KS, normal helpers."""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from contamclt import analytic
from contamclt.analytic import (
    DEFAULT_EPS_GRID,
    DEFAULT_N_GRID,
    RegimeCase,
    Trend,
    array_stats,
    classify_power_law,
    closed_form_index,
    grid_walk,
    condition_a,
    condition_b,
    condition_c,
    kolmogorov_distance_to_normal,
    lindeberg_index_estimate,
    lindeberg_sum,
    lindeberg_upper_bound,
    normal_quantile,
    validate_eps_grid,
    validate_geometric_grid,
)
from contamclt.model import ContaminationScheme, StdLaplace, StdNormal, StdUniform

NORMAL = StdNormal()
CASE3 = ContaminationScheme.power_law(0.1, 1.0, 4.0, 1.0)
SMALL_GRID = tuple(100 * 2 ** j for j in range(6))

# pinned via independent high-precision quadrature of the normal density
PHI_AT_196 = 0.97500210485177957


# ---------------------------------------------------------------------------
# array_stats
# ---------------------------------------------------------------------------

def test_uncontaminated_stats():
    st_ = array_stats(ContaminationScheme.uncontaminated(), 100)
    assert st_.s2_n == 100.0
    assert st_.feller_max == 0.0
    assert st_.contamination_mass == 0.0
    assert st_.mean_p == 0.0


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
    walk = grid_walk(scheme, (45_000, 150_000))
    for stats in walk.stats:
        fresh = array_stats(scheme, stats.n)
        assert stats == fresh
        assert stats.s2_n == fresh.s2_n
        assert stats.contamination_mass == fresh.contamination_mass
        assert stats.feller_max == fresh.feller_max


def test_grid_walk_across_chunk_boundaries():
    # weights are fetched in 2**16-wide chunks; put grid points on, just
    # before and just after chunk boundaries, several to a chunk and none
    scheme = ContaminationScheme.power_law(0.2, 0.6, 3.0, 0.8)
    chunk = analytic._CHUNK
    for grid in [(chunk - 1, chunk), (chunk, chunk + 1), (10, chunk + 10),
                 (chunk + 5, 3 * chunk + 7), (100, 5000, chunk, 2 * chunk + 3)]:
        walk = grid_walk(scheme, grid)
        assert walk.grid == grid
        assert walk.stats == tuple(array_stats(scheme, n) for n in grid)
        # the kept per-index arrays are those of one weights call over the row
        p, s2 = scheme.weights(grid[-1])
        for kept, direct in ((walk.ps2, p * s2), (walk.sigma, np.sqrt(s2)), (walk.q, 1.0 - p)):
            assert np.array_equal(kept.view(np.int64), direct.view(np.int64))


def test_walk_for_another_scheme_or_grid_is_refused():
    other = ContaminationScheme.power_law(0.2, 1.0, 2.0, 1.0)
    walk = grid_walk(CASE3, SMALL_GRID)
    assert condition_a(CASE3, SMALL_GRID, walk) == condition_a(CASE3, SMALL_GRID)
    with pytest.raises(ValueError):
        condition_a(other, SMALL_GRID, walk)
    with pytest.raises(ValueError):
        lindeberg_upper_bound(CASE3, tuple(2 * n for n in SMALL_GRID), walk)
    with pytest.raises(ValueError):
        grid_walk(CASE3, (100, 50))
    with pytest.raises(ValueError):
        array_stats(CASE3, 0)


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
    assert validate_geometric_grid(DEFAULT_N_GRID) == DEFAULT_N_GRID
    assert validate_eps_grid(DEFAULT_EPS_GRID) == DEFAULT_EPS_GRID


# ---------------------------------------------------------------------------
# Lindeberg sums and index
# ---------------------------------------------------------------------------

def test_lindeberg_sum_uniform_vanishes_beyond_support():
    # threshold eps*s_n = sqrt(n) >= 2 exceeds the uniform support sqrt(3)
    s = ContaminationScheme.uncontaminated()
    for n in (4, 16, 100):
        assert lindeberg_sum(s, StdUniform(), n, 1.0) == 0.0
    # far past the Laplace cutoff too, where its closed form overflows to nan
    assert lindeberg_sum(s, StdLaplace(), 1, 1e300) == 0.0


def test_lindeberg_sum_tends_to_one_for_tiny_eps():
    for scheme in (CASE3, ContaminationScheme.uncontaminated()):
        assert lindeberg_sum(scheme, NORMAL, 50, 1e-9) == pytest.approx(1.0, abs=1e-9)


def test_lindeberg_sum_bounds_and_monotonicity():
    schemes = [CASE3, ContaminationScheme.uncontaminated(),
               ContaminationScheme.tabular([0.2] * 200, [5.0] * 200)]
    eps_grid = np.geomspace(1e-4, 20.0, 25)
    for scheme in schemes:
        vals = [lindeberg_sum(scheme, NORMAL, 200, float(e)) for e in eps_grid]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_lindeberg_sum_domain_errors():
    with pytest.raises(ValueError):
        lindeberg_sum(CASE3, NORMAL, 100, 0.0)
    with pytest.raises(ValueError):
        lindeberg_sum(CASE3, NORMAL, 100, -1.0)
    with pytest.raises(ValueError):
        lindeberg_sum(CASE3, NORMAL, 100, math.inf)


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
            walk = grid_walk(scheme, (n,))
            evaluated.clear()
            blocked = analytic._lindeberg_values(walk, walk.stats[0], Counted(), eps_list)
            want = _row_at_once(scheme, dist, n, eps_list)
            assert [v.hex() for v in blocked] == [v.hex() for v in want], (scheme, n)
            if n > block:
                # the scalar base terms are 1 element each; the rest are row blocks
                assert sum(evaluated) < len(eps_list) * (n + 1), "no block was zero-filled"


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
# closed-form index and classification
# ---------------------------------------------------------------------------

def test_closed_form_index_values():
    assert closed_form_index(0.0) == 0.0
    assert closed_form_index(0.4) == pytest.approx(2.0 / 7.0, abs=1e-15)
    assert closed_form_index(1e6) > 0.999999
    with pytest.raises(ValueError):
        closed_form_index(-0.1)
    with pytest.raises(ValueError):
        closed_form_index(math.inf)


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
    assert c3.lindeberg_index == closed_form_index(c3.L)

    u = classify_power_law(0.1, 0.5, 4.0, 1.5)
    assert u.case is RegimeCase.UNCLASSIFIED
    assert u.lindeberg_index is None and u.L is None


def test_classification_parameter_bounds():
    with pytest.raises(ValueError):
        classify_power_law(1.2, 1.0, 4.0, 1.0)
    with pytest.raises(ValueError):
        classify_power_law(0.5, 1.0, 0.5, 1.0)


# ---------------------------------------------------------------------------
# Kolmogorov distance and normal helpers
# ---------------------------------------------------------------------------

def test_ks_of_exact_quantile_comb():
    r = 1000
    samples = normal_quantile((np.arange(1, r + 1) - 0.5) / r)
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
    with pytest.raises(ValueError):
        kolmogorov_distance_to_normal([])
    with pytest.raises(ValueError):
        kolmogorov_distance_to_normal([1.0, math.nan])


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
    assert ndtr(0.0) == 0.5
    assert normal_quantile(0.5) == 0.0
    assert ndtr(1.96) == pytest.approx(PHI_AT_196, abs=1e-12)
    assert normal_quantile(PHI_AT_196) == pytest.approx(1.96, abs=1e-12)


def test_quantile_cdf_roundtrip():
    xs = np.linspace(-6.0, 6.0, 121)
    back = normal_quantile(ndtr(xs))
    assert np.max(np.abs(back - xs)) < 1e-8


def test_normal_domain_errors():
    for bad in (0.0, 1.0, -0.2, 1.4, math.nan):
        with pytest.raises(ValueError):
            normal_quantile(bad)
