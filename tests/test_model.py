"""Schemes, base distributions, and mixture sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from contamclt.model import (
    ContaminationScheme,
    StdLaplace,
    StdNormal,
    StdUniform,
    base_distribution,
    draw_centered_row,
)

ALL_DISTS = [StdNormal(), StdUniform(), StdLaplace()]

# pinned via independent high-precision quadrature of x^2 phi(x) on [1, inf)
T_NORMAL_AT_1 = 0.80125195690120080


# ---------------------------------------------------------------------------
# schemes
# ---------------------------------------------------------------------------

def at(scheme, k):
    """(p_k, sigma2_k) at the single index k."""
    p, s2 = scheme.weights(k, start=k)
    return float(p[0]), float(s2[0])


def test_power_law_at_k1_is_raw_parameters():
    s = ContaminationScheme.power_law(0.5, 0.5, 25.0, 0.9)
    assert at(s, 1) == (0.5, 25.0)


def test_uncontaminated_any_k():
    s = ContaminationScheme.uncontaminated()
    for k in (1, 7, 10 ** 9):
        assert at(s, k) == (0.0, 1.0)


def test_power_law_at_k10():
    s = ContaminationScheme.power_law(0.1, 1.0, 4.0, 1.0)
    p_k, sigma2_k = at(s, 10)
    assert p_k == pytest.approx(0.01, abs=1e-15)
    assert sigma2_k == pytest.approx(40.0, abs=1e-12)


def test_index_zero_is_domain_error():
    s = ContaminationScheme.power_law(0.1, 1.0, 4.0, 1.0)
    with pytest.raises(ValueError):
        at(s, 0)


def test_tabular_refuses_extrapolation():
    s = ContaminationScheme.tabular([0.5, 0.2], [2.0, 3.0])
    assert at(s, 2) == (0.2, 3.0)
    with pytest.raises(IndexError):
        at(s, 3)
    with pytest.raises(IndexError):
        s.weights(3)


@pytest.mark.parametrize("bad", [
    dict(p=0.0, a=1, s2=4, b=1),
    dict(p=1.0, a=1, s2=4, b=1),
    dict(p=0.5, a=0.0, s2=4, b=1),
    dict(p=0.5, a=1, s2=1.0, b=1),
    dict(p=0.5, a=1, s2=4, b=0.0),
])
def test_power_law_parameter_bounds(bad):
    with pytest.raises(ValueError):
        ContaminationScheme.power_law(**bad)


def test_tabular_entry_bounds():
    with pytest.raises(ValueError):
        ContaminationScheme.tabular([1.5], [2.0])
    with pytest.raises(ValueError):
        ContaminationScheme.tabular([0.5], [0.9])
    with pytest.raises(ValueError):
        ContaminationScheme.tabular([], [])


def test_weights_match_scalar_evaluation():
    s = ContaminationScheme.power_law(0.3, 0.7, 9.0, 1.2)
    p, s2 = s.weights(50)
    for k in (1, 17, 50):
        pk, sk = at(s, k)
        assert p[k - 1] == pk and s2[k - 1] == sk
        assert pk == 0.3 * float(k) ** -0.7 and sk == 9.0 * float(k) ** 1.2


# ---------------------------------------------------------------------------
# truncated second moments
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.kind)
def test_truncated_moment_at_zero_is_one(dist):
    assert dist.truncated_second_moment(0.0) == pytest.approx(1.0, abs=1e-12)


def test_uniform_truncated_moment_outside_support_is_zero():
    assert StdUniform().truncated_second_moment(2.0) == 0.0


def test_normal_truncated_moment_pinned_value():
    assert StdNormal().truncated_second_moment(1.0) == pytest.approx(
        T_NORMAL_AT_1, abs=1e-10)


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.kind)
def test_truncated_moment_matches_quadrature_oracle(dist):
    # independent oracle: adaptive quadrature of x^2 pdf(x) outside [-t, t]
    for t in np.arange(0.0, 5.0 + 1e-9, 0.1):
        upper = np.inf if dist.kind != "uniform" else math.sqrt(3.0)
        if t >= upper:
            expected = 0.0
        else:
            expected = 2.0 * quad(lambda x: x * x * dist.pdf(x), t, upper,
                                  epsabs=1e-12, epsrel=1e-12)[0]
        assert dist.truncated_second_moment(float(t)) == pytest.approx(
            expected, abs=1e-8), f"{dist.kind} at t={t}"


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.kind)
def test_truncated_moment_nonincreasing(dist):
    ts = np.linspace(0.0, 6.0, 100)
    vals = dist.truncated_second_moment(ts)
    assert np.all(np.diff(vals) <= 1e-15)


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.kind)
def test_truncated_moment_domain_errors(dist):
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError):
            dist.truncated_second_moment(bad)


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.kind)
def test_truncated_moment_is_exact_zero_from_cutoff(dist):
    # the Lindeberg sums zero-fill blocks past zero_from; the moment must be
    # +0.0 there (bit pattern 0), not a subnormal, and no nan where a closed
    # form overflows (the Laplace t^2 past about 1.3e154, the uniform t^3)
    ts = np.concatenate([[dist.zero_from], np.geomspace(dist.zero_from, 1e300, 20_001),
                         np.nextafter(dist.zero_from, np.inf) + np.arange(1000) * 1e-3])
    assert np.all(dist.truncated_second_moment(ts).view(np.int64) == 0)
    # and the cutoff is not loose by more than a few percent
    assert dist.truncated_second_moment(0.96 * dist.zero_from) > 0.0


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.kind)
def test_truncated_moment_out_argument(dist):
    ts = np.concatenate([np.linspace(0.0, 45.0, 4097), [0.0, 1e-300, 5e-324, 600.0]])
    want = dist.truncated_second_moment(ts)
    out = np.full_like(ts, np.nan)
    assert dist.truncated_second_moment(ts, out=out) is out
    assert np.array_equal(out.view(np.int64), want.view(np.int64))
    for t in ts[::97]:
        assert dist.truncated_second_moment(float(t)) == want[ts == t][0]
    with pytest.raises(ValueError):
        dist.truncated_second_moment(np.array([1.0, -1.0]), out=np.empty(2))


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.kind)
def test_mean_zero_variance_one_by_quadrature(dist):
    upper = math.sqrt(3.0) if dist.kind == "uniform" else np.inf
    mean = quad(lambda x: x * dist.pdf(x), -upper, upper, epsabs=1e-12)[0]
    var = quad(lambda x: x * x * dist.pdf(x), -upper, upper, epsabs=1e-12)[0]
    assert mean == pytest.approx(0.0, abs=1e-8)
    assert var == pytest.approx(1.0, abs=1e-8)


def test_base_distribution_registry():
    assert isinstance(base_distribution("normal"), StdNormal)
    assert base_distribution("uniform").kind == "uniform"
    with pytest.raises(ValueError):
        base_distribution("cauchy")


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def _row(scheme, n, dist, rng):
    p, s2 = scheme.weights(n)
    return draw_centered_row(n, p, np.sqrt(s2), dist, rng)


def test_draw_consumes_exactly_two_events_in_fixed_order():
    # per index one uniform and one base draw, as a block of n uniforms then
    # a block of n base draws, whichever branch each index takes
    scheme = ContaminationScheme.power_law(0.9, 0.1, 2.0, 0.5)
    n = 40
    rng = np.random.default_rng(99)
    row = _row(scheme, n, StdNormal(), rng)
    after = rng.random()

    manual = np.random.default_rng(99)
    u = manual.random(n)
    z = manual.standard_normal(n)
    p, s2 = scheme.weights(n)
    expected = [math.sqrt(s2[k]) * z[k] if u[k] < p[k] else z[k] for k in range(n)]
    assert 0 < np.count_nonzero(u < p) < n  # both branches are exercised
    assert row.tolist() == expected
    assert after == manual.random()


def test_draw_same_seed_bitwise_identical():
    scheme = ContaminationScheme.power_law(0.5, 1.0, 9.0, 1.0)
    dist = StdLaplace()
    a = _row(scheme, 30, dist, np.random.default_rng(7))
    b = _row(scheme, 30, dist, np.random.default_rng(7))
    assert a.tobytes() == b.tobytes()


def test_uncontaminated_draws_are_base_samples():
    scheme = ContaminationScheme.uncontaminated()
    n = 10 ** 5
    rng = np.random.default_rng(1234)
    draws = _row(scheme, n, StdNormal(), rng)
    after = rng.random()

    manual = np.random.default_rng(1234)
    manual.random(n)
    assert draws.tolist() == manual.standard_normal(n).tolist()
    assert after == manual.random()
    assert abs(draws.mean()) <= 3.0 / math.sqrt(n)


def _mixture_fourth_moment(p, sigma2, kappa):
    return kappa * ((1.0 - p) + p * sigma2 ** 2)


@pytest.mark.parametrize("dist,kappa", [(StdNormal(), 3.0), (StdUniform(), 1.8)],
                         ids=["normal", "uniform"])
def test_moment_identity_monte_carlo(dist, kappa):
    # exact mean mu and variance (1 - p) + p sigma^2, checked at 3 standard errors
    scheme = ContaminationScheme.tabular([0.3], [16.0])
    mu, n = 2.5, 10 ** 5
    rng = np.random.default_rng(2024)
    u = rng.random(n)
    z = dist.draw(rng, n)
    draws = mu + np.where(u < 0.3, 4.0 * z, z)

    var_exact = (1 - 0.3) + 0.3 * 16.0
    fourth = _mixture_fourth_moment(0.3, 16.0, kappa)
    se_mean = math.sqrt(var_exact / n)
    se_var = math.sqrt((fourth - var_exact ** 2) / n)
    assert abs(draws.mean() - mu) <= 3 * se_mean
    assert abs(draws.var(ddof=1) - var_exact) <= 3 * se_var


def test_always_contaminated_branch_scales_by_sigma():
    # p_k = 1 forces the inflated branch: every draw is 3 Z
    scheme = ContaminationScheme.tabular([1.0], [9.0])
    dist = StdNormal()
    n = 10 ** 5
    rng = np.random.default_rng(5)
    u = rng.random(n)
    z = dist.draw(rng, n)
    draws = np.where(u < 1.0, 3.0 * z, z)
    assert np.all(u < 1.0)
    se_var = math.sqrt((_mixture_fourth_moment(1.0, 9.0, 3.0) - 81.0) / n)
    assert abs(draws.var(ddof=1) - 9.0) <= 3 * se_var


@given(st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=1.0, max_value=50.0))
@settings(max_examples=50)
def test_tabular_bounds_always_accepted(p, sigma2):
    s = ContaminationScheme.tabular([p], [sigma2])
    pk, sk = at(s, 1)
    assert 0.0 <= pk <= 1.0 and sk >= 1.0
