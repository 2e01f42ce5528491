"""Schemes, base distributions, and mixture sampling."""

import math
import pickle

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from stream_oracle import numpy_draws, oracle_generator

from contamclt.model import (
    ContaminationScheme,
    StdLaplace,
    StdNormal,
    StdUniform,
    base_distribution,
    draw_centered_row,
)
from contamclt.rng import stream_generator

ALL_DISTS = [StdNormal(), StdUniform(), StdLaplace()]

# the same laws from scipy.stats, independent of the library's code
SCIPY_LAW = {
    "normal": scipy.stats.norm(),
    "uniform": scipy.stats.uniform(loc=-math.sqrt(3.0), scale=2.0 * math.sqrt(3.0)),
    "laplace": scipy.stats.laplace(scale=1.0 / math.sqrt(2.0)),
}

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


def _first_bad_entry(p_k, sigma2_k):
    """The error of a per-index validation loop, the oracle: at each index in
    turn, p_k before sigma2_k; None for a valid table."""
    for i, (pk, sk) in enumerate(zip(p_k, sigma2_k)):
        if not (math.isfinite(pk) and 0.0 <= pk <= 1.0):
            return f"p_k out of [0, 1] at index {i + 1}: {pk}"
        if not (math.isfinite(sk) and sk >= 1.0):
            return f"sigma2_k below 1 at index {i + 1}: {sk}"
    return None


def _bad_tables():
    m = 9
    for at_index in (0, m // 2, m - 1):
        for column, values in ((0, (math.nan, math.inf, -math.inf, -0.1, 1.5)),
                               (1, (0.5, math.nan, math.inf))):
            for value in values:
                table = [[0.25] * m, [4.0] * m]
                table[column][at_index] = value
                yield table
    table = [[0.25] * m, [4.0] * m]
    table[0][4], table[1][4] = 1.5, 0.5  # both columns bad at one index
    table[0][7] = math.nan  # and a later bad p_k
    yield table
    table = [[0.25] * m, [4.0] * m]
    table[1][2], table[0][6] = math.inf, -0.1  # a bad sigma2_k before a bad p_k
    yield table


@pytest.mark.parametrize("p_k,sigma2_k", list(_bad_tables()))
def test_tabular_names_the_first_bad_index_as_the_per_index_loop(p_k, sigma2_k):
    expected = _first_bad_entry(p_k, sigma2_k)
    assert expected is not None
    with pytest.raises(ValueError) as raised:
        ContaminationScheme.tabular(p_k, sigma2_k)
    assert str(raised.value) == expected
    with pytest.raises(ValueError) as raised:  # float64 bytes go through the same check
        ContaminationScheme.tabular(np.array(p_k).tobytes(), np.array(sigma2_k).tobytes())
    assert str(raised.value) == expected


def test_tabular_refuses_unequal_nested_or_scalar_sequences():
    with pytest.raises(ValueError, match="equal-length, nonempty"):
        ContaminationScheme.tabular([0.5], [2.0, 2.0])
    with pytest.raises(ValueError, match="equal-length, nonempty"):  # 8 bytes against 16
        ContaminationScheme.tabular(bytes(8), bytes(16))
    for p_k, sigma2_k in (([[0.5]], [[2.0]]), (np.full((1, 2), 0.5), np.full((1, 2), 2.0)),
                          (0.5, 2.0)):
        with pytest.raises(TypeError):
            ContaminationScheme.tabular(p_k, sigma2_k)


def test_equal_tables_give_equal_hashes_and_survive_pickle():
    a = ContaminationScheme.tabular([0.5, 0.25, 0.0], [2.0, 3.0, 1.0])
    b = ContaminationScheme.tabular(np.array([0.5, 0.25, 0.0]), (2.0, 3, 1))
    assert a == b and hash(a) == hash(b)
    assert a != ContaminationScheme.tabular([0.5, 0.25, 0.0], [2.0, 3.0, 1.5])
    back = pickle.loads(pickle.dumps(a))
    assert back == a and hash(back) == hash(a) and back.length == 3


def test_tabular_holds_float64_bytes_as_given():
    p, s2 = np.array([0.5, 0.25]).tobytes(), np.array([2.0, 3.0]).tobytes()
    scheme = ContaminationScheme.tabular(p, s2)
    assert scheme.p_table is p and scheme.sigma2_table is s2


def test_tabular_weights_are_fresh_writable_slices():
    p_k, s2_k = [0.1, 0.2, 0.3, 0.4, 0.5], [1.5, 2.5, 3.5, 4.5, 5.5]
    scheme = ContaminationScheme.tabular(p_k, s2_k)
    for n in range(1, 6):
        for start in range(1, n + 1):
            p, s2 = scheme.weights(n, start)
            assert (p.tolist(), s2.tolist()) == (p_k[start - 1:n], s2_k[start - 1:n])
            p[:] = s2[:] = -1.0  # the caller may overwrite them
    p, s2 = scheme.weights(5)
    assert (p.tolist(), s2.tolist()) == (p_k, s2_k)


def test_weights_match_scalar_evaluation():
    s = ContaminationScheme.power_law(0.3, 0.7, 9.0, 1.2)
    p, s2 = s.weights(50)
    for k in (1, 17, 50):
        pk, sk = at(s, k)
        assert p[k - 1] == pk and s2[k - 1] == sk
        assert pk == 0.3 * float(k) ** -0.7 and sk == 9.0 * float(k) ** 1.2



@pytest.mark.parametrize("a", [0.5, 0.9, 1.0, 1.5, 2.0, 3.0])
def test_power_law_weights_equal_the_out_of_place_powers_bit_for_bit(a):
    # weights raises k to b in place; numpy's scalar-exponent fast paths
    # (1: copy, -1: reciprocal, 0.5: sqrt, 2: square) must still apply there,
    # as they do in p0 * k**-a and s2 * k**b, or the bits would move
    n = 2 * 10 ** 5
    for b in (0.1, 0.5, 0.9, 1.0, 1.2, 2.0, 4.0):
        scheme = ContaminationScheme.power_law(0.3, a, 9.0, b)
        for start in (1, 7, 2 ** 16 + 1):
            k = np.arange(start, n + 1, dtype=np.float64)
            p, s2 = scheme.weights(n, start)
            assert np.array_equal(p.view(np.int64), (0.3 * k ** -a).view(np.int64)), (b, start)
            assert np.array_equal(s2.view(np.int64), (9.0 * k ** b).view(np.int64)), (b, start)

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
    pdf = SCIPY_LAW[dist.kind].pdf
    for t in np.arange(0.0, 5.0 + 1e-9, 0.1):
        upper = np.inf if dist.kind != "uniform" else math.sqrt(3.0)
        if t >= upper:
            expected = 0.0
        else:
            expected = 2.0 * quad(lambda x: x * x * pdf(x), t, upper,
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
    # the Lindeberg sums take every block's moments from this method, with no
    # zero-fill of their own; past zero_from the moment must be +0.0 (bit
    # pattern 0), not a subnormal
    ts = np.concatenate([[dist.zero_from], np.geomspace(dist.zero_from, 1e300, 20_001),
                         np.nextafter(dist.zero_from, np.inf) + np.arange(1000) * 1e-3])
    assert np.all(dist.truncated_second_moment(ts).view(np.int64) == 0)
    # and the cutoff is not loose by more than a few percent
    assert dist.truncated_second_moment(0.96 * dist.zero_from) > 0.0


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.kind)
def test_truncated_moment_skips_the_closed_form_wholly_past_zero_from(dist):
    calls = []

    class Counted(type(dist)):
        def _tail_moment(self, t, out):
            calls.append(t.size)
            super()._tail_moment(t, out)

    counted, past = Counted(), np.geomspace(dist.zero_from, 1e300, 100)
    out = np.full_like(past, np.nan)
    assert counted.truncated_second_moment(past, out=out) is out
    assert math.copysign(1.0, counted.truncated_second_moment(dist.zero_from)) == 1.0
    assert np.all(out.view(np.int64) == 0) and calls == []
    # a block that straddles zero_from takes the closed form below it, and no
    # nan where it overflows (the Laplace t^2 past about 1.3e154, the uniform t^3)
    below = np.linspace(0.0, dist.zero_from, 50, endpoint=False)
    got = counted.truncated_second_moment(np.concatenate([below, past]))
    assert calls == [below.size + past.size]
    assert np.all(got[below.size:].view(np.int64) == 0)
    assert np.array_equal(got[:below.size], dist.truncated_second_moment(below))


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
def test_draws_follow_the_standardized_law(dist):
    law = SCIPY_LAW[dist.kind]
    assert law.mean() == pytest.approx(0.0, abs=1e-15)
    assert law.var() == pytest.approx(1.0, rel=1e-15)
    # DKW-Massart at alpha = 0.01: the KS distance of R draws exceeds
    # sqrt(ln(2/alpha) / 2R) with probability at most alpha; a wrong scale
    # (say uniform on [-1, 1]) is off by about 0.2
    R, alpha = 20_000, 0.01
    draws = np.empty(R)
    dist.draw(np.random.default_rng(20261018), draws)
    ks = scipy.stats.kstest(draws, law.cdf).statistic
    assert ks <= math.sqrt(math.log(2.0 / alpha) / (2.0 * R))


def test_base_distribution_registry():
    assert isinstance(base_distribution("normal"), StdNormal)
    assert base_distribution("uniform").kind == "uniform"
    with pytest.raises(ValueError):
        base_distribution("cauchy")


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def _row(scheme, n, dist, rng):
    """One row drawn from ``rng`` as a 1-row block."""
    p, s2 = scheme.weights(n)
    return draw_centered_row(p, np.sqrt(s2), dist, [rng], np.empty((1, n)),
                             np.empty((1, n)))[0]


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.kind)
def test_draw_consumes_exactly_two_events_in_fixed_order(dist):
    # per index one uniform and one base draw, as a block of n uniforms then
    # a block of n base draws, whichever branch each index takes; the draws
    # are numpy's own samplers' bits, written into the caller's buffer
    scheme = ContaminationScheme.power_law(0.9, 0.1, 2.0, 0.5)
    n = 40
    p, s2 = scheme.weights(n)
    rng = np.random.default_rng(99)
    out = np.full((1, n), np.nan)
    block = draw_centered_row(p, np.sqrt(s2), dist, [rng], out, np.full((1, n), np.nan))
    row = block[0]

    manual = np.random.default_rng(99)
    u = manual.random(n)
    z = numpy_draws(dist.kind, manual, n)
    expected = [math.sqrt(s2[k]) * z[k] if u[k] < p[k] else z[k] for k in range(n)]
    assert 0 < np.count_nonzero(u < p) < n  # both branches are exercised
    assert block is out
    assert np.array_equal(row.view(np.int64), np.array(expected).view(np.int64))
    assert rng.bit_generator.state == manual.bit_generator.state


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.kind)
def test_block_draw_equals_one_row_calls_and_takes_one_generator_per_row(dist):
    # a 3-row call draws row i from stream i, bit for bit as three 1-row
    # calls do, and leaves stream 3 untaken in the iterator
    seed, n = 0xC0FFEE, 50
    scheme = ContaminationScheme.power_law(0.6, 0.2, 4.0, 1.0)
    p, s2 = scheme.weights(n)
    gens = stream_generator(seed, 0, 4)
    block = draw_centered_row(p, np.sqrt(s2), dist, gens, np.empty((3, n)), np.empty((3, n)))
    assert next(gens).bit_generator.state == oracle_generator(seed, 3).bit_generator.state

    gens = stream_generator(seed, 0, 4)
    rows = [draw_centered_row(p, np.sqrt(s2), dist, gens, np.empty((1, n)),
                              np.empty((1, n)))[0] for _ in range(3)]
    assert next(gens).bit_generator.state == oracle_generator(seed, 3).bit_generator.state
    assert np.array_equal(block.view(np.int64), np.array(rows).view(np.int64))


def test_an_index_whose_uniform_equals_p_takes_the_base_branch():
    # index k is inflated when u_k < p_k, an event of probability p_k; with
    # each p_k set to the very uniform the stream draws there, none is
    n = 50
    p = np.random.default_rng(8).random(n)
    scheme = ContaminationScheme.tabular(p.tolist(), [4.0] * n)
    row = _row(scheme, n, StdNormal(), np.random.default_rng(8))
    manual = np.random.default_rng(8)
    manual.random(n)
    assert row.tolist() == manual.standard_normal(n).tolist()


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
    u, z = rng.random(n), np.empty(n)
    dist.draw(rng, z)
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
    u, z = rng.random(n), np.empty(n)
    dist.draw(rng, z)
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
