"""The vectorized exact row sum agrees with math.fsum bit for bit.

``exact_sums`` is the one reduction behind replicate sums and the chunked
sums of ``grid_walk``.  Every property here compares it row by row with
``math.fsum(row.tolist())`` as int64 bit patterns (so -0.0, +0.0 and nan
payloads count), or, where fsum raises, asks for the same exception type.
"""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contamclt import analytic
from contamclt.analytic import exact_sums
from contamclt.model import ContaminationScheme, StdNormal
from contamclt.montecarlo import replicate

TINY = 2.0 ** -1074
MAX_EXP = 1022
WIDE = (127, 128, 129, 256, 257, 300)


def _fsum_or_error(row):
    try:
        return math.fsum(row)
    except (ValueError, OverflowError) as exc:
        return type(exc)


def _assert_matches_fsum(rows):
    """exact_sums on the rows as one block, with a scratch of nan as wide as the
    block, a third as wide or one column wide, equals fsum row by row."""
    width = len(rows[0])
    block = np.array(rows, dtype=np.float64).reshape(len(rows), width)
    want = [_fsum_or_error(row) for row in block.tolist()]
    errors = [w for w in want if isinstance(w, type)]
    if errors:
        with pytest.raises(errors[0]):
            exact_sums(block)
        return
    for w in (width, max(1, width // 3), 1):  # a narrower scratch takes column pieces
        got = exact_sums(block.copy(), np.full((len(rows), w), np.nan))  # contents never matter
        assert got.shape == (len(rows),)
        assert got.view(np.int64).tolist() == np.array(want).view(np.int64).tolist(), w


def _blocks(row, min_width=1, wide=False):
    """1-4 rows of one shared width drawn from a row strategy: 1-60 entries,
    or with ``wide`` also widths about the edges of exact_sums' leaves of
    128 residuals."""
    widths = st.integers(min_width, 60)
    if wide:
        widths = st.one_of(widths, st.sampled_from(WIDE))
    return widths.flatmap(lambda n: st.lists(row(n), min_size=1, max_size=4))


def _spread(n):
    """Rows whose exponents spread over 2**-1074 .. 2**1022."""
    return st.lists(st.builds(math.ldexp, st.floats(-2.0, 2.0),
                              st.integers(-1074, MAX_EXP)),
                    min_size=n, max_size=n)


def _cancelling(n):
    """Pairs x, -x in shuffled order with small values between them."""
    pairs = n // 3
    return st.tuples(
        st.lists(st.floats(-1e300, 1e300), min_size=pairs, max_size=pairs),
        st.lists(st.floats(-1e-5, 1e-5), min_size=n - 2 * pairs, max_size=n - 2 * pairs),
    ).flatmap(lambda t: st.permutations(t[0] + [-x for x in t[0]] + t[1]))


def _subnormal(n):
    return st.lists(st.integers(-(2 ** 52 - 1), 2 ** 52 - 1).map(lambda k: k * TINY),
                    min_size=n, max_size=n)


def _zeros(n):
    return st.lists(st.sampled_from([0.0, -0.0]), min_size=n, max_size=n)


def _ties(n):
    """x plus half an ulp of x, padded with zeros to n >= 3 entries: a
    round-half-even tie, or a near-tie when the third entry breaks it."""
    base = st.floats(-1e300, 1e300, allow_nan=False).filter(lambda x: x != 0.0)
    return st.tuples(base, st.sampled_from([0.0, TINY, -TINY])).map(
        lambda t: [t[0], math.copysign(math.ulp(t[0]) / 2, t[0]), t[1]] + [0.0] * (n - 3))


def _near_overflow(n):
    """Entries near the top of the range: fsum's intermediate overflow, or
    rows just past the splitter's limit that must fall back to fsum."""
    big = st.sampled_from([1e308, -1e308, 2.0 ** 1021, -(2.0 ** 1021),
                           2.0 ** MAX_EXP / (2 * n), math.ldexp(1.0, 1020)])
    return st.lists(st.one_of(big, st.floats(-1.0, 1.0)), min_size=n, max_size=n)


def _specials(n):
    special = st.sampled_from([math.inf, -math.inf, math.nan])
    return st.lists(st.one_of(special, st.floats(-1e10, 1e10)), min_size=n, max_size=n)


@pytest.mark.parametrize("row,wide", [(_spread, True), (_cancelling, True),
                                      (_subnormal, False), (_zeros, False)],
                         ids=["spread", "cancelling", "subnormal", "zeros"])
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_matches_fsum(row, wide, data):
    _assert_matches_fsum(data.draw(_blocks(row, wide=wide)))


@given(rows=_blocks(_ties, min_width=3, wide=True))
@settings(max_examples=150, deadline=None)
def test_matches_fsum_on_half_ulp_ties(rows):
    _assert_matches_fsum(rows)


@given(rows=st.lists(st.lists(st.floats(allow_nan=True, allow_infinity=True),
                              min_size=1, max_size=1), min_size=1, max_size=6))
@settings(max_examples=150, deadline=None)
def test_matches_fsum_on_single_entry_rows(rows):
    _assert_matches_fsum(rows)


@pytest.mark.parametrize("row", [_near_overflow, _specials], ids=["near-overflow", "specials"])
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_fallback_rows_match_fsum(row, data):
    _assert_matches_fsum(data.draw(_blocks(row)))


def test_all_zero_rows_give_positive_zero():
    got = exact_sums(np.array([[-0.0, -0.0], [0.0, -0.0]]))
    assert got.view(np.int64).tolist() == [0, 0]


def test_ties_round_half_even():
    u = 2.0 ** -53
    got = exact_sums(np.array([[1.0, u, 0.0], [1.0 + 2 * u, u, 0.0], [1.0, u, TINY]]))
    assert got.tolist() == [1.0, 1.0 + 4 * u, 1.0 + 2 * u]


def test_fsum_exceptions_are_raised():
    with pytest.raises(OverflowError):
        exact_sums(np.array([[1e308, 1e308, -1e308]]))
    with pytest.raises(ValueError):
        exact_sums(np.array([[1.0, 2.0], [math.inf, -math.inf]]))
    assert math.isnan(exact_sums(np.array([[math.nan, 1.0]]))[0])
    assert exact_sums(np.array([[math.inf, 1.0]]))[0] == math.inf


def test_matches_fsum_over_the_whole_exponent_range():
    # every binade from 2**-1074 up, kept below the fallback limit so that
    # the splitter, not fsum alone, handles the row
    powers = np.ldexp(1.0, np.arange(-1074, 1000))
    block = np.stack([np.concatenate([powers, -0.75 * powers]),
                      np.concatenate([powers[::-1], np.zeros_like(powers)])])
    assert 2 * block.shape[1] * np.abs(block).max() < 2.0 ** MAX_EXP
    _assert_matches_fsum(block.tolist())


def test_shape_checks_and_empty_rows():
    with pytest.raises(ValueError):
        exact_sums(np.zeros(3))
    assert exact_sums(np.zeros((2, 0))).tolist() == [0.0, 0.0]
    assert exact_sums(np.zeros((0, 5))).shape == (0,)


@pytest.fixture
def fsum_calls(monkeypatch):
    """The values of each ``math.fsum`` call that exact_sums makes."""
    calls = []

    def counted(values):
        calls.append(list(values))
        return math.fsum(calls[-1])

    patched = SimpleNamespace(**vars(math))
    patched.fsum = counted
    monkeypatch.setattr(analytic, "math", patched)
    return calls


def _small_total_row():
    """One outlier cancels 99 999 entries of mean 3 down to a total near 0.1:
    it sets sigma, and the error bound of the residual sum dwarfs half an
    ulp of the total."""
    row = np.random.default_rng(2024).standard_normal(100_000) + 3.0
    row[31_337] = 0.0
    row[31_337] = 0.1 - math.fsum(row)
    assert abs(math.fsum(row)) < 1.0 < 1e5 < abs(row[31_337])
    return row


def test_long_row_with_a_small_total_reaches_the_fsum_fallback(fsum_calls):
    row = _small_total_row()
    _assert_matches_fsum([row.tolist()])
    # tau, then r, once for each of _assert_matches_fsum's three scratch widths
    assert [len(values) for values in fsum_calls] == [1 + row.size] * 3


def test_fsum_fallback_streams_the_row():
    # fsum reads tau and the residuals one value at a time: a list of the
    # row's 100 000 floats would take more than 3 MB
    block = _small_total_row()[None, :]
    scratch = np.empty_like(block)
    tracemalloc.start()
    try:
        exact_sums(block, scratch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


def test_near_ties_reach_the_fsum_fallback(fsum_calls):
    # the split leaves the two small entries as residuals: s = fl(tau + rho)
    # is then exactly half an ulp from the true sum, or a hair nearer or
    # farther, so only fsum can round it
    u = 2.0 ** -53
    rows = [[1.5, u, 0.0], [1.5, u, u ** 2], [1.5, u, -u ** 2],
            [1.0, u, 0.0], [1.0, u, u ** 2], [1.0, -u / 2, -u ** 2]]
    _assert_matches_fsum(rows)
    assert [len(values) for values in fsum_calls] == [4] * len(rows) * 3  # per scratch width


_UNIT_BITS = 1075  # every float is a whole number of units of 2**-1075


def _units(x: float) -> int:
    p, q = x.as_integer_ratio()
    return p * ((1 << _UNIT_BITS) // q)


def _crafted_rows(rows=6000, width=1000, seed=2015):
    """Rows of ``width`` entries uniform(-1, 1) * 2**-j, j < 60, then two that
    put the exact sum on a midpoint between floats and a third, +-2**-k with
    84 <= k <= 102, that moves it just off.  Random rows almost never come
    this near a midpoint, so a cut certificate bound still passes them."""
    rs = np.random.default_rng(seed)
    scales = 2.0 ** -np.arange(60)
    body = rs.uniform(-1.0, 1.0, (rows, width)) * scales[rs.integers(0, 60, (rows, width))]
    # every entry is a multiple of 2**-111 (uniform's of 2**-52), so three
    # 37-bit limbs of body * 2**111 each sum exactly in int64
    scaled = body * 2.0 ** 111
    assert np.array_equal(scaled, np.trunc(scaled))
    limbs = []
    for shift in (74, 37):
        limb = np.trunc(scaled * 2.0 ** -shift)
        scaled -= limb * 2.0 ** shift
        limbs.append(limb.astype(np.int64).sum(axis=1).tolist())
    limbs.append(scaled.astype(np.int64).sum(axis=1).tolist())
    tails = np.ldexp(rs.choice([-1.0, 1.0], rows), -rs.integers(84, 103, rows))
    block = np.empty((rows, width + 3))
    block[:, :width] = body
    for row, hi, mid, lo, tail in zip(block, *limbs, tails.tolist()):
        total = ((hi << 74) + (mid << 37) + lo) << (_UNIT_BITS - 111)
        s = total / (1 << _UNIT_BITS)  # correctly rounded
        gap = (_units(s) + _units(math.nextafter(s, math.inf))) // 2 - total
        a = gap / (1 << _UNIT_BITS)
        b = (gap - _units(a)) / (1 << _UNIT_BITS)
        assert _units(a) + _units(b) == gap
        row[width:] = a, b, tail
    return block


def test_near_midpoint_rows_need_the_whole_certificate_bound():
    # the residual sum's rounding error can exceed the +-2**-k that decides
    # each row's rounding: only a bound that covers that error sends these
    # rows to fsum.  With B cut to 2**-1074, about one row in six comes out
    # one ulp off
    block = _crafted_rows()
    want = [math.fsum(row.tolist()) for row in block]
    assert exact_sums(block).view(np.int64).tolist() == np.array(want).view(np.int64).tolist()


def test_zero_sums_are_never_certified(fsum_calls):
    # s = 0 fails the certificate: the two all-zero rows give +0.0 with no
    # fsum call, and the cancelling row goes to fsum as tau and its four
    # residuals, between rows that pass it
    rows = [[0.0, -0.0, 0.0, 0.0], [1.0, -0.0, 2.0, 0.5], [-0.0, -0.0, -0.0, -0.0],
            [1.0, -1.0, 2.0 ** -60, -(2.0 ** -60)], [-0.0, 0.0, -0.0, 3.25]]
    got = exact_sums(np.array(rows))
    assert got.view(np.int64).tolist() == np.array([0.0, 3.5, 0.0, 0.0, 3.25]).view(np.int64).tolist()
    assert [len(values) for values in fsum_calls] == [5]


def test_long_replicate_rows_need_no_fsum(fsum_calls):
    # one inflated draw sets sigma for its whole row of 100 000; summing the
    # residuals in leaves keeps the bound below half an ulp of the row sum
    # for every one of these rows
    scheme = ContaminationScheme.power_law(0.2, 1.0, 20.0, 1.0)
    replicate(20, 100_000, scheme, StdNormal(), 0.0, 2718281828)
    assert fsum_calls == []
