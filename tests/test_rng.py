"""Vectorized stream derivation against ``default_rng`` of the scalar mix."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contamclt import rng
from contamclt.analytic import grid_walk
from contamclt.model import ContaminationScheme, StdNormal, base_distribution
from contamclt.montecarlo import _BLOCK_ELEMS, _PIECE, replicate
from contamclt.rng import stream_generator
from stream_oracle import numpy_draws, oracle_generator, split_seed

EDGE_SEEDS = (0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1)
MASK64, MASK128 = 2 ** 64 - 1, 2 ** 128 - 1
PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# a low word whose product with the multiplier's low word is 2**64 - 1, so
# adding any inc_lo to the low product wraps
ALL_ONES_FACTOR = pow(PCG64_MULT & MASK64, -1, 2 ** 64) * MASK64 & MASK64
CARRY_EXAMPLES = [(0, MASK64, 0, 0), (0, ALL_ONES_FACTOR - 1, 0, 0)]
WORD = st.one_of(st.sampled_from([0, 1, 2 ** 63, MASK64]), st.integers(0, MASK64))


def test_oracle_mix_is_published_splitmix64():
    # the reference outputs of SplitMix64 from state 0
    assert [split_seed(0, i) for i in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


@given(seed=st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2 ** 64 - 1)),
       lo=st.integers(0, 2 ** 40), width=st.integers(1, 24))
@example(seed=0, lo=0, width=40)
@example(seed=1, lo=0, width=40)
@example(seed=2 ** 32 - 1, lo=0, width=40)
@example(seed=2 ** 32, lo=1990, width=11)
@example(seed=2 ** 64 - 1, lo=0, width=40)
@settings(max_examples=150, deadline=None)
def test_streams_equal_default_rng_of_split_seed(seed, lo, width):
    # a numpy release that changes SeedSequence or PCG64 seeding fails here
    gens = stream_generator(seed, lo, lo + width)
    taken = 0
    for i, gen in zip(range(lo, lo + width), gens):
        want = oracle_generator(seed, i)
        assert gen.bit_generator.state == want.bit_generator.state
        assert np.array_equal(gen.random(3), want.random(3))
        assert np.array_equal(gen.standard_normal(3), want.standard_normal(3))
        taken += 1
    assert taken == width and next(gens, None) is None


def _python_int_seed(w0, w1, w2, w3):
    inc = (w2 << 65 | w3 << 1 | 1) & MASK128
    state = (((w0 << 64 | w1) + inc) * PCG64_MULT + inc) & MASK128
    return [state & MASK64, state >> 64, inc & MASK64, inc >> 64]


@given(words=st.lists(st.tuples(WORD, WORD, WORD, WORD), min_size=1, max_size=8))
@example(words=[(0, 0, 0, 0)])
@example(words=[(2 ** 63,) * 4])
@example(words=[(MASK64,) * 4])
@example(words=CARRY_EXAMPLES)
@settings(max_examples=300, deadline=None)
def test_pcg64_word_arithmetic_matches_python_ints(words):
    got = rng._pcg64_seed(np.array(words, dtype=np.uint64).T)
    assert got.tolist() == [_python_int_seed(*w) for w in words]


def test_carry_examples_wrap_where_they_should():
    # the explicit examples pin each carry out of the low words, whatever
    # hypothesis draws
    (_, w1, _, w3), (_, v1, _, v3) = CARRY_EXAMPLES
    assert w1 + (w3 << 1 | 1) > MASK64  # (w0:w1) + inc
    a_lo = v1 + (v3 << 1 | 1) & MASK64
    assert (a_lo * PCG64_MULT & MASK64) + (v3 << 1 | 1) > MASK64  # product + inc


def test_each_stream_starts_without_a_cached_32_bit_half():
    # a bounded uint32 draw keeps the other half of a 64-bit output for the
    # next call; the next stream must not start with it
    for i, gen in enumerate(stream_generator(7, 0, 3)):
        assert gen.bit_generator.state == oracle_generator(7, i).bit_generator.state
        gen.integers(0, 10, dtype=np.uint32)
        assert gen.bit_generator.state["has_uint32"] == 1


def test_a_state_layout_that_reads_back_otherwise_raises(monkeypatch):
    words = rng._words
    monkeypatch.setattr(rng, "_words", lambda address, count: words(address, count)[::-1])
    with pytest.raises(RuntimeError):
        next(stream_generator(7, 0, 3))


def test_stream_range_validation():
    with pytest.raises(ValueError):
        stream_generator(1, -1, 3)
    with pytest.raises(ValueError):
        stream_generator(1, 5, 4)
    assert list(stream_generator(1, 5, 5)) == []


BAD_SEEDS = (-1, 2 ** 64, 1.5)


@pytest.mark.parametrize("seed", BAD_SEEDS)
def test_stream_generator_rejects_seeds_outside_uint64(seed):
    # masking them would alias -1 to 2**64 - 1, 2**64 to 0 and 1.5 to 1
    with pytest.raises(ValueError):
        stream_generator(seed, 0, 1)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("seed", BAD_SEEDS)
def test_replicate_rejects_seeds_outside_uint64(seed, workers):
    with pytest.raises(ValueError):
        replicate(4, 3, ContaminationScheme.uncontaminated(), StdNormal(), 0.0, seed,
                  workers=workers)


@pytest.mark.parametrize("workers", [1, 2])
def test_replicate_equals_row_by_row_oracle_replay(workers):
    # the base draws come from numpy's own samplers: no golden output uses
    # uniform or laplace, so this is their only independent bit check; a row
    # of 70 000 is longer than a whole reduction block, and its draws come in
    # pieces of 2**14 with a partial last one; at 65 537 the last piece holds
    # one element, at 131 072 every piece is whole; 40 rows of 5000 make
    # three blocks of 13 and one of 1 from one task's streams, so a skipped
    # stream fails; 700 rows of 200 make two full blocks of 327 and a partial one
    seed = 0xDEADBEEFCAFEF00D
    scheme = ContaminationScheme.power_law(0.3, 0.5, 9.0, 1.0)
    assert 70_000 > _BLOCK_ELEMS and 65_537 % _PIECE == 1 and 131_072 % _PIECE == 0
    assert _BLOCK_ELEMS // 5000 == 13 and _BLOCK_ELEMS // 200 == 327
    for kind in ("normal", "uniform", "laplace"):
        for R, n in ((37, 5), (2, 70_000), (2, 65_537), (2, 131_072), (40, 5000), (700, 200)):
            got = replicate(R, n, scheme, base_distribution(kind), 0.0, seed,
                            workers=workers).samples
            p, s2 = scheme.weights(n)
            s_n = math.sqrt(grid_walk(scheme, (n,))[0].s2_n)
            want = []
            for i in range(R):
                gen = oracle_generator(seed, i)
                u = gen.random(n)
                z = numpy_draws(kind, gen, n)
                want.append(math.fsum(np.where(u < p, np.sqrt(s2) * z, z)) / s_n)
            assert np.array_equal(got.view(np.int64), np.array(want).view(np.int64)), (
                kind, R, n)
