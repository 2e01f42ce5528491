"""Deterministic stream splitting for reproducible parallel simulation.

Replicate i of a run draws from numpy's ``Generator(PCG64(z_i))``, z_i the
SplitMix64 mix of (master_seed, i), so no schedule or blocking changes it.
Seeding a numpy generator per replicate costs more than a short row's draws,
so ``stream_generator`` reproduces numpy's ``SeedSequence`` hash and PCG64
seeding for a whole batch of streams at once, in numpy and Python ints, and
re-seeds one generator per stream; ``stream_batch`` sizes the batches.
``tests/test_rng.py`` checks the states against numpy's own seeding, so a
numpy release that changes either fails.
"""

from __future__ import annotations

import numbers

import numpy as np

_U32, _U64 = np.uint32, np.uint64
_MASK128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MIX_L, _MIX_R = _U32(0xCA01F9DD), _U32(0x4973F715)


def _hash_constants(init: int, mult: int, steps: int) -> np.ndarray:
    """(xor, mult) constants of ``steps`` SeedSequence hash steps, shaped to
    broadcast over a block of seeds; they do not depend on the data."""
    h = [init]
    for _ in range(steps):
        h.append(h[-1] * mult & 0xFFFFFFFF)
    return np.array([h[:-1], h[1:]], dtype=_U32)[:, :, None]


_HASH_A = _hash_constants(0x43B0D7E5, 0x931E8875, 16)  # 4 pool words, 12 mixes
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)   # 8 output words


def _hash(values: np.ndarray, constants: np.ndarray) -> np.ndarray:
    xor, mult = constants
    values = (values ^ xor) * mult
    return values ^ (values >> _U32(16))


def _pcg64_states(master_seed: int, lo: int, hi: int) -> list[tuple[int, int]]:
    """PCG64 (state, inc) of streams lo..hi-1, as numpy seeds them from z_i."""
    z = np.arange(lo + 1, hi + 1, dtype=_U64) * _U64(0x9E3779B97F4A7C15)
    z += _U64(int(master_seed))
    z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
    z ^= z >> _U64(31)

    # SeedSequence(z).generate_state(4, uint64): the entropy is z's two
    # little-endian uint32 words (a z below 2**32 has one, and the pool's zero
    # padding hashes the same); each pool word is mixed into the other three
    # in turn, then the pool is hashed into 8 output words
    pool = np.zeros((4, z.size), dtype=_U32)
    pool[0], pool[1] = z & _U64(0xFFFFFFFF), z >> _U64(32)
    pool = _hash(pool, _HASH_A[:, :4])
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        mixed = _MIX_L * pool[dst] - _MIX_R * _hash(pool[src], _HASH_A[:, 4 + 3 * src:7 + 3 * src])
        pool[dst] = mixed ^ (mixed >> _U32(16))
    half = _hash(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _HASH_B).astype(_U64)
    w0, w1, w2, w3 = (half[0::2] | half[1::2] << _U64(32)).tolist()

    # PCG64: inc = 2 * (w2:w3) + 1, state = ((inc + w0:w1) * mult + inc), mod 2**128
    incs = [(c << 65 | d << 1 | 1) & _MASK128 for c, d in zip(w2, w3)]
    return [((((a << 64 | b) + inc) * _PCG64_MULT + inc) & _MASK128, inc)
            for a, b, inc in zip(w0, w1, incs)]


def _reseeded(states: list[tuple[int, int]]):
    gen, inner = np.random.Generator(np.random.PCG64(0)), {}
    full = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0, "state": inner}
    for inner["state"], inner["inc"] in states:  # the setter copies, so one dict serves
        gen.bit_generator.state = full
        yield gen


def stream_batch(block_rows: int) -> int:
    """Streams per ``stream_generator`` call for blocks of ``block_rows``
    rows: whole blocks and at least 64 rows, since one derivation has a
    fixed cost of some 20 per-stream seedings."""
    return block_rows * -(-64 // block_rows)


def stream_generator(master_seed: int, lo: int, hi: int):
    """Generators for streams lo..hi-1 of ``master_seed``, in index order.

    The states are derived when this is called; the iterator then yields one
    generator object, re-seeded to each stream in turn, so each yielded
    generator is valid only until the next one is taken.
    """
    if not (isinstance(master_seed, numbers.Integral) and 0 <= master_seed < 1 << 64):
        raise ValueError(f"master seed must be an integer in [0, 2**64), got {master_seed!r}")
    if lo < 0 or hi < lo:
        raise ValueError(f"stream range must satisfy 0 <= lo <= hi, got [{lo}, {hi})")
    return _reseeded(_pcg64_states(master_seed, lo, hi))
