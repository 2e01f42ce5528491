"""Deterministic stream splitting for reproducible parallel simulation.

Replicate i of a run draws from numpy's ``Generator(PCG64(z_i))``, z_i the
SplitMix64 mix of (master_seed, i), so no schedule or blocking changes it.
Seeding a numpy generator per replicate costs more than a short row's draws,
so ``stream_generator`` reproduces numpy's ``SeedSequence`` hash and PCG64
seeding for a whole range of streams at once, in numpy uint32 and uint64
words, and writes each stream's state words straight into one reused
generator.
``tests/test_rng.py`` checks the states against numpy's own seeding, so a
numpy release that changes either fails.
"""

from __future__ import annotations

import ctypes
import numbers

import numpy as np

_U32, _U64 = np.uint32, np.uint64
_LO32 = _U64(0xFFFFFFFF)
# PCG64's multiplier: the two 32-bit limbs of its low word, its low and high word
_MULT = _U64([0x9FCCF645, 0x4385DF64, 0x4385DF649FCCF645, 0x2360ED051FC65DA4])
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


def _pcg64_seed(w: np.ndarray) -> np.ndarray:
    """Rows (state lo, state hi, inc lo, inc hi) from the columns (w0, w1, w2, w3)
    of ``w``: inc = 2 (w2:w3) + 1, state = ((w0:w1) + inc) mult + inc mod 2**128."""
    w0, w1, w2, w3 = w
    inc_lo, inc_hi = w3 << _U64(1) | _U64(1), w2 << _U64(1) | w3 >> _U64(63)
    a_lo = w1 + inc_lo
    a0, a1 = a_lo & _LO32, a_lo >> _U64(32)  # the high word of a_lo * mult_lo by 32-bit limbs
    mid = a1 * _MULT[0]
    cross = (a0 * _MULT[0] >> _U64(32)) + (mid & _LO32) + a0 * _MULT[1]  # < 2**64
    s_hi = a1 * _MULT[1] + (mid >> _U64(32)) + (cross >> _U64(32)) + inc_hi
    s_hi += a_lo * _MULT[3] + (w0 + inc_hi + (a_lo < w1)) * _MULT[2]
    s_lo = a_lo * _MULT[2] + inc_lo
    return np.stack([s_lo, s_hi + (s_lo < inc_lo), inc_lo, inc_hi], axis=1)


def _pcg64_states(master_seed: int, lo: int, hi: int) -> np.ndarray:
    """PCG64 words of streams lo..hi-1 (see ``_pcg64_seed``), as numpy seeds them from z_i."""
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
    pool[0], pool[1] = z & _LO32, z >> _U64(32)
    pool = _hash(pool, _HASH_A[:, :4])
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        mixed = _MIX_L * pool[dst] - _MIX_R * _hash(pool[src], _HASH_A[:, 4 + 3 * src:7 + 3 * src])
        pool[dst] = mixed ^ (mixed >> _U32(16))
    half = _hash(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _HASH_B).astype(_U64)
    return _pcg64_seed(half[0::2] | half[1::2] << _U64(32))


def _words(address: int, count: int) -> np.ndarray:
    """A writable uint64 view of ``count`` words of memory at ``address``."""
    return np.frombuffer((ctypes.c_uint64 * count).from_address(address), dtype=_U64)


def _reseeded(states: np.ndarray):
    # state_address holds numpy's pcg64_state: a pointer to the pcg64_random_t's
    # four words, then (has_uint32, uinteger), which seeding leaves 0.  Both must
    # read back the first stream as the dict setter writes it, or this raises.
    if not len(states):
        return
    gen = np.random.Generator(np.random.PCG64(0))
    ctl = _words(gen.bit_generator.ctypes.state_address, 2)
    words = _words(int(ctl[0]), 4)
    lo, hi, inc_lo, inc_hi = states[0].tolist()
    gen.bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 1, "uinteger": 7,
                               "state": {"state": hi << 64 | lo, "inc": inc_hi << 64 | inc_lo}}
    if not (np.array_equal(words, states[0]) and ctl[1] == 7 << 32 | 1):
        raise RuntimeError("numpy's PCG64 state layout is not the one this module writes")
    for words[:] in states:
        ctl[1] = 0
        yield gen


def stream_generator(master_seed: int, lo: int, hi: int):
    """Generators for streams lo..hi-1 of ``master_seed``, in index order.

    The states are derived when this is called; the iterator then yields one
    generator object, set to each stream's state in turn, so each yielded
    generator is valid only until the next one is taken.
    """
    if not (isinstance(master_seed, numbers.Integral) and 0 <= master_seed < 1 << 64):
        raise ValueError(f"master seed must be an integer in [0, 2**64), got {master_seed!r}")
    if lo < 0 or hi < lo:
        raise ValueError(f"stream range must satisfy 0 <= lo <= hi, got [{lo}, {hi})")
    return _reseeded(_pcg64_states(master_seed, lo, hi))
