"""Reference seeding of replicate streams, independent of ``contamclt.rng``.

Stream i of master seed s is ``np.random.default_rng(split_seed(s, i))``,
where ``split_seed`` is the scalar SplitMix64 mix below.  The package derives
the same generator states in vectorized form; the tests compare the two.
``numpy_draws`` is the oracle for the base draws: numpy's own samplers, which
the package's in-place draws must reproduce bit for bit.
"""

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF


def split_seed(master_seed: int, stream_index: int) -> int:
    """SplitMix64 output for state ``master_seed + stream_index * golden_gamma``."""
    z = (int(master_seed) + (stream_index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def oracle_generator(master_seed: int, stream_index: int) -> np.random.Generator:
    return np.random.default_rng(split_seed(master_seed, stream_index))


def numpy_draws(kind: str, gen: np.random.Generator, n: int) -> np.ndarray:
    """n draws of the standardized base ``kind`` from numpy's own samplers."""
    if kind == "normal":
        return gen.standard_normal(n)
    if kind == "uniform":
        return gen.uniform(-np.sqrt(3.0), np.sqrt(3.0), n)
    return gen.laplace(0.0, 1.0 / np.sqrt(2.0), n)
