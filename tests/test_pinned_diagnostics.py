"""Diagnostics pinned bit for bit, for every base and a tabular scheme.

``test_golden`` pins the shipped figures, which use the normal base only.
Here the conditions A/B/C at every grid point, the index bound and the index
estimate under the normal, uniform and Laplace bases are pinned as
``float.hex`` values, on grids that cross the 2**16-wide accumulation chunks
(one of them lands on chunk boundaries), for two power laws and a seeded
100000-row table.  The closed-form tail moments themselves are pinned by a
digest of their bytes over t = 0..600, which covers the subnormal bands and
the exact zeros.  All values were computed by the row-at-once Lindeberg
evaluation and the allocating closed forms that the blocked ones replaced;
the column-by-column evaluation over prefixes of the top row keeps them.

Like the figure outputs, the index estimates depend in their last bits on
the BLAS thread count of the ``np.dot`` in ``analytic._lindeberg_columns``;
they were made with two OpenBLAS threads.
"""

import hashlib

import numpy as np
import pytest

from contamclt.analytic import (condition_a, condition_b, condition_c,
                                lindeberg_index_estimate, lindeberg_upper_bound)
from contamclt.model import ContaminationScheme, base_distribution


def _table() -> ContaminationScheme:
    gen = np.random.default_rng(20150101)
    rows = 100_000
    k = np.arange(1, rows + 1, dtype=np.float64)
    p = np.minimum(1.0, 0.3 / k ** 0.7 * gen.uniform(0.5, 1.5, rows))
    s2 = np.maximum(1.0, 6.0 * k ** 0.9 * gen.uniform(0.5, 1.5, rows))
    return ContaminationScheme.tabular(p.tolist(), s2.tolist())


CASES = {
    "powerlaw": (lambda: ContaminationScheme.power_law(0.2, 1.0, 20.0, 1.0),
                 tuple(3000 * 2 ** j for j in range(6))),
    "powerlaw_chunk_multiples": (lambda: ContaminationScheme.power_law(0.3, 0.5, 8.0, 1.2),
                                 tuple(2048 * 2 ** j for j in range(7))),
    "tabular": (_table, tuple(1500 * 2 ** j for j in range(7))),
}

PINNED = {
    "powerlaw": {
        "A": (
            "0x1.5d867c3ece2a5p-10", "0x1.5d867c3ece2a5p-11", "0x1.5d867c3ece2a5p-12",
            "0x1.5d867c3ece2a5p-13", "0x1.5d867c3ece2a5p-14", "0x1.5d867c3ece2a5p-15",
        ),
        "B": (
            "0x1.0007805f441eap+2", "0x1.00040da8819a8p+2", "0x1.00022d93aae51p+2",
            "0x1.00012a2a68fdep+2", "0x1.00009ec5be9b9p+2", "0x1.0000543b36ceap+2",
        ),
        "C": (
            "0x1.17a6fb5acfef4p-12", "0x1.17a337321d54ep-13", "0x1.17a12ad1a00a0p-14",
            "0x1.17a00f7901c42p-15", "0x1.179f7737d610cp-16", "0x1.179f25cc9fce8p-17",
        ),
        "bound": "0x1.999b76aa41963p-1",
        "index": {
            "uniform": "0x1.9999fbc7335b8p-1",
            "laplace": "0x1.991ff182674cap-1",
            "normal": "0x1.996f04930476fp-1",
        },
    },
    "powerlaw_chunk_multiples": {
        "A": (
            "0x1.25ade3067def3p-3", "0x1.dcfc0c4ecb93ap-4", "0x1.8364470c72882p-4",
            "0x1.3aa4be92fa4e6p-4", "0x1.ff206dc3a7896p-5", "0x1.9f28925f34bffp-5",
            "0x1.513616e171548p-5",
        ),
        "B": (
            "0x1.fef55e5ef7116p-4", "0x1.69d704d08e6e7p-4", "0x1.0016cff87290cp-4",
            "0x1.6a5c7d43453a8p-5", "0x1.004ffd1fbb7f9p-5", "0x1.6a8d952ee44d6p-6",
            "0x1.00651bb15eb12p-6",
        ),
        "C": (
            "0x1.b190092b1ed20p-11", "0x1.b23538fa44849p-12", "0x1.b298fe722380ep-13",
            "0x1.b2d5631d86463p-14", "0x1.b2fa0684db75fp-15", "0x1.b3104c9eab901p-16",
            "0x1.b31dddc548f8dp-17",
        ),
        "bound": "0x1.ffe7c054b3eaep-1",
        "index": {
            "uniform": "0x0.0p+0",
            "laplace": "0x0.0p+0",
            "normal": "0x0.0p+0",
        },
    },
    "tabular": {
        "A": (
            "0x1.1600c9ea79475p-8", "0x1.439d16ce4da9cp-9", "0x1.75b9db80e28f2p-10",
            "0x1.ac9656ea671b5p-11", "0x1.ec957e8be49bep-12", "0x1.1b99486893096p-12",
            "0x1.454ce16cef635p-13",
        ),
        "B": (
            "0x1.2c0e92656ac16p-1", "0x1.e87bd81e3ef5dp-2", "0x1.8de289f3cc130p-2",
            "0x1.4906e32c85e33p-2", "0x1.10b292a3ab17ap-2", "0x1.bf6c644d9d46dp-3",
            "0x1.6f0b60d5df847p-3",
        ),
        "C": (
            "0x1.87c9f07c5a4bfp-10", "0x1.86708098eefe0p-11", "0x1.8c073d84c18a6p-12",
            "0x1.a3ba5f524fe70p-13", "0x1.a4f538abfbf04p-14", "0x1.ab9d6df11f467p-15",
            "0x1.af23525b5c343p-16",
        ),
        "bound": "0x1.dfca4653ac621p-1",
        "index": {
            "uniform": "0x0.0p+0",
            "laplace": "0x0.0p+0",
            "normal": "0x0.0p+0",
        },
    },
}


MOMENT_DIGESTS = {
    "normal": "5fbf18c8b68924443b1ba61b026972c92139fdd1ef48784aa56fcb5a8a17ebe6",
    "uniform": "2bbe21e29862476fd37849ba8de3f729c2b5ad0f5584f17f8d8c5edd25cf0c95",
    "laplace": "a6c6368fcad5fffced52efdfe91a089bdf9515eff70354c37bf5a73c9fa90cf8",
}


@pytest.mark.parametrize("kind", sorted(MOMENT_DIGESTS))
def test_tail_moments_match_pinned_bits(kind):
    values = base_distribution(kind).truncated_second_moment(np.linspace(0.0, 600.0, 60_001))
    assert hashlib.sha256(values.astype("<f8").tobytes()).hexdigest() == MOMENT_DIGESTS[kind]


@pytest.mark.parametrize("case", sorted(CASES))
def test_diagnostics_match_pinned_bits(case):
    make, grid = CASES[case]
    scheme, want = make(), PINNED[case]
    for name, condition in (("A", condition_a), ("B", condition_b), ("C", condition_c)):
        got = condition(scheme, grid).values
        assert [n for n, _ in got] == list(grid)
        assert tuple(v.hex() for _, v in got) == want[name], name
    assert lindeberg_upper_bound(scheme, grid).hex() == want["bound"]
    for kind, value in want["index"].items():
        assert lindeberg_index_estimate(scheme, base_distribution(kind), grid).hex() == value, kind
