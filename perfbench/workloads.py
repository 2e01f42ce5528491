"""The benchmark's workloads and the inputs generated from a workload seed.

An experiment is what one CLI invocation runs.  Its settings use the CLI's
own key names, so the same spec yields the argv of a fresh ``contamclt``
process and the settings dict of the in-process reference pipeline.  Why
each workload exists is recorded in ``perfbench/README.md``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

# The power law of the non-figure workloads: a = b, so the bounded regime
# with index p*s2 / (1 + p*s2) = 0.8.
POWER_LAW = {"scheme": "powerlaw", "p": "0.2", "a": "1", "b": "1", "s2": "20"}
TABLE_ROWS = 32_000
# The shipped figure configs whose committed outputs are the stored reference.
FIGURES = ("fig1", "fig2", "fig3", "fig4", "fig5")


def geometric_grid(start: int, points: int) -> str:
    return ",".join(str(start * 2 ** j) for j in range(points))


@dataclass(frozen=True)
class Experiment:
    name: str
    settings: dict = field(default_factory=dict)  # flag name -> string value
    config: str | None = None                     # config file path

    def argv(self) -> list[str]:
        out = ["--config", self.config] if self.config else []
        for key, value in self.settings.items():
            out += ["--" + key.replace("_", "-"), value]
        return out


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int
    experiments: tuple[Experiment, ...]
    stored_reference: bool = False  # compare against perfbench/reference/<name>.json


def program_seed(seed: int) -> str:
    """The ``--seed`` handed to the program: a 64-bit value derived from the workload seed."""
    return str(int(np.random.SeedSequence(seed).generate_state(1, np.uint64)[0]))


def write_table(path: str, seed: int, rows: int = TABLE_ROWS) -> None:
    """A jittered version of the power law above, as a ``p_k,sigma2_k`` CSV."""
    gen = np.random.default_rng(seed)
    k = np.arange(1, rows + 1, dtype=np.float64)
    p = np.minimum(1.0, 0.2 / k * gen.uniform(0.5, 1.5, rows))
    s2 = np.maximum(1.0, 20.0 * k * gen.uniform(0.5, 1.5, rows))
    with open(path, "w") as handle:
        handle.write("p_k,sigma2_k\n")
        handle.writelines(f"{a!r},{b!r}\n" for a, b in zip(p.tolist(), s2.tolist()))


def figures(root: str, seed: int, workdir: str) -> Workload:
    return Workload("figures", 1, tuple(
        Experiment(name, config=os.path.join(root, "configs", name + ".cfg"))
        for name in FIGURES), stored_reference=True)


def diagnostics(root: str, seed: int, workdir: str) -> Workload:
    common = dict(POWER_LAW, n_grid=geometric_grid(4000, 8), n="1000", reps="200",
                  seed=program_seed(seed))
    return Workload("diagnostics", 1, tuple(
        Experiment(dist, dict(common, dist=dist)) for dist in ("normal", "uniform", "laplace")))


def long_rows(root: str, seed: int, workdir: str) -> Workload:
    return Workload("long_rows", 1, (Experiment("long", dict(
        POWER_LAW, n_grid=geometric_grid(1000, 6), n="100000", reps="200",
        seed=program_seed(seed))),))


def many_short(root: str, seed: int, workdir: str) -> Workload:
    table = os.path.join(workdir, "table.csv")
    write_table(table, seed)
    return Workload("many_short", 2, (Experiment("tabular", dict(
        scheme="tabular", tabular=table, n_grid=geometric_grid(1000, 6), n="200",
        reps="150000", seed=program_seed(seed))),))


WORKLOADS = {w.__name__: w for w in (figures, diagnostics, long_rows, many_short)}
