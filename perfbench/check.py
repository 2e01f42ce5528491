"""Correctness gate: compare the numbers an experiment reports, not its bytes.

``report_numbers`` reads the numbers the benchmark checks from an output
directory: s_n, the KS statistic, the Lindeberg index estimate and its bound,
the per-grid condition values, and the QQ points from both ``report.json``
and ``qq.csv``.  A reference is a dict of the same shape; keys an output has
but the reference lacks are ignored, so new report keys do not fail the gate.

Run this file to rebuild ``reference/figures.json`` from the committed
``out/fig*/`` outputs:  python3 perfbench/check.py
"""

from __future__ import annotations

import csv
import json
import os

from workloads import FIGURES

HERE = os.path.dirname(os.path.abspath(__file__))
FIGURES_REFERENCE = os.path.join(HERE, "reference", "figures.json")
SCALARS = ("s_n", "ks_statistic", "lindeberg_index_estimate", "lindeberg_upper_bound")


def report_numbers(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "report.json")) as handle:
        report = json.load(handle)
    numbers = {key: report[key] for key in SCALARS}
    for name, cond in report["conditions"].items():
        numbers[f"condition_{name}"] = cond["values"]
    numbers["qq_points"] = report["qq_points"]
    with open(os.path.join(out_dir, "qq.csv"), newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    numbers["qq_csv"] = [[float(x) for x in row] for row in rows]
    return numbers


def mismatches(numbers: dict, reference: dict) -> list[str]:
    """Names of the reference's numbers that the output lacks or reports differently."""
    return [key for key, want in reference.items() if numbers.get(key) != want]


def load_figures_reference() -> dict:
    with open(FIGURES_REFERENCE) as handle:
        return json.load(handle)


def freeze_figures(root: str) -> dict:
    return {name: report_numbers(os.path.join(root, "out", name)) for name in FIGURES}


if __name__ == "__main__":
    os.makedirs(os.path.dirname(FIGURES_REFERENCE), exist_ok=True)
    with open(FIGURES_REFERENCE, "w") as handle:
        json.dump(freeze_figures(os.path.dirname(HERE)), handle, separators=(",", ":"))
        handle.write("\n")
