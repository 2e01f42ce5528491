"""Benchmark a base revision against this checkout and keep the record on disk.

    python3 scripts/bench_pair.py --label streams --base HEAD~1 --workload many_short

Extracts ``--base`` with ``git archive`` into a temporary directory, then runs
each side's own ``perfbench/run.py --workload W --trace 0`` in pairs: the
command and ``--seconds`` come from ``BENCHMARK.json``, both sides of a pair
get the same seed, and the side that goes first alternates.  A run that is
not ``correct``, or that fails more operations than its base, stops the
script before anything is written.

``BENCH_<label>.json`` at the repository root names the base and the change
commit.  Per workload it holds every run's ``machine:`` line and result JSON,
each side's median and first and third quartiles of every metric, and how
many pairs the change won per metric (lower is better for all of them), so a
claimed gain can be read off it: the pairs won, and the gap between the
medians against the base's interquartile range.  Per end-to-end metric of
``BENCHMARK.json`` it also records whether the change's median is within
that metric's relative ``bound`` of the base's: the no-regression check.  A
later invocation with the same label adds its workload, or its pairs to a
workload already there, and refuses to write into a file that names other
revisions.  The change side must be committed: tracked files other than
``BENCH_*.json`` may not have uncommitted edits.

Both sides inherit this script's environment, so it refuses to run while any
``OPENBLAS_*``, ``GOTO_*`` or ``OMP_*`` variable is set: such a setting
would override what either side's CLI chooses for its BLAS threads, hiding a
change to that choice or moving the bits of the BLAS dot products.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", ROOT, *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def run_side(root: str, command: list, workload: str, seed: int, seconds: float) -> dict:
    """One ``--trace 0`` benchmark run of the tree at ``root``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"], cwd=root, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench in {root} failed ({proc.returncode}):\n{proc.stderr}")
    machine = next(json.loads(line.split(":", 1)[1]) for line in lines
                   if line.startswith("machine: "))
    return {"machine": machine, "result": json.loads(lines[-1])}


def check_pair(pair: dict) -> None:
    base, change = pair["base"]["result"], pair["change"]["result"]
    if not (base["correct"] and change["correct"]) or change["failed"] > base["failed"]:
        raise RuntimeError(f"seed {pair['seed']}: base failed {base['failed']} of "
                           f"{base['attempted']}, change failed {change['failed']} of "
                           f"{change['attempted']}; no record written")


def value(pair: dict, side: str, name: str) -> float:
    return pair[side]["result"]["metrics"][name]["value"]


def quartiles(values: list) -> list:
    """First and third quartile, interpolated between order statistics."""
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summary(pairs: list[dict]) -> tuple[dict, dict, dict]:
    """Per side, the median and the [first, third] quartiles of each metric;
    per metric, the pairs the change won."""
    names = pairs[0]["base"]["result"]["metrics"]
    series = {side: {name: [value(p, side, name) for p in pairs] for name in names}
              for side in ("base", "change")}
    medians = {side: {name: statistics.median(v) for name, v in metrics.items()}
               for side, metrics in series.items()}
    spreads = {side: {name: quartiles(v) for name, v in metrics.items()}
               for side, metrics in series.items()}
    wins = {name: sum(value(p, "change", name) < value(p, "base", name) for p in pairs)
            for name in names}
    return medians, spreads, wins


def within_bounds(medians: dict, end_to_end: list[dict]) -> dict:
    """Per end-to-end metric, whether the change's median is no worse than the
    base's by more than the metric's bound, a fraction of the base's median."""
    out = {}
    for metric in end_to_end:
        base, change = (medians[side][metric["name"]] for side in ("base", "change"))
        worse = change - base if metric["better"] == "lower" else base - change
        out[metric["name"]] = worse <= metric["bound"] * abs(base)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="names the file BENCH_<label>.json")
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True, help="a perfbench workload name")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of the file's first pair")
    args = parser.parse_args(argv)
    preset = sorted(name for name in os.environ
                    if name.startswith(("OPENBLAS_", "GOTO_", "OMP_")))
    if preset:
        parser.error(f"unset {', '.join(preset)}: both sides inherit it, and it overrides "
                     "the BLAS thread settings the benchmarked code chooses")
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    if git("status", "--porcelain", "--untracked-files=no", "--", ".", ":!BENCH_*.json"):
        parser.error("commit the change first: tracked files have uncommitted edits")
    revisions = {"base": git("rev-parse", "--verify", args.base + "^{commit}"),
                 "change": git("rev-parse", "HEAD")}
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    record = {"label": args.label, **revisions, "workloads": {}}
    if os.path.exists(path):
        with open(path) as handle:
            record = json.load(handle)
        if {side: record[side] for side in revisions} != revisions:
            parser.error(f"{path} records base {record['base']} and change "
                         f"{record['change']}; use another label")
    entry = record["workloads"].setdefault(args.workload, {
        "run_seconds": benchmark["run_seconds"], "pairs": []})
    if entry["run_seconds"] != benchmark["run_seconds"]:
        parser.error(f"{path} ran {args.workload} for {entry['run_seconds']} s, "
                     f"BENCHMARK.json now says {benchmark['run_seconds']} s")
    pairs = entry["pairs"]

    with tempfile.TemporaryDirectory(prefix="bench-base-") as base_root:
        archive = subprocess.run(["git", "-C", ROOT, "archive", revisions["base"]],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", base_root], input=archive, check=True)
        for number in range(len(pairs), len(pairs) + args.pairs):
            seed = args.seed + number
            order = ("base", "change") if number % 2 == 0 else ("change", "base")
            pair = {"seed": seed, "order": list(order)}
            for side in order:
                pair[side] = run_side(base_root if side == "base" else ROOT,
                                      benchmark["command"], args.workload, seed,
                                      entry["run_seconds"])
            check_pair(pair)
            pairs.append(pair)
            print(f"{args.workload}: pair {number + 1}: " + ", ".join(
                f"{name} {value(pair, 'base', name):.4g} -> {value(pair, 'change', name):.4g}"
                for name in pair["base"]["result"]["metrics"]), flush=True)

    entry["medians"], entry["quartiles"], entry["change_wins"] = summary(pairs)
    entry["within_bound"] = within_bounds(entry["medians"], benchmark["end_to_end"])
    with open(path + ".part", "w") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")
    os.replace(path + ".part", path)
    print(json.dumps({"workload": args.workload, "pairs": len(pairs),
                      "medians": entry["medians"], "quartiles": entry["quartiles"],
                      "change_wins": entry["change_wins"],
                      "within_bound": entry["within_bound"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
