"""Tests of the benchmark itself:  python3 -m pytest perfbench/tests"""

import hashlib
import json
import math
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import Experiment, Workload, geometric_grid, write_table  # noqa: E402

sys.path.insert(0, run.SRC)

TINY_POWER_LAW = {"scheme": "powerlaw", "p": "0.2", "a": "1", "b": "1", "s2": "20",
                  "n_grid": geometric_grid(100, 6), "n": "50", "reps": "30", "seed": "7"}


def tiny_workloads(tmp_path):
    table = str(tmp_path / "table.csv")
    write_table(table, seed=3, rows=3200)
    return [
        Workload("tiny_power", 1, (Experiment("normal", dict(TINY_POWER_LAW)),
                                   Experiment("laplace", dict(TINY_POWER_LAW, dist="laplace")))),
        Workload("tiny_table", 2, (Experiment("tabular", {
            "scheme": "tabular", "tabular": table, "n_grid": geometric_grid(100, 6),
            "n": "50", "reps": "40", "seed": "11"}),)),
    ]


def printed(out: str, workload: str) -> dict:
    """``name -> unit`` for every '<workload>: <name> = <number> <unit>' line."""
    pattern = re.compile(rf"^{workload}: (\S+) = (-?[0-9.e+-]+) (\S+)$", re.M)
    return {name: unit for name, _, unit in pattern.findall(out)}


def live_children() -> list[str]:
    """Command lines of the processes whose parent is this one."""
    found = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/stat") as handle:
                stat = handle.read()
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                cmdline = handle.read().replace(b"\0", b" ").decode()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == os.getpid():
            found.append(cmdline)
    return found


def test_smoke_prints_every_metric_with_its_unit(tmp_path, capsys):
    for workload in tiny_workloads(tmp_path):
        metrics, attempted, failed = run.end_to_end(workload, 0, str(tmp_path))
        assert (attempted, failed) == (len(workload.experiments), 0)
        run.print_metrics(workload.name, metrics)
        metrics, attempted, failed = run.traced(workload, 0, str(tmp_path), seed=0)
        assert failed == 0
        run.print_metrics(workload.name, metrics)
        shown = printed(capsys.readouterr().out, workload.name)
        expected = dict(run.E2E_METRICS, failed_frac="1", **tracing.LAYER_METRICS)
        assert shown == expected


def test_benchmark_json_matches_the_metrics_reported():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_METRICS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_perturbed_reference_yields_failures(tmp_path, monkeypatch, capsys):
    workload = tiny_workloads(tmp_path)[0]
    honest = run.traced_reference(workload, str(tmp_path / "honest"))
    perturbed = json.loads(json.dumps(honest))
    perturbed["laplace"]["s_n"] = math.nextafter(perturbed["laplace"]["s_n"], math.inf)
    monkeypatch.setattr(run, "traced_reference", lambda *args: perturbed)
    _, attempted, failed = run.end_to_end(workload, 0, str(tmp_path))
    assert failed == 1 and attempted == 2
    assert "tiny_power: failed_frac = 0.5 1" in capsys.readouterr().out
    assert live_children() == []


def test_self_times_are_never_negative(tmp_path):
    workload = tiny_workloads(tmp_path)[1]
    _, failed, tracer = tracing.traced_pass(workload, str(tmp_path), None)
    assert not failed
    names = {span[0] for span in tracer.spans}
    assert {"montecarlo.replicate", "rng.stream_generator", "model.draw"} <= names
    assert min(tracing.self_times(tracer.spans)) >= 0.0
    assert live_children() == []
    # overlapping and overhanging children are covered once, clipped to the parent
    spans = [["p", 0.0, 10.0, None, "x"], ["a", 1.0, 4.0, 0, "x"], ["b", 3.0, 6.0, 0, "x"],
             ["c", 9.0, 12.0, 0, "x"], ["d", 2.0, 3.0, 1, "x"]]
    assert tracing.self_times(spans) == [4.0, 2.0, 3.0, 3.0, 1.0]


def tree_digest(path: str) -> str:
    digest = hashlib.sha256()
    for folder, _, files in sorted(os.walk(path)):
        for name in sorted(files):
            full = os.path.join(folder, name)
            digest.update(os.path.relpath(full, path).encode())
            with open(full, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


@pytest.mark.skipif(not os.path.isdir(os.path.join(run.ROOT, "out")), reason="no out/")
def test_driver_leaves_out_byte_identical(tmp_path):
    before = tree_digest(os.path.join(run.ROOT, "out"))
    workload = run.WORKLOADS["figures"](run.ROOT, 0, str(tmp_path))
    _, attempted, failed = run.end_to_end(workload, 0, str(tmp_path))
    assert (attempted, failed) == (5, 0)
    assert tree_digest(os.path.join(run.ROOT, "out")) == before
