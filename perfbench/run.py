"""contamclt benchmark driver.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 25 --trace 0

Runs one workload (or ``all``) from this process.  With ``--trace 0`` it
measures end-to-end: every pass starts one fresh ``python -m contamclt.cli``
process per experiment, one after another, with ``--workers`` pinned and
outputs in a temporary directory under ``.bench_out/``.  Passes repeat while
the next one is expected to end within ``--seconds``; times are medians over
passes.  With ``--trace 1`` it runs the traced in-process pipeline instead
(see ``tracing.py``) and reports the per-layer metrics.  Every output number
is checked against a reference (see ``check.py``).  The last line of standard
output is a JSON object with the keys correct, attempted, failed, metrics.
See README.md for the workloads, the metrics and the baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from check import load_figures_reference, mismatches, report_numbers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# End-to-end metrics and units.  failed_frac is printed but kept out of the
# result's metrics: it is 0 on a correct program, and the result carries the
# same fact as ``failed`` / ``attempted``.
E2E_METRICS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
SETUP_REPEATS = 5


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], stderr_path: str) -> tuple[int, float]:
    """Run the interpreter with ``argv``; return its exit code and max RSS in MB
    (the largest of the process and the children it waited for)."""
    with open(stderr_path, "w") as err:
        proc = subprocess.Popen([sys.executable] + argv, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def measure_setup(workdir: str) -> float:
    """Median time for a fresh interpreter to import contamclt.cli."""
    times, err = [], os.path.join(workdir, "setup.err")
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        code, _ = run_child(["-c", "import contamclt.cli"], err)
        times.append(perf_counter() - start)
        if code != 0:
            with open(err) as handle:
                raise RuntimeError("importing contamclt.cli failed: " + handle.read())
    return statistics.median(times)


def cpu_children() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def repeat(seconds: float):
    """Pass numbers 1, 2, ...: always one pass, then another while the mean
    pass time says it will end within ``seconds`` of the first pass's start."""
    start, number = perf_counter(), 1
    yield number
    while (perf_counter() - start) * (number + 1) / number <= seconds:
        number += 1
        yield number


def cli_pass(workload, workdir: str, reference: dict) -> dict:
    """One pass: each experiment in a fresh CLI process, then its numbers checked."""
    out_dirs, codes, rss = {}, {}, []
    os.makedirs(os.path.join(workdir, "pass"))
    cpu0, start = cpu_children(), perf_counter()
    for experiment in workload.experiments:
        out_dir = out_dirs[experiment.name] = os.path.join(workdir, "pass", experiment.name)
        argv = ["-m", "contamclt.cli"] + experiment.argv() + [
            "--workers", str(workload.workers), "--out", out_dir]
        codes[experiment.name], maxrss = run_child(argv, out_dir + ".err")
        rss.append(maxrss)
    wall, cpu = perf_counter() - start, cpu_children() - cpu0
    failed = []
    for name, out_dir in out_dirs.items():
        try:
            bad = codes[name] != 0 or mismatches(report_numbers(out_dir), reference[name])
        except (OSError, ValueError, KeyError):
            bad = True
        if bad:
            failed.append(name)
    shutil.rmtree(os.path.join(workdir, "pass"))
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": max(rss), "failed": failed}


def traced_reference(workload, workdir: str) -> dict:
    """Numbers of the traced pipeline at workers=1, per experiment.

    It runs in a fresh interpreter: a child started by this process inherits
    this process's peak RSS in its ru_maxrss, so this process must stay small.
    """
    from tracing import in_fresh_interpreter

    return in_fresh_interpreter("reference", workload.experiments, workdir)


def end_to_end(workload, seconds: float, workdir: str) -> tuple[dict, int, int]:
    setup_s = measure_setup(workdir)
    reference = (load_figures_reference() if workload.stored_reference
                 else traced_reference(workload, workdir))
    passes = []
    for number in repeat(seconds):
        passes.append(cli_pass(workload, workdir, reference))
        print(f"{workload.name}: pass {number}: " + ", ".join(
            f"{name} {passes[-1][name]:.4f}" for name in ("wall_s", "cpu_s", "peak_rss_mb")))
    attempted = len(passes) * len(workload.experiments)
    failed = sum(len(p["failed"]) for p in passes)
    metrics = {"setup_s": setup_s}
    for name in ("wall_s", "cpu_s", "peak_rss_mb"):
        metrics[name] = statistics.median(p[name] for p in passes)
    print(f"{workload.name}: passes = {len(passes)}, experiments per pass = "
          f"{len(workload.experiments)}, workers = {workload.workers}")
    print(f"{workload.name}: failed_frac = {failed / attempted} 1")
    return {name: (value, E2E_METRICS[name]) for name, value in metrics.items()}, \
        attempted, failed


def traced(workload, seconds: float, workdir: str, seed: int) -> tuple[dict, int, int]:
    from tracing import LAYER_METRICS, summarize, traced_pass, write_spans

    reference = load_figures_reference() if workload.stored_reference else None
    passes, tracers, failed = [], [], 0
    for number in repeat(seconds):
        metrics, bad, tracer = traced_pass(workload, os.path.join(workdir, f"t{number}"),
                                           reference)
        passes.append(metrics)
        tracers.append(tracer)
        failed += len(bad)
    metrics, counts_repeat = summarize(passes)
    if not counts_repeat:
        print(f"{workload.name}: count metrics differ between passes", file=sys.stderr)
        failed += 1
    attempted = len(passes) * len(workload.experiments)
    write_spans(os.path.join(ROOT, ".bench_out", "trace", f"{workload.name}-seed{seed}.jsonl.gz"),
                tracers)
    print(f"{workload.name}: traced passes = {len(passes)}, spans = "
          f"{sum(len(t.spans) for t in tracers)}")
    return {name: (metrics[name], unit) for name, unit in LAYER_METRICS.items()}, \
        attempted, failed


def print_metrics(workload: str, metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{workload}: {name} = {value} {unit}")


def machine_facts() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def loadavg() -> str | None:
    try:
        with open("/proc/loadavg") as handle:
            return handle.read().strip()
    except OSError:
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not os.path.isfile(os.path.join(SRC, "contamclt", "cli.py")) or not all(
            os.path.isfile(os.path.join(ROOT, "configs", f"fig{i}.cfg")) for i in range(1, 6)):
        print(f"error: no contamclt sources and configs under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    facts = machine_facts()
    facts["loadavg_start"] = loadavg()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=os.path.join(ROOT, ".bench_out"))
    results, attempted, failed = {}, 0, 0
    try:
        for name in names:
            scratch = os.path.join(workdir, name)
            os.makedirs(scratch)
            workload = WORKLOADS[name](ROOT, args.seed, scratch)
            if args.trace:
                metrics, n, bad = traced(workload, args.seconds, scratch, args.seed)
            else:
                metrics, n, bad = end_to_end(workload, args.seconds, scratch)
            attempted, failed = attempted + n, failed + bad
            print_metrics(name, metrics)
            for metric, (value, unit) in metrics.items():
                key = metric if len(names) == 1 else f"{name}.{metric}"
                results[key] = {"value": value, "unit": unit}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    facts["loadavg_end"] = loadavg()
    print("machine: " + json.dumps(facts))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
