"""The traced run: the experiment pipeline in-process, with spans per layer.

Spans are recorded from the benchmark's side, by replacing the program's
public functions with timing wrappers for the length of a traced call.  A
span is ``[name, start, end, parent, experiment]``; spans are kept in memory
and written once, when the benchmark exits.  A span's self time is its
duration minus the part of its interval that its child spans cover.

One traced pass over a workload runs, per experiment:

* the diagnostic calls in a fresh interpreter, for the peak RSS
  growth they cause (``tracemalloc`` would slow them more than tenfold,
  because the exact sums allocate one Python float per grid element);
* a light run: ``run_experiment`` at workers=1 with only ``replicate``
  timed, which gives ``experiment.run_s`` and the workers=1 replicate time;
* a full run at workers=1 with every wrapper installed; its outputs are the
  reference for the end-to-end runs of the seeded workloads;
* a direct ``replicate`` call at the workload's worker count, when that is
  more than one.
"""

from __future__ import annotations

import gzip
import json
import os
import statistics
import subprocess
import sys
import tempfile
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict
from time import perf_counter

from check import mismatches, report_numbers
from workloads import Experiment

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# (module, function, span name) for every call the full run times.
SPANS = (
    ("analytic", "condition_a", "analytic.condition_a"),
    ("analytic", "condition_b", "analytic.condition_b"),
    ("analytic", "condition_c", "analytic.condition_c"),
    ("analytic", "lindeberg_index_estimate", "analytic.index_estimate"),
    ("analytic", "lindeberg_upper_bound", "analytic.upper_bound"),
    ("analytic", "kolmogorov_distance_to_normal", "analytic.ks"),
    ("montecarlo", "replicate", "montecarlo.replicate"),
    ("montecarlo", "qq_points", "montecarlo.qq"),
    ("rng", "stream_generator", "rng.stream_generator"),
    ("model", "draw_centered_row", "model.draw"),
    ("experiment", "emit_csv", "experiment.emit_csv"),
    ("experiment", "emit_svg", "experiment.emit_svg"),
    ("experiment", "emit_json", "experiment.emit_json"),
    ("experiment", "load_tabular_scheme", "experiment.load_tabular"),
)
CONDITIONS = ("analytic.condition_a", "analytic.condition_b", "analytic.condition_c")
EMITTERS = ("experiment.emit_csv", "experiment.emit_svg", "experiment.emit_json")

# Per-layer metrics and their units, in the order they are printed.
LAYER_METRICS = {
    "rng.stream_setup_s": "s", "rng.streams": "count",
    "model.draw_s": "s", "model.obs_drawn": "count",
    "model.weights_calls": "count", "model.weights_elems": "count",
    "analytic.conditions_s": "s", "analytic.index_estimate_s": "s",
    "analytic.upper_bound_s": "s", "analytic.peak_alloc_mb": "MB", "analytic.ks_s": "s",
    "montecarlo.qq_s": "s", "montecarlo.replicate_s": "s",
    "montecarlo.replicate_self_s": "s", "montecarlo.obs_per_s": "1/s",
    "montecarlo.parallel_eff": "ratio",
    "experiment.run_s": "s", "experiment.self_s": "s", "experiment.emit_s": "s",
    "experiment.bytes_out": "B", "experiment.load_tabular_s": "s",
    "cli.config_s": "s", "trace.overhead_s": "s",
}
# Counts that must repeat exactly between passes and runs.
COUNTS = ("rng.streams", "model.obs_drawn", "model.weights_calls",
          "model.weights_elems", "experiment.bytes_out")


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.experiment: str | None = None
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, self.experiment])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = perf_counter()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name: str, fn, count=None):
        """``fn`` inside a span; ``count(counts, result)`` runs inside it too."""
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(self.counts, result)
                return result
            finally:
                self._close(index)
        return traced

    def total(self, *names: str) -> float:
        return sum(end - start for name, start, end, _, _ in self.spans if name in names)

    def self_total(self, name: str) -> float:
        return sum(t for span, t in zip(self.spans, self_times(self.spans)) if span[0] == name)


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for index, (_, start, end, parent, _) in enumerate(spans):
        if parent is not None:
            children[parent].append((start, end))
    covered = [0.0] * len(spans)
    for parent, intervals in children.items():
        lo, hi = spans[parent][1], spans[parent][2]
        intervals.sort()
        total, run_start, run_end = 0.0, None, None
        for start, end in intervals:
            start, end = max(start, lo), min(end, hi)
            if end <= start:
                continue
            if run_end is None or start > run_end:
                if run_end is not None:
                    total += run_end - run_start
                run_start, run_end = start, end
            else:
                run_end = max(run_end, end)
        if run_end is not None:
            total += run_end - run_start
        covered[parent] = total
    return [end - start - cover for (_, start, end, _, _), cover in zip(spans, covered)]


@contextmanager
def patched(replacements: dict):
    """Point every reference to an original function in the program's modules
    (module globals and dispatch dicts alike) at its replacement."""
    by_id = {id(original): new for original, new in replacements.items()}
    undo = []
    modules = [m for name, m in list(sys.modules.items())
               if name == "contamclt" or name.startswith("contamclt.")]
    for module in modules:
        for key, value in list(vars(module).items()):
            if id(value) in by_id:
                undo.append((vars(module), key, value))
                setattr(module, key, by_id[id(value)])
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if id(v) in by_id:
                        undo.append((value, k, v))
                        value[k] = by_id[id(v)]
    try:
        yield
    finally:
        for namespace, key, value in reversed(undo):
            namespace[key] = value


def _count_obs(counts: Counter, row) -> None:
    counts["model.obs_drawn"] += row.size


@contextmanager
def instrumented(tracer: Tracer, full: bool = True):
    """Install the wrappers: every one in SPANS plus the ``weights`` counters
    when ``full``, else only the one around ``replicate``."""
    from contamclt import model

    replacements = {}
    for module_name, func, span in SPANS:
        if full or span == "montecarlo.replicate":
            original = getattr(sys.modules["contamclt." + module_name], func)
            count = _count_obs if span == "model.draw" else None
            replacements[original] = tracer.wrap(span, original, count)
    weights = model.ContaminationScheme.weights

    def counted_weights(self, *args, **kwargs):
        p, s2 = weights(self, *args, **kwargs)
        tracer.counts["model.weights_calls"] += 1
        tracer.counts["model.weights_elems"] += p.size
        return p, s2

    with patched(replacements):
        if full:
            model.ContaminationScheme.weights = counted_weights
        try:
            yield
        finally:
            model.ContaminationScheme.weights = weights


def configure(experiment, out_dir: str, workers: int):
    """The CLI's settings path: config file, then flags, then validation."""
    from contamclt.cli import config_from_settings, read_config_file

    settings = read_config_file(experiment.config) if experiment.config else {}
    settings.update(experiment.settings, out=out_dir, workers=str(workers))
    return config_from_settings(settings).validated()


def run_traced(experiment, out_dir: str, tracer: Tracer, full: bool = True):
    """Configure and run one experiment in-process at workers=1 under ``tracer``."""
    from contamclt.experiment import run_experiment

    tracer.experiment = experiment.name
    with instrumented(tracer, full):
        with tracer.span("cli.config"):
            config = configure(experiment, out_dir, 1)
        with tracer.span("experiment.run_experiment"):
            run_experiment(config)
    return config


def diagnose(config) -> None:
    """The diagnostic calls that ``run_experiment`` makes, untraced."""
    from contamclt.analytic import (condition_a, condition_b, condition_c,
                                    lindeberg_index_estimate, lindeberg_upper_bound)
    from contamclt.model import base_distribution

    for condition in (condition_a, condition_b, condition_c):
        condition(config.scheme, config.n_grid)
    lindeberg_index_estimate(config.scheme, base_distribution(config.dist),
                             config.n_grid, config.eps_grid)
    lindeberg_upper_bound(config.scheme, config.n_grid)


def _peak_rss_kb() -> int:
    # VmHWM belongs to the current address space, so unlike ru_maxrss it does
    # not carry over the parent's peak through fork and exec.
    with open("/proc/self/status") as handle:
        return next(int(line.split()[1]) for line in handle if line.startswith("VmHWM:"))


def _rss_growth_mb(experiment) -> float:
    config = configure(experiment, "unused", 1)
    before = _peak_rss_kb()
    diagnose(config)
    return (_peak_rss_kb() - before) / 1024.0


def peak_alloc_mb(experiment, workdir: str) -> float:
    """Peak RSS growth of a fresh interpreter over one experiment's diagnostic calls."""
    return in_fresh_interpreter("rss", [experiment], workdir)


def reference_numbers(experiments, workdir: str) -> dict:
    """Numbers of the traced pipeline at workers=1, per experiment."""
    reference = {}
    for experiment in experiments:
        out_dir = os.path.join(workdir, "reference", experiment.name)
        run_traced(experiment, out_dir, Tracer())
        reference[experiment.name] = report_numbers(out_dir)
    return reference


TASKS = {
    "rss": lambda experiments, workdir: _rss_growth_mb(experiments[0]),
    "reference": reference_numbers,
}


def in_fresh_interpreter(task: str, experiments, workdir: str):
    """Run ``TASKS[task]`` in a fresh interpreter (this file run as a script)
    and return its result.  The call waits for the child to end, on every path."""
    os.makedirs(workdir, exist_ok=True)
    fd, result = tempfile.mkstemp(prefix=task + "-", suffix=".json", dir=workdir)
    os.close(fd)
    request = {"task": task, "experiments": [asdict(e) for e in experiments],
               "workdir": workdir, "result": result}
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    subprocess.run([sys.executable, os.path.abspath(__file__)], input=json.dumps(request),
                   text=True, env=env, stdout=subprocess.DEVNULL, check=True)
    with open(result) as handle:
        answer = json.load(handle)
    os.remove(result)
    return answer


def directory_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


def traced_pass(workload, workdir: str, reference: dict | None) -> tuple[dict, list, Tracer]:
    """One traced pass over a workload: per-layer metrics, the names of
    experiments whose numbers disagree, and the full run's tracer."""
    from contamclt.model import base_distribution
    from contamclt.montecarlo import replicate

    full, light = Tracer(), Tracer()
    failed, bytes_out, peaks, direct_s = [], 0, [], 0.0
    for experiment in workload.experiments:
        light_dir = os.path.join(workdir, experiment.name + "-light")
        full_dir = os.path.join(workdir, experiment.name + "-full")
        peaks.append(peak_alloc_mb(experiment, workdir))
        # Whichever run makes an experiment's diagnostic calls first in this
        # process is slower; take that cost here, untimed.
        diagnose(configure(experiment, light_dir, 1))
        run_traced(experiment, light_dir, light, full=False)
        config = run_traced(experiment, full_dir, full)
        numbers = report_numbers(full_dir)
        bytes_out += directory_bytes(full_dir)
        want = reference[experiment.name] if reference else report_numbers(light_dir)
        ok = not mismatches(numbers, want)
        if workload.workers > 1:
            start = perf_counter()
            result = replicate(config.reps, config.n, config.scheme,
                               base_distribution(config.dist), config.mu, config.seed,
                               workers=workload.workers)
            direct_s += perf_counter() - start
            ok = ok and (result.ks_statistic, result.s_n) == (
                numbers["ks_statistic"], numbers["s_n"])
        if not ok:
            failed.append(experiment.name)

    w1_s = light.total("montecarlo.replicate")
    replicate_s = direct_s if workload.workers > 1 else w1_s
    metrics = {
        "rng.stream_setup_s": full.total("rng.stream_generator"),
        "rng.streams": sum(1 for span in full.spans if span[0] == "rng.stream_generator"),
        "model.draw_s": full.total("model.draw"),
        "model.obs_drawn": full.counts["model.obs_drawn"],
        "model.weights_calls": full.counts["model.weights_calls"],
        "model.weights_elems": full.counts["model.weights_elems"],
        "analytic.conditions_s": full.total(*CONDITIONS),
        "analytic.index_estimate_s": full.total("analytic.index_estimate"),
        "analytic.upper_bound_s": full.total("analytic.upper_bound"),
        "analytic.peak_alloc_mb": max(peaks),
        "analytic.ks_s": full.total("analytic.ks"),
        "montecarlo.qq_s": full.total("montecarlo.qq"),
        "montecarlo.replicate_s": replicate_s,
        "montecarlo.replicate_self_s": full.self_total("montecarlo.replicate"),
        "montecarlo.obs_per_s": full.counts["model.obs_drawn"] / replicate_s,
        "montecarlo.parallel_eff": w1_s / (workload.workers * replicate_s),
        "experiment.run_s": light.total("experiment.run_experiment"),
        "experiment.self_s": full.self_total("experiment.run_experiment"),
        "experiment.emit_s": full.total(*EMITTERS),
        "experiment.bytes_out": bytes_out,
        "experiment.load_tabular_s": full.total("experiment.load_tabular"),
        "cli.config_s": full.total("cli.config"),
        "trace.overhead_s": (full.total("experiment.run_experiment")
                             - light.total("experiment.run_experiment")),
    }
    return metrics, failed, full


def summarize(passes: list[dict]) -> tuple[dict, bool]:
    """Median of each metric over the passes; and whether every count repeated."""
    medians = {name: statistics.median(p[name] for p in passes) for name in LAYER_METRICS}
    return medians, all(p[name] == passes[0][name] for p in passes for name in COUNTS)


def write_spans(path: str, tracers: list[Tracer]) -> None:
    """Write every pass's spans as JSON lines: pass, name, start, end, parent, experiment."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with gzip.open(path, "wt", compresslevel=1) as handle:
        for number, tracer in enumerate(tracers):
            for span in tracer.spans:
                handle.write(json.dumps([number] + span) + "\n")


if __name__ == "__main__":
    request = json.load(sys.stdin)
    answer = TASKS[request["task"]]([Experiment(**e) for e in request["experiments"]],
                                    request["workdir"])
    with open(request["result"], "w") as handle:
        json.dump(answer, handle)
